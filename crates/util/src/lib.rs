//! # tcni-util — thread-count resolution and the scoped parallel map
//!
//! The one place the workspace reads and clamps `TCNI_THREADS`, and the one
//! place it spawns worker threads. The evaluation pipeline (`tcni-eval`, the
//! bench bins and `loadgen`) fans independent measurements — Table-1 cells,
//! sweep points, seeds, models — out with [`par::par_map`]. A single
//! machine always steps serially: its cycle phases are microseconds long,
//! so parallelism pays only across whole, independent runs.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod par;
