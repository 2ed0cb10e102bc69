//! Scoped-thread parallel map — re-exported from [`tcni_util::par`], the
//! workspace's single threading substrate.
//!
//! Every Table-1 cell, sweep point, and ablation row is an independent pure
//! measurement: a private CPU + interface + memory simulated to completion.
//! [`par_map`] fans those out over a shared work queue so the full pipeline
//! scales with cores, while preserving output order.
//!
//! The implementation (thread-count resolution from `TCNI_THREADS` and the
//! scoped map) lives in `tcni-util`, the one place the workspace resolves
//! the thread count; this module remains as the evaluation pipeline's
//! import path.

pub use tcni_util::par::{par_map, par_map_array, set_threads, threads};
