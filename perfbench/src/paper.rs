//! `paper`: repeated passes of the paper pipeline — Table 1 measured on the
//! CPU simulator, the TAM matmul and Gamteb runs, the off-chip / feature /
//! queue sweeps, and the two Figure-12 expansions. One pass is one timed
//! chunk; the traced pass also times each call.

use tcni_eval::figure12::Figure12;
use tcni_eval::handlers::{sending, SendKind};
use tcni_eval::harness::Ctx;
use tcni_eval::{paper, sweep, table1::Table1};
use tcni_sim::Model;
use tcni_tam::programs::{gamteb, matmul};
use tcni_tam::TamMachine;

use crate::{median, repeat, timed, Chunks, Digest, Outcome, RunConfig, SetupProbe};

/// Matrix dimension and TAM node count of the matmul panel.
const MATMUL_N: usize = 100;
const NODES: usize = 64;
/// The TAM machine seed `matmul::run` uses.
const MATMUL_SEED: u64 = 0x5EED;
/// Gamteb batches and seed of the paper's right panel.
const GAMTEB_BATCHES: u32 = 16;
const GAMTEB_SEED: u64 = 0x6A3;
/// Passes every untraced run makes, whatever the host speed.
const MIN_PASSES: usize = 40;
/// `tcni_bench::agreement` of the measured Table 1 when this benchmark was
/// written: `(exact, within one cycle)` cells. A pass that falls below
/// either count fails the `eval.agreement` check.
const SEED_AGREEMENT: (usize, usize) = (58, 78);

struct Sizes {
    matmul_n: usize,
    batches: u32,
}

/// Per-call spans of one traced pass, in seconds.
#[derive(Default)]
struct Spans {
    table1: f64,
    matmul: f64,
    gamteb: f64,
    sweeps: f64,
    figure12: f64,
}

impl Spans {
    fn sum(&self) -> f64 {
        self.table1 + self.matmul + self.gamteb + self.sweeps + self.figure12
    }
}

struct Pass {
    wall_s: f64,
    spans: Option<Spans>,
    digest: u64,
    /// Modelled opt-reg execution cycles of the two Figure-12 programs.
    sim_cycles: f64,
    matmul_wrong: u64,
    gamteb_lost: u64,
    agreement: (usize, usize),
    crossovers: u64,
}

/// Runs `f`, storing its host seconds in `span` when tracing.
fn span<T>(traced: bool, span: &mut f64, f: impl FnOnce() -> T) -> T {
    if traced {
        let (v, s) = timed(f);
        *span = s;
        v
    } else {
        f()
    }
}

fn pass(sizes: &Sizes, reference: &[f32], traced: bool) -> Pass {
    let mut sp = Spans::default();
    let ((table, mm, gt, sweeps, figs), wall_s) = timed(|| {
        let table = span(traced, &mut sp.table1, Table1::measure);
        let mm = span(traced, &mut sp.matmul, || {
            matmul::run(sizes.matmul_n, NODES).expect("matmul runs")
        });
        let gt = span(traced, &mut sp.gamteb, || {
            gamteb::run(sizes.batches, NODES, GAMTEB_SEED).expect("gamteb runs")
        });
        let sweeps = span(traced, &mut sp.sweeps, || {
            (
                sweep::offchip_sweep(&mm.counts, &[2, 4, 6, 8]),
                sweep::feature_ablation(&mm.counts),
                sweep::queue_sweep(&[2, 4, 8, 16]),
            )
        });
        let figs = span(traced, &mut sp.figure12, || {
            [
                Figure12::from_counts("matmul", mm.counts, &table.models),
                Figure12::from_counts("gamteb", gt.counts, &table.models),
            ]
        });
        (table, mm, gt, sweeps, figs)
    });

    let mut d = Digest::default();
    d.debug(&table.models);
    d.debug(&mm.counts);
    for v in &mm.c {
        d.word(u64::from(v.to_bits()));
    }
    d.debug(&(gt.counts, gt.absorbed, gt.escaped));
    d.debug(&sweeps);
    for f in &figs {
        d.debug(&f.bars);
    }
    let (exact, close, _) = tcni_bench::agreement(&table, &paper::published());
    Pass {
        wall_s,
        spans: traced.then_some(sp),
        digest: d.value(),
        sim_cycles: figs.iter().map(|f| f.bars[0].total()).sum(),
        matmul_wrong: mm.c.iter().zip(reference).filter(|(a, b)| a != b).count() as u64
            + mm.c.len().abs_diff(reference.len()) as u64,
        gamteb_lost: u64::from(gt.total.abs_diff(gt.absorbed + gt.escaped)),
        agreement: (exact, close),
        crossovers: figs.iter().filter(|f| f.headline().crossover_holds).count() as u64,
    }
}

/// Builds the programs a pass runs: the Table-1 sending handlers of every
/// model, and the two TAM programs with a machine each and its main
/// activation spawned. `Table1::measure`, `matmul::run` and `gamteb::run`
/// build their own inside the timed calls, so this is a set-up probe of the
/// same constructors.
fn build_programs(sizes: &Sizes) {
    for model in Model::ALL_SIX {
        let ctx = Ctx::from_model(model);
        for kind in SendKind::ALL {
            for best in [false, true] {
                std::hint::black_box(sending::program(ctx, kind, best));
            }
        }
    }
    for (program, seed) in [
        (matmul::build(sizes.matmul_n), MATMUL_SEED),
        (gamteb::build(sizes.batches), GAMTEB_SEED),
    ] {
        let main = program.lookup("main").expect("main exists");
        let mut machine = TamMachine::new(program, NODES, seed);
        std::hint::black_box(machine.spawn_main(main));
        std::hint::black_box(machine);
    }
}

/// Runs `paper`. Its inputs are the paper's fixed programs; the seed is
/// recorded but changes nothing.
pub fn run(cfg: &RunConfig) -> Outcome {
    let sizes = if cfg.smoke {
        Sizes {
            matmul_n: 8,
            batches: 1,
        }
    } else {
        Sizes {
            matmul_n: MATMUL_N,
            batches: GAMTEB_BATCHES,
        }
    };
    let min_passes = if cfg.smoke { 2 } else { MIN_PASSES };
    let mut out = Outcome::default();
    let mut probe = SetupProbe::new(|| build_programs(&sizes));
    let mut setups = Vec::new();
    let reference = matmul::reference(sizes.matmul_n);

    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min = if cfg.trace { 2 } else { min_passes };
    repeat(cfg.seconds, min, |i| {
        setups.push(probe.sample());
        if cfg.trace && i % 2 == 1 {
            traced.push(pass(&sizes, &reference, true));
        } else {
            plain.push(pass(&sizes, &reference, false));
        }
    });

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let wall = median(&walls);
    out.notes
        .push(format!("wall_s per repetition: {walls:.4?}"));
    out.setup(&setups);
    out.metric("wall_s", wall);
    out.metric("sim_cycles_per_s", plain[0].sim_cycles / wall);
    let mut chunks = Chunks::default();
    for &w in &walls {
        chunks.push_s(w);
    }
    chunks.report(&mut out, min_passes, "one pass");

    if !traced.is_empty() {
        let med = |f: &dyn Fn(&Spans) -> f64| {
            median(
                &traced
                    .iter()
                    .filter_map(|p| p.spans.as_ref().map(f))
                    .collect::<Vec<_>>(),
            )
        };
        out.metric("eval.table1_s", med(&|s| s.table1));
        out.metric("eval.sweeps_s", med(&|s| s.sweeps));
        out.metric("tam.matmul_s", med(&|s| s.matmul));
        out.metric("tam.gamteb_s", med(&|s| s.gamteb));
        out.metric("eval.figure12_s", med(&|s| s.figure12));
        let traced_wall = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        out.metric("trace.overhead", traced_wall / wall);
        out.notes.push(format!(
            "trace.overhead: traced wall_s {traced_wall:.6} s vs untraced {wall:.6} s"
        ));
    }

    let all = || plain.iter().chain(&traced);
    let n = all().count() as u64;
    out.check(
        "tam.matmul_equals_reference",
        n * reference.len() as u64,
        all().map(|p| p.matmul_wrong).sum(),
        true,
    );
    out.check(
        "tam.gamteb_photons",
        n * u64::from(sizes.batches * gamteb::PHOTONS_PER_BATCH),
        all().map(|p| p.gamteb_lost).sum(),
        true,
    );
    let (exact, close) = SEED_AGREEMENT;
    out.check(
        "eval.agreement",
        n,
        all()
            .filter(|p| p.agreement.0 < exact || p.agreement.1 < close)
            .count() as u64,
        true,
    );
    out.check(
        "eval.crossover_holds",
        2 * n,
        2 * n - all().map(|p| p.crossovers).sum::<u64>(),
        true,
    );
    out.notes.push(format!(
        "paper: matmul {0}x{0} and gamteb {1} batches on {NODES} nodes, agreement {2}/{3} (exact/within one cycle; floor {exact}/{close}), {4} untraced + {5} traced passes",
        sizes.matmul_n,
        sizes.batches,
        plain[0].agreement.0,
        plain[0].agreement.1,
        plain.len(),
        traced.len()
    ));
    let digests: Vec<u64> = all().map(|p| p.digest).collect();
    let coverage: Vec<f64> = traced
        .iter()
        .filter_map(|p| p.spans.as_ref().map(|s| s.sum() / p.wall_s))
        .collect();
    out.finish(&digests, &coverage);
    out
}
