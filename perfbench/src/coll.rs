//! `coll16_storm`: back-to-back barrier and sum rounds on a 16×16 mesh, each
//! in NIC-combining mode and in software mode, one `run_coll_point` call per
//! point. One pass runs the four points and is one timed chunk.

use tcni_core::CollectiveOp;
use tcni_net::{CombiningTree, FabricConfig};
use tcni_sim::MachineBuilder;
use tcni_workload::{run_coll_point, CollMode, CollPoint, CollStormConfig, Topology};

use crate::{median, repeat, timed, Chunks, Digest, Outcome, RunConfig, SetupProbe};

const SIDE: usize = 16;
/// Rounds each point completes.
const ROUNDS: u32 = 4;
/// Passes every untraced run makes, whatever the host speed.
const MIN_PASSES: usize = 40;

const POINTS: [(CollMode, CollectiveOp); 4] = [
    (CollMode::Nic, CollectiveOp::Barrier),
    (CollMode::Soft, CollectiveOp::Barrier),
    (CollMode::Nic, CollectiveOp::Sum),
    (CollMode::Soft, CollectiveOp::Sum),
];

struct Pass {
    /// Host seconds of each point's call, in [`POINTS`] order.
    call_s: [f64; 4],
    /// Host seconds of the whole pass, measured around the four calls.
    outer_s: f64,
    points: Vec<CollPoint>,
}

impl Pass {
    fn wall(&self) -> f64 {
        self.call_s.iter().sum()
    }

    fn mode_s(&self, mode: CollMode) -> f64 {
        POINTS
            .iter()
            .zip(self.call_s)
            .filter(|(p, _)| p.0 == mode)
            .map(|(_, s)| s)
            .sum()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for p in &self.points {
            d.debug(p);
        }
        d.value()
    }
}

fn pass(cfg: &CollStormConfig) -> Pass {
    let mut call_s = [0.0; 4];
    let (points, outer_s) = timed(|| {
        POINTS
            .iter()
            .zip(&mut call_s)
            .map(|(&(mode, op), s)| {
                // Rate 0: each round starts as soon as the previous completes.
                let (point, secs) = timed(|| run_coll_point(mode, op, 0, cfg));
                *s = secs;
                point
            })
            .collect()
    });
    Pass {
        call_s,
        outer_s,
        points,
    }
}

/// The machines `run_coll_point` builds for the two modes (mesh fabric,
/// no delivery protocol; NIC mode adds the radix-`radix` combining tree).
/// `run_coll_point` builds its own inside the timed call, so this is a
/// set-up probe of the same builder calls.
fn build_pair(side: usize, radix: usize) {
    let fabric = || MachineBuilder::new(side * side).network_fabric(FabricConfig::new(side, side));
    std::hint::black_box(
        fabric()
            .collective(CombiningTree::mesh(side, side, radix))
            .build(),
    );
    std::hint::black_box(fabric().build());
}

/// Runs `coll16_storm`.
pub fn run(cfg: &RunConfig) -> Outcome {
    let side = if cfg.smoke { 4 } else { SIDE };
    let min_passes = if cfg.smoke { 2 } else { MIN_PASSES };
    let mut storm = CollStormConfig::new(Topology::new(side, side));
    storm.seed = cfg.seed;
    storm.rounds = if cfg.smoke { 2 } else { ROUNDS };
    let mut out = Outcome::default();
    let mut probe = SetupProbe::new(|| build_pair(side, storm.radix));
    let mut setups = Vec::new();

    // Every pass already times each call, so a traced pass is an untraced
    // one read per mode; the traced run still alternates the two so its
    // overhead is stated the same way as on the other workloads.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let min = if cfg.trace { 2 } else { min_passes };
    repeat(cfg.seconds, min, |i| {
        setups.push(probe.sample());
        let p = pass(&storm);
        if cfg.trace && i % 2 == 1 {
            traced.push(p);
        } else {
            plain.push(p);
        }
    });

    let walls: Vec<f64> = plain.iter().map(Pass::wall).collect();
    let wall = median(&walls);
    out.notes
        .push(format!("wall_s per repetition: {walls:.4?}"));
    let cycles: u64 = plain[0].points.iter().map(|p| p.cycles).sum();
    out.setup(&setups);
    out.metric("wall_s", wall);
    out.metric("sim_cycles_per_s", cycles as f64 / wall);
    let mut chunks = Chunks::default();
    for &w in &walls {
        chunks.push_s(w);
    }
    chunks.report(&mut out, min_passes, "one pass");

    if !traced.is_empty() {
        let med = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let nic = med(&|p| p.mode_s(CollMode::Nic));
        let soft = med(&|p| p.mode_s(CollMode::Soft));
        let traced_wall = med(&Pass::wall);
        let rounds = f64::from(2 * storm.rounds);
        out.metric("coll.nic_s", nic);
        out.metric("coll.soft_s", soft);
        out.metric("coll.nic_rounds_per_s", rounds / nic);
        out.metric("coll.soft_rounds_per_s", rounds / soft);
        out.metric("trace.overhead", traced_wall / wall);
        out.notes.push(format!(
            "trace.overhead: traced wall_s {traced_wall:.6} s vs untraced {wall:.6} s"
        ));
    }
    let points = &plain[0].points;
    let delivered: u64 = points.iter().map(|p| p.fabric_delivered).sum();
    let lat: u64 = points.iter().map(|p| p.lat_mean_x100.unwrap_or(0)).sum();
    out.metric("coll.lat_mean", lat as f64 / 100.0 / points.len() as f64);
    out.metric(
        "coll.combined",
        points.iter().map(|p| p.combined).sum::<u64>() as f64,
    );
    out.metric("coll.fabric_delivered", delivered as f64);
    out.metric("net.delivered", delivered as f64);

    let done: u64 = points.iter().map(|p| u64::from(p.rounds_done)).sum();
    let target = u64::from(storm.rounds) * points.len() as u64;
    let wrong: u64 = points.iter().map(|p| p.wrong_results).sum();
    out.check("coll.rounds_done", target, target - done.min(target), true);
    out.check(
        "coll.wrong_results",
        done * (side * side) as u64,
        wrong,
        true,
    );
    out.notes.push(format!(
        "coll16_storm: {side}x{side} mesh, {} rounds per point, {} points per pass, {} untraced + {} traced passes, {cycles} simulated cycles per pass",
        storm.rounds,
        POINTS.len(),
        plain.len(),
        traced.len()
    ));
    let digests: Vec<u64> = plain.iter().chain(&traced).map(Pass::digest).collect();
    let coverage: Vec<f64> = traced.iter().map(|p| p.wall() / p.outer_s).collect();
    out.finish(&digests, &coverage);
    out
}
