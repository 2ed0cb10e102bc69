//! The two mesh workloads: an [`Injector`] driving a `Machine` through
//! `run_driven`, delivery protocol on, opt-reg Table-1 service costs.
//!
//! One repetition builds a fresh machine and injector, runs an untimed
//! warmup, then times a fixed window of simulated cycles in
//! [`MeshSpec::chunks`] equal chunks. The traced repetition wraps the
//! injector in [`Timed`], which charges the time inside `on_cycle` to the
//! workload layer; the rest of each `run_driven` span is the machine's.

use std::time::{Duration, Instant};

use tcni_net::{FabricConfig, NetStats, Topology as _};
use tcni_sim::{CycleDriver, DeliveryConfig, DeliveryStats, Machine, MachineBuilder, Model, Node};
use tcni_workload::{
    InjectCounters, Injector, InjectorConfig, LoopMode, Pattern, ServiceCosts, Topology,
};

use crate::{median, ratio, repeat, timed, Chunks, Digest, Outcome, RunConfig};

/// One mesh workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct MeshSpec {
    /// Workload name.
    pub name: &'static str,
    /// Grid side (the mesh is `side × side`).
    pub side: usize,
    /// Load model (uniform destinations).
    pub mode: LoopMode,
    /// Untimed cycles before the window.
    pub warmup: u64,
    /// Simulated cycles per timed chunk.
    pub chunk: u64,
    /// Chunks per window.
    pub chunks: usize,
    /// Repetitions every untraced run makes, whatever the host speed.
    pub min_reps: usize,
}

impl MeshSpec {
    /// Simulated cycles in one timed window.
    pub fn window(&self) -> u64 {
        self.chunk * self.chunks as u64
    }

    fn smoke(self) -> MeshSpec {
        MeshSpec {
            side: 4,
            warmup: 200,
            chunk: 4,
            chunks: 8,
            min_reps: 2,
            ..self
        }
    }
}

/// 64×64, open loop at 5‰ per node: nearly every node idle every cycle.
pub const SPARSE64: MeshSpec = MeshSpec {
    name: "sparse64_e2e",
    side: 64,
    mode: LoopMode::Open { rate_pm: 5 },
    warmup: 256,
    chunk: 8,
    chunks: 128,
    min_reps: 4,
};

/// 16×16, closed loop with four request/reply exchanges per node.
pub const DENSE16: MeshSpec = MeshSpec {
    name: "dense16_closed",
    side: 16,
    mode: LoopMode::Closed { window: 4 },
    warmup: 512,
    chunk: 8,
    chunks: 256,
    min_reps: 8,
};

/// The model whose Table-1 service costs the injector charges (opt-reg,
/// the `loadgen` default).
const MODEL: Model = Model::ALL_SIX[0];

fn build(spec: &MeshSpec, seed: u64) -> (Machine, Injector) {
    let topo = Topology::new(spec.side, spec.side);
    let machine = MachineBuilder::new(topo.nodes())
        .model(MODEL)
        .network_fabric(FabricConfig::new(spec.side, spec.side))
        .delivery(DeliveryConfig::default())
        .build();
    let mut config = InjectorConfig::new(Pattern::Uniform, topo, spec.mode);
    config.seed = seed;
    config.costs = ServiceCosts::for_model(MODEL);
    config.format = machine.wire_format();
    (machine, Injector::new(config))
}

/// Wraps a driver and accumulates the host time spent inside it.
struct Timed<'a, D> {
    inner: &'a mut D,
    busy: Duration,
}

impl<D: CycleDriver> CycleDriver for Timed<'_, D> {
    fn on_cycle(&mut self, cycle: u64, nodes: &mut [Node]) -> bool {
        let t = Instant::now();
        let go_on = self.inner.on_cycle(cycle, nodes);
        self.busy += t.elapsed();
        go_on
    }
}

/// Messages queued anywhere in the machine: injector backlogs, interface
/// queues and input registers, the fabric, and delivery-protocol buffers
/// (the sum `tcni_workload::run_point` samples).
fn residency(machine: &Machine, injector: &Injector) -> u64 {
    let queues: u64 = machine
        .nodes()
        .iter()
        .map(|n| {
            let ni = n.ni();
            (ni.output_len() + ni.input_len() + usize::from(ni.msg_valid())) as u64
        })
        .sum();
    injector.backlog() + queues + machine.net_in_flight() as u64 + machine.delivery_residency()
}

/// Simulated counters of one repetition (warmup and window together).
#[derive(Debug)]
struct SimCounts {
    cycles: u64,
    nodes: u64,
    move_slots: u64,
    inject: InjectCounters,
    net: NetStats,
    delivery: DeliveryStats,
    residency_sum: u64,
    residency_max: u64,
    samples: u64,
}

impl SimCounts {
    /// Digest of every simulated counter. The scan meters are left out:
    /// they measure the simulator's effort, not the simulated machine.
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        let n = &self.net;
        for w in [
            self.cycles,
            n.injected,
            n.delivered,
            n.inject_refusals,
            n.bad_dest,
            n.total_latency,
            n.blocked_hops,
            n.in_flight_hwm as u64,
            self.residency_sum,
            self.residency_max,
        ] {
            d.word(w);
        }
        for &b in n.latency_hist.buckets() {
            d.word(b);
        }
        d.debug(&n.faults);
        d.debug(&self.inject);
        d.debug(&self.delivery);
        d.value()
    }
}

struct Rep {
    setup_s: f64,
    /// Sum of the chunk spans (`run_driven` calls) of the window.
    window_s: f64,
    /// The window measured around the whole chunk loop.
    outer_s: f64,
    driver_s: f64,
    chunks: Vec<Duration>,
    sim: SimCounts,
}

fn rep(spec: &MeshSpec, seed: u64, traced: bool) -> Rep {
    let ((mut machine, mut injector), setup_s) = timed(|| build(spec, seed));
    machine.run_driven(&mut injector, spec.warmup);
    let mut chunks = Vec::with_capacity(spec.chunks);
    let (mut busy, mut res_sum, mut res_max) = (Duration::ZERO, 0, 0);
    let outer = Instant::now();
    for _ in 0..spec.chunks {
        let t = Instant::now();
        if traced {
            let mut driver = Timed {
                inner: &mut injector,
                busy: Duration::ZERO,
            };
            machine.run_driven(&mut driver, spec.chunk);
            busy += driver.busy;
        } else {
            machine.run_driven(&mut injector, spec.chunk);
        }
        chunks.push(t.elapsed());
        let r = residency(&machine, &injector);
        res_sum += r;
        res_max = res_max.max(r);
    }
    let outer_s = outer.elapsed().as_secs_f64();
    let move_slots = machine
        .network()
        .as_fabric()
        .map_or(0, |f| f.config().topo.move_slots());
    let sim = SimCounts {
        cycles: machine.cycle(),
        nodes: machine.node_count() as u64,
        move_slots: move_slots as u64,
        inject: injector.counters(),
        net: machine.net_stats(),
        delivery: machine.delivery_stats().unwrap_or_default(),
        residency_sum: res_sum,
        residency_max: res_max,
        samples: spec.chunks as u64,
    };
    Rep {
        setup_s,
        window_s: chunks.iter().sum::<Duration>().as_secs_f64(),
        outer_s,
        driver_s: busy.as_secs_f64(),
        chunks,
        sim,
    }
}

/// Runs a mesh workload.
pub fn run(spec: &MeshSpec, cfg: &RunConfig) -> Outcome {
    let spec = if cfg.smoke { spec.smoke() } else { *spec };
    let mut out = Outcome::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // The traced run alternates untraced and traced repetitions, so the
    // tracing overhead compares neighbours in time.
    let min_reps = if cfg.trace { 2 } else { spec.min_reps };
    repeat(cfg.seconds, min_reps, |i| {
        if cfg.trace && i % 2 == 1 {
            traced.push(rep(&spec, cfg.seed, true));
        } else {
            plain.push(rep(&spec, cfg.seed, false));
        }
    });

    let window = spec.window() as f64;
    let walls: Vec<f64> = plain.iter().map(|r| r.window_s).collect();
    let wall = median(&walls);
    out.notes
        .push(format!("wall_s per repetition: {walls:.4?}"));
    // Each repetition's build is a set-up sample. The first runs on a
    // cold allocator and is several times slower than the rest; the
    // median over at least `min_reps` repetitions is a warm build.
    out.setup(&plain.iter().map(|r| r.setup_s).collect::<Vec<_>>());
    out.metric("wall_s", wall);
    out.metric("sim_cycles_per_s", window / wall);
    let positions: Vec<&[Duration]> = plain.iter().map(|r| r.chunks.as_slice()).collect();
    Chunks::by_position(&positions).report(
        &mut out,
        spec.chunks,
        &format!(
            "{} cycles, each the median of its position over {} repetitions",
            spec.chunk,
            plain.len()
        ),
    );

    let sim = &plain[0].sim;
    let cells = window * sim.nodes as f64;
    if !traced.is_empty() {
        let driver = median(&traced.iter().map(|r| r.driver_s).collect::<Vec<_>>());
        let machine = median(
            &traced
                .iter()
                .map(|r| r.window_s - r.driver_s)
                .collect::<Vec<_>>(),
        );
        let traced_wall = median(&traced.iter().map(|r| r.window_s).collect::<Vec<_>>());
        out.metric("workload.driver_s", driver);
        out.metric("workload.driver_share", ratio(driver, driver + machine));
        out.metric("sim.machine_s", machine);
        out.metric("sim.ns_per_node_cycle", machine * 1e9 / cells);
        out.metric("trace.overhead", traced_wall / wall);
        out.notes.push(format!(
            "trace.overhead: traced wall_s {traced_wall:.6} s vs untraced {wall:.6} s"
        ));
    }
    let c = &sim.inject;
    out.metric("workload.offered", c.offered as f64);
    out.metric("workload.shed", c.shed as f64);
    out.metric("workload.issued", c.issued as f64);
    out.metric("workload.consumed", c.consumed as f64);
    out.metric("workload.completed", c.completed as f64);
    out.metric(
        "sim.residency_mean",
        ratio(sim.residency_sum as f64, sim.samples as f64),
    );
    let n = &sim.net;
    let pct = |p| n.latency_hist.percentile(p).unwrap_or(0) as f64;
    out.metric("net.delivered", n.delivered as f64);
    out.metric(
        "net.lat_mean",
        ratio(n.total_latency as f64, n.delivered as f64),
    );
    out.metric("net.lat_p50", pct(50));
    out.metric("net.lat_p99", pct(99));
    out.metric("net.scanned_channels", n.scan.scanned_channels as f64);
    out.metric(
        "net.scan_ratio",
        ratio(
            n.scan.scanned_channels as f64,
            (sim.cycles * sim.nodes * sim.move_slots) as f64,
        ),
    );
    let d = &sim.delivery;
    out.metric("delivery.accepted", d.accepted as f64);
    out.metric("delivery.retransmits", d.retransmits as f64);
    out.metric("delivery.delivered_unique", d.delivered_unique as f64);
    out.metric("delivery.abandoned", d.abandoned as f64);
    out.metric("delivery.acks_coalesced", d.acks_coalesced as f64);
    out.metric("delivery.peak_flows", n.scan.peak_flows as f64);
    out.metric("delivery.flow_probes", n.scan.flow_probes as f64);
    out.metric(
        "delivery.goodput_ratio",
        ratio(
            d.delivered_unique as f64,
            (d.accepted + d.retransmits) as f64,
        ),
    );

    out.check("inject.shed", c.offered, c.shed, false);
    out.check("delivery.abandoned", d.accepted, d.abandoned, false);
    out.check("net.bad_dest", n.injected, n.bad_dest, true);
    out.check(
        "delivery.unique_le_accepted",
        1,
        u64::from(d.delivered_unique > d.accepted),
        true,
    );
    out.notes.push(format!(
        "{}: {}x{} mesh, {} nodes, {} warmup + {} timed cycles per repetition, {} untraced + {} traced repetitions",
        spec.name,
        spec.side,
        spec.side,
        sim.nodes,
        spec.warmup,
        spec.window(),
        plain.len(),
        traced.len()
    ));
    let digests: Vec<u64> = plain
        .iter()
        .chain(&traced)
        .map(|r| r.sim.digest())
        .collect();
    let coverage: Vec<f64> = traced.iter().map(|r| r.window_s / r.outer_s).collect();
    out.finish(&digests, &coverage);
    out
}
