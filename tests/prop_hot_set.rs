//! Hot-set scheduler equivalence across the full §4 matrix: the machine with
//! the active-channel frontier and the delivery timeout list (the default)
//! must be bit-identical to the dense-scan cross-check
//! ([`Machine::set_dense_scan`]) — registers, per-node cycles, statistics,
//! trace events, delivery counters, and the serialized `tcni-trace/1` report
//! — across all six models, both fabrics, E2E delivery on/off, tracing and
//! observability on/off, the quiescence fast-forward on/off, and seeded
//! fault schedules. Only the [`ScanStats`] effort meters may differ, and
//! they must conserve work: scanned + skipped equals the dense cost on both
//! sides.
//!
//! The same discipline covers the delivery flow *storage*: the sparse
//! (src, dst)-keyed flow store (the default) must be bit-identical to the
//! dense cross-check tables ([`MachineBuilder::dense_flows`]) on every
//! surface, with only the sparse footprint meters (`active_flows`,
//! `peak_flows`, `flow_probes`) allowed to differ — dense tables report
//! zero for all three.
//!
//! [`Machine::set_dense_scan`]: tcni::sim::Machine::set_dense_scan
//! [`MachineBuilder::dense_flows`]: tcni::sim::MachineBuilder::dense_flows
//! [`ScanStats`]: tcni::net::ScanStats

use tcni::core::NodeId;
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::isa::Reg;
use tcni::net::{FabricConfig, FaultConfig, ScanStats, TopologyKind};
use tcni::sim::{DeliveryConfig, Machine, MachineBuilder, Model, RunOutcome};
use tcni_check::check;

const SECRET: u32 = 0xFEED_0042;

struct Config {
    model: Model,
    mesh: bool,
    latency: u64,
    e2e: bool,
    fault: Option<(u64, u32)>,
    skip: bool,
    instrument: Option<usize>,
}

fn build(cfg: &Config, dense: bool) -> Machine {
    let mut b = MachineBuilder::new(2)
        .model(cfg.model)
        .program(0, remote_read::requester(cfg.model, NodeId::new(1)))
        .program(1, remote_read::server(cfg.model))
        .skip_ahead(cfg.skip)
        .dense_scan(dense);
    if cfg.e2e {
        b = b.delivery(DeliveryConfig {
            window: 4,
            timeout: 24,
            retransmit_limit: 10_000,
        });
    }
    if let Some((seed, rate_pm)) = cfg.fault {
        b = b.network_fault(FaultConfig::uniform(seed, rate_pm));
    }
    let mut machine = if cfg.mesh {
        b.network_fabric(FabricConfig::new(2, 1)).build()
    } else {
        b.network_ideal(cfg.latency).build()
    };
    if let Some(capacity) = cfg.instrument {
        machine.enable_trace(capacity);
        machine.enable_obs(capacity);
    }
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    machine
}

/// Drives the hot-set and dense machines through the same budget and checks
/// every observable surface for bit-identity, then the conservation law on
/// the effort meters. Returns both run outcomes for caller assertions.
fn assert_equivalent(cfg: &Config, budget: u64, ctx: &str) -> (RunOutcome, RunOutcome) {
    let mut hot = build(cfg, false);
    let mut dense = build(cfg, true);
    let oh = hot.run(budget);
    let od = dense.run(budget);

    assert_eq!(oh, od, "{ctx} outcome");
    assert_eq!(hot.cycle(), dense.cycle(), "{ctx} machine cycle");
    // `NetStats` equality deliberately ignores the scan meters.
    assert_eq!(hot.net_stats(), dense.net_stats(), "{ctx} network stats");
    assert_eq!(
        hot.delivery_stats(),
        dense.delivery_stats(),
        "{ctx} delivery stats"
    );
    for i in 0..2 {
        let (h, d) = (hot.node(i), dense.node(i));
        assert_eq!(h.cpu().cycle(), d.cpu().cycle(), "{ctx} node {i} cycles");
        assert_eq!(h.cpu().stats(), d.cpu().stats(), "{ctx} node {i} stats");
        for r in Reg::ALL {
            assert_eq!(h.cpu().reg(r), d.cpu().reg(r), "{ctx} node {i} reg {r}");
        }
    }
    if cfg.instrument.is_some() {
        let (th, td) = (hot.trace().unwrap(), dense.trace().unwrap());
        assert_eq!(th.dropped(), td.dropped(), "{ctx} trace dropped");
        assert!(th.events().eq(td.events()), "{ctx} trace events");
        // The serialized report carries the scan meters, which are the one
        // legitimate difference; zero them on both sides, then demand
        // byte-identity of everything else.
        let (mut rh, mut rd) = (hot.obs_report().unwrap(), dense.obs_report().unwrap());
        rh.net.scan = ScanStats::default();
        rd.net.scan = ScanStats::default();
        assert_eq!(rh.to_json(), rd.to_json(), "{ctx} tcni-trace/1 report");
    }

    // Effort meters: the dense machine skips nothing, and both sides account
    // for the same total work (they gate counting on the same activity
    // conditions, which evolve identically).
    let (sh, sd) = (hot.net_stats().scan, dense.net_stats().scan);
    assert_eq!(sd.skipped_work, 0, "{ctx} dense scan skips nothing");
    assert!(
        sh.scanned_channels <= sd.scanned_channels,
        "{ctx} frontier must not visit more channels than the dense scan"
    );
    assert!(
        sh.scanned_flows <= sd.scanned_flows,
        "{ctx} timeout list must not examine more flows than the dense scan"
    );
    assert_eq!(
        sh.scanned_channels + sh.scanned_flows + sh.skipped_work,
        sd.scanned_channels + sd.scanned_flows,
        "{ctx} scanned + skipped must equal the dense cost"
    );
    (oh, od)
}

#[test]
fn hot_set_is_equivalent_on_all_six_models() {
    check("hot_set_is_equivalent_on_all_six_models", 48, |rng| {
        let cfg = Config {
            model: *rng.pick(&Model::ALL_SIX),
            mesh: rng.bool(),
            latency: rng.below(80),
            e2e: rng.bool(),
            fault: None,
            skip: rng.bool(),
            instrument: rng.bool().then(|| rng.range(1, 24) as usize),
        };
        let budget = rng.range(4_000, 20_000);
        let ctx = format!(
            "{} mesh={} latency={} e2e={} skip={} instrument={:?}",
            cfg.model, cfg.mesh, cfg.latency, cfg.e2e, cfg.skip, cfg.instrument
        );
        let (oh, _) = assert_equivalent(&cfg, budget, &ctx);
        assert_eq!(oh, RunOutcome::Quiescent, "{ctx} must finish in {budget}");

        // The protocol completed, so both requesters observed the value.
        let mut hot = build(&cfg, false);
        hot.run(budget);
        assert_eq!(hot.node(0).mem().peek(RESULT_ADDR), SECRET, "{ctx}");
    });
}

/// The same bit-identity must hold when a seeded fault schedule is mangling
/// traffic and the delivery protocol is retransmitting around it — the
/// hardest case for the timeout list, since flows join, refresh, and leave
/// it continuously.
#[test]
fn hot_set_is_equivalent_under_fault_schedules() {
    check("hot_set_is_equivalent_under_fault_schedules", 24, |rng| {
        let cfg = Config {
            model: *rng.pick(&Model::ALL_SIX),
            mesh: rng.bool(),
            latency: 1 + rng.below(8),
            e2e: true,
            fault: Some((rng.u64(), rng.range(20, 120) as u32)),
            skip: rng.bool(),
            instrument: rng.bool().then(|| rng.range(1, 24) as usize),
        };
        let budget = rng.range(20_000, 60_000);
        let ctx = format!(
            "{} mesh={} latency={} fault={:?} skip={} instrument={:?}",
            cfg.model, cfg.mesh, cfg.latency, cfg.fault, cfg.skip, cfg.instrument
        );
        assert_equivalent(&cfg, budget, &ctx);
    });
}

/// The §4 matrix config for the flow-store sweep, with the fabric topology
/// as an explicit axis.
struct StoreConfig {
    model: Model,
    topo: TopologyKind,
    e2e: bool,
    fault: Option<(u64, u32)>,
    skip: bool,
    instrument: Option<usize>,
}

/// Every switched topology, sized so both machine nodes exist (extra fabric
/// slots stay idle).
fn store_fabric_axis() -> [TopologyKind; 5] {
    [
        TopologyKind::mesh(2, 1),
        TopologyKind::torus(2, 2),
        TopologyKind::torus(3, 1),
        TopologyKind::ring(4),
        TopologyKind::full(3),
    ]
}

fn build_store(cfg: &StoreConfig, dense_flows: bool) -> Machine {
    let mut b = MachineBuilder::new(2)
        .model(cfg.model)
        .program(0, remote_read::requester(cfg.model, NodeId::new(1)))
        .program(1, remote_read::server(cfg.model))
        .skip_ahead(cfg.skip)
        .dense_flows(dense_flows)
        .topology(cfg.topo);
    if cfg.e2e {
        b = b.delivery(DeliveryConfig {
            window: 4,
            timeout: 24,
            retransmit_limit: 10_000,
        });
    }
    if let Some((seed, rate_pm)) = cfg.fault {
        b = b.network_fault(FaultConfig::uniform(seed, rate_pm));
    }
    let mut machine = b.build();
    if let Some(capacity) = cfg.instrument {
        machine.enable_trace(capacity);
        machine.enable_obs(capacity);
    }
    machine.node_mut(1).mem_mut().poke(REMOTE_ADDR, SECRET);
    machine
}

/// The sparse flow store (the default) must be bit-identical to the dense
/// cross-check tables everywhere both can run — outcome, cycles, network
/// and delivery statistics, registers, trace events, and the serialized
/// `tcni-trace/1` report — across the §4 models, every fabric topology,
/// seeded fault schedules, and E2E on/off.
/// The scheduler effort meters must agree *exactly* (both sides walk the
/// same timeout list and frontier); only the sparse footprint meters may
/// differ, and dense tables must report zero for them.
#[test]
fn sparse_flow_store_matches_the_dense_cross_check() {
    check(
        "sparse_flow_store_matches_the_dense_cross_check",
        48,
        |rng| {
            let cfg = StoreConfig {
                model: *rng.pick(&Model::ALL_SIX),
                topo: *rng.pick(&store_fabric_axis()),
                e2e: rng.bool(),
                fault: rng.bool().then(|| (rng.u64(), rng.range(20, 120) as u32)),
                skip: rng.bool(),
                instrument: rng.bool().then(|| rng.range(1, 24) as usize),
            };
            let budget = rng.range(8_000, 40_000);
            let ctx = format!(
                "{} {:?} e2e={} fault={:?} skip={} instrument={:?}",
                cfg.model, cfg.topo, cfg.e2e, cfg.fault, cfg.skip, cfg.instrument
            );
            let mut sparse = build_store(&cfg, false);
            let mut dense = build_store(&cfg, true);
            let os = sparse.run(budget);
            let od = dense.run(budget);

            assert_eq!(os, od, "{ctx} outcome");
            assert_eq!(sparse.cycle(), dense.cycle(), "{ctx} machine cycle");
            assert_eq!(sparse.net_stats(), dense.net_stats(), "{ctx} net stats");
            assert_eq!(
                sparse.delivery_stats(),
                dense.delivery_stats(),
                "{ctx} delivery stats"
            );
            assert_eq!(
                sparse.skipped_cycles(),
                dense.skipped_cycles(),
                "{ctx} fast-forward accounting"
            );
            for i in 0..2 {
                let (s, d) = (sparse.node(i), dense.node(i));
                assert_eq!(s.cpu().cycle(), d.cpu().cycle(), "{ctx} node {i} cycles");
                assert_eq!(s.cpu().stats(), d.cpu().stats(), "{ctx} node {i} stats");
                for r in Reg::ALL {
                    assert_eq!(s.cpu().reg(r), d.cpu().reg(r), "{ctx} node {i} reg {r}");
                }
            }
            if cfg.instrument.is_some() {
                let (ts, td) = (sparse.trace().unwrap(), dense.trace().unwrap());
                assert_eq!(ts.dropped(), td.dropped(), "{ctx} trace dropped");
                assert!(ts.events().eq(td.events()), "{ctx} trace events");
                let (mut rs, mut rd) = (sparse.obs_report().unwrap(), dense.obs_report().unwrap());
                rs.net.scan = ScanStats::default();
                rd.net.scan = ScanStats::default();
                assert_eq!(rs.to_json(), rd.to_json(), "{ctx} tcni-trace/1 report");
            }

            // Scheduler effort is storage-independent; footprint is sparse-only.
            let (ss, sd) = (sparse.net_stats().scan, dense.net_stats().scan);
            assert_eq!(
                ss.scanned_channels, sd.scanned_channels,
                "{ctx} scanned channels"
            );
            assert_eq!(ss.scanned_flows, sd.scanned_flows, "{ctx} scanned flows");
            assert_eq!(ss.skipped_work, sd.skipped_work, "{ctx} skipped work");
            assert_eq!(
                (sd.active_flows, sd.peak_flows, sd.flow_probes),
                (0, 0, 0),
                "{ctx} dense tables have no sparse footprint"
            );
            if cfg.e2e {
                assert!(
                    ss.peak_flows > 0,
                    "{ctx} delivery traffic must occupy flow slots"
                );
                assert!(ss.flow_probes > 0, "{ctx} sparse lookups are metered");
            }
        },
    );
}
