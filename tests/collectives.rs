//! End-to-end tests for the in-network collective engine: the NIC-combining
//! path must beat the flat software emulation on the paper-scale 16×16 mesh
//! (the headline claim of the subsystem), and the engine must be invisible
//! to the machine's determinism guarantees — bit-identical results with
//! the quiescence fast-forward on or off, across a faulty fabric running
//! the end-to-end delivery protocol, and with tracing and observability on
//! or off.

use tcni::core::mapping::{scroll_in_addr, NI_WINDOW_BASE};
use tcni::core::{CollectiveOp, FeatureLevel, InterfaceReg, NodeId};
use tcni::eval::handlers::remote_read::{self, REMOTE_ADDR, RESULT_ADDR};
use tcni::isa::{Assembler, Program, Reg};
use tcni::net::{CombiningTree, FabricConfig, FaultConfig};
use tcni::sim::{DeliveryConfig, Machine, MachineBuilder, Model, NiMapping, RunOutcome};
use tcni::workload::{run_coll_point, CollMode, CollStormConfig, Topology};

/// The acceptance pin: in-network combining must be measurably faster than
/// the software gather/scatter for barrier *and* reduce on the 16×16 mesh.
/// Latency (request latched → every node holds the result) and total cycles
/// must both improve; correctness is cross-checked per round on both sides.
#[test]
fn nic_combining_beats_software_for_barrier_and_reduce_at_16x16() {
    let mut cfg = CollStormConfig::new(Topology::new(16, 16));
    cfg.rounds = 8;
    for op in [CollectiveOp::Barrier, CollectiveOp::Sum] {
        let nic = run_coll_point(CollMode::Nic, op, 0, &cfg);
        let soft = run_coll_point(CollMode::Soft, op, 0, &cfg);
        for p in [&nic, &soft] {
            assert_eq!(p.rounds_done, cfg.rounds, "{} {}", p.mode.key(), op.key());
            assert_eq!(p.wrong_results, 0, "{} {}", p.mode.key(), op.key());
        }
        let (nl, sl) = (nic.lat_mean_x100.unwrap(), soft.lat_mean_x100.unwrap());
        assert!(
            nl < sl,
            "{}: NIC latency {nl} must beat software {sl}",
            op.key()
        );
        assert!(
            nic.cycles < soft.cycles,
            "{}: NIC cycles {} must beat software {}",
            op.key(),
            nic.cycles,
            soft.cycles
        );
        // The tree actually combined in the network: every up edge folded
        // or forwarded, every down edge fanned.
        assert!(nic.combined > 0 && nic.forwarded_up > 0 && nic.fanned_down > 0);
        assert_eq!(soft.combined, 0, "software mode must not touch the engine");
    }
}

/// A consumer that stalls forever: a SCROLL-IN waiting on a continuation
/// flit that is never sent. Needs a memory-mapped interface model.
fn wedged_consumer() -> Program {
    let mut a = Assembler::new();
    a.li(Reg::R9, NI_WINDOW_BASE);
    a.ld(
        Reg::R4,
        Reg::R9,
        (scroll_in_addr(Some(InterfaceReg::input(4))) - NI_WINDOW_BASE) as i16,
    );
    a.halt();
    a.assemble().expect("wedged consumer assembles")
}

/// The quiescence fast-forward must replay collective traffic exactly: a
/// machine with one processor env-stalled forever (a SCROLL-IN waiting on a
/// continuation flit that is never sent — collective arrivals are
/// engine-bound and invisible to the interface) and a pending all-nodes
/// reduction finishes with identical state whether or not the fast-forward
/// is allowed to skip the stall cycles, and the fast machine must actually
/// have skipped some.
#[test]
fn fast_forward_is_invisible_to_collectives() {
    // The reduction drains in the first few dozen cycles (every cycle
    // changes interface state, so the machine single-steps through it);
    // after that only the wedged node 0 is running and the fast-forward
    // burns the rest of the budget in one jump.
    let wedged = wedged_consumer();
    let build = |skip: bool| -> Machine {
        let model = Model {
            mapping: NiMapping::OnChipCache,
            level: FeatureLevel::Optimized,
        };
        let mut m = MachineBuilder::new(16)
            .model(model)
            .program(0, wedged.clone())
            .network_fabric(FabricConfig::new(4, 4))
            .collective(CombiningTree::mesh(4, 4, 2))
            .skip_ahead(skip)
            .build();
        for node in 0..16 {
            m.coll_start(node, CollectiveOp::Min, 900 + node as u32)
                .expect("fresh slot");
        }
        m
    };

    let mut fast = build(true);
    let mut slow = build(false);
    let of = fast.run(20_000);
    let os = slow.run(20_000);
    assert_eq!(of, os, "outcome");
    assert_eq!(of, RunOutcome::CycleLimit, "the consumer stalls forever");
    assert!(fast.skipped_cycles() > 0, "fast-forward must have engaged");
    assert_eq!(fast.cycle(), slow.cycle(), "cycle");
    assert_eq!(fast.collective_stats(), slow.collective_stats());
    assert_eq!(fast.net_stats(), slow.net_stats());
    assert_eq!(
        fast.node(0).cpu().cycle(),
        slow.node(0).cpu().cycle(),
        "the stalled server is charged identically"
    );
    for node in 0..16 {
        let (f, s) = (
            fast.node_mut(node).coll_take_done().expect("min done"),
            slow.node_mut(node).coll_take_done().expect("min done"),
        );
        assert_eq!(f, s, "node {node} completion");
        assert_eq!(f.value, 900, "min over 900..=915");
    }
}

/// Both collective schemes must survive an unreliable fabric when the
/// delivery protocol is on: all rounds complete with correct results, and
/// the NIC path keeps its latency edge even while retransmissions are
/// weaving through the tree.
#[test]
fn collectives_survive_a_faulty_fabric_at_8x8() {
    let mut cfg = CollStormConfig::new(Topology::new(8, 8));
    cfg.rounds = 4;
    cfg.fault_pm = 25;
    cfg.delivery = true;
    cfg.max_cycles = 400_000;
    for mode in CollMode::BOTH {
        let p = run_coll_point(mode, CollectiveOp::Sum, 0, &cfg);
        assert_eq!(p.rounds_done, cfg.rounds, "{} under faults", mode.key());
        assert_eq!(p.wrong_results, 0, "{} under faults", mode.key());
    }
}

/// Tracing and observability are read-only hooks in the one cycle body:
/// turning either on, or both, must change no simulated result. The
/// machine carries every optional subsystem the hooks sit beside — a
/// faulty 4×4 mesh under the delivery protocol, a combining tree running
/// an all-nodes reduction, a remote read as program traffic, and a wedged
/// consumer that lets the quiescence fast-forward engage once the traffic
/// settles — and is run bare, traced, observed, and both.
#[test]
fn instrumentation_changes_no_simulated_result() {
    let model = Model {
        mapping: NiMapping::OnChipCache,
        level: FeatureLevel::Optimized,
    };
    let build = |trace: bool, obs: bool| -> Machine {
        let mut m = MachineBuilder::new(16)
            .model(model)
            .network_fabric(FabricConfig::new(4, 4))
            .network_fault(FaultConfig::uniform(0x5EED, 40))
            .delivery(DeliveryConfig::default())
            .collective(CombiningTree::mesh(4, 4, 2))
            .program(0, remote_read::requester(model, NodeId::new(1)))
            .program(1, remote_read::server(model))
            .program(2, wedged_consumer())
            .build();
        m.node_mut(1).mem_mut().poke(REMOTE_ADDR, 0xC0DE_0042);
        if trace {
            m.enable_trace(64);
        }
        if obs {
            m.enable_obs(64);
        }
        for node in 0..16 {
            m.coll_start(node, CollectiveOp::Sum, node as u32 + 1)
                .expect("fresh slot");
        }
        m
    };

    let mut bare = build(false, false);
    let outcome = bare.run(20_000);
    assert_eq!(
        outcome,
        RunOutcome::CycleLimit,
        "the consumer stalls forever"
    );
    assert!(bare.skipped_cycles() > 0, "fast-forward must have engaged");
    let del = bare.delivery_stats().expect("delivery on");
    assert!(
        del.retransmits > 0,
        "the faults must have forced retransmits"
    );
    let done: Vec<_> = (0..16)
        .map(|node| bare.node_mut(node).coll_take_done())
        .collect();
    assert!(
        done.iter().all(|d| matches!(d, Some(d) if d.value == 136)),
        "sum over 1..=16 at every node"
    );
    assert_eq!(
        bare.node(0).mem().peek(RESULT_ADDR),
        0xC0DE_0042,
        "read result"
    );

    for (trace, obs) in [(true, false), (false, true), (true, true)] {
        let ctx = format!("trace={trace} obs={obs}");
        let mut m = build(trace, obs);
        assert_eq!(m.run(20_000), outcome, "{ctx} outcome");
        assert_eq!(m.cycle(), bare.cycle(), "{ctx} cycle");
        assert_eq!(m.skipped_cycles(), bare.skipped_cycles(), "{ctx} skipped");
        assert_eq!(m.net_stats(), bare.net_stats(), "{ctx} net stats");
        assert_eq!(m.delivery_stats(), bare.delivery_stats(), "{ctx} delivery");
        assert_eq!(
            m.collective_stats(),
            bare.collective_stats(),
            "{ctx} collective"
        );
        for (node, want) in done.iter().enumerate() {
            assert_eq!(
                &m.node_mut(node).coll_take_done(),
                want,
                "{ctx} node {node} done"
            );
            let (got, base) = (m.node(node), bare.node(node));
            assert_eq!(
                got.cpu().cycle(),
                base.cpu().cycle(),
                "{ctx} node {node} cycles"
            );
            assert_eq!(
                got.cpu().stats(),
                base.cpu().stats(),
                "{ctx} node {node} stats"
            );
            for r in Reg::ALL {
                assert_eq!(got.cpu().reg(r), base.cpu().reg(r), "{ctx} node {node} {r}");
            }
        }
        // The instrumentation really was live: it saw the program traffic.
        assert_eq!(
            m.trace().is_some_and(|t| t.events().count() > 0),
            trace,
            "{ctx}"
        );
        assert_eq!(m.obs().is_some_and(|o| o.spans().count() > 0), obs, "{ctx}");
    }
}
