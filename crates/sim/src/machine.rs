//! The multicomputer: nodes co-simulated with a network, cycle by cycle.

use std::fmt;
use std::sync::Arc;

use tcni_core::{CollectiveOp, FeatureLevel, Message, NiConfig, NodeId, WireFormat};
use tcni_cpu::{StepOutcome, TimingConfig};
use tcni_isa::{MsgType, Program};
use tcni_net::{
    CombiningTree, Fabric, FabricConfig, FaultConfig, FaultyFabric, FullyConnected, IdealNetwork,
    InjectError, NetStats, Network, NetworkKind, Topology as _, TopologyKind,
};

use crate::collective::{Collective, CollectiveStats};
use crate::delivery::{Delivery, DeliveryConfig, DeliveryStats, RxAction, DENSE_FLOWS_MAX_NODES};
use crate::driver::CycleDriver;
use crate::model::{Model, NiMapping};
use crate::node::Node;
use crate::obs::{NodeRollup, Obs, ObsReport};
use crate::trace::{Trace, TraceEvent};

/// Why a [`MachineBuilder`] cannot produce a machine. Returned by the
/// fallible [`MachineBuilder::try_new`]/[`MachineBuilder::try_build`] pair;
/// the panicking [`new`](MachineBuilder::new)/[`build`](MachineBuilder::build)
/// report the same conditions as messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildError {
    /// Zero nodes were requested.
    NoNodes,
    /// More nodes were requested than even the wide [`WireFormat`] can
    /// address (65536). Within that ceiling the builder picks the smallest
    /// format that fits, so the old 256-node rejection is now only a
    /// property of an *explicitly* requested compact format
    /// ([`BuildError::FormatTooSmall`]).
    TooManyNodes {
        /// The requested node count.
        requested: usize,
    },
    /// A wire format was pinned with [`MachineBuilder::wire_format`] but
    /// cannot address the machine's node count. The silent fix — widening
    /// behind the caller's back — would change the byte layout the caller
    /// pinned the format to get, so the builder refuses instead.
    FormatTooSmall {
        /// The pinned wire format.
        format: WireFormat,
        /// The requested node count.
        nodes: usize,
    },
    /// The configured fabric has fewer slots than the machine has nodes.
    FabricTooSmall {
        /// Topology name (`"mesh"`, `"torus"`, `"ring"`, `"full"`).
        topo: &'static str,
        /// Number of slots the configured fabric provides.
        fabric_nodes: usize,
        /// The requested node count.
        nodes: usize,
    },
    /// The configured fabric exceeds its own scaling ceiling (currently
    /// only the fully-connected fabric, whose per-node port count grows
    /// linearly and whose channel count grows quadratically).
    FabricTooLarge {
        /// Topology name.
        topo: &'static str,
        /// Number of nodes the configured fabric would have.
        nodes: usize,
        /// The topology's ceiling.
        max: usize,
    },
    /// The delivery protocol's *dense* cross-check flow layout
    /// ([`MachineBuilder::dense_flows`]) was requested beyond its ceiling
    /// (32768 nodes — dense rows are quadratic in the machine). The default
    /// sparse flow store has no ceiling below the wide wire format's 65536
    /// nodes.
    DeliveryTooLarge {
        /// The requested node count.
        nodes: usize,
    },
    /// A combining tree was supplied that cannot be mounted on this
    /// machine — wrong index-space size, or a geometry the configured
    /// fabric's links cannot carry (see [`TreeMismatch`]).
    CollectiveTreeMismatch(TreeMismatch),
}

/// Why a combining tree cannot be mounted, inside
/// [`BuildError::CollectiveTreeMismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMismatch {
    /// The tree's node index space does not match the machine's node
    /// count: collective wire messages would address nodes that do not
    /// exist (or leave real nodes unreachable).
    Size {
        /// The tree's index-space size.
        tree_nodes: usize,
        /// The requested node count.
        nodes: usize,
    },
    /// The tree was built for a different fabric geometry: its edges
    /// assume links (mesh rows/columns, torus wrap links) the configured
    /// topology does not have, so combining traffic would dog-leg through
    /// unrelated links and the embedding guarantees would silently break.
    /// Ideal networks accept any shape (every pair is one hop).
    Shape {
        /// The tree's declared shape ([`TreeShape::name`]).
        tree: &'static str,
        /// The configured base fabric's topology name.
        fabric: &'static str,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BuildError::NoNodes => write!(f, "a machine needs at least one node"),
            BuildError::TooManyNodes { requested } => {
                write!(
                    f,
                    "NodeId address space is {} nodes ({requested} requested)",
                    NodeId::MAX_NODES
                )
            }
            BuildError::FormatTooSmall { format, nodes } => {
                write!(
                    f,
                    "the {format} wire format addresses {} nodes ({nodes} requested)",
                    format.max_nodes()
                )
            }
            BuildError::FabricTooSmall {
                topo,
                fabric_nodes,
                nodes,
            } => {
                write!(
                    f,
                    "{topo} fabric ({fabric_nodes} slots) smaller than node count {nodes}"
                )
            }
            BuildError::FabricTooLarge { topo, nodes, max } => {
                write!(
                    f,
                    "{topo} fabric scales to at most {max} nodes ({nodes} requested)"
                )
            }
            BuildError::DeliveryTooLarge { nodes } => {
                write!(
                    f,
                    "dense delivery flow tables support at most {DENSE_FLOWS_MAX_NODES} nodes \
                     ({nodes} requested); the default sparse store scales to the full address space"
                )
            }
            BuildError::CollectiveTreeMismatch(TreeMismatch::Size { tree_nodes, nodes }) => {
                write!(
                    f,
                    "combining tree spans {tree_nodes} nodes but the machine has {nodes}"
                )
            }
            BuildError::CollectiveTreeMismatch(TreeMismatch::Shape { tree, fabric }) => {
                write!(
                    f,
                    "combining tree shaped for a {tree} cannot embed in a {fabric} fabric"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a [`Machine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every processor stopped and no messages remain anywhere.
    Quiescent,
    /// Every processor stopped but messages remain in flight or queued
    /// (usually a protocol bug in the loaded programs).
    StoppedWithTraffic,
    /// The cycle budget ran out first.
    CycleLimit,
    /// The [`CycleDriver`] of a [`Machine::run_driven`] call asked to stop.
    DriverStopped,
}

/// A complete simulated multicomputer.
///
/// Each global cycle: every processor steps once; interfaces offer their
/// oldest outgoing message to the network (refusals stay queued —
/// backpressure, §2.1.1); the network advances one cycle; arrived messages
/// move into interfaces that can accept them.
///
/// The stepping loop is the simulator's hot path and carries three
/// optimizations, none of which change observable behaviour:
///
/// * the fabric is a [`NetworkKind`] enum (static dispatch, inlinable);
/// * stopped processors leave the active list and are never re-scanned —
///   only their interfaces keep draining until empty;
/// * when every running processor is environment-stalled and a network
///   phase changes no interface state, [`run`](Machine::run) *fast-forwards*:
///   network-only cycles (or, on a predictive fabric, one arithmetic jump)
///   replace full machine cycles, and the elapsed stall time is bulk-charged
///   to the processors afterwards. Cycle accounting is bit-identical to the
///   naive loop (see `tests/prop_fast_forward.rs`); disable with
///   [`set_skip_ahead`](Machine::set_skip_ahead) to cross-check.
///
/// # Example
///
/// ```
/// use tcni_isa::{Assembler, Reg};
/// use tcni_sim::{MachineBuilder, Model, RunOutcome};
///
/// let mut a = Assembler::new();
/// a.addi(Reg::R2, Reg::R0, 7);
/// a.halt();
/// let p = a.assemble().unwrap();
///
/// let mut machine = MachineBuilder::new(2)
///     .model(Model::ALL_SIX[0])
///     .program_all(p)
///     .build();
/// assert_eq!(machine.run(100), RunOutcome::Quiescent);
/// assert_eq!(machine.node(0).cpu().reg(Reg::R2), 7);
/// ```
pub struct Machine {
    nodes: Vec<Node>,
    net: NetworkKind,
    /// The wire format every interface in this machine composes under
    /// (resolved at build time; see [`MachineBuilder::wire_format`]).
    wire_format: WireFormat,
    cycle: u64,
    trace: Option<Trace>,
    obs: Option<Obs>,
    /// The optional end-to-end delivery protocol (ack/retransmit over an
    /// unreliable fabric). Like trace, obs and the collective engine, it
    /// plugs into the one cycle body: each of its hooks is a check of this
    /// `Option`, and a machine without it skips them.
    delivery: Option<Delivery>,
    /// The optional in-network collective engine (combining-tree barrier /
    /// broadcast / reduce; see [`Collective`]), hooked in the same way.
    collective: Option<Collective>,
    /// Indices of nodes whose processor is still running, ascending. The
    /// ascending order matters: phase 2 injects in node order, which is the
    /// fabric's arbitration order for same-destination traffic.
    running: Vec<usize>,
    /// Stopped nodes whose interface still holds outgoing messages,
    /// ascending. Shrinks monotonically (a stopped processor sends nothing).
    draining: Vec<usize>,
    /// Set by [`node_mut`](Machine::node_mut): external mutation may have
    /// restarted or stopped a processor, so the lists must be rebuilt.
    lists_dirty: bool,
    skip_ahead: bool,
    skipped_cycles: u64,
    dense_scan: bool,
    /// Reusable snapshot of the delivery outbox's active-node list for the
    /// injection phase (taken per cycle; injection pops edit the live
    /// list mid-walk).
    outbox_scan: Vec<usize>,
    /// The collective engine's counterpart of `outbox_scan`.
    coll_scan: Vec<usize>,
    /// Whether node [`CollPort`](Node::coll_request) latches may hold
    /// requests. Set wherever external code could have latched one (list
    /// refresh after `node_mut`, every driven cycle); the injection phase
    /// only pays the O(nodes) latch scan while this is set.
    coll_poll: bool,
}

impl Machine {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Elapsed global cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The wire format this machine's interfaces compose messages under
    /// (compact through 256 nodes unless pinned otherwise at build time).
    pub fn wire_format(&self) -> WireFormat {
        self.wire_format
    }

    /// A node by index.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Mutable node access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node_mut(&mut self, i: usize) -> &mut Node {
        self.lists_dirty = true;
        &mut self.nodes[i]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Network statistics. The [`NetStats::scan`] effort counters merge the
    /// fabric's channel-scan work with the delivery protocol's flow-scan
    /// work, so one triple covers the whole hot-set scheduler.
    pub fn net_stats(&self) -> NetStats {
        let mut s = self.net.stats();
        if let Some(del) = self.delivery.as_ref() {
            s.scan.merge(del.scan_stats());
        }
        s
    }

    /// Messages currently inside the network fabric.
    pub fn net_in_flight(&self) -> usize {
        self.net.in_flight()
    }

    /// Enables event tracing with the given capacity (see [`Trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// The recorded trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Enables message-lifecycle observability, retaining at most
    /// `span_capacity` completed [`crate::MsgSpan`]s (aggregates cover every
    /// message regardless). On a mesh fabric this also turns on per-link
    /// counters. Like tracing, each observability hook in the cycle body is
    /// one check of an `Option`; with observability disabled the hooks are
    /// skipped.
    pub fn enable_obs(&mut self, span_capacity: usize) {
        self.obs = Some(Obs::new(self.nodes.len(), span_capacity));
        if let Some(mesh) = self.net.as_fabric_mut() {
            mesh.set_observe(true);
        }
    }

    /// The observability collector, if enabled.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref()
    }

    /// A complete observability snapshot (`tcni-trace/1` payload), if
    /// observability is enabled.
    pub fn obs_report(&self) -> Option<ObsReport> {
        let obs = self.obs.as_ref()?;
        let rollups = obs.rollups();
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeRollup {
                node: i,
                cpu: n.cpu().stats(),
                ni: n.ni().stats(),
                msgs: rollups[i],
            })
            .collect();
        Some(ObsReport {
            cycles: self.cycle,
            fabric: self.net.base_name(),
            net: self.net_stats(),
            links: self
                .net
                .as_fabric()
                .map(Fabric::link_stats)
                .unwrap_or_default(),
            nodes,
            spans: obs.spans().copied().collect(),
            spans_dropped: obs.spans_dropped(),
            spans_open: obs.spans_open(),
            trace_dropped: self.trace.as_ref().map_or(0, Trace::dropped),
            delivery: self.delivery.as_ref().map(Delivery::stats),
        })
    }

    /// Counters of the end-to-end delivery protocol, if it is enabled.
    pub fn delivery_stats(&self) -> Option<DeliveryStats> {
        self.delivery.as_ref().map(Delivery::stats)
    }

    /// Messages buffered inside the delivery protocol (retransmission
    /// buffers plus pending acks/copies), `0` when the protocol is off.
    pub fn delivery_residency(&self) -> u64 {
        self.delivery.as_ref().map_or(0, Delivery::residency)
    }

    /// The collective engine, if one was configured at build time.
    pub fn collective(&self) -> Option<&Collective> {
        self.collective.as_ref()
    }

    /// Counters of the collective engine, if it is enabled.
    pub fn collective_stats(&self) -> Option<CollectiveStats> {
        self.collective.as_ref().map(Collective::stats)
    }

    /// Contributes `value` to the collective round in progress at `node`
    /// (see [`Collective::contribute`]); an immediately-completed round
    /// (single-member tree) is posted to the node's
    /// [`coll_take_done`](Node::coll_take_done) mailbox like any other.
    ///
    /// Drivers, which see nodes but not the machine, latch requests with
    /// [`Node::coll_request`] instead; those are fed to the engine at the
    /// next injection phase and report rejections only through
    /// [`CollectiveStats`].
    ///
    /// # Errors
    ///
    /// [`InjectError::NotParticipant`] for a node outside the member set,
    /// [`InjectError::Refused`] while the node's previous round is still in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built without a collective engine or
    /// `node` is out of range.
    pub fn coll_start(
        &mut self,
        node: usize,
        op: CollectiveOp,
        value: u32,
    ) -> Result<(), InjectError> {
        let coll = self
            .collective
            .as_mut()
            .expect("collective engine not enabled on this machine");
        if let Some(done) = coll.contribute(node, op, value)? {
            self.nodes[node].coll_push_done(done);
        }
        Ok(())
    }

    /// The network fabric.
    pub fn network(&self) -> &NetworkKind {
        &self.net
    }

    /// Enables or disables the quiescence fast-forward (enabled by default).
    /// Results are identical either way; disabling forces the naive
    /// one-cycle-at-a-time loop, which the equivalence tests cross-check
    /// against.
    pub fn set_skip_ahead(&mut self, enabled: bool) {
        self.skip_ahead = enabled;
    }

    /// Whether the quiescence fast-forward is enabled.
    pub fn skip_ahead(&self) -> bool {
        self.skip_ahead
    }

    /// Enables or disables the dense-scan cross-check (disabled by default).
    /// When enabled, the mesh visits every channel and the delivery pump
    /// examines every flow each cycle, like the pre-hot-set code. Behaviour
    /// is bit-identical either way — only wall clock and the
    /// [`NetStats::scan`] counters differ — which the equivalence suites
    /// verify, mirroring [`set_skip_ahead`](Machine::set_skip_ahead).
    pub fn set_dense_scan(&mut self, enabled: bool) {
        self.dense_scan = enabled;
        if let Some(mesh) = self.net.as_fabric_mut() {
            mesh.set_dense_scan(enabled);
        }
        if let Some(del) = self.delivery.as_mut() {
            del.set_dense_scan(enabled);
        }
    }

    /// Whether the dense-scan cross-check is enabled.
    pub fn dense_scan(&self) -> bool {
        self.dense_scan
    }

    /// Cycles that were fast-forwarded (charged in bulk rather than stepped)
    /// since construction. Observability only; `cycle()` already includes
    /// them.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    fn refresh_lists(&mut self) {
        self.running.clear();
        self.draining.clear();
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.is_stopped() {
                self.running.push(i);
            } else if n.ni().peek_outgoing().is_some() {
                self.draining.push(i);
            }
        }
        self.lists_dirty = false;
        // External code had node access (`node_mut`, a driver's cycle): it
        // may have latched collective requests.
        self.coll_poll = true;
    }

    /// Advances the whole machine one cycle.
    pub fn step(&mut self) {
        if self.lists_dirty {
            self.refresh_lists();
        }
        self.step_once();
    }

    /// One full cycle. Returns (every running CPU environment-stalled,
    /// any interface state changed by the network phases).
    fn step_once(&mut self) -> (bool, bool) {
        let all_stalled = self.step_cpus();
        let changed = self.step_network();
        self.cycle += 1;
        (all_stalled, changed)
    }

    /// Phase 1: processors execute. Only nodes on the active list step;
    /// stopping nodes migrate to the draining list (if their interface still
    /// holds messages) or drop out entirely.
    fn step_cpus(&mut self) -> bool {
        let cycle = self.cycle;
        let mut all_env_stalled = true;
        let mut k = 0;
        while k < self.running.len() {
            let i = self.running[k];
            let outcome = self.nodes[i].step();
            if outcome != StepOutcome::StalledEnv {
                all_env_stalled = false;
            }
            if let Some(o) = self.obs.as_mut() {
                // Output-depth increases are enqueues; input-depth decreases
                // are dispatches. Both only happen while the CPU executes.
                let ni = self.nodes[i].ni();
                let in_depth = ni.input_len() + usize::from(ni.msg_valid());
                o.after_cpu_node(i, ni.output_len(), in_depth, cycle);
            }
            if self.nodes[i].is_stopped() {
                self.running.remove(k);
                if self.nodes[i].ni().peek_outgoing().is_some() {
                    let pos = self.draining.partition_point(|&d| d < i);
                    self.draining.insert(pos, i);
                }
                if let Some(t) = self.trace.as_mut() {
                    match self.nodes[i].cpu_state() {
                        tcni_cpu::CpuState::Halted => {
                            t.record(TraceEvent::Halted { cycle, node: i });
                        }
                        tcni_cpu::CpuState::Faulted { reason, .. } => {
                            t.record(TraceEvent::Faulted {
                                cycle,
                                node: i,
                                reason: reason.clone(),
                            });
                        }
                        tcni_cpu::CpuState::Running => {}
                    }
                }
            } else {
                k += 1;
            }
        }
        all_env_stalled
    }

    /// Feeds latched node [`CollPort`](Node::coll_request) requests into the
    /// collective engine, in ascending node order; an immediately-completed
    /// round (leafless tree) posts straight back to the node's mailbox.
    /// Rejections (busy slot, non-member) surface only through
    /// [`CollectiveStats`] — latches have no return channel.
    fn drain_coll_requests(&mut self) {
        let Some(coll) = self.collective.as_mut() else {
            return;
        };
        if !std::mem::take(&mut self.coll_poll) {
            return;
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            while let Some((op, value)) = node.coll_take_request() {
                if let Ok(Some(done)) = coll.contribute(i, op, value) {
                    node.coll_push_done(done);
                }
            }
        }
    }

    /// Phases 2–4: interfaces → network, fabric tick, network → interfaces.
    /// Returns whether any interface state changed (a message left an output
    /// queue or entered an input queue).
    fn step_network(&mut self) -> bool {
        let cycle = self.cycle;
        let mut changed = false;
        // Phase 2: one injection attempt per node with outgoing traffic, in
        // ascending node order. Protocol traffic (acks, retransmits,
        // collective combines) can originate at stopped nodes the
        // running/draining lists no longer scan — but those nodes are
        // exactly the ones on the delivery/collective outbox active lists.
        // Snapshot those (injection pops edit the live lists mid-walk) and
        // merge all the sorted lists: the same ascending node order as a
        // full scan, visiting only nodes that can possibly inject. Any node
        // outside every list is stopped with an empty interface and empty
        // outboxes, for which `inject_at` is a no-op.
        self.drain_coll_requests();
        let mut ob = std::mem::take(&mut self.outbox_scan);
        ob.clear();
        if let Some(del) = self.delivery.as_mut() {
            // Fire due retransmission timeouts first so the copies contend
            // for this cycle's injection slots.
            del.pump(cycle);
            ob.extend(del.outbox_nodes().iter().map(|&n| n as usize));
            // The active set is unordered (O(1) maintenance); the
            // injection merge below needs ascending node order.
            ob.sort_unstable();
        }
        let mut cob = std::mem::take(&mut self.coll_scan);
        cob.clear();
        if let Some(coll) = self.collective.as_ref() {
            cob.extend(coll.outbox_nodes().iter().map(|&n| n as usize));
        }
        let (mut r, mut d, mut o, mut c) = (0, 0, 0, 0);
        loop {
            let next = [
                self.running.get(r).copied(),
                self.draining.get(d).copied(),
                ob.get(o).copied(),
                cob.get(c).copied(),
            ]
            .into_iter()
            .flatten()
            .min();
            let Some(i) = next else { break };
            r += usize::from(self.running.get(r) == Some(&i));
            d += usize::from(self.draining.get(d) == Some(&i));
            o += usize::from(ob.get(o) == Some(&i));
            c += usize::from(cob.get(c) == Some(&i));
            changed |= self.inject_at(i, cycle);
        }
        self.outbox_scan = ob;
        self.coll_scan = cob;
        // Stopped nodes whose last message just left stop being scanned.
        if !self.draining.is_empty() {
            let nodes = &self.nodes;
            self.draining
                .retain(|&i| nodes[i].ni().peek_outgoing().is_some());
        }
        // Phase 3: the fabric advances.
        self.net.tick();
        // Phase 4: network → interfaces — skipped when the fabric is empty.
        if self.net.in_flight() > 0 {
            for i in 0..self.nodes.len() {
                let dst = NodeId::from_index(i);
                while let Some(peeked) = self.net.peek_eject(dst).copied() {
                    // Engine-bound: a collective message on a machine with
                    // an engine never enters (or backpressures) the NI input
                    // queue. Collective plumbing stays out of the trace/obs
                    // streams (it models NI hardware, not program traffic).
                    let coll_bound =
                        peeked.mtype == MsgType::COLLECTIVE && self.collective.is_some();
                    if let (Some(del), Some(_)) = (self.delivery.as_mut(), peeked.e2e) {
                        // A protocol-controlled arrival: the delivery layer
                        // decides its fate before the interface sees it.
                        match del.rx_action(i, &peeked) {
                            RxAction::Deliver if coll_bound => {
                                // An in-order collective arrival rides the
                                // protocol's exactly-once edge into the
                                // engine, which always accepts.
                                let mut msg = self.net.eject(dst).expect("peeked");
                                del.on_delivered(i, &msg, cycle);
                                msg.e2e = None;
                                self.coll_arrival(i, &msg);
                            }
                            RxAction::Deliver => {
                                if !self.nodes[i].ni().can_accept(&peeked) {
                                    break; // backpressure: leave it in the network
                                }
                                let mut msg = self.net.eject(dst).expect("peeked");
                                del.on_delivered(i, &msg, cycle);
                                if let Some(t) = self.trace.as_mut() {
                                    t.record(TraceEvent::Delivered {
                                        cycle: cycle + 1,
                                        node: i,
                                        msg,
                                    });
                                }
                                // The header is sideband plumbing; the
                                // interface receives the architected message.
                                msg.e2e = None;
                                self.deliver_to_ni(i, msg, cycle);
                            }
                            RxAction::Consume => {
                                // Ack, duplicate, gap, or corruption: eaten
                                // by the protocol, never enters the interface.
                                let msg = self.net.eject(dst).expect("peeked");
                                del.on_consumed(i, &msg, cycle);
                            }
                        }
                        changed = true;
                        continue;
                    }
                    if coll_bound {
                        let msg = self.net.eject(dst).expect("peeked");
                        self.coll_arrival(i, &msg);
                        changed = true;
                        continue;
                    }
                    if !self.nodes[i].ni().can_accept(&peeked) {
                        break; // backpressure: leave it in the network
                    }
                    let msg = self.net.eject(dst).expect("peeked");
                    // Stamped cycle+1: the first cycle the receiving CPU can
                    // observe the message, so Delivered − Sent equals the
                    // fabric-accounted latency (see `TraceEvent`).
                    if let Some(t) = self.trace.as_mut() {
                        t.record(TraceEvent::Delivered {
                            cycle: cycle + 1,
                            node: i,
                            msg,
                        });
                    }
                    self.deliver_to_ni(i, msg, cycle);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Phase-4 tail for engine-bound messages: routes an ejected arrival
    /// into the collective engine and posts any completed round to the
    /// node's mailbox.
    fn coll_arrival(&mut self, i: usize, msg: &Message) {
        if let Some(done) = self.collective.as_mut().and_then(|c| c.on_message(i, msg)) {
            self.nodes[i].coll_push_done(done);
        }
    }

    /// Phase-4 tail: moves an ejected message into node `i`'s interface
    /// (`can_accept` already checked) and mirrors the input depth for
    /// observability.
    fn deliver_to_ni(&mut self, i: usize, msg: Message, cycle: u64) {
        let ni = self.nodes[i].ni_mut();
        let depth_before = ni.input_len() + usize::from(ni.msg_valid());
        ni.push_incoming(msg).expect("can_accept checked");
        if let Some(o) = self.obs.as_mut() {
            // An unchanged input depth means the interface diverted the
            // message to the privileged queue.
            let depth_after = ni.input_len() + usize::from(ni.msg_valid());
            o.on_deliver(i, msg.seq, cycle + 1, depth_after == depth_before);
        }
    }

    /// Phase-2 body for one node: at most one injection per cycle. Protocol
    /// copies (acks, retransmits) take the slot ahead of queued collective
    /// messages, which take it ahead of fresh NI sends; fresh sends under
    /// the protocol are stamped, window-gated, and buffered for
    /// retransmission. Returns whether anything changed.
    fn inject_at(&mut self, i: usize, cycle: u64) -> bool {
        let src = NodeId::from_index(i);
        if let Some(del) = self.delivery.as_mut() {
            if let Some(&msg) = del.outbox_front(i) {
                return match self.net.inject(src, msg) {
                    // Congestion: the copy stays queued and retries.
                    Err(InjectError::Refused(_)) => false,
                    // A bad destination is unreachable by construction
                    // (protocol peers are real nodes, fabrics never report
                    // membership), but never wedge the outbox on it.
                    Ok(()) | Err(InjectError::BadDest(_) | InjectError::NotParticipant(_)) => {
                        del.outbox_pop(i);
                        true
                    }
                };
            }
        }
        if let Some(&msg) = self.collective.as_ref().and_then(|c| c.outbox_front(i)) {
            return self.inject_coll(i, src, msg, cycle);
        }
        let ni = self.nodes[i].ni_mut();
        let Some(mut msg) = ni.peek_outgoing().copied() else {
            return false;
        };
        if let Some(o) = self.obs.as_ref() {
            // Stamp the would-be sequence number; it is committed only if
            // the fabric accepts the injection.
            msg.seq = o.peek_seq();
        }
        if !self.gate_and_stamp(i, &mut msg) {
            return false;
        }
        match self.net.inject(src, msg) {
            Ok(()) => {
                self.nodes[i].ni_mut().pop_outgoing();
                self.commit_e2e(i, msg, cycle);
                if let Some(o) = self.obs.as_mut() {
                    o.on_inject(i, msg.seq, cycle);
                }
                if let Some(t) = self.trace.as_mut() {
                    t.record(TraceEvent::Sent {
                        cycle,
                        node: i,
                        msg,
                    });
                }
                true
            }
            // Congestion: the message stays queued and the send retries next
            // cycle (backpressure, §2.1.1).
            Err(InjectError::Refused(_)) => false,
            Err(InjectError::BadDest(_) | InjectError::NotParticipant(_)) => {
                self.drop_bad_dest(i);
                true
            }
        }
    }

    /// Under the delivery protocol, window-gates a fresh send from node `i`
    /// and stamps its header. Returns `false` when the flow's window is
    /// full: the message stays queued and retries, exactly like a refused
    /// injection. The stamp is pure, so a refused injection retries with
    /// the same psn. Messages to a destination outside the fabric pass
    /// unstamped (they fail injection as a bad destination).
    fn gate_and_stamp(&self, i: usize, msg: &mut Message) -> bool {
        let Some(del) = self.delivery.as_ref() else {
            return true;
        };
        let dst = msg.dest().index();
        if dst >= self.net.node_count() {
            return true;
        }
        if !del.can_admit(i, dst) {
            return false;
        }
        del.stamp(i, dst, msg);
        true
    }

    /// Buffers an injected, stamped message for retransmission.
    fn commit_e2e(&mut self, i: usize, msg: Message, cycle: u64) {
        if let (Some(del), Some(_)) = (self.delivery.as_mut(), msg.e2e) {
            del.commit(i, msg.dest().index(), msg, cycle);
        }
    }

    /// The undeliverable-message path of phase 2, out of line: dropping it
    /// beats wedging the output queue forever behind a message no fabric can
    /// route, and keeping the code out of the injection loop keeps the
    /// common path tight.
    #[cold]
    #[inline(never)]
    fn drop_bad_dest(&mut self, node: usize) {
        self.nodes[node].ni_mut().pop_outgoing();
        if let Some(o) = self.obs.as_mut() {
            o.on_bad_dest(node);
        }
    }

    /// Phase-2 body for one queued collective message: injected like a
    /// fresh NI send (window-gated and stamped under the delivery protocol,
    /// so combining trees ride the go-back-N edges over faulty fabrics) but
    /// invisible to trace/obs — it models NI hardware, not program traffic.
    fn inject_coll(&mut self, i: usize, src: NodeId, mut msg: Message, cycle: u64) -> bool {
        // Tree edges connect real nodes, so the destination always indexes
        // a delivery flow.
        if !self.gate_and_stamp(i, &mut msg) {
            return false;
        }
        match self.net.inject(src, msg) {
            // Congestion: retries next cycle.
            Err(InjectError::Refused(_)) => false,
            Ok(()) => {
                if let Some(coll) = self.collective.as_mut() {
                    coll.outbox_pop(i);
                }
                self.commit_e2e(i, msg, cycle);
                true
            }
            // Unreachable by construction (tree members are real nodes),
            // but never wedge the outbox.
            Err(InjectError::BadDest(_) | InjectError::NotParticipant(_)) => {
                if let Some(coll) = self.collective.as_mut() {
                    coll.outbox_pop(i);
                }
                true
            }
        }
    }

    /// Whether any node (running or draining) holds outgoing messages.
    fn any_outgoing(&self) -> bool {
        !self.draining.is_empty()
            || self.collective.as_ref().is_some_and(|c| c.outgoing() > 0)
            || self
                .running
                .iter()
                .any(|&i| self.nodes[i].ni().peek_outgoing().is_some())
    }

    /// The quiescence fast-forward. Entry condition (established by the
    /// caller): every running processor just spent a cycle
    /// environment-stalled *and* the network phases changed no interface
    /// state. A stalled instruction has no side effects and re-executes
    /// identically while the interface state it waits on is unchanged, so
    /// until an injection or delivery succeeds the processor phase is pure
    /// accounting: run network-only cycles — or jump, when the fabric can
    /// predict its next arrival — and bulk-charge the stall cycles at the
    /// end.
    fn fast_forward(&mut self, limit: u64) {
        let mut skipped: u64 = 0;
        while self.cycle < limit {
            // The delivery protocol runs timers (retransmission timeouts)
            // that must observe every cycle; while it has work in flight,
            // only the step-by-step path below is correct.
            let protocol_busy = self.delivery.as_ref().is_some_and(Delivery::active);
            if !protocol_busy && !self.any_outgoing() {
                if self.net.in_flight() == 0 {
                    // Nothing in flight and nothing to send: every stalled
                    // processor waits forever (e.g. SCROLL-IN on a flit that
                    // was never sent). Charge the remaining budget at once.
                    skipped += limit - self.cycle;
                    self.cycle = limit;
                    break;
                }
                if let Some(arrival) = self.net.next_arrival() {
                    // The tick of cycle c raises network time to c+1, so the
                    // earliest cycle whose delivery phase can see a message
                    // arriving at network time `a` is cycle a−1.
                    let target = arrival.saturating_sub(1).min(limit);
                    if target > self.cycle {
                        let delta = target - self.cycle;
                        self.net.advance(delta);
                        self.cycle += delta;
                        skipped += delta;
                        continue;
                    }
                }
            }
            let changed = self.step_network();
            self.cycle += 1;
            skipped += 1;
            if changed {
                break;
            }
        }
        self.skipped_cycles += skipped;
        for &i in &self.running {
            self.nodes[i].skip_env_stall(skipped);
        }
    }

    /// Whether every processor has stopped and all message state is empty
    /// (including the delivery protocol's retransmission buffers, if any).
    pub fn is_quiescent(&self) -> bool {
        self.nodes.iter().all(Node::is_quiescent)
            && self.net.in_flight() == 0
            && !self.delivery.as_ref().is_some_and(Delivery::active)
            && !self.collective.as_ref().is_some_and(Collective::active)
    }

    /// Runs until every processor stops (halt or fault) or `max_cycles`
    /// elapse.
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        if self.lists_dirty {
            self.refresh_lists();
        }
        let limit = self.cycle.saturating_add(max_cycles);
        while self.cycle < limit {
            if self.running.is_empty() {
                if self.is_quiescent() {
                    return RunOutcome::Quiescent;
                }
                // With the delivery protocol or collective engine on,
                // traffic can still be resolved after every processor
                // stops: in-flight copies get consumed, timeouts
                // retransmit, budgets expire, queued combines inject. Keep
                // the network phases (which pump both) running until the
                // machine settles one way or the other. Open collective
                // slots with no queued or in-flight messages cannot
                // progress without new contributions, so they fall through
                // to `StoppedWithTraffic` rather than spinning forever.
                if (self.delivery.is_some() || self.collective.is_some())
                    && (self.net.in_flight() > 0
                        || !self.draining.is_empty()
                        || self.delivery.as_ref().is_some_and(Delivery::active)
                        || self.collective.as_ref().is_some_and(|c| c.outgoing() > 0))
                {
                    self.step_network();
                    self.cycle += 1;
                    continue;
                }
                return RunOutcome::StoppedWithTraffic;
            }
            let (all_stalled, changed) = self.step_once();
            if self.skip_ahead && all_stalled && !changed && !self.running.is_empty() {
                self.fast_forward(limit);
            }
        }
        if self.is_quiescent() {
            RunOutcome::Quiescent
        } else {
            RunOutcome::CycleLimit
        }
    }

    /// Runs with a [`CycleDriver`] supplying the per-cycle stimulus: each
    /// cycle, the driver acts first (in the position of the processor phase),
    /// then any still-running processors step, then the normal network phases
    /// run. Returns when the driver asks to stop or `max_cycles` elapse.
    ///
    /// Unlike [`run`](Machine::run), a driven machine never fast-forwards —
    /// the driver is assumed to have work every cycle — and does not stop
    /// just because every processor halted: load generators run entirely on
    /// machines whose CPUs halt at cycle 0.
    pub fn run_driven<D: CycleDriver>(&mut self, driver: &mut D, max_cycles: u64) -> RunOutcome {
        let limit = self.cycle.saturating_add(max_cycles);
        while self.cycle < limit {
            let go_on = driver.on_cycle(self.cycle, &mut self.nodes);
            // The driver may have queued messages on (or stopped draining)
            // any node, including stopped ones.
            self.refresh_lists();
            let cycle = self.cycle;
            self.step_cpus();
            if let Some(o) = self.obs.as_mut() {
                // The driver's interface operations bypass `step_cpus`'s
                // per-node depth mirroring (it only visits running nodes);
                // re-mirror every node so enqueues and dispatches performed
                // by the driver are stamped. Nodes already mirrored this
                // cycle see unchanged depths — a no-op.
                for (i, node) in self.nodes.iter().enumerate() {
                    let ni = node.ni();
                    let in_depth = ni.input_len() + usize::from(ni.msg_valid());
                    o.after_cpu_node(i, ni.output_len(), in_depth, cycle);
                }
            }
            self.step_network();
            self.cycle += 1;
            if !go_on {
                return RunOutcome::DriverStopped;
            }
        }
        RunOutcome::CycleLimit
    }
}

/// Which network fabric a [`MachineBuilder`] instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NetChoice {
    Ideal { latency: u64 },
    Fabric(FabricConfig),
}

/// Builds a [`Machine`].
///
/// Defaults: optimized register-mapped model, paper timing (2-cycle off-chip
/// penalty), 16-message queues, 64 KiB memory per node, ideal zero-latency
/// network, and an empty (immediately halting) program on every node.
pub struct MachineBuilder {
    node_count: usize,
    model: Model,
    timing: TimingConfig,
    ni_config: NiConfig,
    wire_format: Option<WireFormat>,
    memory_bytes: usize,
    net: NetChoice,
    fault: Option<FaultConfig>,
    delivery: Option<DeliveryConfig>,
    programs: Vec<Option<Program>>,
    default_program: Program,
    collective: Option<CombiningTree>,
    skip_ahead: bool,
    dense_scan: bool,
    dense_flows: bool,
}

impl MachineBuilder {
    /// Starts a builder for `node_count` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `node_count` is zero or exceeds the wide wire format's
    /// 65536-node address space (see [`MachineBuilder::try_new`] for the
    /// fallible form).
    pub fn new(node_count: usize) -> MachineBuilder {
        match MachineBuilder::try_new(node_count) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// Starts a builder for `node_count` nodes, rejecting impossible
    /// machines with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`BuildError::NoNodes`] for zero nodes; [`BuildError::TooManyNodes`]
    /// beyond the wide [`WireFormat`]'s 65536-node address space. Within
    /// that ceiling the builder selects the smallest format that fits
    /// (compact through 256 nodes — the paper's exact byte layout — wide
    /// beyond), overridable with [`wire_format`](Self::wire_format).
    pub fn try_new(node_count: usize) -> Result<MachineBuilder, BuildError> {
        if node_count == 0 {
            return Err(BuildError::NoNodes);
        }
        if node_count > NodeId::MAX_NODES {
            return Err(BuildError::TooManyNodes {
                requested: node_count,
            });
        }
        let mut halt = tcni_isa::Assembler::new();
        halt.halt();
        Ok(MachineBuilder {
            node_count,
            model: Model::new(NiMapping::RegisterFile, FeatureLevel::Optimized),
            timing: TimingConfig::new(),
            ni_config: NiConfig::default(),
            wire_format: None,
            memory_bytes: 64 * 1024,
            net: NetChoice::Ideal { latency: 0 },
            fault: None,
            delivery: None,
            programs: vec![None; node_count],
            default_program: halt.assemble().expect("trivial program"),
            collective: None,
            skip_ahead: true,
            dense_scan: false,
            dense_flows: false,
        })
    }

    /// Selects one of the six §4 models.
    pub fn model(mut self, model: Model) -> MachineBuilder {
        self.model = model;
        self.ni_config.features = model.level.into();
        self
    }

    /// Overrides the timing configuration (e.g. the off-chip latency sweep).
    pub fn timing(mut self, timing: TimingConfig) -> MachineBuilder {
        self.timing = timing;
        self
    }

    /// Pins the wire format instead of letting the builder pick the
    /// smallest fit. Pinning [`WireFormat::Wide`] on a small machine is how
    /// a wide-format deployment is modelled at reduced scale; pinning
    /// [`WireFormat::Compact`] asserts the paper's byte layout and makes
    /// [`try_build`](Self::try_build) fail with
    /// [`BuildError::FormatTooSmall`] if the node count outgrows it.
    pub fn wire_format(mut self, format: WireFormat) -> MachineBuilder {
        self.wire_format = Some(format);
        self
    }

    /// Overrides interface queue sizing (keeps the model's feature set).
    pub fn ni_queues(mut self, input: usize, output: usize) -> MachineBuilder {
        self.ni_config.input_capacity = input;
        self.ni_config.output_capacity = output;
        self
    }

    /// Sets per-node memory size in bytes.
    pub fn memory_bytes(mut self, bytes: usize) -> MachineBuilder {
        self.memory_bytes = bytes;
        self
    }

    /// Uses an ideal fixed-latency network (default: latency 0).
    pub fn network_ideal(mut self, latency: u64) -> MachineBuilder {
        self.net = NetChoice::Ideal { latency };
        self
    }

    /// Uses a switched network fabric (mesh, torus, ring, or
    /// fully-connected, per [`FabricConfig::topo`]).
    ///
    /// # Panics
    ///
    /// Panics at [`build`](Self::build) if the fabric has fewer slots than
    /// the node count.
    pub fn network_fabric(mut self, config: FabricConfig) -> MachineBuilder {
        self.net = NetChoice::Fabric(config);
        self
    }

    /// Uses a switched network fabric of the given topology with default
    /// buffer capacities — the runtime topology-selection surface
    /// (equivalent to `network_fabric(FabricConfig::of(topo))`).
    ///
    /// # Panics
    ///
    /// Panics at [`build`](Self::build) if the fabric has fewer slots than
    /// the node count.
    pub fn topology(self, topo: TopologyKind) -> MachineBuilder {
        self.network_fabric(FabricConfig::of(topo))
    }

    /// Wraps the chosen fabric in a seeded fault-injection layer (see
    /// [`FaultyFabric`]). A zero-rate config is an exact pass-through; any
    /// nonzero rate makes the fabric unreliable, which the paper's programs
    /// do not tolerate unless [`delivery`](Self::delivery) is also enabled.
    pub fn network_fault(mut self, config: FaultConfig) -> MachineBuilder {
        self.fault = Some(config);
        self
    }

    /// Enables the end-to-end delivery protocol (ack/timeout/retransmit; see
    /// [`crate::Delivery`]'s module docs), restoring exactly-once in-order
    /// delivery over a faulty fabric.
    pub fn delivery(mut self, config: DeliveryConfig) -> MachineBuilder {
        self.delivery = Some(config);
        self
    }

    /// Enables the in-network collective engine over the given combining
    /// tree (see [`Collective`]): barrier, broadcast, and reduce as NIC
    /// primitives, combined at each tree node's interface instead of at the
    /// root processor. The tree's index space must match the node count,
    /// and its [`TreeShape`](tcni_net::TreeShape) must embed in the
    /// configured fabric's topology
    /// ([`BuildError::CollectiveTreeMismatch`] otherwise; ideal networks
    /// accept any shape). Machines built without this pay nothing for it.
    pub fn collective(mut self, tree: CombiningTree) -> MachineBuilder {
        self.collective = Some(tree);
        self
    }

    /// Enables or disables the quiescence fast-forward (default: enabled).
    pub fn skip_ahead(mut self, enabled: bool) -> MachineBuilder {
        self.skip_ahead = enabled;
        self
    }

    /// Enables or disables the dense-scan cross-check (default: disabled;
    /// see [`Machine::set_dense_scan`]).
    pub fn dense_scan(mut self, enabled: bool) -> MachineBuilder {
        self.dense_scan = enabled;
        self
    }

    /// Selects the delivery protocol's *dense* flow-table layout — the
    /// pre-sparse row-lazy `nodes²` tables — as a cross-check of the
    /// default sparse flow store (default: disabled). Behaviour is
    /// bit-identical between the two layouts; only memory footprint and
    /// the flow-footprint scan meters differ. Dense tables cap the machine
    /// at 32768 nodes ([`BuildError::DeliveryTooLarge`]).
    pub fn dense_flows(mut self, enabled: bool) -> MachineBuilder {
        self.dense_flows = enabled;
        self
    }

    /// Loads a program on one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn program(mut self, node: usize, program: Program) -> MachineBuilder {
        self.programs[node] = Some(program);
        self
    }

    /// Loads the same program on every node.
    pub fn program_all(mut self, program: Program) -> MachineBuilder {
        self.default_program = program;
        self
    }

    /// Builds the machine.
    ///
    /// # Panics
    ///
    /// Panics if the configured fabric is smaller than the node count (see
    /// [`MachineBuilder::try_build`] for the fallible form).
    pub fn build(self) -> Machine {
        match self.try_build() {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Builds the machine, rejecting inconsistent configurations with a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`BuildError::FabricTooSmall`] when the configured fabric has fewer
    /// slots than the machine has nodes; [`BuildError::FabricTooLarge`]
    /// when a fully-connected fabric exceeds its scaling ceiling;
    /// [`BuildError::FormatTooSmall`] when a pinned wire format cannot
    /// address the node count; [`BuildError::DeliveryTooLarge`] when the
    /// delivery protocol's dense cross-check layout
    /// ([`dense_flows`](Self::dense_flows)) is requested beyond its
    /// 32768-node ceiling (the default sparse store has none);
    /// [`BuildError::CollectiveTreeMismatch`] when a combining tree's size
    /// or shape does not fit the machine and its fabric.
    pub fn try_build(mut self) -> Result<Machine, BuildError> {
        // Resolve the wire format: the pinned one (checked), or the
        // smallest fit (total within try_new's 65536-node ceiling).
        let wire_format = match self.wire_format {
            Some(fmt) if self.node_count > fmt.max_nodes() => {
                return Err(BuildError::FormatTooSmall {
                    format: fmt,
                    nodes: self.node_count,
                });
            }
            Some(fmt) => fmt,
            None => WireFormat::for_nodes(self.node_count).expect("try_new bounds node_count"),
        };
        // Every NI in the machine composes messages under this format.
        self.ni_config.wire_format = wire_format;
        let mut net: NetworkKind = match self.net {
            NetChoice::Ideal { latency } => IdealNetwork::new(self.node_count, latency).into(),
            NetChoice::Fabric(cfg) => {
                // Cap checks run before construction: a too-large
                // fully-connected fabric would otherwise allocate its
                // quadratic channel table just to be rejected.
                if let TopologyKind::Full(fc) = cfg.topo {
                    if fc.nodes > FullyConnected::MAX_NODES {
                        return Err(BuildError::FabricTooLarge {
                            topo: cfg.topo.name(),
                            nodes: fc.nodes,
                            max: FullyConnected::MAX_NODES,
                        });
                    }
                }
                if cfg.topo.nodes() < self.node_count {
                    return Err(BuildError::FabricTooSmall {
                        topo: cfg.topo.name(),
                        fabric_nodes: cfg.topo.nodes(),
                        nodes: self.node_count,
                    });
                }
                Fabric::new(cfg).into()
            }
        };
        if let Some(fault) = self.fault {
            net = FaultyFabric::new(net, fault).into();
        }
        if self.delivery.is_some() && self.dense_flows && self.node_count > DENSE_FLOWS_MAX_NODES {
            return Err(BuildError::DeliveryTooLarge {
                nodes: self.node_count,
            });
        }
        let delivery = self
            .delivery
            .map(|cfg| Delivery::new(self.node_count, cfg, wire_format, self.dense_flows));
        if let Some(tree) = &self.collective {
            if tree.len() != self.node_count {
                return Err(BuildError::CollectiveTreeMismatch(TreeMismatch::Size {
                    tree_nodes: tree.len(),
                    nodes: self.node_count,
                }));
            }
            // The tree's geometry must be carriable by the base fabric's
            // links; the ideal network embeds any shape (uniform latency,
            // every pair one hop).
            if let NetChoice::Fabric(cfg) = self.net {
                if !tree.shape().embeds_in(&cfg.topo) {
                    return Err(BuildError::CollectiveTreeMismatch(TreeMismatch::Shape {
                        tree: tree.shape().name(),
                        fabric: cfg.topo.name(),
                    }));
                }
            }
        }
        let collective = self
            .collective
            .map(|tree| Collective::new(tree, wire_format));
        // The default program is shared across nodes, not cloned per node.
        let default_program = Arc::new(self.default_program);
        let nodes: Vec<Node> = self
            .programs
            .into_iter()
            .map(|p| {
                let program = match p {
                    Some(p) => Arc::new(p),
                    None => Arc::clone(&default_program),
                };
                Node::new(
                    self.model,
                    self.timing,
                    self.ni_config,
                    self.memory_bytes,
                    program,
                )
            })
            .collect();
        let mut machine = Machine {
            nodes,
            net,
            wire_format,
            cycle: 0,
            trace: None,
            obs: None,
            delivery,
            collective,
            running: Vec::new(),
            draining: Vec::new(),
            lists_dirty: true,
            skip_ahead: self.skip_ahead,
            skipped_cycles: 0,
            dense_scan: false,
            outbox_scan: Vec::new(),
            coll_scan: Vec::new(),
            coll_poll: false,
        };
        machine.refresh_lists();
        machine.set_dense_scan(self.dense_scan);
        Ok(machine)
    }
}
