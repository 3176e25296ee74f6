//! # simnet — deterministic simulated network
//!
//! A small discrete-event network simulator standing in for the paper's
//! testbed LAN (see DESIGN.md "Substitutions"). Nodes exchange byte
//! messages over links with configurable latency and bandwidth; time is
//! virtual, so message-size effects on delivery latency — the motivation
//! behind the paper's Table 1 — are measurable exactly and reproducibly.
//!
//! ```
//! # fn main() -> Result<(), simnet::NetError> {
//! use simnet::{LinkParams, Network};
//!
//! let mut net = Network::new();
//! let a = net.add_node("client");
//! let b = net.add_node("server");
//! net.connect(a, b, LinkParams::lan());
//! net.send(a, b, b"hello".to_vec())?;
//! let d = net.step().expect("one message in flight");
//! assert_eq!(d.to, b);
//! assert_eq!(d.payload, b"hello");
//! assert!(net.now_ns() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fault;
#[cfg(test)]
mod partition_tests;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use obs::{
    ActiveSpan, Counter, Ewma, FlightRecorder, Gauge, Histogram, Registry, TraceCtx, VirtualClock,
};
use pbio::WireBytes;

use fault::FaultState;
pub use fault::{FaultPlan, FaultStats, XorShift64};

/// Identifies a node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Link characteristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// One-way propagation latency in nanoseconds.
    pub latency_ns: u64,
    /// Bandwidth in bytes per second (0 means infinite).
    pub bandwidth_bps: u64,
}

impl LinkParams {
    /// A switched-LAN-like link: 100 µs latency, 100 MB/s.
    pub fn lan() -> LinkParams {
        LinkParams { latency_ns: 100_000, bandwidth_bps: 100_000_000 }
    }

    /// A WAN-like link: 40 ms latency, 1 MB/s.
    pub fn wan() -> LinkParams {
        LinkParams { latency_ns: 40_000_000, bandwidth_bps: 1_000_000 }
    }

    /// A constrained wireless-like link: 5 ms latency, 100 KB/s — the
    /// "low bandwidths of newly employed wireless links" of the paper's
    /// introduction.
    pub fn wireless() -> LinkParams {
        LinkParams { latency_ns: 5_000_000, bandwidth_bps: 100_000 }
    }

    /// Zero-latency, infinite-bandwidth link (pure functional testing).
    pub fn ideal() -> LinkParams {
        LinkParams { latency_ns: 0, bandwidth_bps: 0 }
    }

    /// Transmission (serialization) time for `len` bytes, in nanoseconds.
    pub fn tx_time_ns(&self, len: usize) -> u64 {
        if self.bandwidth_bps == 0 {
            0
        } else {
            (len as u128 * 1_000_000_000u128 / self.bandwidth_bps as u128) as u64
        }
    }
}

impl Default for LinkParams {
    fn default() -> LinkParams {
        LinkParams::ideal()
    }
}

/// Errors from the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// Referenced node does not exist.
    UnknownNode(NodeId),
    /// No link between the two nodes.
    NoRoute(NodeId, NodeId),
    /// The link exists but is administratively down (partition modeling).
    LinkDown(NodeId, NodeId),
    /// An endpoint is inside a scheduled crash window
    /// ([`Network::set_crash_windows`]) — the process is down, not the wire.
    NodeDown(NodeId),
    /// The payload exceeds the link's MTU ([`Network::set_link_mtu`]);
    /// the frame never enters the wire. Senders are expected to fragment.
    Oversized {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Refused payload size in bytes.
        len: usize,
        /// The link's configured MTU in bytes.
        mtu: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::NoRoute(a, b) => write!(f, "no link between {a} and {b}"),
            NetError::LinkDown(a, b) => write!(f, "link between {a} and {b} is down"),
            NetError::NodeDown(n) => write!(f, "node {n} is crashed"),
            NetError::Oversized { from, to, len, mtu } => {
                write!(f, "{len}-byte frame exceeds the {mtu}-byte MTU of link {from}->{to}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Message bytes — a [`WireBytes`] view sharing the sender's buffer, so
    /// cloning a delivery (inbox + return value) never copies the payload.
    pub payload: WireBytes,
    /// Virtual delivery time in nanoseconds.
    pub at_ns: u64,
}

#[derive(Debug)]
struct InFlight {
    deliver_at: u64,
    seq: u64,
    from: NodeId,
    to: NodeId,
    payload: WireBytes,
    /// Departure time — RTT sampling reads `deliver_at - sent_ns` at
    /// delivery, piggybacking on real traffic instead of probe frames.
    sent_ns: u64,
    /// Open hop span, finished at delivery ([`Network::step`]).
    span: Option<ActiveSpan>,
}

// Ordered by (deliver_at, seq); used through `Reverse` for a min-heap.
impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

#[derive(Debug, Default, Clone)]
struct LinkState {
    params: LinkParams,
    /// Earliest virtual time the link's transmitter is free.
    next_free_ns: u64,
    /// Bytes carried (for traffic accounting).
    bytes: u64,
    /// Messages carried.
    messages: u64,
    /// Administratively down (sends fail; in-flight messages still arrive).
    down: bool,
    /// Maximum payload size accepted by the link; 0 means unlimited.
    mtu: usize,
    /// Fault-injection state, when a [`FaultPlan`] is attached.
    fault: Option<FaultState>,
}

/// Per-link traffic statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Messages carried.
    pub messages: u64,
}

/// Accounting for scheduled node-crash windows
/// ([`Network::set_crash_windows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrashStats {
    /// Sends refused because an endpoint was inside a crash window.
    pub blocked: u64,
    /// In-flight messages discarded because their destination was crashed
    /// at delivery time.
    pub dropped: u64,
}

/// A crash-window boundary crossed as virtual time advanced — the raw
/// material of crash/restart recovery in the layer that owns the nodes
/// (see [`Network::take_crash_transitions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashTransition {
    /// The node whose window boundary was crossed.
    pub node: NodeId,
    /// The boundary instant: a window's `from_ns` (down) or `until_ns`
    /// (up). Windows are half-open, so the node is alive *at* `until_ns`.
    pub at_ns: u64,
    /// `false` when a window opened (the process crashed), `true` when it
    /// closed (the process restarted).
    pub up: bool,
}

/// A point-in-time reading of one directed link's windowed monitor — see
/// [`Network::link_bandwidth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkBandwidth {
    /// Payload bytes per second over the window.
    pub bytes_per_sec: u64,
    /// Frames (send attempts) per second over the window.
    pub frames_per_sec: u64,
    /// Lost frames per thousand attempts over the window (drops,
    /// partition-blocked sends, crash-window discards).
    pub loss_per_mille: u64,
    /// Smoothed round-trip estimate (EWMA over `2 × one-way` samples).
    pub rtt_ewma_ns: u64,
}

/// Rolling-window bandwidth/RTT monitor for one directed link
/// ([`Network::enable_link_monitors`]). Windows are driven by virtual
/// time, so monitor readings — like everything else in the simulator —
/// replay byte-identically.
/// One slot of the merged per-link traffic window.
#[derive(Debug, Clone, Copy, Default)]
struct TrafficSlot {
    epoch: u64,
    bytes: u64,
    frames: u64,
    losses: u64,
}

/// Payload bytes, send attempts (carried + lost), and losses over the
/// monitor window in a *single* ring: the per-frame send path computes
/// one epoch and touches one slot instead of three parallel
/// [`obs::RollingWindow`]s. Slot visibility and the rate's span rule
/// mirror `RollingWindow` exactly.
#[derive(Debug)]
struct TrafficWindow {
    slot_ns: u64,
    slots: Vec<TrafficSlot>,
}

impl TrafficWindow {
    fn new(slots: usize, slot_ns: u64) -> TrafficWindow {
        TrafficWindow { slot_ns: slot_ns.max(1), slots: vec![TrafficSlot::default(); slots.max(1)] }
    }

    /// The slot covering `now_ns`, reset lazily when its ring position is
    /// reused.
    fn slot_mut(&mut self, now_ns: u64) -> &mut TrafficSlot {
        let epoch = now_ns / self.slot_ns;
        let idx = (epoch % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if slot.epoch != epoch {
            *slot = TrafficSlot { epoch, ..TrafficSlot::default() };
        }
        slot
    }

    /// `(bytes, frames, losses)` still inside the window at `now_ns`.
    fn totals(&self, now_ns: u64) -> (u64, u64, u64) {
        let epoch = now_ns / self.slot_ns;
        let n = self.slots.len() as u64;
        let (mut bytes, mut frames, mut losses) = (0, 0, 0);
        for s in &self.slots {
            if s.epoch <= epoch && epoch - s.epoch < n {
                bytes += s.bytes;
                frames += s.frames;
                losses += s.losses;
            }
        }
        (bytes, frames, losses)
    }

    /// Windowed per-second rate of `sum`: the span is the elapsed time
    /// rounded up to a slot boundary, capped at the window width.
    fn rate(&self, sum: u64, now_ns: u64) -> u64 {
        let window = self.slot_ns * self.slots.len() as u64;
        let span = window.min((now_ns / self.slot_ns + 1) * self.slot_ns);
        u64::try_from(u128::from(sum) * 1_000_000_000 / u128::from(span)).unwrap_or(u64::MAX)
    }
}

#[derive(Debug)]
struct LinkMonitor {
    /// Bytes / attempts / losses entering the wire, windowed together.
    traffic: TrafficWindow,
    bandwidth_bps: Arc<Gauge>,
    frames_per_sec: Arc<Gauge>,
    loss_per_mille: Arc<Gauge>,
    rtt_ns: Arc<Histogram>,
    /// TCP-style smoothing: each sample weighs 1/8.
    rtt_ewma: Ewma,
    rtt_ewma_gauge: Arc<Gauge>,
    /// Slot epoch of the last gauge republish; `u64::MAX` before the
    /// first. Gauges refresh once per slot, not per frame — recomputing
    /// three windowed rates on every send is pure hot-path tax, and
    /// within a slot the rates cannot change by more than that slot's
    /// still-accumulating traffic anyway. [`LinkMonitor::reading`] always
    /// computes fresh.
    refreshed_epoch: u64,
}

impl LinkMonitor {
    fn new(slots: usize, slot_ns: u64, label: &str, registry: Option<&Registry>) -> LinkMonitor {
        let gauge = |suffix: &str| match registry {
            Some(r) => r.gauge(&format!("{label}.{suffix}")),
            None => Arc::new(Gauge::default()),
        };
        LinkMonitor {
            traffic: TrafficWindow::new(slots, slot_ns),
            bandwidth_bps: gauge("bandwidth_bps"),
            frames_per_sec: gauge("frames_per_sec"),
            loss_per_mille: gauge("loss_per_mille"),
            rtt_ns: registry.map_or_else(
                || Arc::new(Histogram::default()),
                |r| r.histogram(&format!("{label}.rtt_ns")),
            ),
            rtt_ewma: Ewma::new(1, 8),
            rtt_ewma_gauge: gauge("rtt_ewma_ns"),
            refreshed_epoch: u64::MAX,
        }
    }

    /// Accounts one send: `frames` attempts carrying `bytes` payload bytes,
    /// of which `losses` were lost in flight.
    fn on_send(&mut self, now_ns: u64, bytes: u64, frames: u64, losses: u64) {
        let slot = self.traffic.slot_mut(now_ns);
        slot.bytes += bytes;
        slot.frames += frames;
        slot.losses += losses;
        self.refresh(now_ns);
    }

    /// Accounts a loss that never entered (partition block, counted as an
    /// attempt too) or left the wire early (crash discard).
    fn on_loss(&mut self, now_ns: u64, also_attempt: bool) {
        let slot = self.traffic.slot_mut(now_ns);
        if also_attempt {
            slot.frames += 1;
        }
        slot.losses += 1;
        self.refresh(now_ns);
    }

    /// Folds one RTT sample (2 × the observed one-way latency) into the
    /// histogram and the smoothed estimate.
    fn on_rtt(&mut self, rtt_ns: u64) {
        self.rtt_ns.record(rtt_ns);
        self.rtt_ewma.observe(rtt_ns);
        self.rtt_ewma_gauge.set(i64::try_from(self.rtt_ewma.get()).unwrap_or(i64::MAX));
    }

    /// Re-publishes the windowed gauges, at most once per slot epoch.
    fn refresh(&mut self, now_ns: u64) {
        let epoch = now_ns / self.traffic.slot_ns;
        if epoch == self.refreshed_epoch {
            return;
        }
        self.refreshed_epoch = epoch;
        let clamp = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
        let (bytes, attempts, lost) = self.traffic.totals(now_ns);
        self.bandwidth_bps.set(clamp(self.traffic.rate(bytes, now_ns)));
        self.frames_per_sec.set(clamp(self.traffic.rate(attempts, now_ns)));
        self.loss_per_mille.set(clamp(loss_per_mille(lost, attempts)));
    }

    fn reading(&self, now_ns: u64) -> LinkBandwidth {
        let (bytes, attempts, lost) = self.traffic.totals(now_ns);
        LinkBandwidth {
            bytes_per_sec: self.traffic.rate(bytes, now_ns),
            frames_per_sec: self.traffic.rate(attempts, now_ns),
            loss_per_mille: loss_per_mille(lost, attempts),
            rtt_ewma_ns: self.rtt_ewma.get(),
        }
    }
}

/// Windowed losses per 1000 send attempts, saturated at 1000 (a loss may
/// land in a later slot than its attempt, so the quotient can transiently
/// exceed one).
fn loss_per_mille(lost: u64, attempts: u64) -> u64 {
    (lost * 1000).checked_div(attempts).unwrap_or(0).min(1000)
}

/// Cached `simnet.*` counter handles for an attached registry.
#[derive(Debug)]
struct NetMetrics {
    registry: Arc<Registry>,
    total_bytes: Arc<Counter>,
    total_messages: Arc<Counter>,
    fault_dropped: Arc<Counter>,
    fault_corrupted: Arc<Counter>,
    fault_duplicated: Arc<Counter>,
    fault_reordered: Arc<Counter>,
    fault_partition_blocked: Arc<Counter>,
    crash_blocked: Arc<Counter>,
    crash_dropped: Arc<Counter>,
    /// Per directed link `(bytes, messages)`, created on first send.
    per_link: HashMap<(NodeId, NodeId), (Arc<Counter>, Arc<Counter>)>,
}

/// The simulated network: nodes, links, a virtual clock, and an event queue.
#[derive(Debug, Default)]
pub struct Network {
    names: Vec<String>,
    links: HashMap<(NodeId, NodeId), LinkState>,
    queue: BinaryHeap<Reverse<InFlight>>,
    inboxes: Vec<VecDeque<Delivery>>,
    now_ns: u64,
    seq: u64,
    /// Mirror of `now_ns` readable by observers ([`obs::Clock`]); advanced
    /// on every step so registries on this clock stamp virtual time.
    clock: VirtualClock,
    metrics: Option<NetMetrics>,
    recorder: Option<Arc<FlightRecorder>>,
    /// Scheduled `[from_ns, until_ns)` crash windows per node — the
    /// server-loss mirror of [`FaultPlan`]'s partition windows.
    crash_windows: HashMap<NodeId, Vec<(u64, u64)>>,
    crash_stats: CrashStats,
    /// Every crash-window boundary, flattened and sorted by
    /// `(at_ns, restart-before-crash, node)` — rebuilt whenever windows
    /// change. `crash_cursor` marks the prefix already handed out by
    /// [`Network::take_crash_transitions`].
    crash_events: Vec<CrashTransition>,
    crash_cursor: usize,
    /// Per directed link rolling-window monitors
    /// ([`Network::enable_link_monitors`]), a dense `n×n` matrix indexed
    /// `from * stride + to`: the per-frame send/deliver paths index it
    /// without hashing a key.
    monitors: Vec<Option<LinkMonitor>>,
    /// Node count the monitor matrix was laid out for; it grows when
    /// nodes are added after monitors were enabled.
    monitor_stride: usize,
    /// `(slots, slot_ns)` monitor window, once enabled; links connected
    /// later get their monitors in [`Network::connect`].
    monitor_cfg: Option<(usize, u64)>,
}

impl Network {
    /// Creates an empty network at virtual time zero.
    pub fn new() -> Network {
        Network::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        self.names.push(name.into());
        self.inboxes.push(VecDeque::new());
        NodeId(self.names.len() - 1)
    }

    /// The node's name.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this network.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Connects two nodes bidirectionally with the same parameters. With
    /// link monitors enabled ([`Network::enable_link_monitors`]) both
    /// directions get their monitor here, so the monitor catalogue does not
    /// depend on whether links were connected before or after enabling.
    pub fn connect(&mut self, a: NodeId, b: NodeId, params: LinkParams) {
        self.links.insert((a, b), LinkState { params, ..LinkState::default() });
        self.links.insert((b, a), LinkState { params, ..LinkState::default() });
        self.monitor_entry(a, b);
        self.monitor_entry(b, a);
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// A [`VirtualClock`] view of this network's virtual time. Handles are
    /// shared: build an [`obs::Registry`] on it (`Registry::with_clock`)
    /// and every snapshot and timer follows simulation time, making metric
    /// output fully deterministic.
    pub fn virtual_clock(&self) -> VirtualClock {
        self.clock.clone()
    }

    /// Attaches a registry to receive traffic counters: totals
    /// (`simnet.bytes`, `simnet.messages`) and per directed link
    /// (`simnet.link.<from>-><to>.bytes` / `.messages`, named by node
    /// names). Counting starts at attachment; link handles are created on
    /// first send over each link.
    pub fn attach_registry(&mut self, registry: Arc<Registry>) {
        self.metrics = Some(NetMetrics {
            total_bytes: registry.counter("simnet.bytes"),
            total_messages: registry.counter("simnet.messages"),
            fault_dropped: registry.counter("simnet.fault.dropped"),
            fault_corrupted: registry.counter("simnet.fault.corrupted"),
            fault_duplicated: registry.counter("simnet.fault.duplicated"),
            fault_reordered: registry.counter("simnet.fault.reordered"),
            fault_partition_blocked: registry.counter("simnet.fault.partition_blocked"),
            crash_blocked: registry.counter("simnet.crash.blocked"),
            crash_dropped: registry.counter("simnet.crash.dropped"),
            per_link: HashMap::new(),
            registry,
        });
    }

    /// Enables per-link bandwidth/RTT monitors over a rolling window of
    /// `slots × slot_ns` virtual nanoseconds. Every directed link, existing
    /// or connected later, gains windowed gauges
    /// (`simnet.link.<from>-><to>.bandwidth_bps`, `.frames_per_sec`,
    /// `.loss_per_mille`, `.rtt_ewma_ns`) and an RTT histogram
    /// (`.rtt_ns`) in the attached registry, refreshed on each
    /// send/delivery; RTT samples piggyback on the traffic already
    /// flowing (each delivery contributes `2 × one-way latency`, so no
    /// probe frames are injected). Readable programmatically via
    /// [`Network::link_bandwidth`]. Call after [`Network::attach_registry`]
    /// to get the gauges; without a registry the readings stay
    /// query-only.
    pub fn enable_link_monitors(&mut self, slots: usize, slot_ns: u64) {
        self.monitor_cfg = Some((slots, slot_ns));
        let links: Vec<(NodeId, NodeId)> = self.links.keys().copied().collect();
        for (from, to) in links {
            self.monitor_entry(from, to);
        }
    }

    /// The monitor for a directed link, created on first call once
    /// monitors are enabled. `None` while monitors are disabled.
    fn monitor_entry(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkMonitor> {
        let (slots, slot_ns) = self.monitor_cfg?;
        let n = self.names.len();
        if self.monitor_stride < n {
            // Nodes joined since the matrix was laid out: re-stride it,
            // carrying existing monitors to their new positions.
            let old = std::mem::take(&mut self.monitors);
            let old_stride = self.monitor_stride;
            self.monitors = (0..n * n).map(|_| None).collect();
            for (i, m) in old.into_iter().enumerate() {
                if m.is_some() {
                    self.monitors[(i / old_stride) * n + i % old_stride] = m;
                }
            }
            self.monitor_stride = n;
        }
        let idx = from.0 * self.monitor_stride + to.0;
        if self.monitors[idx].is_none() {
            let label = format!("simnet.link.{}->{}", &self.names[from.0], &self.names[to.0]);
            self.monitors[idx] = Some(LinkMonitor::new(
                slots,
                slot_ns,
                &label,
                self.metrics.as_ref().map(|m| m.registry.as_ref()),
            ));
        }
        self.monitors[idx].as_mut()
    }

    /// The existing monitor of a directed link, without creating one.
    fn monitor_mut(&mut self, from: NodeId, to: NodeId) -> Option<&mut LinkMonitor> {
        if from.0 >= self.monitor_stride || to.0 >= self.monitor_stride {
            return None;
        }
        self.monitors[from.0 * self.monitor_stride + to.0].as_mut()
    }

    /// The current windowed reading of a directed link's monitor, or
    /// `None` when monitors are disabled ([`Network::enable_link_monitors`])
    /// or the link has carried no traffic yet.
    pub fn link_bandwidth(&self, from: NodeId, to: NodeId) -> Option<LinkBandwidth> {
        if from.0 >= self.monitor_stride || to.0 >= self.monitor_stride {
            return None;
        }
        Some(self.monitors[from.0 * self.monitor_stride + to.0].as_ref()?.reading(self.now_ns))
    }

    /// Attaches a [`FlightRecorder`] so traced sends
    /// ([`Network::send_traced`]) annotate each hop with a virtual-time
    /// link span and tag injected faults onto the trace. Build the
    /// recorder on this network's [`Network::virtual_clock`] for
    /// deterministic, byte-identical trace exports per seed.
    pub fn attach_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Attaches a [`FaultPlan`] to the (bidirectional) link between two
    /// nodes. Each direction draws faults from its own PRNG, seeded from the
    /// plan seed and the directed link identity, so runs are deterministic.
    /// Replaces any previous plan (and resets its fault counters). No-op for
    /// nonexistent links.
    pub fn set_fault_plan(&mut self, a: NodeId, b: NodeId, plan: FaultPlan) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.fault = Some(FaultState::new(plan.clone(), key.0 .0, key.1 .0));
            }
        }
    }

    /// Removes any fault plan from the (bidirectional) link.
    pub fn clear_fault_plan(&mut self, a: NodeId, b: NodeId) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.fault = None;
            }
        }
    }

    /// Fault accounting for the directed link `from → to`, if a plan is (or
    /// was) attached.
    pub fn fault_stats(&self, from: NodeId, to: NodeId) -> Option<FaultStats> {
        self.links.get(&(from, to)).and_then(|l| l.fault.as_ref()).map(|f| f.stats)
    }

    /// Aggregated fault accounting across every directed link.
    pub fn fault_totals(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for link in self.links.values() {
            if let Some(f) = &link.fault {
                total.absorb(&f.stats);
            }
        }
        total
    }

    /// Schedules crash windows for a node: during any half-open
    /// `[from_ns, until_ns)` window the node is down — sends from or to it
    /// are refused with [`NetError::NodeDown`], and in-flight messages
    /// reaching it are silently discarded (counted in
    /// [`Network::crash_stats`]). The mirror of [`FaultPlan`]'s scheduled
    /// partition windows for *process* loss: replica crashes become
    /// injectable and, being pure schedule, replayable per seed. Replaces
    /// any previous windows for the node.
    pub fn set_crash_windows(&mut self, node: NodeId, windows: &[(u64, u64)]) {
        self.crash_windows.insert(node, windows.to_vec());
        self.rebuild_crash_events();
    }

    /// Removes every scheduled crash window for the node.
    pub fn clear_crash_windows(&mut self, node: NodeId) {
        self.crash_windows.remove(&node);
        self.rebuild_crash_events();
    }

    /// Flattens the window schedule into the sorted boundary-event list.
    /// Boundaries already in the past when the schedule changes are marked
    /// taken, so late re-scheduling cannot replay old transitions.
    fn rebuild_crash_events(&mut self) {
        let mut events: Vec<CrashTransition> = Vec::new();
        for (&node, windows) in &self.crash_windows {
            for &(from, until) in windows {
                if from >= until {
                    continue; // degenerate window: never down
                }
                events.push(CrashTransition { node, at_ns: from, up: false });
                events.push(CrashTransition { node, at_ns: until, up: true });
            }
        }
        // Restarts sort before crashes at the same instant: back-to-back
        // windows `[a,b) [b,c)` then read as one continuous outage.
        events.sort_by_key(|e| (e.at_ns, !e.up, e.node.0));
        self.crash_cursor = events.iter().take_while(|e| e.at_ns < self.now_ns).count();
        self.crash_events = events;
    }

    /// Returns — once each — every crash-window boundary with
    /// `at_ns <= upto_ns`, in `(at_ns, restart-before-crash, node)` order.
    /// The layer owning the processes polls this as virtual time advances
    /// to run amnesia (window opened) and recovery (window closed) at
    /// deterministic instants; repeated calls never hand out a boundary
    /// twice, so replays observe the identical transition stream.
    pub fn take_crash_transitions(&mut self, upto_ns: u64) -> Vec<CrashTransition> {
        let start = self.crash_cursor;
        let mut end = start;
        while end < self.crash_events.len() && self.crash_events[end].at_ns <= upto_ns {
            end += 1;
        }
        self.crash_cursor = end;
        self.crash_events[start..end].to_vec()
    }

    /// The instant of the next crash-window boundary not yet handed out by
    /// [`Network::take_crash_transitions`], if any — an idle component can
    /// advance virtual time to it so restarts fire even when no traffic is
    /// in flight.
    pub fn next_crash_transition(&self) -> Option<u64> {
        self.crash_events.get(self.crash_cursor).map(|e| e.at_ns)
    }

    /// True when `at_ns` falls inside one of the node's crash windows.
    pub fn node_crashed_at(&self, node: NodeId, at_ns: u64) -> bool {
        self.crash_windows
            .get(&node)
            .is_some_and(|ws| ws.iter().any(|&(from, until)| at_ns >= from && at_ns < until))
    }

    /// When the node is down at `at_ns`, the `until_ns` of the covering
    /// crash window (merging back-to-back windows, so the returned instant
    /// is the first at which the node is actually alive again). `None`
    /// while the node is up — retry layers use this to *park* frames for a
    /// crashed peer until its scheduled restart instead of burning backoff
    /// attempts into a process that cannot answer.
    pub fn node_down_until(&self, node: NodeId, at_ns: u64) -> Option<u64> {
        let windows = self.crash_windows.get(&node)?;
        let mut t = at_ns;
        let mut covered = false;
        // Windows may be unsorted and may abut; chase the cover point until
        // no window contains it.
        while let Some(&(_, until)) = windows.iter().find(|&&(from, until)| t >= from && t < until)
        {
            covered = true;
            t = until;
        }
        covered.then_some(t)
    }

    /// Accounting for crash-window refusals and drops.
    pub fn crash_stats(&self) -> CrashStats {
        self.crash_stats
    }

    /// Advances virtual time by `delta_ns` without delivering anything —
    /// models a component waiting (e.g. a retry backoff) while the network
    /// is quiet. Time never runs backwards past queued deliveries; they
    /// simply become due.
    pub fn advance_ns(&mut self, delta_ns: u64) {
        self.now_ns += delta_ns;
        self.clock.set_ns(self.now_ns);
    }

    /// Queues a message for delivery, returning its delivery time. The time
    /// accounts for link serialization (bandwidth), propagation latency, and
    /// queueing behind earlier messages on the same directed link.
    ///
    /// The payload is taken as anything convertible to [`WireBytes`]: a
    /// `Vec<u8>` is promoted once, while passing an existing `WireBytes`
    /// (or a clone) enters the wire without copying a byte. Fault-injected
    /// duplication also only clones the view; corruption copies-on-write
    /// the single affected copy.
    ///
    /// If the link carries a [`FaultPlan`], the plan may drop the message
    /// (it still "sends" successfully — loss is silent to the sender),
    /// duplicate it, flip one byte of a queued copy, delay it (jitter or
    /// forced reordering), or — during a scheduled partition window — refuse
    /// it with [`NetError::LinkDown`].
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownNode`] / [`NetError::NoRoute`],
    /// [`NetError::LinkDown`] when the link is administratively down or
    /// inside a scheduled partition window, and [`NetError::NodeDown`] when
    /// either endpoint is inside a scheduled crash window
    /// ([`Network::set_crash_windows`]).
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Into<WireBytes>,
    ) -> Result<u64, NetError> {
        self.send_traced(from, to, payload, None)
    }

    /// [`Network::send`] carrying a trace context: when a
    /// [`FlightRecorder`] is attached ([`Network::attach_recorder`]), the
    /// hop is annotated with a `simnet.link.<from>-><to>` span from
    /// departure to delivery, injected faults are tagged onto it
    /// (`fault=corrupt` / `duplicate` / `reorder`), dropped copies become
    /// `simnet.fault.dropped` instants, sends refused inside a
    /// scheduled partition window record `simnet.fault.partition_blocked`,
    /// and sends refused by a crash window record `simnet.crash.blocked`.
    /// With `ctx` of `None` (or no recorder) this is exactly [`Network::send`].
    ///
    /// # Errors
    ///
    /// As for [`Network::send`].
    pub fn send_traced(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload: impl Into<WireBytes>,
        ctx: Option<TraceCtx>,
    ) -> Result<u64, NetError> {
        let payload: WireBytes = payload.into();
        if from.0 >= self.names.len() {
            return Err(NetError::UnknownNode(from));
        }
        if to.0 >= self.names.len() {
            return Err(NetError::UnknownNode(to));
        }
        let trace = match (&self.recorder, ctx) {
            (Some(rec), Some(ctx)) => Some((Arc::clone(rec), ctx)),
            _ => None,
        };
        let now = self.now_ns;
        // A crashed endpoint refuses traffic before the wire is consulted:
        // the process is down, not the link.
        for node in [from, to] {
            if self.node_crashed_at(node, now) {
                self.crash_stats.blocked += 1;
                if let Some(m) = &self.metrics {
                    m.crash_blocked.inc();
                }
                if let Some((rec, ctx)) = &trace {
                    rec.instant_at(
                        ctx.trace,
                        ctx.parent,
                        "simnet.crash.blocked",
                        &[("node", &self.names[node.0])],
                        now,
                    );
                }
                return Err(NetError::NodeDown(node));
            }
        }
        let link_label = || format!("simnet.link.{}->{}", &self.names[from.0], &self.names[to.0]);
        let link = self.links.get_mut(&(from, to)).ok_or(NetError::NoRoute(from, to))?;
        if link.down {
            return Err(NetError::LinkDown(from, to));
        }
        if link.mtu != 0 && payload.len() > link.mtu {
            return Err(NetError::Oversized { from, to, len: payload.len(), mtu: link.mtu });
        }
        if let Some(f) = &mut link.fault {
            if f.plan.partitioned_at(now) {
                f.stats.partition_blocked += 1;
                if let Some(m) = &self.metrics {
                    m.fault_partition_blocked.inc();
                }
                if let Some((rec, ctx)) = &trace {
                    let label =
                        format!("simnet.link.{}->{}", &self.names[from.0], &self.names[to.0]);
                    rec.instant_at(
                        ctx.trace,
                        ctx.parent,
                        "simnet.fault.partition_blocked",
                        &[("link", &label)],
                        now,
                    );
                }
                // A blocked send is an attempt the window must see: the
                // loss rate is what adaptive shedding keys off.
                if let Some(mon) = self.monitor_mut(from, to) {
                    mon.on_loss(now, true);
                }
                return Err(NetError::LinkDown(from, to));
            }
        }
        let depart = now.max(link.next_free_ns);
        let tx = link.params.tx_time_ns(payload.len());
        let base_deliver = depart + tx + link.params.latency_ns;
        link.next_free_ns = depart + tx;

        // Decide the copies that actually enter the wire. `entered` counts
        // transmitted copies (including ones lost in flight) so traffic
        // accounting preserves the identity:
        //   messages carried == deliveries + fault.dropped
        // Each queued copy remembers which faults hit it so the trace can
        // tag the hop span.
        let payload_len = payload.len() as u64;
        struct Copy {
            at: u64,
            payload: WireBytes,
            corrupted: bool,
            reordered: bool,
            duplicate: bool,
        }
        let mut queued: Vec<Copy> = Vec::with_capacity(2);
        let mut delta = FaultStats::default();
        let mut entered: u64 = 1;
        let deliver_at = match &mut link.fault {
            Some(f) if f.plan.has_random_faults() => {
                if f.rng.chance_pm(f.plan.drop_pm) {
                    f.stats.dropped += 1;
                    delta.dropped = 1;
                    base_deliver
                } else {
                    // Duplication shares the frame as transmitted (a view
                    // clone, not a byte copy); each copy then draws its
                    // in-flight faults independently.
                    let dup = f.rng.chance_pm(f.plan.duplicate_pm).then(|| payload.clone());
                    let mut original = payload;
                    let (at, corrupted, reordered) =
                        Self::copy_faults(f, &mut delta, base_deliver, &mut original);
                    queued.push(Copy {
                        at,
                        payload: original,
                        corrupted,
                        reordered,
                        duplicate: false,
                    });
                    if let Some(mut copy) = dup {
                        entered += 1;
                        f.stats.duplicated += 1;
                        delta.duplicated += 1;
                        let (at2, corrupted, reordered) =
                            Self::copy_faults(f, &mut delta, base_deliver, &mut copy);
                        queued.push(Copy {
                            at: at2,
                            payload: copy,
                            corrupted,
                            reordered,
                            duplicate: true,
                        });
                    }
                    at
                }
            }
            _ => {
                queued.push(Copy {
                    at: base_deliver,
                    payload,
                    corrupted: false,
                    reordered: false,
                    duplicate: false,
                });
                base_deliver
            }
        };
        link.bytes += payload_len * entered;
        link.messages += entered;
        if let Some(m) = &mut self.metrics {
            let (bytes, messages) = m.per_link.entry((from, to)).or_insert_with(|| {
                let link_name =
                    format!("simnet.link.{}->{}", &self.names[from.0], &self.names[to.0]);
                (
                    m.registry.counter(&format!("{link_name}.bytes")),
                    m.registry.counter(&format!("{link_name}.messages")),
                )
            });
            bytes.add(payload_len * entered);
            messages.add(entered);
            m.total_bytes.add(payload_len * entered);
            m.total_messages.add(entered);
            m.fault_dropped.add(delta.dropped);
            m.fault_corrupted.add(delta.corrupted);
            m.fault_duplicated.add(delta.duplicated);
            m.fault_reordered.add(delta.reordered);
        }
        if delta.dropped > 0 {
            if let Some((rec, ctx)) = &trace {
                rec.instant_at(
                    ctx.trace,
                    ctx.parent,
                    "simnet.fault.dropped",
                    &[("link", &link_label())],
                    depart,
                );
            }
        }
        for c in queued {
            let span = trace.as_ref().map(|(rec, ctx)| {
                let mut span = rec.start_at(ctx.trace, ctx.parent, &link_label(), depart);
                if c.duplicate {
                    span.tag("fault", "duplicate");
                }
                if c.corrupted {
                    span.tag("fault", "corrupt");
                }
                if c.reordered {
                    span.tag("fault", "reorder");
                }
                span
            });
            self.seq += 1;
            self.queue.push(Reverse(InFlight {
                deliver_at: c.at,
                seq: self.seq,
                from,
                to,
                payload: c.payload,
                sent_ns: depart,
                span,
            }));
        }
        if let Some(mon) = self.monitor_mut(from, to) {
            mon.on_send(now, payload_len * entered, entered, delta.dropped);
        }
        Ok(deliver_at)
    }

    /// Draws the in-flight faults for one queued copy: latency jitter,
    /// forced reordering delay, and single-byte corruption. Returns the
    /// copy's delivery time and whether it was corrupted / reordered.
    /// Corruption is the only fault that touches payload bytes, and it
    /// copies-on-write: un-faulted copies keep sharing the sender's buffer.
    fn copy_faults(
        f: &mut FaultState,
        delta: &mut FaultStats,
        base_deliver: u64,
        payload: &mut WireBytes,
    ) -> (u64, bool, bool) {
        let mut at = base_deliver;
        let mut reordered = false;
        let mut corrupted = false;
        if f.plan.jitter_ns > 0 {
            at += f.rng.below(f.plan.jitter_ns + 1);
        }
        if f.rng.chance_pm(f.plan.reorder_pm) {
            at += f.plan.reorder_extra_ns;
            f.stats.reordered += 1;
            delta.reordered += 1;
            reordered = true;
        }
        if f.rng.chance_pm(f.plan.corrupt_pm) && !payload.is_empty() {
            let idx = f.rng.below(payload.len() as u64) as usize;
            let flip = (f.rng.below(255) + 1) as u8; // never a zero XOR
            let mut bytes = payload.to_vec();
            bytes[idx] ^= flip;
            *payload = WireBytes::from(bytes);
            f.stats.corrupted += 1;
            delta.corrupted += 1;
            corrupted = true;
        }
        (at, corrupted, reordered)
    }

    /// Delivers the next in-flight message, advancing the clock to its
    /// delivery time and depositing it in the receiver's inbox. Messages
    /// whose destination is inside a crash window at delivery time are
    /// discarded (the process is not there to receive them) and accounted
    /// in [`Network::crash_stats`]. Returns `None` when nothing is in
    /// flight.
    pub fn step(&mut self) -> Option<Delivery> {
        self.step_limited(None)
    }

    /// [`Network::step`] bounded at `before_ns`: delivers the next message
    /// only if it lands strictly before the cutoff, leaving later traffic
    /// in flight. Drivers use this to keep deliveries from crossing a
    /// crash-window boundary ([`Network::next_crash_transition`]).
    pub fn step_before(&mut self, before_ns: u64) -> Option<Delivery> {
        self.step_limited(Some(before_ns))
    }

    /// [`Network::step`] bounded by an optional cutoff: messages with
    /// `deliver_at >= limit` stay in flight. Each pop re-checks the bound,
    /// so a crash-discarded front never makes the loop overshoot past the
    /// cutoff into later traffic.
    fn step_limited(&mut self, before_ns: Option<u64>) -> Option<Delivery> {
        loop {
            if let Some(limit) = before_ns {
                match self.queue.peek() {
                    Some(Reverse(m)) if m.deliver_at < limit => {}
                    _ => return None,
                }
            }
            let Reverse(mut m) = self.queue.pop()?;
            self.now_ns = self.now_ns.max(m.deliver_at);
            self.clock.set_ns(self.now_ns);
            let crashed = self.node_crashed_at(m.to, m.deliver_at);
            if let Some(mut span) = m.span.take() {
                if crashed {
                    span.tag("fault", "crash");
                    if let Some(rec) = &self.recorder {
                        rec.instant_at(
                            span.trace(),
                            Some(span.id()),
                            "simnet.crash.dropped",
                            &[("node", &self.names[m.to.0])],
                            m.deliver_at,
                        );
                    }
                }
                span.finish(); // commits [depart..deliver] on the virtual clock
            }
            if crashed {
                self.crash_stats.dropped += 1;
                if let Some(mm) = &self.metrics {
                    mm.crash_dropped.inc();
                }
                // Already counted as an attempt at send time.
                if let Some(mon) = self.monitor_mut(m.from, m.to) {
                    mon.on_loss(m.deliver_at, false);
                }
                continue;
            }
            if let Some(mon) = self.monitor_mut(m.from, m.to) {
                mon.on_rtt(2 * m.deliver_at.saturating_sub(m.sent_ns));
            }
            let d = Delivery { from: m.from, to: m.to, payload: m.payload, at_ns: m.deliver_at };
            self.inboxes[d.to.0].push_back(d.clone());
            return Some(d);
        }
    }

    /// Drains the inbox of `node` (messages already delivered by
    /// [`Network::step`]).
    pub fn recv(&mut self, node: NodeId) -> Option<Delivery> {
        self.inboxes.get_mut(node.0)?.pop_front()
    }

    /// True when no messages are in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The delivery time of the earliest in-flight message, if any — the
    /// peek counterpart of [`Network::step`], so a driver can decide
    /// whether a crash-window boundary ([`Network::next_crash_transition`])
    /// falls due before the next delivery.
    pub fn next_delivery_at(&self) -> Option<u64> {
        self.queue.peek().map(|Reverse(m)| m.deliver_at)
    }

    /// Drains **every** message currently in flight, bucketed by the
    /// destination's shard — the batch boundary of the wall-clock driver's
    /// fork-join rounds (see `echo::WallClockDriver`).
    ///
    /// Each popped message goes through exactly the [`Network::step`]
    /// delivery pipeline (clock advance, hop-span finish, crash-window
    /// drops) but bypasses the inboxes, like [`Network::run`]. Messages are
    /// popped in global `(deliver_at, seq)` order, so within each bucket —
    /// and hence for any single destination node — deliveries stay in
    /// simulated arrival order even when buckets are then consumed on
    /// different threads.
    ///
    /// Messages the callback-equivalent sends *during* shard processing are
    /// queued normally and picked up by the next round; the returned
    /// batch is a consistent snapshot of the in-flight set.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard_of` returns an index `>= shards`.
    pub fn drain_ready_sharded<F>(&mut self, shards: usize, shard_of: F) -> Vec<Vec<Delivery>>
    where
        F: Fn(NodeId) -> usize,
    {
        assert!(shards > 0, "at least one shard required");
        let mut buckets: Vec<Vec<Delivery>> = (0..shards).map(|_| Vec::new()).collect();
        while let Some(d) = self.step() {
            self.inboxes[d.to.0].pop_back(); // bypass inboxes, as in run()
            buckets[shard_of(d.to)].push(d);
        }
        buckets
    }

    /// [`Network::drain_ready_sharded`] bounded by a time cutoff: drains
    /// only messages with `deliver_at < before_ns`, leaving later traffic
    /// in flight. The batch boundary a crash-aware driver needs — a round
    /// must not straddle a crash-window boundary, or deliveries after a
    /// restart would be handled with pre-restart state.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or `shard_of` returns an index `>= shards`.
    pub fn drain_ready_sharded_before<F>(
        &mut self,
        shards: usize,
        before_ns: u64,
        shard_of: F,
    ) -> Vec<Vec<Delivery>>
    where
        F: Fn(NodeId) -> usize,
    {
        assert!(shards > 0, "at least one shard required");
        let mut buckets: Vec<Vec<Delivery>> = (0..shards).map(|_| Vec::new()).collect();
        while let Some(d) = self.step_limited(Some(before_ns)) {
            self.inboxes[d.to.0].pop_back(); // bypass inboxes, as in run()
            buckets[shard_of(d.to)].push(d);
        }
        buckets
    }

    /// Steps until idle, invoking `on_delivery` for each message (inboxes
    /// are bypassed). The callback may send more messages through the
    /// provided `&mut Network`. Returns the number of deliveries.
    pub fn run<F>(&mut self, mut on_delivery: F) -> usize
    where
        F: FnMut(&mut Network, Delivery),
    {
        let mut n = 0;
        while let Some(d) = self.step() {
            self.inboxes[d.to.0].pop_back();
            on_delivery(self, d);
            n += 1;
        }
        n
    }

    /// Administratively raises or lowers the (bidirectional) link between
    /// two nodes — partition modeling. Messages already in flight are still
    /// delivered; new sends fail with [`NetError::LinkDown`] while lowered.
    /// No-op for nonexistent links.
    pub fn set_link_up(&mut self, a: NodeId, b: NodeId, up: bool) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.down = !up;
            }
        }
    }

    /// Sets the MTU of the (bidirectional) link between two nodes: sends
    /// whose payload exceeds `mtu` bytes are refused with
    /// [`NetError::Oversized`] before entering the wire. An `mtu` of 0
    /// (the default) means unlimited. No-op for nonexistent links.
    pub fn set_link_mtu(&mut self, a: NodeId, b: NodeId, mtu: usize) {
        for key in [(a, b), (b, a)] {
            if let Some(link) = self.links.get_mut(&key) {
                link.mtu = mtu;
            }
        }
    }

    /// True if a usable (existing and up) directed link `from → to` exists.
    pub fn link_is_up(&self, from: NodeId, to: NodeId) -> bool {
        self.links.get(&(from, to)).is_some_and(|l| !l.down)
    }

    /// Traffic statistics for the directed link `from → to`.
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.links.get(&(from, to)).map(|l| LinkStats { bytes: l.bytes, messages: l.messages })
    }

    /// Total bytes carried across all directed links.
    pub fn total_bytes(&self) -> u64 {
        self.links.values().map(|l| l.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(params: LinkParams) -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.connect(a, b, params);
        (net, a, b)
    }

    #[test]
    fn link_monitors_window_bandwidth_loss_and_rtt() {
        // 1000 bytes at 1 MB/s = 1 ms tx; + 1 ms latency = 2 ms one-way.
        let (mut net, a, b) = pair(LinkParams { latency_ns: 1_000_000, bandwidth_bps: 1_000_000 });
        let reg = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&reg));
        assert_eq!(net.link_bandwidth(a, b), None, "disabled until enabled");
        net.enable_link_monitors(10, 1_000_000); // 10 ms window
        net.send(a, b, vec![0u8; 1000]).unwrap();
        let bw = net.link_bandwidth(a, b).unwrap();
        // 1000 bytes in the first 1 ms slot → 1 MB/s windowed.
        assert_eq!(bw.bytes_per_sec, 1_000_000);
        assert_eq!(bw.frames_per_sec, 1000);
        assert_eq!(bw.loss_per_mille, 0);
        assert_eq!(bw.rtt_ewma_ns, 0, "no delivery yet, no RTT sample");
        while net.step().is_some() {}
        let bw = net.link_bandwidth(a, b).unwrap();
        // One delivery piggybacks one RTT sample: 2 × (tx + latency).
        assert_eq!(bw.rtt_ewma_ns, 4_000_000);
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("simnet.link.a->b.rtt_ewma_ns"), Some(4_000_000));
        assert_eq!(snap.histogram("simnet.link.a->b.rtt_ns").unwrap().count, 1);
        assert!(snap.gauge("simnet.link.a->b.bandwidth_bps").unwrap_or(0) > 0);
        // A partition turns attempts into windowed losses.
        net.set_fault_plan(a, b, FaultPlan::new(7).partition(net.now_ns(), net.now_ns() + 50_000));
        assert!(net.send(a, b, vec![0u8; 100]).is_err());
        let bw = net.link_bandwidth(a, b).unwrap();
        assert_eq!(bw.loss_per_mille, 500, "1 lost of 2 attempts in window");
        // A full idle window later the rates decay to nothing.
        net.advance_ns(20_000_000);
        assert_eq!(net.link_bandwidth(a, b).unwrap().bytes_per_sec, 0);
    }

    #[test]
    fn link_monitor_catalogue_ignores_enable_and_connect_order() {
        let catalogue = |enable_first: bool| {
            let mut net = Network::new();
            let reg = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
            net.attach_registry(Arc::clone(&reg));
            let ids: Vec<NodeId> = ["a", "b", "c"].iter().map(|n| net.add_node(*n)).collect();
            if enable_first {
                net.enable_link_monitors(4, 1_000);
            }
            net.connect(ids[0], ids[1], LinkParams::lan());
            net.connect(ids[1], ids[2], LinkParams::lan());
            if !enable_first {
                net.enable_link_monitors(4, 1_000);
            }
            // A node joining after the links were monitored re-strides the
            // matrix; the existing monitors must survive it.
            let d = net.add_node("d");
            net.connect(ids[2], d, LinkParams::lan());
            reg.snapshot().to_text()
        };
        let text = catalogue(true);
        assert!(text.contains("simnet.link.a->b.bandwidth_bps"), "{text}");
        assert!(text.contains("simnet.link.d->c.rtt_ns"), "{text}");
        assert_eq!(text, catalogue(false));
    }

    #[test]
    fn crash_transitions_are_handed_out_once_in_boundary_order() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.set_crash_windows(a, &[(10, 20), (20, 30)]);
        net.set_crash_windows(b, &[(15, 25)]);
        assert_eq!(net.next_crash_transition(), Some(10));
        // Nothing is due before the first boundary.
        assert!(net.take_crash_transitions(9).is_empty());
        let first = net.take_crash_transitions(20);
        assert_eq!(
            first,
            vec![
                CrashTransition { node: a, at_ns: 10, up: false },
                CrashTransition { node: b, at_ns: 15, up: false },
                // Restart sorts before crash at the shared boundary, so
                // back-to-back windows read as one continuous outage.
                CrashTransition { node: a, at_ns: 20, up: true },
                CrashTransition { node: a, at_ns: 20, up: false },
            ]
        );
        // Already-taken boundaries never reappear.
        assert!(net.take_crash_transitions(20).is_empty());
        assert_eq!(net.next_crash_transition(), Some(25));
        let rest = net.take_crash_transitions(u64::MAX);
        assert_eq!(
            rest,
            vec![
                CrashTransition { node: b, at_ns: 25, up: true },
                CrashTransition { node: a, at_ns: 30, up: true },
            ]
        );
        assert_eq!(net.next_crash_transition(), None);
        // Re-scheduling after time advanced marks past boundaries taken.
        net.advance_ns(100);
        net.set_crash_windows(b, &[(40, 50), (200, 210)]);
        assert_eq!(net.next_crash_transition(), Some(200));
    }

    #[test]
    fn oversized_frames_are_refused_by_the_link_mtu() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.set_link_mtu(a, b, 64);
        assert_eq!(
            net.send(a, b, vec![0u8; 65]),
            Err(NetError::Oversized { from: a, to: b, len: 65, mtu: 64 })
        );
        // At or under the MTU passes; the setter covers both directions.
        net.send(a, b, vec![0u8; 64]).unwrap();
        assert_eq!(
            net.send(b, a, vec![0u8; 100]),
            Err(NetError::Oversized { from: b, to: a, len: 100, mtu: 64 })
        );
        // MTU 0 lifts the limit again.
        net.set_link_mtu(a, b, 0);
        net.send(a, b, vec![0u8; 4096]).unwrap();
    }

    #[test]
    fn delivery_time_accounts_for_latency_and_bandwidth() {
        // 1000 bytes at 1 MB/s = 1 ms tx; + 1 ms latency = 2 ms.
        let (mut net, a, b) = pair(LinkParams { latency_ns: 1_000_000, bandwidth_bps: 1_000_000 });
        let at = net.send(a, b, vec![0u8; 1000]).unwrap();
        assert_eq!(at, 2_000_000);
        let d = net.step().unwrap();
        assert_eq!(d.at_ns, 2_000_000);
        assert_eq!(net.now_ns(), 2_000_000);
    }

    #[test]
    fn messages_queue_behind_each_other() {
        let (mut net, a, b) = pair(LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000 });
        let t1 = net.send(a, b, vec![0u8; 1000]).unwrap(); // tx 1 ms
        let t2 = net.send(a, b, vec![0u8; 1000]).unwrap(); // queued behind
        assert_eq!(t1, 1_000_000);
        assert_eq!(t2, 2_000_000);
    }

    #[test]
    fn deliveries_are_fifo_per_link() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.send(a, b, vec![1]).unwrap();
        net.send(a, b, vec![2]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![1]);
        assert_eq!(net.step().unwrap().payload, vec![2]);
        assert!(net.step().is_none());
    }

    #[test]
    fn bigger_messages_take_longer() {
        // The Table 1 motivation: a 12× larger (XML) message needs 12× the
        // wire time on the same link.
        let params = LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000 };
        let (mut net, a, b) = pair(params);
        let small = net.send(a, b, vec![0u8; 1_000]).unwrap();
        let mut net2 = Network::new();
        let a2 = net2.add_node("a");
        let b2 = net2.add_node("b");
        net2.connect(a2, b2, params);
        let large = net2.send(a2, b2, vec![0u8; 12_000]).unwrap();
        assert_eq!(large, 12 * small);
    }

    #[test]
    fn no_route_and_unknown_node_errors() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        assert_eq!(net.send(a, b, vec![]).unwrap_err(), NetError::NoRoute(a, b));
        let ghost = NodeId(99);
        assert_eq!(net.send(ghost, a, vec![]).unwrap_err(), NetError::UnknownNode(ghost));
        assert_eq!(net.send(a, ghost, vec![]).unwrap_err(), NetError::UnknownNode(ghost));
    }

    #[test]
    fn run_allows_reactive_sends() {
        // b answers every message from a once.
        let (mut net, a, b) = pair(LinkParams::lan());
        net.send(a, b, b"ping".to_vec()).unwrap();
        let mut log = Vec::new();
        net.run(|net, d| {
            log.push((d.from, d.to, d.payload.clone()));
            if d.to == b {
                net.send(b, a, b"pong".to_vec()).unwrap();
            }
        });
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].2, b"pong");
        assert!(net.is_idle());
    }

    #[test]
    fn recv_drains_inbox_in_order() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        net.send(a, b, vec![1]).unwrap();
        net.send(a, b, vec![2]).unwrap();
        net.step();
        net.step();
        assert_eq!(net.recv(b).unwrap().payload, vec![1]);
        assert_eq!(net.recv(b).unwrap().payload, vec![2]);
        assert!(net.recv(b).is_none());
        assert!(net.recv(a).is_none());
    }

    #[test]
    fn stats_account_bytes_and_messages() {
        let (mut net, a, b) = pair(LinkParams::lan());
        net.send(a, b, vec![0u8; 10]).unwrap();
        net.send(a, b, vec![0u8; 20]).unwrap();
        let s = net.link_stats(a, b).unwrap();
        assert_eq!(s.bytes, 30);
        assert_eq!(s.messages, 2);
        assert_eq!(net.link_stats(b, a).unwrap(), LinkStats::default());
        assert_eq!(net.total_bytes(), 30);
    }

    #[test]
    fn links_are_bidirectional_but_independent() {
        let (mut net, a, b) = pair(LinkParams { latency_ns: 0, bandwidth_bps: 1_000 });
        let t_ab = net.send(a, b, vec![0u8; 1000]).unwrap(); // 1 s tx
        let t_ba = net.send(b, a, vec![0u8; 1000]).unwrap(); // not queued behind a→b
        assert_eq!(t_ab, t_ba);
    }

    #[test]
    fn node_names_and_count() {
        let mut net = Network::new();
        let a = net.add_node("alpha");
        assert_eq!(net.node_name(a), "alpha");
        assert_eq!(net.node_count(), 1);
        assert_eq!(a.to_string(), "n0");
    }

    #[test]
    fn link_down_blocks_new_sends_but_delivers_in_flight() {
        let (mut net, a, b) = pair(LinkParams::lan());
        net.send(a, b, vec![1]).unwrap();
        net.set_link_up(a, b, false);
        assert!(!net.link_is_up(a, b));
        assert!(!net.link_is_up(b, a));
        assert_eq!(net.send(a, b, vec![2]).unwrap_err(), NetError::LinkDown(a, b));
        // The message sent before the partition still arrives.
        assert_eq!(net.step().unwrap().payload, vec![1]);
        assert!(net.step().is_none());
        // Healing restores service.
        net.set_link_up(a, b, true);
        net.send(a, b, vec![3]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![3]);
    }

    #[test]
    fn set_link_up_on_missing_link_is_noop() {
        let mut net = Network::new();
        let a = net.add_node("a");
        let b = net.add_node("b");
        net.set_link_up(a, b, false);
        assert!(!net.link_is_up(a, b)); // still no link at all
        assert_eq!(net.send(a, b, vec![]).unwrap_err(), NetError::NoRoute(a, b));
    }

    #[test]
    fn attached_registry_mirrors_traffic_and_virtual_time() {
        let (mut net, a, b) = pair(LinkParams::lan());
        let reg = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&reg));
        net.send(a, b, vec![0u8; 10]).unwrap();
        net.send(a, b, vec![0u8; 20]).unwrap();
        net.step();
        net.step();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("simnet.bytes"), Some(30));
        assert_eq!(snap.counter("simnet.messages"), Some(2));
        assert_eq!(snap.counter("simnet.link.a->b.bytes"), Some(30));
        assert_eq!(snap.counter("simnet.link.a->b.messages"), Some(2));
        assert_eq!(snap.counter("simnet.link.b->a.bytes"), None, "no reverse traffic");
        // The registry clock follows the simulation.
        assert!(net.now_ns() > 0);
        assert_eq!(snap.at_ns, net.now_ns());
    }

    #[test]
    fn crash_windows_block_sends_and_drop_inflight() {
        let (mut net, a, b) = pair(LinkParams::lan());
        // In flight before the crash: dropped at delivery time, since the
        // process is gone when the message arrives.
        net.send(a, b, vec![1]).unwrap();
        net.set_crash_windows(b, &[(50_000, 10_000_000)]);
        assert!(net.step().is_none(), "delivery inside the window is discarded");
        assert_eq!(net.crash_stats().dropped, 1);
        // New sends in either direction are refused while b is down.
        assert_eq!(net.send(a, b, vec![2]).unwrap_err(), NetError::NodeDown(b));
        assert_eq!(net.send(b, a, vec![3]).unwrap_err(), NetError::NodeDown(b));
        assert_eq!(net.crash_stats().blocked, 2);
        // Windows are half-open: down at from_ns, back at until_ns.
        assert!(net.node_crashed_at(b, 50_000));
        assert!(!net.node_crashed_at(b, 49_999));
        assert!(!net.node_crashed_at(b, 10_000_000));
        // After the restart the node serves again.
        net.advance_ns(20_000_000);
        net.send(a, b, vec![4]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![4]);
        // Clearing windows forgets the schedule entirely.
        net.set_crash_windows(b, &[(0, u64::MAX)]);
        net.clear_crash_windows(b);
        net.send(a, b, vec![5]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![5]);
    }

    #[test]
    fn crash_accounting_mirrors_to_registry() {
        let (mut net, a, b) = pair(LinkParams::ideal());
        let reg = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&reg));
        net.set_crash_windows(b, &[(0, 1_000)]);
        assert_eq!(net.send(a, b, vec![1]).unwrap_err(), NetError::NodeDown(b));
        assert_eq!(reg.snapshot().counter("simnet.crash.blocked"), Some(1));
        // The window is half-open, so at exactly 1_000 ns b is back.
        net.advance_ns(1_000);
        net.send(a, b, vec![2]).unwrap();
        assert_eq!(net.step().unwrap().payload, vec![2]);
        assert_eq!(reg.snapshot().counter("simnet.crash.dropped"), Some(0));
    }

    #[test]
    fn payloads_share_the_senders_buffer_end_to_end() {
        let (mut net, a, b) = pair(LinkParams::lan());
        let sent = WireBytes::from(vec![1u8, 2, 3]);
        net.send(a, b, sent.clone()).unwrap();
        let d = net.step().unwrap();
        assert!(d.payload.same_buffer(&sent), "delivery aliases the sent buffer");
        assert!(net.recv(b).unwrap().payload.same_buffer(&sent), "inbox copy is a view clone");
        assert_eq!(d.payload, sent);
    }

    #[test]
    fn drain_ready_sharded_buckets_by_destination_and_keeps_order() {
        let mut net = Network::new();
        let src = net.add_node("src");
        let even = net.add_node("even");
        let odd = net.add_node("odd");
        net.connect(src, even, LinkParams::ideal());
        net.connect(src, odd, LinkParams::ideal());
        for i in 0..6u8 {
            let to = if i % 2 == 0 { even } else { odd };
            net.send(src, to, vec![i]).unwrap();
        }
        let buckets = net.drain_ready_sharded(2, |n| n.0 % 2);
        assert!(net.is_idle(), "the whole in-flight set is drained");
        // even=NodeId(1) -> shard 1, odd=NodeId(2) -> shard 0.
        assert_eq!(buckets[1].iter().map(|d| d.payload[0]).collect::<Vec<_>>(), [0, 2, 4]);
        assert_eq!(buckets[0].iter().map(|d| d.payload[0]).collect::<Vec<_>>(), [1, 3, 5]);
        assert!(buckets.iter().flatten().all(|d| d.from == src));
        // Inboxes were bypassed, as in run().
        assert!(net.recv(even).is_none());
        assert!(net.recv(odd).is_none());
    }

    #[test]
    fn drain_ready_sharded_respects_crash_windows() {
        let (mut net, a, b) = pair(LinkParams::lan());
        net.send(a, b, vec![1]).unwrap();
        net.set_crash_windows(b, &[(0, u64::MAX)]);
        let buckets = net.drain_ready_sharded(1, |_| 0);
        assert!(buckets[0].is_empty());
        assert_eq!(net.crash_stats().dropped, 1);
    }

    #[test]
    fn tx_time_handles_infinite_bandwidth() {
        assert_eq!(LinkParams::ideal().tx_time_ns(1 << 20), 0);
        assert_eq!(
            LinkParams { latency_ns: 0, bandwidth_bps: 1_000_000_000 }.tx_time_ns(1_000),
            1_000
        );
    }
}
