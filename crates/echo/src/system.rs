//! The ECho system: processes connected by event channels over a simulated
//! network (paper Fig. 3).

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use morph::{
    CompiledXform, DeadLetter, DeadReason, DecisionCache, MorphStats, RetryPolicy, Transformation,
};
use obs::{
    Clock, Counter, CounterFamily, FlightRecorder, Gauge, GaugeFamily, Histogram, RateGauge,
    Registry, SnapshotDelta, TraceCtx, TraceId,
};
use pbio::{Encoder, PlanStore, RecordFormat, Value, WireBytes};
use simnet::{FaultPlan, FaultStats, LinkBandwidth, LinkParams, NetError, Network, NodeId};

use crate::adaptive::AdaptiveShedding;
use crate::driver::Driver;
use crate::frag;
use crate::journal::{Journal, JournalEntry, JournalStats};
use crate::node::{Disposition, EchoVersion, FrameOutcome, NodeState, Role};
use crate::proto::{self, ChannelId, MemberInfo, QosTier};
use crate::shard::shard_of_name;
use crate::telemetry;
use crate::EchoError;

/// Handle to an ECho process within an [`EchoSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcessId(usize);

/// How many trace events the system flight recorder retains (oldest are
/// evicted first; `FlightRecorder::dropped` counts evictions).
const TRACE_CAPACITY: usize = 8192;

/// High bit set on every minted trace id so that a trace id is never the
/// [`proto::NO_TRACE`] sentinel, whatever the per-process sequence counter
/// says.
const TRACE_MARK: u64 = 1 << 63;

/// Default bound on the link-down retry queue. Event frames beyond it are
/// shed (drop-oldest); control frames are never shed.
const RETRY_QUEUE_CAPACITY: usize = 64;

/// Default bound on each paused process's ingress buffer, with the same
/// shed policy as the retry queue.
const INGRESS_CAPACITY: usize = 64;

/// Default bound on in-progress fragment sets per channel.
const REASSEMBLY_CAPACITY: usize = 32;

/// Default virtual-clock age at which a partial fragment set dead-letters.
const REASSEMBLY_TIMEOUT_NS: u64 = 500_000_000;

/// Everything about an [`EchoSystem`] that is fixed for its lifetime,
/// validated once by [`EchoSystem::with_config`]. The default is the
/// system [`EchoSystem::new`] builds.
///
/// ```
/// # fn main() -> Result<(), echo::EchoError> {
/// use echo::{EchoConfig, EchoSystem};
///
/// let cfg = EchoConfig { frame_budget: Some(512), journal_batch: Some(4), ..Default::default() };
/// let _sys = EchoSystem::with_config(cfg)?;
/// let zero = EchoConfig { frame_budget: Some(0), ..EchoConfig::default() };
/// assert!(EchoSystem::with_config(zero).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EchoConfig {
    /// Backoff and budget for re-sending frames a down link refused.
    pub retry_policy: RetryPolicy,
    /// Bound on the link-down retry queue. Admissions past it shed the
    /// oldest lowest-tier queued event frame into the sender's dead-letter
    /// queue with [`DeadReason::Shed`]; control frames are never shed.
    pub retry_queue_capacity: usize,
    /// Bound on each paused process's ingress buffer, with the retry
    /// queue's shed policy (victims quarantine at the *receiver*).
    pub ingress_capacity: usize,
    /// When set, encoded event payloads larger than this many bytes split
    /// into fragments of at most this size, reassembled at each receiver.
    /// `None` never fragments; control frames never fragment. To traverse
    /// an MTU-limited link ([`EchoSystem::set_link_mtu`]) the budget plus
    /// the frame header must fit the MTU. Must be at least 1.
    pub frame_budget: Option<usize>,
    /// In-progress fragment sets each process buffers per channel (oldest
    /// incomplete evicted past it). Must be at least 1.
    pub reassembly_capacity: usize,
    /// Virtual-clock age at which a partial fragment set dead-letters.
    pub reassembly_timeout_ns: u64,
    /// Load-adaptive shed watermarks: the retry queue, the ingress
    /// buffers, and the sharded runtime's mailboxes each compare their
    /// windowed arrival rate against their drain rate on the virtual
    /// clock, halving the effective capacity (down to a floor of base/8)
    /// while arrivals overrun drains and doubling it back once drains
    /// recover, with hysteresis. The configured capacities are the
    /// ceilings; shedding itself stays tier-ordered
    /// ([`proto::shed_class`]). Every decision is counted
    /// (`echo.adaptive.<queue>.tightened` / `.relaxed`), the live bound is
    /// exported (`echo.adaptive.<queue>.capacity`), and decisions triggered
    /// by a traced frame drop `echo.adaptive.tighten` / `.relax` instants
    /// into its trace.
    pub adaptive_shedding: bool,
    /// Per-link bandwidth/RTT monitors over a rolling window of
    /// `(slots, slot_ns)`: every directed link gains rolling-window gauges
    /// (`simnet.link.<from>-><to>.bandwidth_bps` / `.frames_per_sec` /
    /// `.loss_per_mille` / `.rtt_ewma_ns`) in the system registry, sampled
    /// on the virtual clock — see [`simnet::Network::enable_link_monitors`].
    /// Both values must be at least 1.
    pub link_monitors: Option<(usize, u64)>,
    /// A durable delivery journal per process with this fsync-batch
    /// boundary (see [`crate::Journal`]). Journaling upgrades the Reliable
    /// tier's exactly-once from "while the process lives" to "across
    /// crash-restarts": without it a restarted process neither redelivers
    /// its unacked frames nor remembers what it already delivered. Must be
    /// at least 1.
    pub journal_batch: Option<usize>,
}

impl Default for EchoConfig {
    fn default() -> EchoConfig {
        EchoConfig {
            retry_policy: RetryPolicy::with_seed(0xEC40),
            retry_queue_capacity: RETRY_QUEUE_CAPACITY,
            ingress_capacity: INGRESS_CAPACITY,
            frame_budget: None,
            reassembly_capacity: REASSEMBLY_CAPACITY,
            reassembly_timeout_ns: REASSEMBLY_TIMEOUT_NS,
            adaptive_shedding: false,
            link_monitors: None,
            journal_batch: None,
        }
    }
}

impl EchoConfig {
    /// Rejects the values no component can honour.
    fn validate(&self) -> Result<(), EchoError> {
        let adaptive_over_zero = self.adaptive_shedding
            && (self.retry_queue_capacity == 0 || self.ingress_capacity == 0);
        let refusals = [
            (self.frame_budget == Some(0), "frame_budget must be at least 1 byte"),
            (self.reassembly_capacity == 0, "reassembly_capacity must be at least 1"),
            (self.journal_batch == Some(0), "journal_batch must be at least 1"),
            (
                matches!(self.link_monitors, Some((0, _) | (_, 0))),
                "link_monitors needs at least 1 slot of at least 1 ns",
            ),
            (adaptive_over_zero, "adaptive_shedding needs nonzero queue capacities"),
        ];
        match refusals.into_iter().find(|&(refused, _)| refused) {
            Some((_, why)) => Err(EchoError::InvalidConfig(why)),
            None => Ok(()),
        }
    }
}

/// Window geometry for per-channel throughput: eight 1 ms virtual-time
/// slots, matching the adaptive watermarks' horizon.
const CHANNEL_RATE_SLOTS: usize = 8;
const CHANNEL_RATE_SLOT_NS: u64 = 1_000_000;

/// Per-channel counter handles, created lazily on first traffic.
#[derive(Debug)]
struct ChannelCounters {
    published: Arc<Counter>,
    delivered: Arc<Counter>,
    filtered: Arc<Counter>,
    /// `echo.ch.<id>.delivered_rate` — deliveries/second over the trailing
    /// window, on the virtual clock (deterministic per run).
    delivered_rate: RateGauge,
}

/// Cached handles into the system-level registry.
///
/// The registry runs on the network's *virtual* clock, so it must hold
/// only deterministic values: event counters and simnet traffic totals.
/// Wall-clock latency histograms live in the per-receiver registries
/// instead (see [`EchoSystem::control_registry`]).
#[derive(Debug)]
struct SysMetrics {
    registry: Arc<Registry>,
    published: Arc<Counter>,
    delivered: Arc<Counter>,
    filtered: Arc<Counter>,
    derived_compiled: Arc<Counter>,
    dedup_dropped: Arc<Counter>,
    deadletter_total: Arc<Counter>,
    deadletter_by_reason: [Arc<Counter>; DeadReason::ALL.len()],
    retry_enqueued: Arc<Counter>,
    retry_attempts: Arc<Counter>,
    retry_delivered: Arc<Counter>,
    retry_giveup: Arc<Counter>,
    /// `echo.retry.parked` — sends parked because the destination process
    /// is inside a crash window; they wake at its scheduled restart
    /// without burning backoff attempts.
    retry_parked: Arc<Counter>,
    /// `echo.crash.down` / `echo.crash.restarts` — crash windows opened
    /// and incarnations started by the crash-restart lifecycle.
    crash_down: Arc<Counter>,
    crash_restarts: Arc<Counter>,
    /// `echo.crash.lost.*` — volatile state erased by crash amnesia:
    /// dedup triples, sequenced watermarks, reassembly partials (each also
    /// dead-letters as `crash_lost`), queued retry frames, and warm morph
    /// decisions.
    crash_lost_dedup: Arc<Counter>,
    crash_lost_watermarks: Arc<Counter>,
    crash_lost_partials: Arc<Counter>,
    crash_lost_retry: Arc<Counter>,
    crash_lost_decisions: Arc<Counter>,
    /// `echo.crash.lost.ingress` — frames that had left the wire but sat
    /// in the crashed process's ingress buffer (each also dead-letters as
    /// `crash_lost`).
    crash_lost_ingress: Arc<Counter>,
    /// `echo.epoch.fenced` — frames refused for carrying a pre-crash
    /// epoch; `echo.epoch.resumed` — sender-incarnation bumps observed by
    /// receivers (explicit resume handshakes or any higher-epoch frame);
    /// `echo.epoch.handshakes` — explicit resume-handshake frames handled.
    epoch_fenced: Arc<Counter>,
    epoch_resumed: Arc<Counter>,
    epoch_handshakes: Arc<Counter>,
    /// `echo.journal.*` — durable-journal activity: entries appended /
    /// synced / torn off by crashes, synced entries replayed at restarts,
    /// and unacked frames redelivered under a new epoch.
    journal_appended: Arc<Counter>,
    journal_synced: Arc<Counter>,
    journal_lost: Arc<Counter>,
    journal_replayed: Arc<Counter>,
    journal_redelivered: Arc<Counter>,
    /// Combined depth of the retry queue and every ingress buffer.
    queue_depth: Arc<Gauge>,
    /// Frames dropped by load shedding (bounded queue overflow).
    queue_shed: Arc<Counter>,
    /// `echo.channel.<tier>.sent` — messages submitted per sink, by tier.
    tier_sent: CounterFamily,
    /// `echo.channel.<tier>.delivered` — event messages handed to an
    /// application, by tier.
    tier_delivered: CounterFamily,
    /// `echo.channel.<tier>.dropped` — unreliable-tier frames absorbed at
    /// send time by a down link or crashed peer (no retry, no dead
    /// letter).
    tier_dropped: CounterFamily,
    /// `echo.channel.sequenced.stale` — sequenced frames dropped at a
    /// receiver because a newer message from the same sender already
    /// arrived (newest-wins).
    sequenced_stale: Arc<Counter>,
    /// `echo.frag.sent` — fragment frames put on the wire (only counted
    /// when a message actually split).
    frag_sent: Arc<Counter>,
    /// `echo.frag.received` — fragment frames accepted into (or
    /// completing) a reassembly set.
    frag_received: Arc<Counter>,
    /// `echo.frag.reassembled` — messages completed from fragments.
    frag_reassembled: Arc<Counter>,
    /// `echo.frag.timeout` — partial sets expired by the reassembly
    /// timeout (each also dead-letters as `partial_fragments`).
    frag_timeout: Arc<Counter>,
    /// `echo.frag.evicted` — partial sets evicted by a full reassembly
    /// buffer (each also dead-letters as `partial_fragments`).
    frag_evicted: Arc<Counter>,
    /// `echo.frag.superseded` — partial sets purged by a newer sequenced
    /// message (newest-wins policy, not a fault: no dead letter).
    frag_superseded: Arc<Counter>,
    /// `echo.frag.buffered` — in-progress fragment sets across all
    /// processes, refreshed by each reassembly sweep.
    frag_buffered: Arc<Gauge>,
    /// `echo.stage.queue_wait.ns` — virtual nanoseconds frames spent in an
    /// ingress buffer before dispatch (the queue-wait stage of the latency
    /// attribution; the wall-clock stages live in per-receiver registries).
    queue_wait: Arc<Histogram>,
    /// `echo.queue.depth_over_time` — every observed combined queue depth,
    /// so a snapshot answers how deep the queues ran, not just how deep
    /// they are.
    depth_over_time: Arc<Histogram>,
    /// The registry's (virtual) clock, for stamping rate windows.
    clock: Arc<dyn Clock>,
    per_channel: HashMap<ChannelId, ChannelCounters>,
}

/// Metric labels of [`QosTier::ALL`], in wire-byte order — the index of a
/// tier's label equals `tier.to_wire()`.
const TIER_LABELS: [&str; 3] = ["reliable", "sequenced", "unordered"];

impl SysMetrics {
    fn new(registry: Arc<Registry>) -> SysMetrics {
        SysMetrics {
            published: registry.counter("echo.events.published"),
            delivered: registry.counter("echo.events.delivered"),
            filtered: registry.counter("echo.events.filtered"),
            derived_compiled: registry.counter("echo.derived.compiled"),
            dedup_dropped: registry.counter("echo.dedup.dropped"),
            deadletter_total: registry.counter("echo.deadletter.total"),
            deadletter_by_reason: DeadReason::ALL
                .map(|r| registry.counter(&format!("echo.deadletter.{}", r.label()))),
            retry_enqueued: registry.counter("echo.retry.enqueued"),
            retry_attempts: registry.counter("echo.retry.attempts"),
            retry_delivered: registry.counter("echo.retry.delivered"),
            retry_giveup: registry.counter("echo.retry.giveup"),
            retry_parked: registry.counter("echo.retry.parked"),
            crash_down: registry.counter("echo.crash.down"),
            crash_restarts: registry.counter("echo.crash.restarts"),
            crash_lost_dedup: registry.counter("echo.crash.lost.dedup"),
            crash_lost_watermarks: registry.counter("echo.crash.lost.watermarks"),
            crash_lost_partials: registry.counter("echo.crash.lost.partials"),
            crash_lost_retry: registry.counter("echo.crash.lost.retry"),
            crash_lost_decisions: registry.counter("echo.crash.lost.decisions"),
            crash_lost_ingress: registry.counter("echo.crash.lost.ingress"),
            epoch_fenced: registry.counter("echo.epoch.fenced"),
            epoch_resumed: registry.counter("echo.epoch.resumed"),
            epoch_handshakes: registry.counter("echo.epoch.handshakes"),
            journal_appended: registry.counter("echo.journal.appended"),
            journal_synced: registry.counter("echo.journal.synced"),
            journal_lost: registry.counter("echo.journal.lost"),
            journal_replayed: registry.counter("echo.journal.replayed"),
            journal_redelivered: registry.counter("echo.journal.redelivered"),
            queue_depth: registry.gauge("echo.queue.depth"),
            queue_shed: registry.counter("echo.queue.shed"),
            // Tier and fragmentation handles are created eagerly so every
            // run's snapshot carries the full catalogue (byte-identical
            // snapshots must not depend on which tiers saw traffic).
            tier_sent: CounterFamily::labeled(&registry, "echo.channel", "sent", &TIER_LABELS),
            tier_delivered: CounterFamily::labeled(
                &registry,
                "echo.channel",
                "delivered",
                &TIER_LABELS,
            ),
            tier_dropped: CounterFamily::labeled(
                &registry,
                "echo.channel",
                "dropped",
                &TIER_LABELS,
            ),
            sequenced_stale: registry.counter("echo.channel.sequenced.stale"),
            frag_sent: registry.counter("echo.frag.sent"),
            frag_received: registry.counter("echo.frag.received"),
            frag_reassembled: registry.counter("echo.frag.reassembled"),
            frag_timeout: registry.counter("echo.frag.timeout"),
            frag_evicted: registry.counter("echo.frag.evicted"),
            frag_superseded: registry.counter("echo.frag.superseded"),
            frag_buffered: registry.gauge("echo.frag.buffered"),
            queue_wait: registry.histogram("echo.stage.queue_wait.ns"),
            depth_over_time: registry.histogram("echo.queue.depth_over_time"),
            clock: registry.clock(),
            per_channel: HashMap::new(),
            registry,
        }
    }

    fn quarantined(&self, reason: DeadReason) {
        self.deadletter_total.inc();
        let idx = DeadReason::ALL.iter().position(|&r| r == reason).unwrap_or(0);
        self.deadletter_by_reason[idx].inc();
    }

    fn channel(&mut self, ch: ChannelId) -> &mut ChannelCounters {
        self.per_channel.entry(ch).or_insert_with(|| ChannelCounters {
            published: self.registry.counter(&format!("echo.ch.{}.published", ch.0)),
            delivered: self.registry.counter(&format!("echo.ch.{}.delivered", ch.0)),
            filtered: self.registry.counter(&format!("echo.ch.{}.filtered", ch.0)),
            delivered_rate: RateGauge::new(
                Arc::clone(&self.clock),
                self.registry.gauge(&format!("echo.ch.{}.delivered_rate", ch.0)),
                CHANNEL_RATE_SLOTS,
                CHANNEL_RATE_SLOT_NS,
            ),
        })
    }
}

/// Per-shard metric handles for the wall-clock runtime, pre-fetched so
/// worker threads only ever touch lock-free atomics. Cached per shard
/// count; re-fetched when the count changes.
#[derive(Debug, Clone)]
struct ShardMetrics {
    shards: usize,
    /// `echo.shard.<i>.frames` — frames dispatched by each worker.
    frames: CounterFamily,
    /// `echo.shard.<i>.mailbox.depth` — each shard's mailbox fill for the
    /// round in flight (0 between rounds).
    depth: GaugeFamily,
    /// `echo.shard.mailbox.shed` — event frames shed by mailbox overflow
    /// (also counted in the system-wide `echo.queue.shed`).
    shed: Arc<Counter>,
    /// `echo.shard.rounds` — fork/join rounds executed.
    rounds: Arc<Counter>,
}

impl ShardMetrics {
    fn new(registry: &Registry, shards: usize) -> ShardMetrics {
        ShardMetrics {
            shards,
            frames: CounterFamily::new(registry, "echo.shard", "frames", shards),
            depth: GaugeFamily::new(registry, "echo.shard", "mailbox.depth", shards),
            shed: registry.counter("echo.shard.mailbox.shed"),
            rounds: registry.counter("echo.shard.rounds"),
        }
    }
}

/// A complete simulated ECho deployment: processes, the network connecting
/// them, and the channel directory.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), echo::EchoError> {
/// use echo::{EchoSystem, EchoVersion, Role};
/// use pbio::{FormatBuilder, Value};
///
/// let mut sys = EchoSystem::new();
/// let creator = sys.add_process("creator", EchoVersion::V2);
/// let sub = sys.add_process("sub", EchoVersion::V2);
/// sys.connect_all(simnet::LinkParams::lan());
///
/// let events = FormatBuilder::record("Tick").int("n").build_arc()?;
/// let ch = sys.create_channel(creator);
/// sys.subscribe(sub, ch, Role::sink(), Some(&events))?;
/// sys.run();
///
/// sys.publish(creator, ch, &events, &Value::Record(vec![Value::Int(1)]))?;
/// sys.run();
/// assert_eq!(sys.take_events(sub).len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct EchoSystem {
    net: Network,
    nodes: Vec<NodeState>,
    net_ids: Vec<NodeId>,
    by_contact: HashMap<String, usize>,
    /// Channel directory: which process created each channel.
    directory: HashMap<ChannelId, usize>,
    /// Derived subscriptions: per (channel, sink contact), the compiled
    /// source-side filter/transformation.
    derived: HashMap<(ChannelId, String), CompiledXform>,
    next_channel: u32,
    metrics: SysMetrics,
    /// The validated configuration the system was built with.
    config: EchoConfig,
    /// Frames refused by a down/partitioned link, awaiting re-send under
    /// the configured retry policy. Bounded by the retry-queue capacity:
    /// when full, the oldest queued *event* frame is shed to its sender's
    /// dead-letter queue; control frames are never shed (they may exceed
    /// the bound).
    pending: Vec<PendingFrame>,
    /// Per-process pause flags: deliveries to a paused process buffer in
    /// `ingress` instead of dispatching.
    paused: Vec<bool>,
    /// Per-process ingress buffers of `(sender index, arrival virtual
    /// time, frame)`, filled while paused, drained by [`EchoSystem::run`]
    /// once resumed. Bounded by the ingress capacity under the shed
    /// policy; the arrival stamp feeds the queue-wait stage histogram.
    ingress: Vec<VecDeque<(usize, u64, WireBytes)>>,
    /// Flight recorder on the virtual clock: one causal trace per publish
    /// or subscription, shared by every process and the network.
    recorder: Arc<FlightRecorder>,
    /// When false, publishes carry [`proto::NO_TRACE`] and mint no spans —
    /// the high-rate data-plane mode. Control-plane operations
    /// (subscribe/unsubscribe) always trace; they are rare and diagnostic.
    tracing: bool,
    /// System-wide morph caches, present once
    /// [`EchoSystem::enable_shared_morph_caches`] opted in; applied to
    /// every existing and future process.
    shared_caches: Option<(DecisionCache, PlanStore)>,
    /// Cached per-shard metric handles (lazily created, re-fetched when
    /// the shard count changes).
    shard_metrics: Option<ShardMetrics>,
    /// Per-channel delivery tier; channels not present run
    /// [`QosTier::Reliable`].
    qos: HashMap<ChannelId, QosTier>,
    /// Load-adaptive shed watermarks, present when
    /// [`EchoConfig::adaptive_shedding`] is set.
    adaptive: Option<AdaptiveShedding>,
    /// Periodic self-telemetry publisher, present once
    /// [`EchoSystem::enable_self_telemetry`] opted in.
    telemetry: Option<TelemetryState>,
    /// Per-process durable delivery journals, present when
    /// [`EchoConfig::journal_batch`] is set.
    journals: Vec<Option<Journal>>,
}

/// State of the periodic self-telemetry publisher.
struct TelemetryState {
    proc: usize,
    channel: ChannelId,
    period_ns: u64,
    /// Virtual time at or after which the next record publishes.
    next_at_ns: u64,
    /// The counters a record reports, as live handles with the value seen
    /// at the last report — each record carries the delta since then.
    /// Sampling these directly keeps the pump off the full-registry
    /// snapshot path (every histogram cloned per period); semantically it
    /// is still `Snapshot::delta` restricted to the record's fields.
    /// Sorted by name, as `SnapshotDelta` promises.
    sampled: Vec<(&'static str, Arc<Counter>, u64)>,
    /// Virtual time of the last report, for the record's `elapsed_ns`.
    last_at_ns: u64,
    seq: u64,
    /// The v2 record format, built once — rebuilding it per report would
    /// defeat every pointer-keyed cache downstream of `publish`.
    format: Arc<RecordFormat>,
    /// `echo.telemetry.published` — records put on the wire.
    published: Arc<Counter>,
    /// `echo.telemetry.bytes` — encoded telemetry payload bytes.
    bytes: Arc<Counter>,
}

/// What one run-loop turn ([`EchoSystem::turn`]) left the loop to do.
enum Turn<T> {
    /// Deliver this work, then turn again.
    Work(T),
    /// Nothing deliverable yet (virtual time may have advanced); turn again.
    Again,
    /// Nothing in flight and nothing pending: the run is over.
    Quiescent,
}

/// A frame whose send was refused (link down); retried with backoff until
/// the budget runs out.
#[derive(Debug)]
struct PendingFrame {
    from: usize,
    to: usize,
    /// View of the framed buffer; re-send attempts clone the view, not
    /// the bytes.
    bytes: WireBytes,
    /// Retries already spent.
    attempts: u32,
    /// Virtual time before which no re-send is attempted.
    next_attempt_ns: u64,
    /// Trace context the frame travels under (re-sends join it too).
    ctx: Option<TraceCtx>,
}

/// Position of the frame a full queue sheds first: the earliest-queued
/// frame of the lowest [`proto::shed_class`] present (unordered telemetry
/// before sequenced before reliable events). `None` when nothing is
/// sheddable — the queue holds only control frames.
fn shed_victim_pos<'a>(frames: impl Iterator<Item = &'a [u8]>) -> Option<usize> {
    let mut best: Option<(u8, usize)> = None;
    for (i, bytes) in frames.enumerate() {
        if let Some(class) = proto::shed_class(bytes) {
            if best.is_none_or(|(c, _)| class < c) {
                best = Some((class, i));
            }
        }
    }
    best.map(|(_, i)| i)
}

impl Default for EchoSystem {
    fn default() -> EchoSystem {
        EchoSystem::new()
    }
}

impl std::fmt::Debug for EchoSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EchoSystem")
            .field("processes", &self.nodes.len())
            .field("channels", &self.directory.len())
            .field("virtual_time_ns", &self.net.now_ns())
            .finish()
    }
}

impl EchoSystem {
    /// Creates an empty system with the default [`EchoConfig`]. The v2.0 →
    /// v1.0 `ChannelOpenResponse` retro-transformation (paper Fig. 5) is
    /// pre-distributed as out-of-band meta-data, as the v2.0 release would
    /// ship it.
    pub fn new() -> EchoSystem {
        EchoSystem::with_config(EchoConfig::default()).expect("the default configuration is valid")
    }

    /// Creates an empty system fixed to `config` for its lifetime.
    ///
    /// # Errors
    ///
    /// [`EchoError::InvalidConfig`] for a zero frame budget, reassembly
    /// capacity, journal batch, or link-monitor window, and for adaptive
    /// shedding over a zero-capacity queue.
    pub fn with_config(config: EchoConfig) -> Result<EchoSystem, EchoError> {
        config.validate()?;
        let mut net = Network::new();
        // The system registry stamps snapshots with *virtual* time and
        // mirrors the network's traffic totals, so two identical runs
        // produce byte-identical snapshots.
        let registry = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&registry));
        if let Some((slots, slot_ns)) = config.link_monitors {
            net.enable_link_monitors(slots, slot_ns);
        }
        // Adaptive metric handles exist only when opted in, so other
        // systems keep their snapshot catalogue unchanged.
        let adaptive = config.adaptive_shedding.then(|| {
            AdaptiveShedding::new(
                &registry,
                config.retry_queue_capacity,
                config.ingress_capacity,
                crate::driver::DEFAULT_MAILBOX_CAPACITY,
            )
        });
        // The recorder shares the virtual clock, so span timestamps — and
        // therefore exported traces — are deterministic per seed.
        let recorder = Arc::new(FlightRecorder::new(TRACE_CAPACITY, Arc::new(net.virtual_clock())));
        registry.set_recorder(Arc::clone(&recorder));
        net.attach_recorder(Arc::clone(&recorder));
        Ok(EchoSystem {
            net,
            nodes: Vec::new(),
            net_ids: Vec::new(),
            by_contact: HashMap::new(),
            directory: HashMap::new(),
            derived: HashMap::new(),
            next_channel: 1,
            metrics: SysMetrics::new(registry),
            config,
            pending: Vec::new(),
            paused: Vec::new(),
            ingress: Vec::new(),
            recorder,
            tracing: true,
            shared_caches: None,
            shard_metrics: None,
            qos: HashMap::new(),
            adaptive,
            telemetry: None,
            journals: Vec::new(),
        })
    }

    /// Mints a fresh trace id for a message originating at `proc`. Ids come
    /// out of the process's (disjoint) frame-sequence range with the high
    /// bit set, so they are nonzero and unique system-wide without any
    /// global coordination — and deterministic across identical runs.
    fn alloc_trace(&mut self, proc: usize) -> TraceId {
        TraceId(self.nodes[proc].alloc_seq() | TRACE_MARK)
    }

    /// Adds a process running the given ECho version. Its contact string is
    /// its name.
    pub fn add_process(&mut self, name: impl Into<String>, version: EchoVersion) -> ProcessId {
        let name = name.into();
        let mut node = NodeState::new(
            name.clone(),
            version,
            self.config.reassembly_capacity,
            self.config.reassembly_timeout_ns,
        );
        // Ship the standard control-plane meta-data with every process.
        node.import_metadata(
            &[proto::channel_open_response_v1(), proto::channel_open_response_v2()],
            &[proto::response_retro_transformation(), proto::response_forward_transformation()],
        );
        // Disjoint 2^48-wide sequence ranges make frame seqs sender-unique.
        node.next_seq = (self.nodes.len() as u64) << 48;
        node.set_recorder(Arc::clone(&self.recorder));
        if let Some((decisions, plans)) = &self.shared_caches {
            node.enable_shared_caches(decisions.clone(), plans.clone());
        }
        let seq_floor = node.next_seq;
        let net_id = self.net.add_node(name.clone());
        self.nodes.push(node);
        self.net_ids.push(net_id);
        self.paused.push(false);
        self.ingress.push(VecDeque::new());
        let mut journal = self.config.journal_batch.map(Journal::new);
        if let Some(j) = journal.as_mut() {
            j.append(self.net.now_ns(), JournalEntry::SeqFloor { next_seq: seq_floor });
        }
        self.journals.push(journal);
        self.by_contact.insert(name, self.nodes.len() - 1);
        ProcessId(self.nodes.len() - 1)
    }

    /// Connects every pair of processes with identical link parameters.
    pub fn connect_all(&mut self, params: LinkParams) {
        for i in 0..self.net_ids.len() {
            for j in (i + 1)..self.net_ids.len() {
                self.net.connect(self.net_ids[i], self.net_ids[j], params);
            }
        }
    }

    /// Connects two specific processes.
    pub fn connect(&mut self, a: ProcessId, b: ProcessId, params: LinkParams) {
        self.net.connect(self.net_ids[a.0], self.net_ids[b.0], params);
    }

    /// Distributes out-of-band meta-data (event formats and their
    /// retro-transformations) to every process — the format-server role.
    pub fn distribute_metadata(
        &mut self,
        formats: &[Arc<RecordFormat>],
        xforms: &[Transformation],
    ) {
        for node in &mut self.nodes {
            node.import_metadata(formats, xforms);
        }
    }

    /// Creates a channel owned by `creator`, registering it in the channel
    /// directory.
    pub fn create_channel(&mut self, creator: ProcessId) -> ChannelId {
        let ch = ChannelId(self.next_channel);
        self.next_channel += 1;
        self.nodes[creator.0].create_channel(ch);
        self.directory.insert(ch, creator.0);
        ch
    }

    /// Subscribes `proc` to `channel` with `role`. Sinks should pass the
    /// event format they expect. The creator answers (and refreshes all
    /// members) with a `ChannelOpenResponse` in *its* format version;
    /// morphing reconciles version differences at each receiver.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::UnknownChannel`] for unregistered channels and
    /// network errors for unconnected processes.
    pub fn subscribe(
        &mut self,
        proc: ProcessId,
        channel: ChannelId,
        role: Role,
        expected_events: Option<&Arc<RecordFormat>>,
    ) -> Result<(), EchoError> {
        let creator_idx =
            *self.directory.get(&channel).ok_or(EchoError::UnknownChannel(channel))?;
        self.nodes[proc.0].roles.insert(channel, role);
        if let Some(fmt) = expected_events {
            self.nodes[proc.0].expect_events(channel, fmt);
        }
        let contact = self.nodes[proc.0].name.clone();
        if creator_idx == proc.0 {
            // Local subscription at the creator: no network round trip.
            self.nodes[proc.0].add_member(channel, contact, role)?;
            return Ok(());
        }
        let fmt = proto::channel_open_request();
        let req = Value::Record(vec![
            Value::Int(i64::from(channel.0)),
            Value::str(contact),
            Value::Int(i64::from(role.source)),
            Value::Int(i64::from(role.sink)),
        ]);
        let msg = Encoder::new(&fmt).encode(&req)?;
        let seq = self.nodes[proc.0].alloc_seq();
        let trace = self.alloc_trace(proc.0);
        let mut span = self.recorder.start(trace, None, "echo.subscribe");
        span.tag("channel", &channel.0.to_string());
        span.tag("from", &self.nodes[proc.0].name);
        let ctx = Some(span.ctx());
        let framed = proto::frame_qos(
            proto::FRAME_CONTROL,
            channel,
            seq,
            trace.0,
            QosTier::Reliable,
            0,
            1,
            self.nodes[proc.0].epoch(),
            &msg,
        );
        let sent = self.send_with_retry(proc.0, creator_idx, framed, ctx);
        span.finish();
        sent
    }

    /// Unsubscribes `proc` from `channel`: the creator removes the member
    /// and refreshes the remaining membership; local event expectations and
    /// any derived subscription are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::UnknownChannel`] / network errors.
    pub fn unsubscribe(&mut self, proc: ProcessId, channel: ChannelId) -> Result<(), EchoError> {
        let creator_idx =
            *self.directory.get(&channel).ok_or(EchoError::UnknownChannel(channel))?;
        self.nodes[proc.0].roles.remove(&channel);
        self.nodes[proc.0].memberships.remove(&channel);
        let contact = self.nodes[proc.0].name.clone();
        self.derived.remove(&(channel, contact.clone()));
        if creator_idx == proc.0 {
            self.nodes[proc.0].remove_member(channel, &contact);
            return Ok(());
        }
        let fmt = proto::channel_open_request();
        let req = Value::Record(vec![
            Value::Int(i64::from(channel.0)),
            Value::str(contact),
            Value::Int(0),
            Value::Int(0),
        ]);
        let msg = Encoder::new(&fmt).encode(&req)?;
        let seq = self.nodes[proc.0].alloc_seq();
        let trace = self.alloc_trace(proc.0);
        let mut span = self.recorder.start(trace, None, "echo.unsubscribe");
        span.tag("channel", &channel.0.to_string());
        span.tag("from", &self.nodes[proc.0].name);
        let ctx = Some(span.ctx());
        let framed = proto::frame_qos(
            proto::FRAME_CONTROL,
            channel,
            seq,
            trace.0,
            QosTier::Reliable,
            0,
            1,
            self.nodes[proc.0].epoch(),
            &msg,
        );
        let sent = self.send_with_retry(proc.0, creator_idx, framed, ctx);
        span.finish();
        sent
    }

    /// Subscribes `proc` as a sink on a *derived* view of `channel`: the
    /// supplied Ecode runs **at each source** (compiled there once, as in
    /// ECho's derived event channels), filtering and reshaping events
    /// before they travel. The code binds the source's event format as
    /// read-only `new` and the derived format as writable `old`; executing
    /// `return 0;` suppresses the event for this subscriber.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::UnknownChannel`], [`EchoError::Morph`] for code
    /// that fails to compile, and network errors.
    pub fn subscribe_derived(
        &mut self,
        proc: ProcessId,
        channel: ChannelId,
        source_format: &Arc<RecordFormat>,
        derived_format: &Arc<RecordFormat>,
        code: &str,
    ) -> Result<(), EchoError> {
        // Compile eagerly: registration is the natural DCG point, and a
        // bad filter should fail loudly at the subscriber, not at sources.
        let xform =
            Transformation::new(Arc::clone(source_format), Arc::clone(derived_format), code)
                .compile()?;
        self.metrics.derived_compiled.inc();
        self.subscribe(proc, channel, Role::sink(), Some(derived_format))?;
        let contact = self.nodes[proc.0].name.clone();
        self.derived.insert((channel, contact), xform);
        Ok(())
    }

    /// Publishes an event on a channel: the source encodes in its own
    /// format and submits to every sink it knows of. Sinks holding a
    /// derived subscription get their filter/transformation applied *here*,
    /// at the source, before anything is sent.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::NotSubscribed`] when `proc` is not a source on
    /// the channel, plus encoding/network/filter errors.
    pub fn publish(
        &mut self,
        proc: ProcessId,
        channel: ChannelId,
        format: &Arc<RecordFormat>,
        event: &Value,
    ) -> Result<usize, EchoError> {
        let node = &self.nodes[proc.0];
        let is_owner = node.owned.contains_key(&channel);
        let is_source = node.roles.get(&channel).is_some_and(|r| r.source);
        if !is_owner && !is_source {
            return Err(EchoError::NotSubscribed(channel));
        }
        self.metrics.published.inc();
        self.metrics.channel(channel).published.inc();
        let sinks = node.sinks_of(channel);
        // One trace follows this event everywhere it goes: every per-sink
        // frame (raw or derived) carries the same id, so hops, morphing
        // stages, and dead letters at any receiver join one causal story.
        // With tracing off ([`EchoSystem::set_tracing`]) frames travel
        // under NO_TRACE and no spans are minted at all.
        let mut root = if self.tracing {
            let trace = self.alloc_trace(proc.0);
            let mut span = self.recorder.start(trace, None, "echo.publish");
            span.tag("channel", &channel.0.to_string());
            span.tag("from", &self.nodes[proc.0].name);
            Some(span)
        } else {
            None
        };
        let ctx = root.as_ref().map(|s| s.ctx());
        let wire_trace = ctx.map_or(proto::NO_TRACE, |c| c.trace.0);
        let tier = self.channel_qos(channel);
        let epoch = self.nodes[proc.0].epoch();
        // Raw fan-out: the frame set is built (and the payload copied)
        // once; every additional sink clones the views — Arc bumps, not
        // bytes. A message within the frame budget is one frame; larger
        // ones split into fragment frames sharing one seq.
        let mut raw_frames: Option<Vec<WireBytes>> = None;
        let mut sent = 0;
        let result = (|| -> Result<usize, EchoError> {
            for contact in sinks {
                let Some(&dst) = self.by_contact.get(&contact) else { continue };
                let frames = match self.derived.get(&(channel, contact.clone())) {
                    Some(xform) if xform.from_format() == format => {
                        // Source-side derivation: filter/reshape per subscriber.
                        match xform.apply_filtered(event)? {
                            None => {
                                // Filtered out — nothing travels.
                                self.metrics.filtered.inc();
                                self.metrics.channel(channel).filtered.inc();
                                if let Some(c) = ctx {
                                    self.recorder.instant(
                                        c.trace,
                                        c.parent,
                                        "echo.filtered",
                                        &[("sink", &contact)],
                                    );
                                }
                                continue;
                            }
                            Some(derived) => {
                                let t0 = std::time::Instant::now();
                                let msg = Encoder::new(xform.to_format()).encode(&derived)?;
                                self.nodes[proc.0].record_encode_ns(t0.elapsed().as_nanos() as u64);
                                let seq = self.nodes[proc.0].alloc_seq();
                                self.build_event_frames(channel, seq, wire_trace, tier, epoch, msg)?
                            }
                        }
                    }
                    // Different source format (or no derivation): send the raw
                    // event; the sink's own morphing receiver reconciles. One
                    // seq serves every recipient of the same frame set — dedup
                    // is per receiver.
                    _ => {
                        if raw_frames.is_none() {
                            let t0 = std::time::Instant::now();
                            let msg = Encoder::new(format).encode(event)?;
                            self.nodes[proc.0].record_encode_ns(t0.elapsed().as_nanos() as u64);
                            let seq = self.nodes[proc.0].alloc_seq();
                            raw_frames =
                                Some(self.build_event_frames(
                                    channel, seq, wire_trace, tier, epoch, msg,
                                )?);
                        }
                        raw_frames.clone().expect("filled above")
                    }
                };
                self.metrics.tier_sent.get(usize::from(tier.to_wire())).inc();
                if frames.len() > 1 {
                    self.metrics.frag_sent.add(frames.len() as u64);
                }
                for frame in frames {
                    self.send_policied(proc.0, dst, frame, ctx, tier)?;
                }
                sent += 1;
            }
            Ok(sent)
        })();
        if let Some(mut span) = root.take() {
            span.tag("sinks", &sent.to_string());
            span.finish();
        }
        result
    }

    /// Builds the wire frames for one encoded event message: a single
    /// frame when it fits the frame budget (or no budget is set), a
    /// fragment set sharing the message `seq` otherwise. Fragment payloads
    /// are zero-copy views of `msg`; framing each is the only copy.
    ///
    /// # Errors
    ///
    /// [`EchoError::MessageTooLarge`] when the split would exceed the
    /// wire's 16-bit fragment numbering.
    fn build_event_frames(
        &self,
        channel: ChannelId,
        seq: u64,
        trace: u64,
        tier: QosTier,
        epoch: u32,
        msg: Vec<u8>,
    ) -> Result<Vec<WireBytes>, EchoError> {
        let Some(budget) = self.config.frame_budget.filter(|&b| msg.len() > b) else {
            return Ok(vec![proto::frame_qos(
                proto::FRAME_EVENT,
                channel,
                seq,
                trace,
                tier,
                0,
                1,
                epoch,
                &msg,
            )]);
        };
        let len = msg.len();
        let payload = WireBytes::from(msg);
        let frags = frag::split_message(&payload, budget)
            .ok_or(EchoError::MessageTooLarge { len, budget })?;
        Ok(frags
            .iter()
            .map(|f| {
                proto::frame_qos(
                    proto::FRAME_EVENT,
                    channel,
                    seq,
                    trace,
                    tier,
                    f.index,
                    f.count,
                    epoch,
                    &f.bytes,
                )
            })
            .collect())
    }

    /// Sends one event frame under its tier's delivery policy. Reliable
    /// frames take the retry path ([`Self::send_with_retry`]); unreliable
    /// tiers are fire-and-forget — a down link or crashed peer absorbs the
    /// frame into `echo.channel.<tier>.dropped` (with an `echo.qos.dropped`
    /// trace instant) instead of queueing a retry or dead-lettering.
    /// Configuration errors (unknown peer, no route, MTU overflow) still
    /// propagate for every tier.
    fn send_policied(
        &mut self,
        from: usize,
        to: usize,
        bytes: WireBytes,
        ctx: Option<TraceCtx>,
        tier: QosTier,
    ) -> Result<(), EchoError> {
        if tier == QosTier::Reliable {
            // The journaled half of exactly-once: the frame's key and bytes
            // go to the modeled disk before the wire sees them (WAL
            // discipline), so a crashed sender redelivers it on restart.
            if self.journals[from].is_some() {
                if let (Some(channel), Some((seq, frag_index, _))) =
                    (proto::peek_channel(&bytes), proto::peek_frag(&bytes))
                {
                    self.journal_append(
                        from,
                        JournalEntry::Sent {
                            to: to as u64,
                            channel,
                            seq,
                            frag_index,
                            frame: bytes.clone(),
                        },
                    );
                }
            }
            return self.send_with_retry(from, to, bytes, ctx);
        }
        match self.net.send_traced(self.net_ids[from], self.net_ids[to], bytes, ctx) {
            Ok(_) => Ok(()),
            Err(NetError::LinkDown(_, _) | NetError::NodeDown(_)) => {
                self.metrics.tier_dropped.get(usize::from(tier.to_wire())).inc();
                if let Some(c) = ctx {
                    self.recorder.instant(
                        c.trace,
                        c.parent,
                        "echo.qos.dropped",
                        &[("tier", tier.label()), ("to", &self.nodes[to].name)],
                    );
                }
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Sheds a frame at `node`: counts the drop and quarantines the bytes
    /// in the node's dead-letter queue with [`DeadReason::Shed`] — every
    /// shed message stays accounted, none vanish silently.
    fn shed_at(&mut self, node: usize, bytes: &[u8], detail: &str, ctx: Option<TraceCtx>) {
        self.metrics.queue_shed.inc();
        self.metrics.quarantined(DeadReason::Shed);
        self.nodes[node].quarantine_shed(bytes, detail, ctx);
    }

    /// Tier-aware drop-oldest over the retry queue: evicts the oldest
    /// queued event frame of the *lowest* shed class (unordered telemetry
    /// first, reliable events last — [`proto::shed_class`]) into its
    /// sender's dead-letter queue. When the victim is a fragment, its
    /// queued set mates (same sender, destination, and message seq) shed
    /// with it, so no orphan fragments travel on to rot in a reassembly
    /// buffer. Returns false when the queue holds only control frames
    /// (which are never shed).
    fn shed_pending_victim(&mut self) -> bool {
        let Some(pos) = shed_victim_pos(self.pending.iter().map(|p| &*p.bytes)) else {
            return false;
        };
        let victim = self.pending.remove(pos);
        let set = proto::peek_frag(&victim.bytes).filter(|&(_, _, count)| count > 1);
        self.shed_at(
            victim.from,
            &victim.bytes,
            "retry queue full: lowest-tier event frame shed",
            victim.ctx,
        );
        if let Some((seq, _, _)) = set {
            let mut i = 0;
            while i < self.pending.len() {
                let p = &self.pending[i];
                let mate = p.from == victim.from
                    && p.to == victim.to
                    && proto::peek_frag(&p.bytes).is_some_and(|(s, _, c)| s == seq && c > 1);
                if mate {
                    let p = self.pending.remove(i);
                    self.shed_at(
                        p.from,
                        &p.bytes,
                        "retry queue full: fragment-set mate shed",
                        p.ctx,
                    );
                } else {
                    i += 1;
                }
            }
        }
        true
    }

    /// Refreshes the `echo.queue.depth` gauge (retry queue + every ingress
    /// buffer) and records the observation into the depth-over-time
    /// histogram, so snapshots expose the whole depth distribution.
    fn update_queue_depth(&self) {
        let depth = self.pending.len() + self.ingress.iter().map(VecDeque::len).sum::<usize>();
        self.metrics.queue_depth.set(depth as i64);
        self.metrics.depth_over_time.record(depth as u64);
    }

    /// The retry queue's effective bound: the configured capacity, pulled
    /// down by the adaptive watermark while arrivals overrun drains.
    fn retry_capacity_now(&self) -> usize {
        self.adaptive.as_ref().map_or(self.config.retry_queue_capacity, |a| a.retry.capacity())
    }

    /// The ingress buffers' effective bound, under the same rule.
    fn ingress_capacity_now(&self) -> usize {
        self.adaptive.as_ref().map_or(self.config.ingress_capacity, |a| a.ingress.capacity())
    }

    /// Sends a frame, absorbing link-down refusals into the retry queue:
    /// the frame waits out a backoff (capped exponential, jittered by the
    /// system [`RetryPolicy`]) and is re-sent by [`EchoSystem::run`] until
    /// it gets through or the budget is spent. The queue is bounded
    /// ([`EchoConfig::retry_queue_capacity`]): admitting past the cap
    /// sheds the oldest queued event frame (or the newcomer itself when
    /// only control frames are queued) into the sender's dead-letter queue
    /// with [`DeadReason::Shed`]. Control frames are never shed. Other
    /// network errors propagate — an unknown or unrouted peer is a
    /// configuration bug, not an operational fault.
    fn send_with_retry(
        &mut self,
        from: usize,
        to: usize,
        bytes: WireBytes,
        ctx: Option<TraceCtx>,
    ) -> Result<(), EchoError> {
        // The clone hands the wire a view of the frame buffer; the bytes
        // themselves are never copied again after `proto::frame`.
        let now = self.net.now_ns();
        let (next_attempt_ns, parked) =
            match self.net.send_traced(self.net_ids[from], self.net_ids[to], bytes.clone(), ctx) {
                Ok(_) => return Ok(()),
                Err(NetError::LinkDown(_, _)) => {
                    (now + self.config.retry_policy.backoff_ns(0), false)
                }
                // The *destination* is inside a crash window: burning
                // capped-backoff attempts into a peer that cannot answer
                // would waste the retry budget, so the frame parks until the
                // window's scheduled end — zero attempts consumed — under
                // the same shed admission as a down link. A send refused
                // because the *sender* is down still propagates: that is a
                // caller bug.
                Err(NetError::NodeDown(down)) if down == self.net_ids[to] => {
                    let until = self.net.node_down_until(down, now);
                    (until.unwrap_or_else(|| now + self.config.retry_policy.backoff_ns(0)), true)
                }
                Err(e) => return Err(e.into()),
            };
        // Feed the arrival window and re-evaluate the watermark before
        // admission, so overload tightens the bound for this very frame.
        if let Some(a) = self.adaptive.as_mut() {
            a.retry.on_arrival(now);
            a.retry.evaluate(now, &self.recorder, ctx);
        }
        // A full queue sheds its lowest-tier queued event; when only
        // control frames are queued, the newcomer is the sole sheddable
        // load. A control newcomer never sheds: it is admitted beyond the
        // bound.
        if self.pending.len() >= self.retry_capacity_now()
            && !self.shed_pending_victim()
            && proto::shed_class(&bytes).is_some()
        {
            self.shed_at(from, &bytes, "retry queue full: event frame shed", ctx);
            self.update_queue_depth();
            return Ok(());
        }
        let (counter, instant) = if parked {
            (&self.metrics.retry_parked, "echo.retry.parked")
        } else {
            (&self.metrics.retry_enqueued, "echo.retry.enqueued")
        };
        counter.inc();
        if let Some(c) = ctx {
            self.recorder.instant(
                c.trace,
                c.parent,
                instant,
                &[("from", &self.nodes[from].name), ("to", &self.nodes[to].name)],
            );
        }
        self.pending.push(PendingFrame { from, to, bytes, attempts: 0, next_attempt_ns, ctx });
        self.update_queue_depth();
        Ok(())
    }

    /// Re-attempts every due pending frame once. Returns the earliest
    /// not-yet-due attempt time, if any frames remain queued.
    fn pump_pending(&mut self) -> Option<u64> {
        let now = self.net.now_ns();
        let before = self.pending.len();
        let mut still_pending = Vec::new();
        for mut p in std::mem::take(&mut self.pending) {
            if p.next_attempt_ns > now {
                still_pending.push(p);
                continue;
            }
            // Peer-down awareness: a frame due while its destination is
            // (still, or again) inside a crash window re-parks to the
            // window's scheduled end without consuming an attempt.
            if let Some(until) = self.net.node_down_until(self.net_ids[p.to], now) {
                self.metrics.retry_parked.inc();
                p.next_attempt_ns = until;
                still_pending.push(p);
                continue;
            }
            self.metrics.retry_attempts.inc();
            match self.net.send_traced(
                self.net_ids[p.from],
                self.net_ids[p.to],
                p.bytes.clone(),
                p.ctx,
            ) {
                Ok(_) => self.metrics.retry_delivered.inc(),
                Err(NetError::LinkDown(_, _)) => {
                    p.attempts += 1;
                    if p.attempts > self.config.retry_policy.budget {
                        // Budget spent: quarantine at the sender.
                        self.metrics.retry_giveup.inc();
                        self.metrics.quarantined(DeadReason::RetryExhausted);
                        self.nodes[p.from].quarantine_send(
                            &p.bytes,
                            &format!("gave up after {} retries", self.config.retry_policy.budget),
                            p.ctx,
                        );
                    } else {
                        p.next_attempt_ns = now + self.config.retry_policy.backoff_ns(p.attempts);
                        still_pending.push(p);
                    }
                }
                // A crash window opening at this exact instant (half-open
                // windows start *at* `from_ns`) parks without burning the
                // attempt just spent — it never reached the peer's memory.
                Err(NetError::NodeDown(down)) if down == self.net_ids[p.to] => {
                    self.metrics.retry_parked.inc();
                    p.next_attempt_ns = self
                        .net
                        .node_down_until(down, now)
                        .unwrap_or_else(|| now + self.config.retry_policy.backoff_ns(p.attempts));
                    still_pending.push(p);
                }
                // The peer disappeared from the topology — config bug;
                // surface it via the sender's quarantine, not a panic.
                Err(e) => {
                    self.metrics.retry_giveup.inc();
                    self.metrics.quarantined(DeadReason::RetryExhausted);
                    self.nodes[p.from].quarantine_send(&p.bytes, &e.to_string(), p.ctx);
                }
            }
        }
        let earliest = still_pending.iter().map(|p| p.next_attempt_ns).min();
        // Every frame that left the queue — delivered or given up — is a
        // drain event for the adaptive watermark.
        let drained = before.saturating_sub(still_pending.len());
        if let Some(a) = self.adaptive.as_mut() {
            for _ in 0..drained {
                a.retry.on_drain(now);
            }
            a.retry.evaluate(now, &self.recorder, None);
        }
        self.pending = still_pending;
        self.update_queue_depth();
        earliest
    }

    /// Removes every buffered fragment of the `(sender, seq)` set from a
    /// process's ingress buffer and sheds each at the receiver — shedding
    /// one fragment without its mates would leave orphans to rot in the
    /// reassembly buffer until the timeout dead-letters them as a phantom
    /// loss.
    fn shed_ingress_set(&mut self, idx: usize, sender: usize, seq: u64, detail: &str) {
        let mut i = 0;
        while i < self.ingress[idx].len() {
            let (s, _, b) = &self.ingress[idx][i];
            let mate =
                *s == sender && proto::peek_frag(b).is_some_and(|(q, _, c)| q == seq && c > 1);
            if mate {
                let (_, _, victim) = self.ingress[idx].remove(i).expect("index in bounds");
                let ctx = proto::peek_trace(&victim).map(|t| TraceCtx::root(TraceId(t)));
                self.shed_at(idx, &victim, detail, ctx);
            } else {
                i += 1;
            }
        }
    }

    /// Buffers a delivery for a paused process, shedding under pressure:
    /// when the (bounded) buffer is full, the oldest buffered event frame
    /// of the lowest shed class — or the newcomer, if only control frames
    /// are buffered — is quarantined at the receiver with
    /// [`DeadReason::Shed`]. Fragments shed as whole sets.
    fn buffer_ingress(&mut self, idx: usize, sender: usize, bytes: WireBytes) {
        let now = self.net.now_ns();
        if let Some(a) = self.adaptive.as_mut() {
            a.ingress.on_arrival(now);
            let ctx = proto::peek_trace(&bytes).map(|t| TraceCtx::root(TraceId(t)));
            a.ingress.evaluate(now, &self.recorder, ctx);
        }
        if self.ingress[idx].len() >= self.ingress_capacity_now() {
            let victim_pos = shed_victim_pos(self.ingress[idx].iter().map(|(_, _, b)| &**b));
            match victim_pos {
                Some(pos) => {
                    let (vs, _, victim) =
                        self.ingress[idx].remove(pos).expect("position in bounds");
                    let ctx = proto::peek_trace(&victim).map(|t| TraceCtx::root(TraceId(t)));
                    let set = proto::peek_frag(&victim).filter(|&(_, _, count)| count > 1);
                    self.shed_at(
                        idx,
                        &victim,
                        "ingress buffer full: lowest-tier event frame shed",
                        ctx,
                    );
                    if let Some((seq, _, _)) = set {
                        self.shed_ingress_set(
                            idx,
                            vs,
                            seq,
                            "ingress buffer full: fragment-set mate shed",
                        );
                    }
                }
                None if proto::shed_class(&bytes).is_some() => {
                    let ctx = proto::peek_trace(&bytes).map(|t| TraceCtx::root(TraceId(t)));
                    let set = proto::peek_frag(&bytes).filter(|&(_, _, count)| count > 1);
                    self.shed_at(idx, &bytes, "ingress buffer full: event frame shed", ctx);
                    // The newcomer's already-buffered set mates go with it.
                    if let Some((seq, _, _)) = set {
                        self.shed_ingress_set(
                            idx,
                            sender,
                            seq,
                            "ingress buffer full: fragment-set mate shed",
                        );
                    }
                    self.update_queue_depth();
                    return;
                }
                // Control frames are never shed: admit beyond the bound.
                None => {}
            }
        }
        self.ingress[idx].push_back((sender, now, bytes));
        self.update_queue_depth();
    }

    /// Dispatches one wire frame through the receiving process, accounting
    /// its disposition and sending any follow-up frames — the single path
    /// shared by live deliveries and drained ingress buffers.
    fn dispatch_frame(&mut self, idx: usize, sender: usize, bytes: &WireBytes) {
        // Stamp the receiver's clock so reassembly entries age against the
        // virtual time this frame arrives at.
        self.nodes[idx].set_now(self.net.now_ns());
        let outcome = self.nodes[idx].handle_frame(sender as u64, bytes);
        self.settle_outcome(idx, sender, outcome);
    }

    /// Settles a frame's [`FrameOutcome`]: counts its disposition and puts
    /// any follow-up frames on the wire. Split from [`Self::dispatch_frame`]
    /// so the sharded runtime can run `handle_frame` on worker threads and
    /// settle the results here, on the driver thread, where the network and
    /// system counters are single-threaded.
    fn settle_outcome(&mut self, idx: usize, sender: usize, outcome: FrameOutcome) {
        if outcome.resumed {
            // The frame announced a fresh sender incarnation (an explicit
            // resume handshake or any higher-epoch frame).
            self.metrics.epoch_resumed.inc();
        }
        match outcome.disposition {
            Disposition::Handled(kind, channel, tier) => {
                if kind == proto::FRAME_EVENT {
                    self.metrics.delivered.inc();
                    let cc = self.metrics.channel(channel);
                    cc.delivered.inc();
                    cc.delivered_rate.record(1);
                    self.metrics.tier_delivered.get(usize::from(tier.to_wire())).inc();
                } else if kind == proto::FRAME_RESUME {
                    self.metrics.epoch_handshakes.inc();
                }
            }
            Disposition::Reassembled(channel, tier, _count) => {
                self.metrics.delivered.inc();
                let cc = self.metrics.channel(channel);
                cc.delivered.inc();
                cc.delivered_rate.record(1);
                self.metrics.tier_delivered.get(usize::from(tier.to_wire())).inc();
                // The completing fragment is a received fragment too.
                self.metrics.frag_received.inc();
                self.metrics.frag_reassembled.inc();
            }
            Disposition::FragmentBuffered(_) => self.metrics.frag_received.inc(),
            Disposition::Stale(_) => self.metrics.sequenced_stale.inc(),
            Disposition::Duplicate(_, _) => self.metrics.dedup_dropped.inc(),
            Disposition::Fenced(_) => {
                self.metrics.epoch_fenced.inc();
                self.metrics.quarantined(DeadReason::StaleEpoch);
            }
            Disposition::Quarantined(reason) => self.metrics.quarantined(reason),
        }
        // Recovery bookkeeping (no-ops without journals): the receiver
        // persists its dedup triple and sequenced watermark, and the
        // sender's journal discharges the redelivery obligation.
        if let Some((seq, frag_index)) = outcome.seen {
            self.journal_append(idx, JournalEntry::Seen { sender: sender as u64, seq, frag_index });
        }
        if let Some((channel, seq)) = outcome.watermark {
            self.journal_append(
                idx,
                JournalEntry::Watermark { channel, sender: sender as u64, seq },
            );
        }
        if let Some((channel, seq, frag_index)) = outcome.ack {
            self.journal_append(
                sender,
                JournalEntry::Acked { to: idx as u64, channel, seq, frag_index },
            );
        }
        // Partial sets the node evicted (capacity) or purged (newest-wins)
        // while handling this frame were already dead-lettered / dropped
        // inside the node; account them at the system level here.
        for _ in 0..outcome.evicted_partials {
            self.metrics.frag_evicted.inc();
            self.metrics.quarantined(DeadReason::PartialFragments);
        }
        self.metrics.frag_superseded.add(u64::from(outcome.stale_partials));
        for out in outcome.outgoing {
            if let Some(&dst) = self.by_contact.get(&out.to_contact) {
                // Follow-up frames keep travelling under the trace of the
                // request that caused them (already in the frame header);
                // their hop spans root at that trace.
                let ctx = proto::peek_trace(&out.bytes).map(|t| TraceCtx::root(TraceId(t)));
                // Link-down refusals land in the retry queue; a member
                // with no route at all is dropped from this refresh (it
                // will resync on its next own request).
                let _ = self.send_with_retry(idx, dst, out.bytes, ctx);
            }
        }
    }

    /// Appends one entry to a process's journal (a no-op when journaling
    /// is off), stamped with the current virtual time, mirroring the
    /// journal's own accounting into `echo.journal.*`.
    fn journal_append(&mut self, owner: usize, entry: JournalEntry) {
        let now = self.net.now_ns();
        if let Some(j) = self.journals[owner].as_mut() {
            let before = j.stats();
            j.append(now, entry);
            let after = j.stats();
            self.metrics.journal_appended.add(after.appended - before.appended);
            self.metrics.journal_synced.add(after.synced - before.synced);
        }
    }

    /// Applies every crash/restart boundary scheduled at or before
    /// `now_ns`, in deterministic order (time, restarts before crashes,
    /// node id — see [`simnet::Network::take_crash_transitions`]): a window
    /// opening crashes the owning process, a window closing restarts it.
    fn process_crash_transitions(&mut self, now_ns: u64) {
        for t in self.net.take_crash_transitions(now_ns) {
            let idx = self
                .net_ids
                .iter()
                .position(|&n| n == t.node)
                .expect("crash transition for a known node");
            if t.up {
                self.restart_node(idx);
            } else {
                self.crash_node(idx);
            }
        }
    }

    /// A crash window opens: the process drops its volatile state. What
    /// survives is exactly the journal's synced prefix plus durable
    /// configuration (channel ownership, memberships, formats); every loss
    /// is counted in `echo.crash.lost.*` and the lost frames dead-letter
    /// as [`DeadReason::CrashLost`], traces sealed with a `crash` stage.
    fn crash_node(&mut self, idx: usize) {
        self.metrics.crash_down.inc();
        // The modeled disk keeps only the synced prefix; the unsynced
        // journal tail is torn off with the process's memory.
        if let Some(j) = self.journals[idx].as_mut() {
            let lost = j.crash();
            self.metrics.journal_lost.add(lost as u64);
        }
        // Amnesia inside the node: dedup window, sequenced watermarks,
        // peer epochs, reassembly partials (each dead-lettered there),
        // and warm morph decisions.
        let report = self.nodes[idx].crash_amnesia();
        self.metrics.crash_lost_dedup.add(report.dedup as u64);
        self.metrics.crash_lost_watermarks.add(report.watermarks as u64);
        self.metrics.crash_lost_partials.add(u64::from(report.partials));
        for _ in 0..report.partials {
            self.metrics.quarantined(DeadReason::CrashLost);
        }
        self.metrics.crash_lost_decisions.add(report.decisions as u64);
        // The in-flight retry queue dies with the process. Journaled
        // Reliable event frames are only *dropped* — the journal will
        // redeliver them at restart — everything else queued here is a
        // real loss and dead-letters.
        let mut kept = Vec::new();
        for p in std::mem::take(&mut self.pending) {
            if p.from != idx {
                kept.push(p);
                continue;
            }
            self.metrics.crash_lost_retry.inc();
            let journaled = self.journals[idx].is_some()
                && p.bytes.first() == Some(&proto::FRAME_EVENT)
                && proto::peek_qos(&p.bytes) == Some(QosTier::Reliable);
            if !journaled {
                self.metrics.quarantined(DeadReason::CrashLost);
                self.nodes[idx].quarantine_crash(
                    &p.bytes,
                    "retry queue lost to process crash",
                    p.ctx,
                );
            }
        }
        self.pending = kept;
        // Frames buffered at the crashed process's ingress vanish with
        // its memory too.
        let buffered: Vec<_> = self.ingress[idx].drain(..).collect();
        for (_, _, bytes) in buffered {
            let ctx = proto::peek_trace(&bytes).map(|t| TraceCtx::root(TraceId(t)));
            self.metrics.crash_lost_ingress.inc();
            self.metrics.quarantined(DeadReason::CrashLost);
            self.nodes[idx].quarantine_crash(&bytes, "ingress buffer lost to process crash", ctx);
        }
        self.update_queue_depth();
    }

    /// A crash window closes: the next incarnation starts. The epoch is
    /// bumped first; a resume handshake to every reachable peer travels
    /// ahead of the journal's redeliveries (sent at the same instant, it
    /// takes the lower wire sequence), so receivers fence the dead
    /// incarnation before its retransmitted traffic arrives. Redeliveries
    /// are restamped with the new epoch and re-journaled, so a second
    /// crash redelivers each message once, not once per incarnation.
    fn restart_node(&mut self, idx: usize) {
        self.metrics.crash_restarts.inc();
        let epoch = self.nodes[idx].bump_epoch();
        // Replay the synced prefix: receiver-side dedup window and
        // watermarks, the sequence floor, and the redelivery obligations.
        let mut redeliveries = Vec::new();
        if let Some(j) = self.journals[idx].as_ref() {
            let rec = j.replay();
            self.metrics.journal_replayed.add(j.synced_len() as u64);
            let node = &mut self.nodes[idx];
            node.restore_seen(&rec.seen);
            for (&(channel, sender), &seq) in &rec.watermarks {
                node.restore_watermark(channel, sender, seq);
            }
            node.restore_seq_floor(rec.seq_floor);
            redeliveries = rec.unacked.into_iter().collect();
        }
        // Resume handshake: an empty frame whose header carries the new
        // incarnation, to every process this one has a link to.
        for peer in 0..self.nodes.len() {
            if peer == idx {
                continue;
            }
            let seq = self.nodes[idx].alloc_seq();
            let (wire_trace, ctx) = if self.tracing {
                let t = self.alloc_trace(idx);
                (t.0, Some(TraceCtx::root(t)))
            } else {
                (proto::NO_TRACE, None)
            };
            let frame = proto::frame_qos(
                proto::FRAME_RESUME,
                ChannelId(0),
                seq,
                wire_trace,
                QosTier::Reliable,
                0,
                1,
                epoch,
                b"",
            );
            // Unlinked peers refuse the send with a routing error — not a
            // session this restart needs to resume.
            let _ = self.send_with_retry(idx, peer, frame, ctx);
        }
        // Redeliver every unacked Reliable frame in key order, under the
        // new epoch.
        for ((to, channel, seq, frag_index), frame) in redeliveries {
            let restamped = proto::restamp_epoch(&frame, epoch);
            self.journal_append(
                idx,
                JournalEntry::Sent { to, channel, seq, frag_index, frame: restamped.clone() },
            );
            self.metrics.journal_redelivered.inc();
            let ctx = proto::peek_trace(&restamped).map(|t| TraceCtx::root(TraceId(t)));
            let _ = self.send_with_retry(idx, to as usize, restamped, ctx);
        }
        // Floor the next incarnation's sequence numbers above everything
        // this one has allocated (handshakes and redeliveries included).
        if self.journals[idx].is_some() {
            let floor = self.nodes[idx].next_seq;
            self.journal_append(idx, JournalEntry::SeqFloor { next_seq: floor });
        }
    }

    /// Expires overdue partial fragment sets at every process (visited in
    /// process order; each node sweeps its channels in id order, so the
    /// pass is deterministic). Each expiry dead-letters inside the node as
    /// [`DeadReason::PartialFragments`] and counts here as
    /// `echo.frag.timeout`; the `echo.frag.buffered` gauge is refreshed to
    /// the surviving depth.
    fn sweep_reassembly(&mut self) {
        let now = self.net.now_ns();
        let mut depth = 0usize;
        for node in &mut self.nodes {
            let expired = node.sweep_reassembly(now);
            for _ in 0..expired {
                self.metrics.frag_timeout.inc();
                self.metrics.quarantined(DeadReason::PartialFragments);
            }
            depth += node.reassembly_depth();
        }
        self.metrics.frag_buffered.set(depth as i64);
    }

    /// Dispatches every frame buffered for processes that are no longer
    /// paused, in arrival order. Returns how many frames were dispatched.
    fn drain_ingress(&mut self) -> usize {
        let mut n = 0;
        let now = self.net.now_ns();
        for idx in 0..self.nodes.len() {
            while !self.paused[idx] {
                let Some((sender, arrived_ns, bytes)) = self.ingress[idx].pop_front() else {
                    break;
                };
                // Queue-wait attribution: virtual time spent buffered
                // before dispatch.
                self.metrics.queue_wait.record(now.saturating_sub(arrived_ns));
                self.dispatch_frame(idx, sender, &bytes);
                n += 1;
            }
        }
        if n > 0 {
            if let Some(a) = self.adaptive.as_mut() {
                for _ in 0..n {
                    a.ingress.on_drain(now);
                }
                a.ingress.evaluate(now, &self.recorder, None);
            }
            self.update_queue_depth();
        }
        n
    }

    /// Runs the network to quiescence, dispatching every delivery through
    /// the receiving process (which may send follow-ups) and pumping the
    /// retry queue: frames refused by a down link are re-sent with backoff,
    /// waiting out partitions in virtual time if need be. Returns the
    /// number of deliveries processed.
    ///
    /// A process never fails on a received frame — corrupted, malformed, or
    /// undeliverable frames are quarantined in its dead-letter queue and
    /// counted (`echo.deadletter.*`), duplicates are suppressed and counted
    /// (`echo.dedup.dropped`).
    ///
    /// Deliveries to a paused process ([`EchoSystem::pause_process`]) are
    /// buffered, not dispatched; resumed processes drain their buffer here.
    /// Bounded-queue overflow sheds warm (event) traffic into dead-letter
    /// queues with [`DeadReason::Shed`] and counts it in `echo.queue.shed`.
    pub fn run(&mut self) -> usize {
        let mut processed = 0;
        loop {
            let turn = self.turn(&mut processed, |sys, boundary| match boundary {
                Some(t) => sys.net.step_before(t),
                None => sys.net.step(),
            });
            let d = match turn {
                Turn::Work(d) => d,
                Turn::Again => continue,
                Turn::Quiescent => break,
            };
            // Drop the inbox copy; dispatch directly.
            let _ = self.net.recv(d.to);
            let idx =
                self.net_ids.iter().position(|&n| n == d.to).expect("delivery to a known node");
            let sender =
                self.net_ids.iter().position(|&n| n == d.from).expect("delivery from a known node");
            if self.paused[idx] {
                self.buffer_ingress(idx, sender, d.payload);
            } else {
                self.dispatch_frame(idx, sender, &d.payload);
                processed += 1;
            }
        }
        // A final sweep at quiescence: time advanced past the timeout with
        // nothing left in flight still expires waiting partials.
        self.sweep_reassembly();
        processed
    }

    /// One turn of either run loop. The shared prologue applies due
    /// crash/restart transitions, sweeps reassembly, pumps telemetry,
    /// drains resumed ingress buffers (adding them to `processed`), and
    /// pumps the retry queue. Then `pull` takes the loop's next unit of
    /// work from the wire, bounded at the next crash/restart boundary so
    /// no delivery ever crosses one. When there is none, virtual time
    /// jumps to whatever comes first — the boundary or the next retry
    /// attempt — so every transition fires at its exact instant under
    /// every driver; with neither pending and an idle wire the loop is
    /// done.
    fn turn<T>(
        &mut self,
        processed: &mut usize,
        pull: impl FnOnce(&mut EchoSystem, Option<u64>) -> Option<T>,
    ) -> Turn<T> {
        self.process_crash_transitions(self.net.now_ns());
        self.sweep_reassembly();
        self.pump_telemetry();
        *processed += self.drain_ingress();
        self.pump_pending();
        let boundary = self.net.next_crash_transition();
        if let Some(work) = pull(self, boundary) {
            return Turn::Work(work);
        }
        let target = match (boundary, self.pump_pending()) {
            (Some(t), Some(r)) => Some(t.min(r)),
            (t, r) => t.or(r),
        };
        match target {
            Some(at) => {
                let now = self.net.now_ns();
                if at > now {
                    self.net.advance_ns(at - now);
                }
                Turn::Again
            }
            None if self.net.is_idle() => Turn::Quiescent,
            None => Turn::Again,
        }
    }

    /// Runs the system under the given [`Driver`] — the pluggable
    /// counterpart to [`EchoSystem::run`]. `VirtualTimeDriver` reproduces
    /// `run()` exactly; `WallClockDriver` executes rounds of deliveries on
    /// real threads.
    pub fn run_with(&mut self, driver: &mut dyn Driver) -> usize {
        driver.drive(self)
    }

    /// The multi-core runtime: repeatedly drains everything the network has
    /// in flight into per-shard mailboxes (bucketed by a stable hash of the
    /// destination's name, so one process is only ever touched by one
    /// worker), forks one worker thread per shard to run `handle_frame`
    /// over its mailbox, then joins and settles every outcome — accounting
    /// and follow-up sends — on the driver thread, where the network,
    /// retry queue, and system counters remain single-threaded.
    ///
    /// Invariants preserved from the single-threaded driver:
    ///
    /// - **Per-destination FIFO**: mailboxes are filled in global
    ///   `(deliver_at, seq)` order and each destination lives on exactly
    ///   one shard, so every process sees its frames in simulated arrival
    ///   order.
    /// - **Shed policy**: mailboxes are bounded; overflow sheds the oldest
    ///   *event* frame into the receiver's dead-letter queue
    ///   ([`DeadReason::Shed`], `echo.queue.shed`,
    ///   `echo.shard.mailbox.shed`). Control frames are never shed.
    /// - **Pause/backpressure**: deliveries to paused processes buffer in
    ///   their bounded ingress queues on the driver thread, exactly as in
    ///   `run()`.
    /// - **Retries**: link-down frames wait out their backoff in virtual
    ///   time between rounds.
    ///
    /// What is *not* preserved is cross-process interleaving: worker
    /// threads race in wall-clock time, so span orderings and wall-clock
    /// timings differ run to run. Deterministic replay needs
    /// [`EchoSystem::run`] / [`crate::VirtualTimeDriver`].
    pub(crate) fn run_sharded(&mut self, shards: usize, mailbox_capacity: usize) -> usize {
        assert!(shards > 0, "at least one shard required");
        if self.shard_metrics.as_ref().map(|m| m.shards) != Some(shards) {
            self.shard_metrics = Some(ShardMetrics::new(&self.metrics.registry, shards));
        }
        let sm = self.shard_metrics.clone().expect("created above");
        let assign: Vec<usize> =
            self.nodes.iter().map(|n| shard_of_name(&n.name, shards)).collect();
        let idx_of: HashMap<NodeId, usize> =
            self.net_ids.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        let mut processed = 0;
        loop {
            // One round: everything currently in flight (up to the next
            // crash boundary), bucketed by the destination's shard in
            // global delivery order.
            let turn = self.turn(&mut processed, |sys, boundary| match boundary {
                Some(t) if sys.net.next_delivery_at().is_some_and(|d| d < t) => {
                    Some(sys.net.drain_ready_sharded_before(shards, t, |to| assign[idx_of[&to]]))
                }
                None if !sys.net.is_idle() => {
                    Some(sys.net.drain_ready_sharded(shards, |to| assign[idx_of[&to]]))
                }
                _ => None,
            });
            let buckets = match turn {
                Turn::Work(buckets) => buckets,
                Turn::Again => continue,
                Turn::Quiescent => break,
            };
            let mut mailboxes: Vec<Vec<(usize, usize, WireBytes)>> =
                (0..shards).map(|_| Vec::new()).collect();
            for (shard, bucket) in buckets.into_iter().enumerate() {
                for d in bucket {
                    let idx = idx_of[&d.to];
                    let sender = idx_of[&d.from];
                    if self.paused[idx] {
                        self.buffer_ingress(idx, sender, d.payload);
                    } else {
                        mailboxes[shard].push((idx, sender, d.payload));
                    }
                }
            }
            // Adaptive mailbox watermark: this round's fill is the arrival
            // burst; the previous round's settled frames were the drains.
            let round_fill: usize = mailboxes.iter().map(Vec::len).sum();
            let mailbox_capacity = {
                let now = self.net.now_ns();
                match self.adaptive.as_mut() {
                    Some(a) => {
                        for _ in 0..round_fill {
                            a.mailbox.on_arrival(now);
                        }
                        a.mailbox.evaluate(now, &self.recorder, None);
                        mailbox_capacity.min(a.mailbox.capacity())
                    }
                    None => mailbox_capacity,
                }
            };
            // Bounded mailboxes: shed the lowest-tier event frames past
            // the bound (control frames are never shed and may exceed it).
            // A shed fragment takes its whole mailbox set with it — the
            // message cannot complete anyway, and orphan fragments would
            // only squat in the reassembly buffer until the timeout.
            for mailbox in &mut mailboxes {
                while mailbox.len() > mailbox_capacity {
                    let Some(pos) = shed_victim_pos(mailbox.iter().map(|(_, _, b)| &**b)) else {
                        break;
                    };
                    let (idx, vs, victim) = mailbox.remove(pos);
                    let ctx = proto::peek_trace(&victim).map(|t| TraceCtx::root(TraceId(t)));
                    let set = proto::peek_frag(&victim).filter(|&(_, _, count)| count > 1);
                    sm.shed.inc();
                    self.shed_at(idx, &victim, "shard mailbox full: lowest-tier frame shed", ctx);
                    if let Some((seq, _, _)) = set {
                        let mut i = 0;
                        while i < mailbox.len() {
                            let (mi, ms, b) = &mailbox[i];
                            let mate = *mi == idx
                                && *ms == vs
                                && proto::peek_frag(b).is_some_and(|(s, _, c)| s == seq && c > 1);
                            if mate {
                                let (_, _, b) = mailbox.remove(i);
                                let ctx = proto::peek_trace(&b).map(|t| TraceCtx::root(TraceId(t)));
                                sm.shed.inc();
                                self.shed_at(
                                    idx,
                                    &b,
                                    "shard mailbox full: fragment-set mate shed",
                                    ctx,
                                );
                            } else {
                                i += 1;
                            }
                        }
                    }
                }
            }
            let round_frames: usize = mailboxes.iter().map(Vec::len).sum();
            if round_frames == 0 {
                continue;
            }
            sm.rounds.inc();
            for (shard, mailbox) in mailboxes.iter().enumerate() {
                sm.depth.get(shard).set(mailbox.len() as i64);
            }
            // Fork: each worker exclusively owns its shard's processes and
            // mailbox; counters it touches are pre-fetched atomics. Every
            // node's clock is stamped on the driver thread first, so
            // reassembly aging stays deterministic across shard counts.
            let round_now = self.net.now_ns();
            for node in &mut self.nodes {
                node.set_now(round_now);
            }
            let mut partitions: Vec<Vec<(usize, &mut NodeState)>> =
                (0..shards).map(|_| Vec::new()).collect();
            for (i, node) in self.nodes.iter_mut().enumerate() {
                partitions[assign[i]].push((i, node));
            }
            let outcomes: Vec<Vec<(usize, usize, FrameOutcome)>> = std::thread::scope(|scope| {
                let workers: Vec<_> = mailboxes
                    .into_iter()
                    .zip(partitions)
                    .map(|(mailbox, partition)| {
                        scope.spawn(move || {
                            let mut nodes: HashMap<usize, &mut NodeState> =
                                partition.into_iter().collect();
                            let mut out = Vec::with_capacity(mailbox.len());
                            for (idx, sender, bytes) in mailbox {
                                let node =
                                    nodes.get_mut(&idx).expect("destination owned by this shard");
                                out.push((idx, sender, node.handle_frame(sender as u64, &bytes)));
                            }
                            out
                        })
                    })
                    .collect();
                workers.into_iter().map(|w| w.join().expect("shard worker panicked")).collect()
            });
            // Join: settle outcomes in shard order on the driver thread —
            // disposition accounting and follow-up sends are
            // single-threaded again.
            let mut settled = 0usize;
            for (shard, outs) in outcomes.into_iter().enumerate() {
                sm.frames.get(shard).add(outs.len() as u64);
                sm.depth.get(shard).set(0);
                for (idx, sender, outcome) in outs {
                    self.settle_outcome(idx, sender, outcome);
                    processed += 1;
                    settled += 1;
                }
            }
            if let Some(a) = self.adaptive.as_mut() {
                let now = self.net.now_ns();
                for _ in 0..settled {
                    a.mailbox.on_drain(now);
                }
                a.mailbox.evaluate(now, &self.recorder, None);
            }
        }
        // Final sweep at quiescence, as in [`EchoSystem::run`].
        self.sweep_reassembly();
        processed
    }

    /// Drains the events received by a process so far.
    pub fn take_events(&mut self, proc: ProcessId) -> Vec<(ChannelId, Value)> {
        self.nodes[proc.0].take_events()
    }

    /// The membership view a process holds for a channel (creators return
    /// the authoritative list).
    pub fn members(&self, proc: ProcessId, channel: ChannelId) -> Option<Vec<MemberInfo>> {
        let node = &self.nodes[proc.0];
        node.owned.get(&channel).or_else(|| node.memberships.get(&channel)).cloned()
    }

    /// Control-plane morphing statistics of a process.
    pub fn control_stats(&self, proc: ProcessId) -> MorphStats {
        self.nodes[proc.0].control_stats()
    }

    /// Event-plane morphing statistics of a process on one channel.
    pub fn event_stats(&self, proc: ProcessId, channel: ChannelId) -> Option<MorphStats> {
        self.nodes[proc.0].event_stats(channel)
    }

    /// The system-level observability registry: `echo.*` event counters
    /// plus the network's `simnet.*` traffic totals, stamped with virtual
    /// time. Snapshots of this registry are deterministic across runs.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.metrics.registry
    }

    /// The system flight recorder: every publish/subscribe mints a causal
    /// trace here, annotated by the network (hop spans, fault tags) and by
    /// each receiver (`echo.handle`, morphing stages, quarantines). Use
    /// [`obs::FlightRecorder::text_tree`] or
    /// [`obs::FlightRecorder::chrome_json`] to export; both are
    /// deterministic because the recorder runs on the virtual clock.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Trace ids recorded so far, in first-appearance order — convenient
    /// for walking "every message this run" in examples and reports.
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut seen = Vec::new();
        for e in self.recorder.events() {
            if !seen.contains(&e.trace) {
                seen.push(e.trace);
            }
        }
        seen
    }

    /// The registry behind a process's control-plane morphing receiver:
    /// `morph.*` and `pbio.*` metrics, including wall-clock latency
    /// histograms (`morph.decide_ns`, `pbio.plan.compile_ns`, …).
    pub fn control_registry(&self, proc: ProcessId) -> &Arc<Registry> {
        self.nodes[proc.0].control_registry()
    }

    /// The registry behind a process's event-plane receiver on `channel`,
    /// if the process expects events there.
    pub fn event_registry(&self, proc: ProcessId, channel: ChannelId) -> Option<&Arc<Registry>> {
        self.nodes[proc.0].event_registry(channel)
    }

    /// Current virtual time (nanoseconds).
    pub fn now_ns(&self) -> u64 {
        self.net.now_ns()
    }

    /// Total bytes carried on the network so far.
    pub fn total_bytes(&self) -> u64 {
        self.net.total_bytes()
    }

    /// The ECho version a process runs.
    pub fn version(&self, proc: ProcessId) -> EchoVersion {
        self.nodes[proc.0].version
    }

    /// Turns publish-path tracing on or off (on by default). With tracing
    /// off, published frames carry [`proto::NO_TRACE`] and mint no spans —
    /// the mode for high-rate data-plane traffic, where per-event trace
    /// allocation and recorder writes are pure overhead. Control-plane
    /// operations keep tracing regardless; they are rare and diagnostic.
    pub fn set_tracing(&mut self, tracing: bool) {
        self.tracing = tracing;
    }

    /// Opts the whole system into shared morph caches: every process
    /// (existing and future) consults one system-wide decision cache and
    /// one conversion-plan store, so MaxMatch and plan compilation for a
    /// given writer format are paid once per *compatible receiver
    /// population* instead of once per receiver — the difference between
    /// O(subscribers) and O(1) cold-path cost on a 10k-sink fan-out.
    ///
    /// Off by default: sharing shifts which receiver pays the cold-path
    /// work, which perturbs per-receiver `morph.*`/`pbio.*` counters (and
    /// therefore byte-identical chaos snapshots). Decision sharing is
    /// fingerprint-keyed, so mixed-version receivers never exchange
    /// decisions they could not have computed themselves.
    pub fn enable_shared_morph_caches(&mut self) {
        let decisions = DecisionCache::new();
        let plans = PlanStore::default();
        for node in &mut self.nodes {
            node.enable_shared_caches(decisions.clone(), plans.clone());
        }
        self.shared_caches = Some((decisions, plans));
    }

    /// Registers `proc` as a sink on `channel` *without* the subscription
    /// handshake: the role and expected event format are set locally and
    /// the creator's authoritative member list gains the contact directly —
    /// no request frame, no response broadcast. Models pre-provisioned
    /// membership (a deployment manifest); the handshake's response
    /// broadcast is O(members) per join, which makes mass subscription
    /// O(members²) — this is the bulk path for large fan-outs. The next
    /// membership refresh naturally includes provisioned members.
    ///
    /// # Errors
    ///
    /// Returns [`EchoError::UnknownChannel`] for unregistered channels.
    pub fn provision_sink(
        &mut self,
        proc: ProcessId,
        channel: ChannelId,
        format: &Arc<RecordFormat>,
    ) -> Result<(), EchoError> {
        let creator_idx =
            *self.directory.get(&channel).ok_or(EchoError::UnknownChannel(channel))?;
        self.nodes[proc.0].roles.insert(channel, Role::sink());
        self.nodes[proc.0].expect_events(channel, format);
        let contact = self.nodes[proc.0].name.clone();
        self.nodes[creator_idx].add_member(channel, contact, Role::sink())?;
        Ok(())
    }

    /// The adaptive watermarks' current effective capacities as
    /// `(retry, ingress, mailbox)`, when [`EchoConfig::adaptive_shedding`]
    /// is set.
    pub fn adaptive_capacities(&self) -> Option<(usize, usize, usize)> {
        self.adaptive
            .as_ref()
            .map(|a| (a.retry.capacity(), a.ingress.capacity(), a.mailbox.capacity()))
    }

    /// True while any adaptive watermark holds its queue in the tightened
    /// (overloaded) regime.
    pub fn adaptive_overloaded(&self) -> bool {
        self.adaptive.as_ref().is_some_and(|a| {
            a.retry.overloaded() || a.ingress.overloaded() || a.mailbox.overloaded()
        })
    }

    /// Starts periodic self-telemetry: every `period_ns` of virtual time
    /// (while the system runs), `proc` publishes one
    /// [`telemetry::telemetry_format_v2`] record on `channel` carrying the
    /// system registry's counter deltas since the previous record. The
    /// channel is switched to [`QosTier::SequencedUnreliable`] — stale
    /// telemetry is worthless and monitoring traffic must never queue
    /// retries inside the system it observes. `proc` must be the channel's
    /// creator or a source on it, and collectors subscribe as ordinary
    /// sinks; v1-era collectors morph v2 records on receipt with zero
    /// hand-written transformations (MaxMatch field matching).
    ///
    /// Records count into `echo.telemetry.published` / `.bytes`. The
    /// telemetry traffic itself is observed by the registry it samples, so
    /// each record's deltas include the previous record's own publish —
    /// self-observation, not double counting.
    pub fn enable_self_telemetry(&mut self, proc: ProcessId, channel: ChannelId, period_ns: u64) {
        self.set_channel_qos(channel, QosTier::SequencedUnreliable);
        // The system is the writer of its own telemetry: ship the current
        // record's meta-data out-of-band (the paper's format-server role)
        // so collectors of any era resolve it — older ones by MaxMatch,
        // with no transformations to distribute.
        self.distribute_metadata(&[telemetry::telemetry_format_v2()], &[]);
        let now = self.net.now_ns();
        let period_ns = period_ns.max(1);
        self.telemetry = Some(TelemetryState {
            proc: proc.0,
            channel,
            period_ns,
            next_at_ns: now + period_ns,
            sampled: self.telemetry_sampled(),
            last_at_ns: now,
            seq: 0,
            format: telemetry::telemetry_format_v2(),
            published: self.metrics.registry.counter("echo.telemetry.published"),
            bytes: self.metrics.registry.counter("echo.telemetry.bytes"),
        });
    }

    /// The counter handles a telemetry record samples, baselined at their
    /// current values. Adaptive decision counters join the list only under
    /// [`EchoConfig::adaptive_shedding`], keeping the registry catalogue of
    /// non-adaptive systems unchanged.
    fn telemetry_sampled(&self) -> Vec<(&'static str, Arc<Counter>, u64)> {
        let mut names: Vec<&'static str> =
            vec!["echo.events.delivered", "echo.events.published", "echo.queue.shed"];
        if self.adaptive.is_some() {
            names.extend([
                "echo.adaptive.ingress.relaxed",
                "echo.adaptive.ingress.tightened",
                "echo.adaptive.mailbox.relaxed",
                "echo.adaptive.mailbox.tightened",
                "echo.adaptive.retry.relaxed",
                "echo.adaptive.retry.tightened",
            ]);
        }
        names.sort_unstable();
        names
            .into_iter()
            .map(|n| {
                let c = self.metrics.registry.counter(n);
                let v = c.get();
                (n, c, v)
            })
            .collect()
    }

    /// Publishes a telemetry record if the reporting period has elapsed.
    /// Called by the run loops; firing requires virtual time to advance,
    /// so a quiescent system emits nothing.
    fn pump_telemetry(&mut self) {
        let Some(t) = &self.telemetry else { return };
        let now = self.net.now_ns();
        if now < t.next_at_ns {
            return;
        }
        let (proc, channel) = (t.proc, t.channel);
        let published = Arc::clone(&t.published);
        let bytes_counter = Arc::clone(&t.bytes);
        let depth = self.metrics.queue_depth.get();
        let t = self.telemetry.as_mut().expect("checked above");
        let mut counters = Vec::with_capacity(t.sampled.len());
        for (name, handle, last) in &mut t.sampled {
            let v = handle.get();
            counters.push(((*name).to_string(), v.saturating_sub(*last)));
            *last = v;
        }
        let delta = SnapshotDelta {
            elapsed_ns: now.saturating_sub(t.last_at_ns),
            counters,
            gauges: Vec::new(),
            histogram_counts: Vec::new(),
        };
        t.last_at_ns = now;
        t.seq += 1;
        let seq = t.seq;
        t.next_at_ns = now + t.period_ns;
        let value = telemetry::telemetry_value(seq, now, depth, &delta);
        let fmt = Arc::clone(&t.format);
        if let Ok(encoded) = Encoder::new(&fmt).encode(&value) {
            bytes_counter.add(encoded.len() as u64);
        }
        published.inc();
        // A publish failure (e.g. the emitter lost its subscription) must
        // not wedge the run loop; the period simply elapses again.
        let _ = self.publish(ProcessId(proc), channel, &fmt, &value);
    }

    /// Sets a channel's delivery tier. Channels default to
    /// [`QosTier::Reliable`]; the tier travels in every frame header, so
    /// receivers enforce it straight off the wire with no side-channel
    /// distribution. Control-plane frames (subscriptions, membership
    /// refreshes) always travel reliable, whatever the channel's event
    /// tier.
    pub fn set_channel_qos(&mut self, channel: ChannelId, tier: QosTier) {
        self.qos.insert(channel, tier);
    }

    /// The delivery tier a channel's events travel under.
    pub fn channel_qos(&self, channel: ChannelId) -> QosTier {
        self.qos.get(&channel).copied().unwrap_or(QosTier::Reliable)
    }

    /// In-progress fragment sets currently buffered at a process, across
    /// all its channels.
    pub fn reassembly_depth(&self, proc: ProcessId) -> usize {
        self.nodes[proc.0].reassembly_depth()
    }

    /// Caps the payload size the (bidirectional) link between two
    /// processes accepts; larger sends are refused with
    /// [`simnet::NetError::Oversized`]. `0` lifts the cap. Pair with
    /// [`EchoConfig::frame_budget`] so fragmented events fit.
    pub fn set_link_mtu(&mut self, a: ProcessId, b: ProcessId, mtu: usize) {
        self.net.set_link_mtu(self.net_ids[a.0], self.net_ids[b.0], mtu);
    }

    /// Pauses a process: models an overloaded or stalled consumer.
    /// Deliveries addressed to it buffer in a bounded ingress queue
    /// instead of dispatching; the rest of the system keeps running.
    pub fn pause_process(&mut self, proc: ProcessId) {
        self.paused[proc.0] = true;
    }

    /// Resumes a paused process; its buffered frames drain — through the
    /// exact dispatch path live deliveries take — on the next
    /// [`EchoSystem::run`].
    pub fn resume_process(&mut self, proc: ProcessId) {
        self.paused[proc.0] = false;
    }

    /// High-watermark backpressure signal: true once a process's ingress
    /// buffer is at least 3/4 full. Publishers can poll this to slow down
    /// before shedding starts.
    pub fn backpressure(&self, proc: ProcessId) -> bool {
        self.ingress[proc.0].len() * 4 >= self.config.ingress_capacity * 3
    }

    /// Frames currently buffered for a (paused or resuming) process.
    pub fn ingress_depth(&self, proc: ProcessId) -> usize {
        self.ingress[proc.0].len()
    }

    /// The current windowed bandwidth/loss/RTT reading for the directed
    /// link `from → to`, if link monitors are enabled and the link exists.
    pub fn link_bandwidth(&self, from: ProcessId, to: ProcessId) -> Option<LinkBandwidth> {
        self.net.link_bandwidth(self.net_ids[from.0], self.net_ids[to.0])
    }

    /// Attaches a [`FaultPlan`] to the (bidirectional) link between two
    /// processes — see [`simnet::Network::set_fault_plan`].
    pub fn set_fault_plan(&mut self, a: ProcessId, b: ProcessId, plan: FaultPlan) {
        self.net.set_fault_plan(self.net_ids[a.0], self.net_ids[b.0], plan);
    }

    /// Removes any fault plan between two processes.
    pub fn clear_fault_plan(&mut self, a: ProcessId, b: ProcessId) {
        self.net.clear_fault_plan(self.net_ids[a.0], self.net_ids[b.0]);
    }

    /// Administratively raises/lowers the link between two processes
    /// (partition modeling). Sends while down go to the retry queue.
    pub fn set_link_up(&mut self, a: ProcessId, b: ProcessId, up: bool) {
        self.net.set_link_up(self.net_ids[a.0], self.net_ids[b.0], up);
    }

    /// Advances virtual time without network activity (e.g. to move past a
    /// scheduled partition window before calling [`EchoSystem::run`]).
    pub fn advance_ns(&mut self, delta_ns: u64) {
        self.net.advance_ns(delta_ns);
    }

    /// Aggregated fault-injection accounting across all links.
    pub fn fault_totals(&self) -> FaultStats {
        self.net.fault_totals()
    }

    /// The frames a process has quarantined (oldest first, bounded; the
    /// `echo.deadletter.*` counters track unbounded totals).
    pub fn dead_letters(&self, proc: ProcessId) -> Vec<DeadLetter> {
        self.nodes[proc.0].dead_letters().letters().cloned().collect()
    }

    /// Total frames ever quarantined by a process.
    pub fn dead_letter_total(&self, proc: ProcessId) -> u64 {
        self.nodes[proc.0].dead_letters().total()
    }

    /// Frames currently waiting in the system retry queue.
    pub fn pending_retries(&self) -> usize {
        self.pending.len()
    }

    /// Schedules crash windows on a process (half-open `[from_ns,
    /// until_ns)` intervals of virtual time). While a window is open the
    /// process is dead: sends to it are refused (Reliable frames park
    /// until the scheduled restart), in-flight deliveries into it vanish,
    /// and the run loops apply the full lifecycle at the window's edges —
    /// amnesia and journal tear-off going down; epoch bump, journal
    /// replay, resume handshakes, and redelivery coming back up.
    pub fn set_crash_windows(&mut self, proc: ProcessId, windows: &[(u64, u64)]) {
        self.net.set_crash_windows(self.net_ids[proc.0], windows);
    }

    /// A process's journal self-accounting, when journaling is enabled.
    pub fn journal_stats(&self, proc: ProcessId) -> Option<JournalStats> {
        self.journals[proc.0].as_ref().map(Journal::stats)
    }

    /// A process's current incarnation number: 0 at birth, bumped by each
    /// crash-restart.
    pub fn epoch_of(&self, proc: ProcessId) -> u32 {
        self.nodes[proc.0].epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VirtualTimeDriver, WallClockDriver, DEFAULT_MAILBOX_CAPACITY};
    use pbio::FormatBuilder;

    fn tick_format() -> Arc<RecordFormat> {
        FormatBuilder::record("Tick").int("n").double("t").build_arc().unwrap()
    }

    fn tick(n: i64) -> Value {
        Value::Record(vec![Value::Int(n), Value::Float(n as f64 * 0.5)])
    }

    /// Builds creator + two subscribers, fully connected.
    fn three(
        creator_v: EchoVersion,
        sub_v: EchoVersion,
    ) -> (EchoSystem, ProcessId, ProcessId, ProcessId) {
        three_with(EchoConfig::default(), creator_v, sub_v)
    }

    /// [`three`] on a system built from `config`.
    fn three_with(
        config: EchoConfig,
        creator_v: EchoVersion,
        sub_v: EchoVersion,
    ) -> (EchoSystem, ProcessId, ProcessId, ProcessId) {
        let mut sys = EchoSystem::with_config(config).unwrap();
        let c = sys.add_process("creator", creator_v);
        let s1 = sys.add_process("pub-1", EchoVersion::V2);
        let s2 = sys.add_process("sub-2", sub_v);
        sys.connect_all(LinkParams::lan());
        (sys, c, s1, s2)
    }

    #[test]
    fn same_version_subscribe_and_publish() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        // Publisher learned the membership (including the sink).
        let members = sys.members(s1, ch).unwrap();
        assert_eq!(members.len(), 2);
        let sent = sys.publish(s1, ch, &fmt, &tick(7)).unwrap();
        assert_eq!(sent, 1);
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(events, vec![(ch, tick(7))]);
    }

    #[test]
    fn v2_creator_serves_v1_subscriber_via_morphing() {
        // The paper's §4.1 scenario.
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V1);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::both(), Some(&fmt)).unwrap();
        sys.run();
        // The v1 subscriber holds a correct membership view even though the
        // creator only ever sent v2 responses.
        let members = sys.members(s2, ch).unwrap();
        assert_eq!(members.len(), 2);
        assert!(members.iter().any(|m| m.contact == "sub-2" && m.is_sink && m.is_source));
        assert!(members.iter().any(|m| m.contact == "pub-1" && m.is_source && !m.is_sink));
        // Morphing happened at the v1 node (its stats show a compiled
        // transformation), not at the creator.
        let stats = sys.control_stats(s2);
        assert!(stats.morphs >= 1, "stats: {stats:?}");
        assert!(stats.compiles >= 1);
        assert_eq!(sys.control_stats(c).morphs, 0);
        // Events flow to the v1 sink.
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1);
    }

    #[test]
    fn v1_creator_serves_v2_subscriber_forward_compat() {
        // Reverse direction: the v1 creator emits v1 responses; the v2
        // subscriber morphs them *forward* with the shipped v1→v2
        // transformation, which reconstructs the role booleans by joining
        // the v1 src/sink lists — semantic, not just syntactic, recovery.
        let (mut sys, c, _s1, s2) = three(EchoVersion::V1, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(s2, ch, Role::sink(), Some(&tick_format())).unwrap();
        sys.run();
        let members = sys.members(s2, ch).unwrap();
        assert_eq!(members.len(), 1);
        assert_eq!(members[0].contact, "sub-2");
        assert!(members[0].is_sink, "role flags recovered from the v1 sink list");
        assert!(!members[0].is_source);
        assert!(sys.control_stats(s2).morphs >= 1);
    }

    #[test]
    fn creator_local_subscription() {
        let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(c, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.run();
        sys.publish(s1, ch, &fmt, &tick(3)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(c).len(), 1);
    }

    #[test]
    fn unknown_channel_rejected() {
        let (mut sys, _c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let err = sys.subscribe(s1, ChannelId(99), Role::sink(), None).unwrap_err();
        assert!(matches!(err, EchoError::UnknownChannel(_)));
    }

    #[test]
    fn publish_requires_subscription() {
        let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let err = sys.publish(s1, ch, &tick_format(), &tick(0)).unwrap_err();
        assert!(matches!(err, EchoError::NotSubscribed(_)));
    }

    #[test]
    fn event_format_evolution_with_transformation() {
        // A newer publisher ships richer events; an old sink still works.
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let old_fmt = FormatBuilder::record("Reading").int("value").build_arc().unwrap();
        let new_fmt = FormatBuilder::record("Reading").int("raw").int("scale").build_arc().unwrap();
        sys.distribute_metadata(
            &[old_fmt.clone(), new_fmt.clone()],
            &[Transformation::new(
                new_fmt.clone(),
                old_fmt.clone(),
                "old.value = new.raw * new.scale;",
            )],
        );
        let ch = sys.create_channel(c);
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&old_fmt)).unwrap();
        sys.run();
        sys.publish(s1, ch, &new_fmt, &Value::Record(vec![Value::Int(6), Value::Int(7)])).unwrap();
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(events, vec![(ch, Value::Record(vec![Value::Int(42)]))]);
        assert_eq!(sys.event_stats(s2, ch).unwrap().morphs, 1);
    }

    #[test]
    fn membership_updates_broadcast_to_all() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.run();
        assert_eq!(sys.members(s1, ch).unwrap().len(), 1);
        sys.subscribe(s2, ch, Role::sink(), Some(&tick_format())).unwrap();
        sys.run();
        // s1's view refreshed by the broadcast.
        assert_eq!(sys.members(s1, ch).unwrap().len(), 2);
    }

    #[test]
    fn derived_channel_filters_at_source() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        // s2 only wants even ticks, and only the sequence number.
        let derived = FormatBuilder::record("TickSeq").int("n").build_arc().unwrap();
        sys.subscribe_derived(
            s2,
            ch,
            &fmt,
            &derived,
            "if (new.n % 2 != 0) return 0; old.n = new.n;",
        )
        .unwrap();
        sys.run();
        for n in 0..6 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        sys.run();
        let events = sys.take_events(s2);
        let seqs: Vec<i64> =
            events.iter().map(|(_, v)| v.field(&derived, "n").unwrap().as_i64().unwrap()).collect();
        assert_eq!(seqs, vec![0, 2, 4]);
    }

    #[test]
    fn derived_channel_reduces_wire_traffic() {
        // The point of source-side derivation: filtered events never travel.
        let run = |derived: bool| -> u64 {
            let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
            let ch = sys.create_channel(c);
            let fmt = tick_format();
            sys.subscribe(s1, ch, Role::source(), None).unwrap();
            if derived {
                let dfmt = FormatBuilder::record("T").int("n").build_arc().unwrap();
                sys.subscribe_derived(s2, ch, &fmt, &dfmt, "return 0;").unwrap();
            } else {
                sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
            }
            sys.run();
            let before = sys.total_bytes();
            for n in 0..20 {
                sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
            }
            sys.run();
            sys.total_bytes() - before
        };
        let full = run(false);
        let filtered = run(true);
        assert_eq!(filtered, 0, "drop-all derivation sends nothing");
        assert!(full > 0);
    }

    #[test]
    fn derived_and_plain_sinks_coexist() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let plain = sys.add_process("plain-sink", EchoVersion::V2);
        sys.connect_all(LinkParams::lan());
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(plain, ch, Role::sink(), Some(&fmt)).unwrap();
        let dfmt = FormatBuilder::record("T").int("n").build_arc().unwrap();
        sys.subscribe_derived(s2, ch, &fmt, &dfmt, "if (new.n < 2) return 0; old.n = new.n;")
            .unwrap();
        sys.run();
        for n in 0..4 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        sys.run();
        assert_eq!(sys.take_events(plain).len(), 4, "plain sink sees everything");
        assert_eq!(sys.take_events(s2).len(), 2, "derived sink sees the tail");
    }

    #[test]
    fn unsubscribe_removes_member_and_stops_delivery() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1);

        sys.unsubscribe(s2, ch).unwrap();
        sys.run();
        // Creator's authoritative list no longer holds s2; the publisher's
        // refreshed view excludes it.
        assert!(sys.members(c, ch).unwrap().iter().all(|m| m.contact != "sub-2"));
        assert!(sys.members(s1, ch).unwrap().iter().all(|m| m.contact != "sub-2"));
        sys.publish(s1, ch, &fmt, &tick(2)).unwrap();
        sys.run();
        assert!(sys.take_events(s2).is_empty());
    }

    #[test]
    fn unsubscribe_drops_derived_subscription() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        let dfmt = FormatBuilder::record("T").int("n").build_arc().unwrap();
        sys.subscribe_derived(s2, ch, &fmt, &dfmt, "old.n = new.n;").unwrap();
        sys.run();
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1);
        // After unsubscribing, re-subscribing plainly must not reuse the
        // stale derived transformation.
        sys.unsubscribe(s2, ch).unwrap();
        sys.run();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.publish(s1, ch, &fmt, &tick(2)).unwrap();
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, tick(2), "raw event, not the derived shape");
    }

    #[test]
    fn unsubscribe_by_creator_is_local() {
        let (mut sys, c, _s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(c, ch, Role::sink(), Some(&tick_format())).unwrap();
        assert_eq!(sys.members(c, ch).unwrap().len(), 1);
        sys.unsubscribe(c, ch).unwrap();
        assert!(sys.members(c, ch).unwrap().is_empty());
        assert!(sys.unsubscribe(c, ChannelId(99)).is_err());
    }

    #[test]
    fn derived_channel_bad_code_fails_at_registration() {
        let (mut sys, c, _s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        let dfmt = FormatBuilder::record("T").int("n").build_arc().unwrap();
        let err = sys.subscribe_derived(s2, ch, &fmt, &dfmt, "old.nosuch = 1;").unwrap_err();
        assert!(matches!(err, EchoError::Morph(_)));
    }

    #[test]
    fn system_registry_counts_events() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let plain = sys.add_process("plain-sink", EchoVersion::V2);
        sys.connect_all(LinkParams::lan());
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(plain, ch, Role::sink(), Some(&fmt)).unwrap();
        let dfmt = FormatBuilder::record("T").int("n").build_arc().unwrap();
        sys.subscribe_derived(s2, ch, &fmt, &dfmt, "if (new.n < 2) return 0; old.n = new.n;")
            .unwrap();
        sys.run();
        for n in 0..4 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        sys.run();
        let snap = sys.registry().snapshot();
        // 4 publish() calls; each reaches the plain sink, and 2 of 4 pass
        // the derived filter at the source.
        assert_eq!(snap.counter("echo.events.published"), Some(4));
        assert_eq!(snap.counter("echo.events.filtered"), Some(2));
        assert_eq!(snap.counter("echo.events.delivered"), Some(6));
        assert_eq!(snap.counter("echo.derived.compiled"), Some(1));
        assert_eq!(snap.counter(&format!("echo.ch.{}.published", ch.0)), Some(4));
        assert_eq!(snap.counter(&format!("echo.ch.{}.delivered", ch.0)), Some(6));
        // The attached network mirrors its traffic into the same registry,
        // and the snapshot is stamped with virtual time.
        assert!(snap.counter("simnet.messages").unwrap_or(0) > 0);
        assert_eq!(snap.at_ns, sys.now_ns());
        // Identical runs produce identical snapshots: the registry holds
        // only virtual-time-deterministic values.
        let rerun = || {
            let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
            let ch = sys.create_channel(c);
            let fmt = tick_format();
            sys.subscribe(s1, ch, Role::source(), None).unwrap();
            sys.run();
            sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
            sys.run();
            sys.registry().snapshot().to_text()
        };
        assert_eq!(rerun(), rerun());
    }

    #[test]
    fn per_receiver_registries_exposed() {
        let (mut sys, c, _s1, s2) = three(EchoVersion::V2, EchoVersion::V1);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        // The v1 subscriber morphed the creator's v2 response: its
        // control-plane registry saw the cold path.
        let snap = sys.control_registry(s2).snapshot();
        assert!(snap.counter("morph.decision.miss").unwrap_or(0) >= 1);
        assert!(snap.counter("morph.decision.morph").unwrap_or(0) >= 1);
        // The event-plane receiver exists for the subscribed channel only.
        assert!(sys.event_registry(s2, ch).is_some());
        assert!(sys.event_registry(s2, ChannelId(99)).is_none());
        assert!(sys.event_registry(c, ch).is_none());
    }

    #[test]
    fn full_retry_queue_sheds_oldest_events_but_never_control() {
        let cfg = EchoConfig { retry_queue_capacity: 2, ..EchoConfig::default() };
        let (mut sys, c, s1, s2) = three_with(cfg, EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.set_link_up(s1, s2, false);
        for n in 0..4 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        // Capacity 2: ticks 0 and 1 were shed (drop-oldest) to make room.
        assert_eq!(sys.pending_retries(), 2);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.queue.shed"), Some(2));
        assert_eq!(snap.counter("echo.deadletter.shed"), Some(2));
        assert_eq!(snap.gauge("echo.queue.depth"), Some(2));
        // Every shed frame is accounted at its *sender* with reason Shed.
        let shed: Vec<DeadLetter> =
            sys.dead_letters(s1).into_iter().filter(|l| l.reason == DeadReason::Shed).collect();
        assert_eq!(shed.len(), 2);
        assert!(shed.iter().all(|l| l.detail.contains("retry queue full")));
        // A control frame admits even though the queue is at capacity —
        // and it does so by shedding another event, not by being dropped.
        sys.set_link_up(s2, c, false);
        sys.subscribe(s2, ch, Role::sink(), None).unwrap();
        assert_eq!(sys.pending_retries(), 2);
        assert_eq!(sys.registry().snapshot().counter("echo.queue.shed"), Some(3));
        // Heal: the survivors (1 event + the control frame) deliver.
        sys.set_link_up(s1, s2, true);
        sys.set_link_up(s2, c, true);
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(events, vec![(ch, tick(3))], "only the newest event survived the queue");
        assert_eq!(sys.registry().snapshot().gauge("echo.queue.depth"), Some(0));
    }

    #[test]
    fn paused_process_buffers_bounded_ingress_with_backpressure() {
        let cfg = EchoConfig { ingress_capacity: 4, ..EchoConfig::default() };
        let (mut sys, c, s1, s2) = three_with(cfg, EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.pause_process(s2);
        assert!(!sys.backpressure(s2));
        for n in 0..6 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        sys.run();
        // All six frames arrived, but the consumer is stalled: 4 buffered,
        // the 2 oldest shed at the *receiver*.
        assert_eq!(sys.ingress_depth(s2), 4);
        assert!(sys.backpressure(s2), "high watermark (3/4) reached");
        assert!(sys.take_events(s2).is_empty(), "nothing dispatched while paused");
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.queue.shed"), Some(2));
        assert_eq!(snap.gauge("echo.queue.depth"), Some(4));
        assert_eq!(sys.dead_letters(s2).iter().filter(|l| l.reason == DeadReason::Shed).count(), 2);
        // Resume: the buffer drains through the normal dispatch path.
        sys.resume_process(s2);
        sys.run();
        assert_eq!(sys.ingress_depth(s2), 0);
        assert!(!sys.backpressure(s2));
        let events = sys.take_events(s2);
        assert_eq!(
            events,
            vec![(ch, tick(2)), (ch, tick(3)), (ch, tick(4)), (ch, tick(5))],
            "the newest four survive, in arrival order"
        );
        assert_eq!(sys.registry().snapshot().gauge("echo.queue.depth"), Some(0));
    }

    /// Creator + publisher + `n` morphing v1-style sinks on an evolved
    /// format, fully wired, ready to publish.
    fn fanout_fixture(
        n: usize,
    ) -> (EchoSystem, ProcessId, ChannelId, Arc<RecordFormat>, Arc<RecordFormat>) {
        let mut sys = EchoSystem::new();
        let c = sys.add_process("creator", EchoVersion::V2);
        let old_fmt = FormatBuilder::record("Reading").int("value").build_arc().unwrap();
        let new_fmt = FormatBuilder::record("Reading").int("raw").int("scale").build_arc().unwrap();
        let ch = sys.create_channel(c);
        let subs: Vec<ProcessId> = (0..n)
            .map(|i| {
                let s = sys.add_process(format!("sub-{i}"), EchoVersion::V2);
                sys.connect(c, s, LinkParams::lan());
                s
            })
            .collect();
        sys.distribute_metadata(
            &[old_fmt.clone(), new_fmt.clone()],
            &[Transformation::new(
                new_fmt.clone(),
                old_fmt.clone(),
                "old.value = new.raw * new.scale;",
            )],
        );
        for s in subs {
            sys.provision_sink(s, ch, &old_fmt).unwrap();
        }
        (sys, c, ch, new_fmt, old_fmt)
    }

    #[test]
    fn wall_clock_driver_delivers_the_same_events_as_the_virtual_one() {
        let deliver = |wall: bool| -> Vec<Vec<(ChannelId, Value)>> {
            let (mut sys, c, ch, new_fmt, _) = fanout_fixture(9);
            for n in 0..5 {
                sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(n), Value::Int(2)]))
                    .unwrap();
            }
            if wall {
                let mut driver = WallClockDriver::new(4);
                sys.run_with(&mut driver);
            } else {
                let mut driver = VirtualTimeDriver;
                sys.run_with(&mut driver);
            }
            (0..9).map(|i| sys.take_events(ProcessId(i + 1))).collect()
        };
        let wall = deliver(true);
        let virt = deliver(false);
        // Same events, same per-process order — only the execution
        // substrate differed.
        assert_eq!(wall, virt);
        assert!(wall.iter().all(|events| events.len() == 5));
        assert_eq!(
            wall[0][0].1,
            Value::Record(vec![Value::Int(0)]),
            "morphed at the sink under the wall-clock driver too"
        );
    }

    #[test]
    fn sharded_run_accounts_per_shard_frames_and_rounds() {
        let (mut sys, c, ch, new_fmt, _) = fanout_fixture(8);
        sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(3), Value::Int(1)])).unwrap();
        let processed = sys.run_with(&mut WallClockDriver::new(2));
        assert_eq!(processed, 8);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.events.delivered"), Some(8));
        // Every frame is attributed to exactly one shard, and the split
        // matches the stable name hash.
        let shard0 = snap.counter("echo.shard.0.frames").unwrap();
        let shard1 = snap.counter("echo.shard.1.frames").unwrap();
        assert_eq!(shard0 + shard1, 8);
        let expect0 = (0..8).filter(|i| shard_of_name(&format!("sub-{i}"), 2) == 0).count() as u64;
        assert_eq!(shard0, expect0);
        assert!(snap.counter("echo.shard.rounds").unwrap() >= 1);
        assert_eq!(snap.gauge("echo.shard.0.mailbox.depth"), Some(0), "idle between rounds");
    }

    #[test]
    fn shard_mailboxes_shed_oldest_events_but_never_control() {
        let (mut sys, c, ch, new_fmt, _) = fanout_fixture(6);
        for n in 0..2 {
            sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(n), Value::Int(1)]))
                .unwrap();
        }
        // One shard, 12 event frames in flight, room for 5.
        let mut driver = WallClockDriver::new(1).with_mailbox_capacity(5);
        let processed = sys.run_with(&mut driver);
        assert_eq!(processed, 5);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.shard.mailbox.shed"), Some(7));
        assert_eq!(snap.counter("echo.queue.shed"), Some(7));
        assert_eq!(snap.counter("echo.deadletter.shed"), Some(7));
        assert_eq!(snap.counter("echo.events.delivered"), Some(5));
        // Shed victims are quarantined at their receivers, oldest first:
        // the last sink in delivery order keeps its newest frame.
        let total_dead: u64 = (0..6).map(|i| sys.dead_letter_total(ProcessId(i + 1))).sum();
        assert_eq!(total_dead, 7);
    }

    #[test]
    fn shared_morph_caches_pay_the_cold_path_once_per_population() {
        let run = |shared: bool| -> (u64, u64) {
            let (mut sys, c, ch, new_fmt, _) = fanout_fixture(4);
            if shared {
                sys.enable_shared_morph_caches();
            }
            sys.publish(c, ch, &new_fmt, &Value::Record(vec![Value::Int(2), Value::Int(3)]))
                .unwrap();
            sys.run();
            for i in 0..4 {
                let events = sys.take_events(ProcessId(i + 1));
                assert_eq!(events, vec![(ch, Value::Record(vec![Value::Int(6)]))]);
            }
            let compiles: u64 =
                (0..4).map(|i| sys.event_stats(ProcessId(i + 1), ch).unwrap().compiles).sum();
            let shared_hits: u64 = (0..4)
                .map(|i| {
                    let reg = sys.event_registry(ProcessId(i + 1), ch).unwrap();
                    reg.snapshot().counter("morph.decision.shared_hit").unwrap_or(0)
                })
                .sum();
            (compiles, shared_hits)
        };
        let (compiles, hits) = run(true);
        assert_eq!(compiles, 1, "one sink compiles; three reuse its decision");
        assert_eq!(hits, 3);
        let (compiles, hits) = run(false);
        assert_eq!(compiles, 4, "without sharing every sink pays the compile");
        assert_eq!(hits, 0);
    }

    #[test]
    fn provisioned_sinks_match_handshake_subscriptions() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        // s2 is provisioned, not subscribed: no frames travel.
        let before = sys.total_bytes();
        sys.provision_sink(s2, ch, &fmt).unwrap();
        assert_eq!(sys.total_bytes(), before, "provisioning is wire-silent");
        assert!(sys.members(c, ch).unwrap().iter().any(|m| m.contact == "sub-2" && m.is_sink));
        sys.run();
        // The publisher's view refreshes on its *own* next handshake; the
        // creator (authoritative) already routes to the provisioned sink.
        sys.publish(c, ch, &fmt, &tick(5)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2), vec![(ch, tick(5))]);
        assert!(sys.provision_sink(s2, ChannelId(99), &fmt).is_err());
    }

    #[test]
    fn tracing_off_publishes_untraced_frames_and_mints_no_spans() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        let traces_before = sys.trace_ids().len();
        sys.set_tracing(false);
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1, "delivery is unaffected");
        assert_eq!(sys.trace_ids().len(), traces_before, "no new trace minted");
        // Back on: the next publish traces again.
        sys.set_tracing(true);
        sys.publish(s1, ch, &fmt, &tick(2)).unwrap();
        sys.run();
        assert_eq!(sys.trace_ids().len(), traces_before + 1);
    }

    #[test]
    fn virtual_time_advances_and_traffic_counted() {
        let (mut sys, c, s1, _s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.run();
        assert!(sys.now_ns() > 0);
        assert!(sys.total_bytes() > 0);
        assert_eq!(sys.version(c), EchoVersion::V2);
        assert!(!format!("{sys:?}").is_empty());
    }

    fn blob_format() -> Arc<RecordFormat> {
        FormatBuilder::record("Blob").int("n").string("data").build_arc().unwrap()
    }

    fn blob(n: i64, len: usize) -> Value {
        Value::Record(vec![Value::Int(n), Value::str("x".repeat(len))])
    }

    #[test]
    fn fragmented_publish_reassembles_at_each_sink() {
        let cfg = EchoConfig { frame_budget: Some(64), ..EchoConfig::default() };
        let (mut sys, c, s1, s2) = three_with(cfg, EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = blob_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.subscribe(c, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        let event = blob(1, 500);
        assert_eq!(sys.publish(s1, ch, &fmt, &event).unwrap(), 2);
        sys.run();
        assert_eq!(sys.take_events(s2), vec![(ch, event.clone())]);
        assert_eq!(sys.take_events(c), vec![(ch, event)]);
        let snap = sys.registry().snapshot();
        let frames = snap.counter("echo.frag.sent").unwrap();
        assert!(frames >= 16, "500+ bytes over a 64-byte budget, twice: {frames}");
        assert_eq!(snap.counter("echo.frag.received"), Some(frames));
        assert_eq!(snap.counter("echo.frag.reassembled"), Some(2));
        assert_eq!(snap.counter("echo.channel.reliable.delivered"), Some(2));
        assert_eq!(snap.counter("echo.events.delivered"), Some(2));
        assert_eq!(sys.reassembly_depth(s2), 0, "nothing left in progress");
        assert_eq!(snap.gauge("echo.frag.buffered"), Some(0));
        // Small events keep travelling unfragmented.
        let small = tick_format();
        let ch2 = sys.create_channel(c);
        sys.subscribe(s2, ch2, Role::sink(), Some(&small)).unwrap();
        sys.run();
        sys.publish(c, ch2, &small, &tick(1)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2).len(), 1);
        assert_eq!(sys.registry().snapshot().counter("echo.frag.sent"), Some(frames));
    }

    #[test]
    fn unreliable_tiers_skip_the_retry_queue_and_count_drops() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.set_channel_qos(ch, QosTier::UnorderedUnreliable);
        sys.set_link_up(s1, s2, false);
        sys.publish(s1, ch, &fmt, &tick(1)).unwrap();
        // Fire-and-forget: the down link ate the frame — no retry queue
        // entry, no dead letter, just the tier's drop counter.
        assert_eq!(sys.pending_retries(), 0);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.channel.unordered.dropped"), Some(1));
        assert_eq!(snap.counter("echo.channel.unordered.sent"), Some(1));
        assert_eq!(snap.counter("echo.deadletter.total"), Some(0));
        // Sequenced behaves the same way on loss...
        sys.set_channel_qos(ch, QosTier::SequencedUnreliable);
        sys.publish(s1, ch, &fmt, &tick(2)).unwrap();
        assert_eq!(sys.pending_retries(), 0);
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.channel.sequenced.dropped"), Some(1));
        // ...while a reliable publish on a healed link still delivers.
        sys.set_link_up(s1, s2, true);
        sys.set_channel_qos(ch, QosTier::Reliable);
        sys.publish(s1, ch, &fmt, &tick(3)).unwrap();
        sys.run();
        assert_eq!(sys.take_events(s2), vec![(ch, tick(3))]);
    }

    #[test]
    fn ingress_shed_takes_unordered_telemetry_before_reliable_events() {
        let cfg = EchoConfig { ingress_capacity: 3, ..EchoConfig::default() };
        let (mut sys, c, s1, s2) = three_with(cfg, EchoVersion::V2, EchoVersion::V2);
        let reliable_ch = sys.create_channel(c);
        let telemetry_ch = sys.create_channel(c);
        let fmt = tick_format();
        for ch in [reliable_ch, telemetry_ch] {
            sys.subscribe(s1, ch, Role::source(), None).unwrap();
            sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        }
        sys.run();
        sys.set_channel_qos(telemetry_ch, QosTier::UnorderedUnreliable);
        sys.pause_process(s2);
        // Arrival order: telemetry first, then reliable — but the *victims*
        // are chosen by tier, not age alone.
        sys.publish(s1, telemetry_ch, &fmt, &tick(10)).unwrap();
        sys.publish(s1, reliable_ch, &fmt, &tick(1)).unwrap();
        sys.publish(s1, reliable_ch, &fmt, &tick(2)).unwrap();
        sys.publish(s1, telemetry_ch, &fmt, &tick(11)).unwrap();
        sys.publish(s1, reliable_ch, &fmt, &tick(3)).unwrap();
        sys.run();
        sys.resume_process(s2);
        sys.run();
        let events = sys.take_events(s2);
        assert_eq!(
            events,
            vec![(reliable_ch, tick(1)), (reliable_ch, tick(2)), (reliable_ch, tick(3))],
            "both telemetry frames shed; every reliable event survived"
        );
        let snap = sys.registry().snapshot();
        assert_eq!(snap.counter("echo.queue.shed"), Some(2));
        assert_eq!(snap.counter("echo.channel.reliable.delivered"), Some(3));
        assert_eq!(snap.counter("echo.channel.unordered.delivered"), Some(0));
    }

    #[test]
    fn partial_fragment_sets_time_out_into_the_dlq() {
        let cfg = EchoConfig {
            frame_budget: Some(64),
            reassembly_capacity: 8,
            reassembly_timeout_ns: 200_000_000,
            ..EchoConfig::default()
        };
        let (mut sys, c, s1, s2) = three_with(cfg, EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = blob_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        // Half the frames vanish in flight: fragmented messages lose limbs.
        sys.set_fault_plan(s1, s2, FaultPlan::new(7).drop_per_mille(500));
        let published = 6u64;
        for n in 0..published {
            sys.publish(s1, ch, &fmt, &blob(n as i64, 400)).unwrap();
        }
        sys.run();
        // Time out the survivors' partial sets.
        sys.advance_ns(300_000_000);
        sys.run();
        let delivered = sys.take_events(s2).len() as u64;
        let snap = sys.registry().snapshot();
        let timeouts = snap.counter("echo.frag.timeout").unwrap();
        let partial_dlq = snap.counter("echo.deadletter.partial_fragments").unwrap();
        assert_eq!(timeouts, partial_dlq);
        assert!(timeouts > 0, "a 50% drop rate must maim at least one message");
        assert!(delivered < published, "some messages had to lose fragments");
        assert_eq!(
            delivered + partial_dlq,
            published,
            "every message either completed or dead-lettered as a partial"
        );
        assert_eq!(sys.reassembly_depth(s2), 0, "the sweep leaves nothing behind");
        assert_eq!(snap.gauge("echo.frag.buffered"), Some(0));
        let partials: Vec<DeadLetter> = sys
            .dead_letters(s2)
            .into_iter()
            .filter(|l| l.reason == DeadReason::PartialFragments)
            .collect();
        assert_eq!(partials.len() as u64, partial_dlq);
        assert!(partials.iter().all(|l| l.detail.contains("reassembly timeout")));
    }

    #[test]
    fn frame_budget_carries_large_events_through_a_link_mtu() {
        let publish = |frame_budget: Option<usize>| {
            let cfg = EchoConfig { frame_budget, ..EchoConfig::default() };
            let (mut sys, c, s1, s2) = three_with(cfg, EchoVersion::V2, EchoVersion::V2);
            let ch = sys.create_channel(c);
            let fmt = blob_format();
            sys.subscribe(s1, ch, Role::source(), None).unwrap();
            sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
            sys.run();
            sys.set_link_mtu(s1, s2, 128);
            let sent = sys.publish(s1, ch, &fmt, &blob(1, 500));
            sys.run();
            sent.map(|_| sys.take_events(s2) == vec![(ch, blob(1, 500))])
        };
        // Unfragmented, the 500-byte event is refused by the wire outright.
        let err = publish(None).unwrap_err();
        assert!(matches!(err, EchoError::Net(NetError::Oversized { .. })), "got {err}");
        // Fragmented under budget + header ≤ MTU, it goes through.
        assert_eq!(publish(Some(64)), Ok(true));
    }

    #[test]
    fn adaptive_watermark_tightens_retry_shedding_then_relaxes() {
        // A 10 ms first backoff outlasts the 8 ms adaptation window, so
        // the post-heal drains land in an arrival-free window and the
        // relax path is observable.
        let cfg = EchoConfig {
            retry_queue_capacity: 16,
            retry_policy: RetryPolicy {
                budget: 8,
                base_backoff_ns: 10_000_000,
                max_backoff_ns: 50_000_000,
                jitter_seed: 1,
            },
            adaptive_shedding: true,
            ..EchoConfig::default()
        };
        let (mut sys, c, s1, s2) = three_with(cfg, EchoVersion::V2, EchoVersion::V2);
        let ch = sys.create_channel(c);
        let fmt = tick_format();
        sys.subscribe(s1, ch, Role::source(), None).unwrap();
        sys.subscribe(s2, ch, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        assert_eq!(sys.adaptive_capacities(), Some((16, 64, DEFAULT_MAILBOX_CAPACITY)));

        // Partition, then a burst far past the drain rate (zero: nothing
        // leaves a retry queue while the link is down). The watermark
        // halves to its floor and shedding starts well before the fixed
        // bound of 16 would fill.
        sys.set_link_up(s1, s2, false);
        for n in 0..32 {
            sys.publish(s1, ch, &fmt, &tick(n)).unwrap();
        }
        // The floor is an eighth of the fixed bound.
        let floor = 16usize / 8;
        assert_eq!(sys.adaptive_capacities().map(|(r, _, _)| r), Some(floor));
        assert!(sys.adaptive_overloaded());
        // Arrivals 1-4 admit freely (the 4th tightens 16→8), the 5th
        // tightens to 4 and from there shed-one-admit-one holds the queue
        // at the length it had when the watermark crossed it — far below
        // the fixed bound of 16.
        assert_eq!(sys.pending_retries(), 4, "queue held at the crossing length");
        let snap = sys.registry().snapshot();
        assert!(snap.counter("echo.adaptive.retry.tightened").unwrap_or(0) >= 3);
        assert_eq!(snap.gauge("echo.adaptive.retry.capacity"), Some(floor as i64));
        assert_eq!(snap.counter("echo.queue.shed"), Some(28));

        // Heal before the first retry fires: the survivors deliver in one
        // drain batch 10 ms later, by which time the arrival burst has
        // aged out of the window — drains dominate and the watermark
        // relaxes back off its floor.
        sys.set_link_up(s1, s2, true);
        sys.run();
        assert_eq!(sys.pending_retries(), 0);
        let snap = sys.registry().snapshot();
        assert!(snap.counter("echo.adaptive.retry.relaxed").unwrap_or(0) >= 1);
        assert!(
            sys.adaptive_capacities().map(|(r, _, _)| r).unwrap() > floor,
            "watermark still at floor after recovery: {:?}",
            sys.adaptive_capacities()
        );
        // The survivors (newest-first retention) delivered on heal.
        assert_eq!(sys.take_events(s2).len(), 4);
    }

    #[test]
    fn self_telemetry_publishes_v2_that_v1_collectors_morph_with_no_code() {
        let (mut sys, c, s1, s2) = three(EchoVersion::V2, EchoVersion::V2);
        let tele = sys.create_channel(c);
        let work = sys.create_channel(c);
        let fmt = tick_format();
        // The collector is a *v1-era* sink: it registered the six-field
        // telemetry record and has never heard of queue_depth or the
        // adaptive counters.
        sys.subscribe(s2, tele, Role::sink(), Some(&telemetry::telemetry_format_v1())).unwrap();
        sys.subscribe(s1, work, Role::source(), None).unwrap();
        sys.subscribe(c, work, Role::sink(), Some(&fmt)).unwrap();
        sys.run();
        sys.enable_self_telemetry(c, tele, 300_000);
        assert_eq!(sys.channel_qos(tele), QosTier::SequencedUnreliable);

        // Drive workload traffic so virtual time crosses reporting periods.
        for n in 0..40 {
            sys.publish(s1, work, &fmt, &tick(n)).unwrap();
            sys.run();
        }
        let snap = sys.registry().snapshot();
        let published = snap.counter("echo.telemetry.published").unwrap_or(0);
        assert!(published >= 3, "telemetry fired {published} times");
        assert!(snap.counter("echo.telemetry.bytes").unwrap_or(0) > 0);

        // The v1 collector decoded every v2 record via MaxMatch +
        // default-fill: near-match adaptation only, zero transformation
        // code written or compiled.
        let records = sys.take_events(s2);
        assert!(!records.is_empty());
        assert!(records.iter().all(|(ch, _)| *ch == tele));
        let v1 = telemetry::telemetry_format_v1();
        let mut last_seq = 0;
        for (_, v) in &records {
            let Value::Record(fields) = v else { panic!("not a record: {v:?}") };
            assert_eq!(fields.len(), v1.fields().len(), "morphed to the v1 shape");
            let seq = v.field(&v1, "seq").and_then(Value::as_i64).unwrap();
            assert!(seq > last_seq, "seq must advance: {seq} after {last_seq}");
            last_seq = seq;
            assert!(v.field(&v1, "elapsed_ns").and_then(Value::as_i64).unwrap() > 0);
            assert!(v.field(&v1, "published").and_then(Value::as_i64).unwrap() >= 0);
        }
        let stats = sys.event_stats(s2, tele).unwrap();
        assert!(stats.near_matches >= 1, "MaxMatch path never taken: {stats:?}");
        assert_eq!(stats.morphs, 0, "a hand-written transformation ran: {stats:?}");
        assert_eq!(stats.compiles, 0, "transformation code was compiled: {stats:?}");
    }
}
