//! Receiver-side message processing — the paper's Algorithm 2.
//!
//! A [`MorphReceiver`] owns the reader's registered formats and handlers,
//! the out-of-band meta-data it has learned (wire formats and their
//! retro-transformations), and a decision cache. The first message of an
//! unseen format pays for MaxMatch, transformation compilation (dynamic
//! code generation), and plan construction; every subsequent message of
//! that format replays the cached, fully specialized decision (Algorithm 2
//! lines 6–9).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

use ecode::{root_used_fields, FusedProgram};
use obs::{
    ActiveSpan, Clock, Counter, FlightRecorder, Histogram, Registry, SpanId, Timer, TraceCtx,
};
use pbio::{
    format_id, parse_header, ConversionPlan, FormatId, FormatRegistry, PlanCache, PlanStore,
    RecordFormat, Value,
};

use crate::adapter::ValueAdapter;
use crate::error::{MorphError, Result};
use crate::matching::{max_match, MatchConfig, MatchQuality};
use crate::weighted::{weighted_max_match, WeightProfile, WeightedConfig};
use crate::xform::{CompiledChain, Transformation, TransformationRegistry};

/// A message handler: receives the decoded (and possibly morphed) value,
/// shaped by the reader format it was registered for.
pub type Handler = Box<dyn FnMut(Value) + Send>;

/// The default handler: receives messages no reader format admitted, along
/// with the wire format they were decoded by.
pub type DefaultHandler = Box<dyn FnMut(&Arc<RecordFormat>, Value) + Send>;

/// How a processed message was disposed of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Delivered to the handler registered for this reader format id.
    Delivered(FormatId),
    /// Delivered to the default handler.
    DeliveredDefault,
    /// No admissible match and no default handler — dropped.
    Rejected,
}

/// A human-inspectable description of a cached Algorithm 2 decision —
/// what the receiver will do with every further message of one format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Explanation {
    /// Perfect match: decoded straight into this reader format.
    Exact {
        /// The reader format id messages are delivered as.
        target: FormatId,
    },
    /// Near match: specialized plan fills defaults / drops extras.
    NearMatch {
        /// The reader format id messages are delivered as.
        target: FormatId,
    },
    /// Full morph through a compiled transformation chain.
    Morph {
        /// The reader format id messages are delivered as.
        target: FormatId,
        /// Number of compiled transformation steps.
        chain_len: usize,
        /// Whether a final default-fill/extra-removal adapter runs after
        /// the chain.
        adapted: bool,
    },
    /// Routed to the default handler (decoded in the wire format).
    DefaultHandler,
    /// Dropped: no admissible match.
    Rejected,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Explanation::Exact { target } => write!(f, "exact match -> {target}"),
            Explanation::NearMatch { target } => {
                write!(f, "near match (defaults/removals) -> {target}")
            }
            Explanation::Morph { target, chain_len, adapted } => write!(
                f,
                "morph through {chain_len} transformation step(s){} -> {target}",
                if *adapted { " + adapter" } else { "" }
            ),
            Explanation::DefaultHandler => write!(f, "default handler"),
            Explanation::Rejected => write!(f, "rejected"),
        }
    }
}

/// A chosen (incoming, reader) pair, policy-independent.
struct Selected {
    from: usize,
    to: usize,
    perfect: bool,
}

/// A point-in-time view of receiver activity (exposed for tests, examples,
/// and the evaluation harness).
///
/// Since the observability rework this is a *snapshot* assembled from the
/// receiver's registry-backed counters (see [`MorphReceiver::registry`]),
/// not live storage: the counters of record are `morph.messages`,
/// `morph.decision.hit`, `morph.decision.exact` and friends, catalogued in
/// `OBSERVABILITY.md`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MorphStats {
    /// Total messages processed.
    pub messages: u64,
    /// Messages whose format had a cached decision.
    pub cache_hits: u64,
    /// Decisions resolved as exact (perfect) matches.
    pub exact_matches: u64,
    /// Decisions that required a transformation chain (morphing proper).
    pub morphs: u64,
    /// Decisions resolved by near-match adaptation only (defaults/removal,
    /// no transformation code).
    pub near_matches: u64,
    /// Decisions routed to the default handler.
    pub defaults: u64,
    /// Decisions to reject.
    pub rejects: u64,
    /// Transformation snippets compiled (dynamic code generation events).
    pub compiles: u64,
}

/// The cached, specialized disposition for one wire format.
enum Decision {
    /// Single compiled plan straight from wire bytes to the reader format —
    /// used when no transformation code is needed (perfect or near match).
    Plan { plan: Arc<ConversionPlan>, target: FormatId, exact: bool },
    /// Full morph: decode to the wire format, run the compiled chain, then
    /// (if the chain's end is a near match) adapt. Warm replays take the
    /// `fused` single-pass artifact when fusion succeeded at decide time;
    /// the staged fields double as the cold path and the differential
    /// oracle.
    Morph {
        decode: Arc<ConversionPlan>,
        chain: CompiledChain,
        adapter: Option<ValueAdapter>,
        target: FormatId,
        /// Boxed to keep the cached-decision enum small; the indirection
        /// is paid once per warm message, not per stage.
        fused: Option<Box<FusedMorph>>,
    },
    /// Decode with the wire format and hand to the default handler.
    Default { decode: Arc<ConversionPlan> },
    /// Drop messages of this format.
    Reject,
}

/// A decision cache shared across receivers — the L2 behind each
/// receiver's private (lock-free) L1 decision map.
///
/// Entries are keyed by `(receiver fingerprint, wire format id)`, where the
/// fingerprint digests everything a decision depends on: the reader formats
/// (in registration order), the transformation set, the matching
/// thresholds, and default-handler presence. Two receivers consult the same
/// entry only when they would have computed the same decision, so sharing
/// is safe by construction; a receiver that learns a new transformation
/// moves to a new fingerprint and simply stops seeing the old entries.
///
/// The warm path never touches this cache (L1 hits are plain `HashMap`
/// lookups); only a receiver's *first* message of a format takes the read
/// lock here, and only the one receiver that actually computes the decision
/// takes the write lock. In a fan-out of thousands of identical
/// subscribers, MaxMatch + dynamic code generation then run **once**
/// system-wide instead of once per subscriber.
///
/// Cloning is an `Arc` bump; all clones share the same entries.
#[derive(Clone, Default)]
pub struct DecisionCache {
    inner: Arc<SharedDecisions>,
}

/// The map behind a [`DecisionCache`], keyed by (fingerprint, format id).
type SharedDecisions = RwLock<HashMap<(u64, FormatId), Arc<Decision>>>;

impl DecisionCache {
    /// Creates an empty shared cache.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    fn get(&self, fingerprint: u64, id: FormatId) -> Option<Arc<Decision>> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&(fingerprint, id))
            .cloned()
    }

    fn insert(&self, fingerprint: u64, id: FormatId, decision: Arc<Decision>) {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert((fingerprint, id), decision);
    }

    /// Number of cached decisions across all fingerprints.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(std::sync::PoisonError::into_inner).len()
    }

    /// True when the cache holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached decision.
    pub fn clear(&self) {
        self.inner.write().unwrap_or_else(std::sync::PoisonError::into_inner).clear();
    }
}

impl std::fmt::Debug for DecisionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionCache").field("decisions", &self.len()).finish()
    }
}

/// The fused warm-path plan built at decide time: one projected decode and
/// one composed VM program covering the whole transformation chain, so a
/// warm morph is a single pass `wire bytes → Value(target)` with exactly
/// one VM invocation and no intermediate `Value` trees between stages.
struct FusedMorph {
    /// Projected decode: only the source fields the fused program actually
    /// reads are materialized; dead fields are parsed past and defaulted.
    decode: Arc<ConversionPlan>,
    /// The whole chain, compiled into one bytecode program.
    program: FusedProgram,
    /// Default output records (one per chain step), cloned per message as
    /// the program's writable roots.
    templates: Vec<Value>,
}

/// Pre-fetched handles for the receiver's hot-path metrics (`morph.*` in
/// `OBSERVABILITY.md`). Registry lookups lock; these are fetched once per
/// registry and updated lock-free per message.
struct RxMetrics {
    clock: Arc<dyn Clock>,
    messages: Arc<Counter>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    exact: Arc<Counter>,
    near: Arc<Counter>,
    morphs: Arc<Counter>,
    defaults: Arc<Counter>,
    rejects: Arc<Counter>,
    compiles: Arc<Counter>,
    shared_hits: Arc<Counter>,
    shared_inserts: Arc<Counter>,
    maxmatch_candidates: Arc<Counter>,
    fused_applies: Arc<Counter>,
    fused_vm_invocations: Arc<Counter>,
    fused_intermediates: Arc<Counter>,
    fused_skipped: Arc<Counter>,
    staged_vm_invocations: Arc<Counter>,
    staged_intermediates: Arc<Counter>,
    batch_copies: Arc<Counter>,
    batch_elems: Arc<Counter>,
    decide_ns: Arc<Histogram>,
    process_ns: Arc<Histogram>,
    compile_ns: Arc<Histogram>,
    maxmatch_ns: Arc<Histogram>,
    fused_apply_ns: Arc<Histogram>,
}

impl RxMetrics {
    fn new(registry: Arc<Registry>) -> RxMetrics {
        RxMetrics {
            clock: registry.clock(),
            messages: registry.counter("morph.messages"),
            hits: registry.counter("morph.decision.hit"),
            misses: registry.counter("morph.decision.miss"),
            exact: registry.counter("morph.decision.exact"),
            near: registry.counter("morph.decision.near"),
            morphs: registry.counter("morph.decision.morph"),
            defaults: registry.counter("morph.decision.default"),
            rejects: registry.counter("morph.decision.reject"),
            compiles: registry.counter("morph.compile.count"),
            shared_hits: registry.counter("morph.decision.shared_hit"),
            shared_inserts: registry.counter("morph.decision.shared_insert"),
            maxmatch_candidates: registry.counter("morph.maxmatch.candidates"),
            fused_applies: registry.counter("morph.fused.apply"),
            fused_vm_invocations: registry.counter("morph.fused.vm_invocations"),
            fused_intermediates: registry.counter("morph.fused.intermediates"),
            fused_skipped: registry.counter("morph.fused.skipped"),
            staged_vm_invocations: registry.counter("morph.staged.vm_invocations"),
            staged_intermediates: registry.counter("morph.staged.intermediates"),
            batch_copies: registry.counter("ecode.batch.copies"),
            batch_elems: registry.counter("ecode.batch.copied_elems"),
            decide_ns: registry.histogram("morph.decide_ns"),
            process_ns: registry.histogram("morph.process_ns"),
            compile_ns: registry.histogram("morph.compile_ns"),
            maxmatch_ns: registry.histogram("morph.maxmatch_ns"),
            fused_apply_ns: registry.histogram("morph.fused.apply_ns"),
        }
    }

    fn timer(&self, histogram: &Arc<Histogram>) -> Timer {
        Timer::start(Arc::clone(histogram), Arc::clone(&self.clock))
    }
}

/// The morphing receiver (Algorithm 2).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use std::sync::{Arc, Mutex};
/// use morph::MorphReceiver;
/// use pbio::{Encoder, FormatBuilder, Value};
///
/// let fmt = FormatBuilder::record("Msg").int("load").build_arc()?;
/// let got = Arc::new(Mutex::new(Vec::new()));
/// let sink = Arc::clone(&got);
///
/// let mut rx = MorphReceiver::new();
/// rx.register_handler(&fmt, move |v| sink.lock().unwrap().push(v));
///
/// let wire = Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(42)]))?;
/// rx.process(&wire)?;
/// assert_eq!(got.lock().unwrap().len(), 1);
/// # Ok(())
/// # }
/// ```
pub struct MorphReceiver {
    config: MatchConfig,
    /// When set, MaxMatch runs importance-weighted (the paper's §6 future
    /// work) instead of field-count-based.
    weights: Option<(WeightProfile, WeightedConfig)>,
    /// Out-of-band meta-data: wire formats this receiver has learned.
    known: FormatRegistry,
    /// Out-of-band meta-data: retro-transformations keyed by source format.
    xforms: TransformationRegistry,
    /// Reader formats, in registration order.
    readers: Vec<Arc<RecordFormat>>,
    handlers: HashMap<FormatId, Handler>,
    default_handler: Option<DefaultHandler>,
    cache: HashMap<FormatId, Arc<Decision>>,
    /// Optional L2: decisions shared with other receivers holding the same
    /// compatibility fingerprint (see [`DecisionCache`]).
    shared: Option<DecisionCache>,
    /// Memoized compatibility fingerprint; recomputed lazily after any
    /// mutation that can change decisions (new reader, new transformation,
    /// threshold change).
    fingerprint: Option<u64>,
    /// When true (the default), warm `Decision::Morph` replays run the
    /// fused single-pass plan; when false they run the staged per-step
    /// oracle. Tests and benches flip this to compare the two paths.
    fusion: bool,
    /// Compiled conversion plans, shared across decision-cache rebuilds.
    plans: PlanCache,
    metrics: RxMetrics,
    /// Trace sink for the message currently inside
    /// [`MorphReceiver::process_traced`]; cleared on exit.
    trace: Option<TraceSink>,
}

/// Where the currently processed message's trace events go.
struct TraceSink {
    rec: Arc<FlightRecorder>,
    ctx: TraceCtx,
}

impl std::fmt::Debug for MorphReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MorphReceiver")
            .field("config", &self.config)
            .field("readers", &self.readers.iter().map(|r| r.name()).collect::<Vec<_>>())
            .field("cached_decisions", &self.cache.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for MorphReceiver {
    fn default() -> MorphReceiver {
        MorphReceiver::new()
    }
}

impl MorphReceiver {
    /// Creates a receiver with the default [`MatchConfig`], reporting into
    /// a private wall-clock [`Registry`].
    pub fn new() -> MorphReceiver {
        MorphReceiver::with_config(MatchConfig::new())
    }

    /// Creates a receiver with explicit thresholds and a private registry.
    pub fn with_config(config: MatchConfig) -> MorphReceiver {
        MorphReceiver::with_config_and_registry(config, Arc::new(Registry::new()))
    }

    /// Creates a receiver reporting into an external registry (e.g. one on
    /// a simulator's virtual clock, or shared with other components).
    pub fn with_registry(registry: Arc<Registry>) -> MorphReceiver {
        MorphReceiver::with_config_and_registry(MatchConfig::new(), registry)
    }

    /// Creates a receiver with explicit thresholds and registry.
    pub fn with_config_and_registry(config: MatchConfig, registry: Arc<Registry>) -> MorphReceiver {
        MorphReceiver {
            config,
            weights: None,
            known: FormatRegistry::new(),
            xforms: TransformationRegistry::new(),
            readers: Vec::new(),
            handlers: HashMap::new(),
            default_handler: None,
            cache: HashMap::new(),
            shared: None,
            fingerprint: None,
            fusion: true,
            plans: PlanCache::new(Arc::clone(&registry)),
            metrics: RxMetrics::new(registry),
            trace: None,
        }
    }

    /// The registry this receiver's `morph.*` / `pbio.plan.*` metrics
    /// report into (names catalogued in `OBSERVABILITY.md`).
    ///
    /// ```
    /// # fn main() -> Result<(), morph::MorphError> {
    /// use morph::MorphReceiver;
    /// use pbio::{Encoder, FormatBuilder, Value};
    ///
    /// let fmt = FormatBuilder::record("Tick").int("n").build_arc()?;
    /// let mut rx = MorphReceiver::new();
    /// rx.register_handler(&fmt, |_| {});
    /// let wire = Encoder::new(&fmt).encode(&Value::Record(vec![1.into()]))?;
    /// rx.process(&wire)?;
    /// rx.process(&wire)?;
    ///
    /// // Algorithm 2: one cold decision, then cache hits only.
    /// let snap = rx.registry().snapshot();
    /// assert_eq!(snap.counter("morph.decision.miss"), Some(1));
    /// assert_eq!(snap.counter("morph.decision.hit"), Some(1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn registry(&self) -> &Arc<Registry> {
        self.plans.registry()
    }

    /// Redirects all future metric updates into `registry`, re-fetching
    /// every handle. Totals already accumulated stay in the old registry;
    /// compiled plans are kept.
    pub fn set_registry(&mut self, registry: Arc<Registry>) {
        self.plans.set_registry(Arc::clone(&registry));
        self.metrics = RxMetrics::new(registry);
    }

    /// Registers a reader format and the handler invoked for (possibly
    /// morphed) messages delivered in that format. Returns the format id.
    pub fn register_handler(
        &mut self,
        format: &Arc<RecordFormat>,
        handler: impl FnMut(Value) + Send + 'static,
    ) -> FormatId {
        let id = self.known.register(Arc::clone(format));
        if !self.readers.iter().any(|r| format_id(r) == id) {
            self.readers.push(Arc::clone(format));
        }
        self.handlers.insert(id, Box::new(handler));
        self.cache.clear(); // decisions may change with a new reader format
        self.fingerprint = None;
        id
    }

    /// Registers the default handler for messages no reader format admits.
    pub fn register_default_handler(
        &mut self,
        handler: impl FnMut(&Arc<RecordFormat>, Value) + Send + 'static,
    ) {
        self.default_handler = Some(Box::new(handler));
        self.cache.clear();
        self.fingerprint = None;
    }

    /// Attaches a [`DecisionCache`] shared with other receivers: local
    /// decision-cache misses consult it (counted as
    /// `morph.decision.shared_hit`) before running MaxMatch + compilation,
    /// and freshly computed decisions are published into it
    /// (`morph.decision.shared_insert`). Receivers only ever see entries
    /// computed under their own compatibility fingerprint, so attaching
    /// one cache to heterogeneous receivers is safe.
    ///
    /// Weighted receivers ([`MorphReceiver::set_weight_profile`]) never
    /// consult or populate the shared cache.
    pub fn set_shared_decisions(&mut self, cache: DecisionCache) {
        self.shared = Some(cache);
    }

    /// Replaces the conversion-plan store with a shared one (see
    /// [`pbio::PlanCache::set_store`]): plan compilations are then shared
    /// with every other receiver holding the same store.
    pub fn set_plan_store(&mut self, store: PlanStore) {
        self.plans.set_store(store);
    }

    /// Drops every privately cached decision (the warm L1), modeling a
    /// process restart: the next message of each format pays the cold
    /// lookup again. A [`DecisionCache`] attached via
    /// [`MorphReceiver::set_shared_decisions`] is deliberately **not**
    /// cleared — it models state held outside the crashed process (the
    /// population's shared L2), so a restarted receiver re-warms from it
    /// at shared-hit cost instead of re-running MaxMatch + compilation.
    /// Returns the number of decisions dropped.
    pub fn invalidate_decisions(&mut self) -> usize {
        let dropped = self.cache.len();
        self.cache.clear();
        dropped
    }

    /// The receiver's compatibility fingerprint: a digest of everything a
    /// cached decision depends on. Receivers with equal fingerprints
    /// compute identical decisions, which is the sharing contract of
    /// [`DecisionCache`].
    fn compat_fingerprint(&mut self) -> u64 {
        if let Some(fp) = self.fingerprint {
            return fp;
        }
        // DefaultHasher with fixed keys: deterministic across runs.
        let mut h = DefaultHasher::new();
        for r in &self.readers {
            format_id(r).0.hash(&mut h);
        }
        // The transformation *set* (order-independent): EchoSystem-style
        // deployments distribute metadata identically to every node, so
        // set equality implies decision equality in practice.
        let mut edges: Vec<(u64, u64, u64)> = self
            .xforms
            .iter()
            .map(|t| {
                let mut ch = DefaultHasher::new();
                t.source().hash(&mut ch);
                (t.from_id().0, t.to_id().0, ch.finish())
            })
            .collect();
        edges.sort_unstable();
        edges.hash(&mut h);
        self.config.diff_threshold.hash(&mut h);
        self.config.mismatch_threshold.to_bits().hash(&mut h);
        self.default_handler.is_some().hash(&mut h);
        let fp = h.finish();
        self.fingerprint = Some(fp);
        fp
    }

    /// Learns a wire format (out-of-band meta-data arrival).
    pub fn import_format(&mut self, format: Arc<RecordFormat>) -> FormatId {
        self.known.register(format)
    }

    /// Learns a retro-transformation. Both endpoint formats become known.
    ///
    /// Invalidation is targeted: a new transformation edge can only change
    /// the decision for a wire format whose transformation closure reaches
    /// the edge's source format, so only those cached decisions are
    /// dropped. Warm decisions for unrelated formats survive the import.
    pub fn import_transformation(&mut self, t: Transformation) {
        let new_src = t.from_id();
        self.known.register(Arc::clone(t.from_format()));
        self.known.register(Arc::clone(t.to_format()));
        self.xforms.register(t);
        self.fingerprint = None;
        let known = &self.known;
        let xforms = &self.xforms;
        self.cache.retain(|id, _| match known.lookup(*id) {
            Ok(fm) => !xforms.closure(&fm).iter().any(|r| format_id(&r.format) == new_src),
            // A cached decision whose format is no longer resolvable is
            // stale by definition; drop it.
            Err(_) => false,
        });
    }

    /// Imports serialized format meta-data (see [`FormatRegistry::export`]).
    ///
    /// # Errors
    ///
    /// Propagates meta-data decoding errors.
    pub fn import_format_metadata(&mut self, bytes: &[u8]) -> Result<usize> {
        Ok(self.known.import(bytes)?)
    }

    /// Activity counters, assembled from the registry-backed metrics.
    pub fn stats(&self) -> MorphStats {
        let m = &self.metrics;
        MorphStats {
            messages: m.messages.get(),
            cache_hits: m.hits.get(),
            exact_matches: m.exact.get(),
            morphs: m.morphs.get(),
            near_matches: m.near.get(),
            defaults: m.defaults.get(),
            rejects: m.rejects.get(),
            compiles: m.compiles.get(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> MatchConfig {
        self.config
    }

    /// Number of distinct wire formats with cached decisions.
    pub fn cached_decisions(&self) -> usize {
        self.cache.len()
    }

    /// Explains the cached decision for a wire format id, if one exists
    /// (i.e., at least one message of that format has been processed since
    /// the last cache invalidation).
    pub fn explain(&self, id: FormatId) -> Option<Explanation> {
        Some(match &**self.cache.get(&id)? {
            Decision::Plan { target, exact: true, .. } => Explanation::Exact { target: *target },
            Decision::Plan { target, exact: false, .. } => {
                Explanation::NearMatch { target: *target }
            }
            Decision::Morph { target, chain, adapter, .. } => Explanation::Morph {
                target: *target,
                chain_len: chain.steps().len(),
                adapted: adapter.is_some(),
            },
            Decision::Default { .. } => Explanation::DefaultHandler,
            Decision::Reject => Explanation::Rejected,
        })
    }

    /// Enables or disables the fused warm path (on by default). When
    /// disabled, warm morph replays run the staged per-step pipeline —
    /// decode, one VM invocation per chain step, adapter — which is the
    /// differential-testing oracle for fusion and the "before" side of the
    /// staged-vs-fused bench. Cached decisions (including their fused
    /// plans) are kept; only the warm dispatch changes.
    pub fn set_fusion(&mut self, enabled: bool) {
        self.fusion = enabled;
    }

    /// Switches format matching to the importance-weighted variant: fields
    /// matching heavier patterns dominate admission and ranking decisions
    /// (see [`crate::weighted`]). Clears cached decisions.
    pub fn set_weight_profile(&mut self, profile: WeightProfile, config: WeightedConfig) {
        self.weights = Some((profile, config));
        self.cache.clear();
        self.fingerprint = None;
    }

    /// The paper's MaxMatch under the receiver's active policy (weighted or
    /// unweighted). "Perfect" is always the structural (unweighted) notion,
    /// so zero-weight differences still route through the adapting plan.
    fn select(&self, set1: &[Arc<RecordFormat>], set2: &[Arc<RecordFormat>]) -> Option<Selected> {
        // Search cost scales with the candidate cross-product (every
        // (incoming, reader) pair is diffed), so that is what we count.
        self.metrics.maxmatch_candidates.add((set1.len() * set2.len()) as u64);
        let _span = self.metrics.timer(&self.metrics.maxmatch_ns);
        match &self.weights {
            None => max_match(set1, set2, &self.config).map(|m| Selected {
                from: m.from,
                to: m.to,
                perfect: m.quality.is_perfect(),
            }),
            Some((profile, wcfg)) => {
                weighted_max_match(set1, set2, profile, wcfg).map(|m| Selected {
                    from: m.from,
                    to: m.to,
                    perfect: MatchQuality::of(&set1[m.from], &set2[m.to]).is_perfect(),
                })
            }
        }
    }

    /// Processes one incoming wire message (Algorithm 2).
    ///
    /// # Errors
    ///
    /// Returns [`MorphError::UnknownWireFormat`] when the message's format
    /// id has no out-of-band meta-data, and propagates wire-decoding or
    /// transformation-runtime failures. A *rejection* (no admissible match)
    /// is not an error — it returns [`Delivery::Rejected`].
    pub fn process(&mut self, msg: &[u8]) -> Result<Delivery> {
        self.process_traced(msg, None)
    }

    /// Like [`MorphReceiver::process`], but attributes the work to a causal
    /// trace: every stage of Algorithm 2 this message exercises is recorded
    /// as a span under `ctx` in the registry's attached
    /// [`FlightRecorder`](obs::FlightRecorder).
    ///
    /// A *warm* message (decision cache hit) emits `morph.lookup` tagged
    /// `result=hit`, plus — for morph decisions with a fused plan — one
    /// `morph.apply.fused` span covering the single-pass replay; other
    /// warm decisions stay at the lone lookup span because replaying them
    /// *is* the whole warm path. A *cold* message additionally records
    /// `morph.decide` (with `morph.maxmatch` / `morph.compile` children)
    /// and `morph.apply` (with per-stage `morph.decode` /
    /// `morph.transform` / `morph.default_fill` children).
    ///
    /// With `ctx == None`, or when no recorder is attached to the
    /// receiver's registry, this is exactly `process`.
    ///
    /// # Errors
    ///
    /// Same contract as [`MorphReceiver::process`].
    pub fn process_traced(&mut self, msg: &[u8], ctx: Option<TraceCtx>) -> Result<Delivery> {
        self.trace =
            ctx.and_then(|ctx| self.registry().recorder().map(|rec| TraceSink { rec, ctx }));
        let result = self.process_inner(msg);
        self.trace = None;
        result
    }

    fn process_inner(&mut self, msg: &[u8]) -> Result<Delivery> {
        self.metrics.messages.inc();
        let header = parse_header(msg).map_err(MorphError::Pbio)?;
        let id = header.format_id;

        // Lines 6–9: cached information fast path. `morph.process_ns`
        // deliberately covers only warm replays, so its distribution is the
        // steady-state per-message cost the paper's Fig. 10 compares against
        // the XML baseline; the cold path is `morph.decide_ns`. The L1 hit
        // is a plain `HashMap` lookup + `Arc` clone: no locks, so warm
        // receivers on different shards never contend.
        if let Some(decision) = self.cache.get(&id).cloned() {
            self.metrics.hits.inc();
            let mut lookup = self.tspan("morph.lookup", None);
            if let Some(s) = lookup.as_mut() {
                s.tag("result", "hit");
            }
            let _span = self.metrics.timer(&self.metrics.process_ns);
            return self.apply_decision(&decision, msg, false);
        }

        self.metrics.misses.inc();
        let mut lookup = self.tspan("morph.lookup", None);
        if let Some(s) = lookup.as_mut() {
            s.tag("result", "miss");
        }

        // L2: another receiver with the same compatibility fingerprint may
        // already have paid for this decision. Weighted matching is excluded
        // (profiles are per-receiver and not part of the fingerprint).
        if self.shared.is_some() && self.weights.is_none() {
            let fp = self.compat_fingerprint();
            let cached = self.shared.as_ref().and_then(|s| s.get(fp, id));
            if let Some(decision) = cached {
                if let Some(s) = lookup.as_mut() {
                    s.tag("source", "shared");
                }
                drop(lookup);
                self.metrics.shared_hits.inc();
                self.cache.insert(id, Arc::clone(&decision));
                let _span = self.metrics.timer(&self.metrics.process_ns);
                return self.apply_decision(&decision, msg, false);
            }
        }
        drop(lookup);

        let decision = Arc::new({
            let _span = self.metrics.timer(&self.metrics.decide_ns);
            self.decide(id)?
        });
        self.cache.insert(id, Arc::clone(&decision));
        if self.weights.is_none() {
            if let Some(shared) = self.shared.clone() {
                let fp = self.compat_fingerprint();
                shared.insert(fp, id, Arc::clone(&decision));
                self.metrics.shared_inserts.inc();
            }
        }
        self.apply_decision(&decision, msg, true)
    }

    /// Starts a span under the in-flight trace, if one is attached.
    /// `parent = None` nests directly under the caller-provided context.
    fn tspan(&self, name: &str, parent: Option<SpanId>) -> Option<ActiveSpan> {
        self.trace.as_ref().map(|t| t.rec.start(t.ctx.trace, parent.or(t.ctx.parent), name))
    }

    /// Records a zero-duration trace event, if a trace is attached.
    fn tinstant(&self, name: &str, parent: Option<SpanId>, tags: &[(&str, &str)]) {
        if let Some(t) = self.trace.as_ref() {
            t.rec.instant(t.ctx.trace, parent.or(t.ctx.parent), name, tags);
        }
    }

    /// Runs the slow path of Algorithm 2 (lines 11–27) to produce a
    /// cacheable decision for format `id`.
    fn decide(&mut self, id: FormatId) -> Result<Decision> {
        let mut decide_span = self.tspan("morph.decide", None);
        let dparent = decide_span.as_ref().map(|s| s.id());
        let fm = self.known.lookup(id).map_err(|_| MorphError::UnknownWireFormat(id))?;

        // Line 4: Fr = reader formats with the same name as fm.
        let readers: Vec<Arc<RecordFormat>> =
            self.readers.iter().filter(|r| r.name() == fm.name()).map(Arc::clone).collect();

        // Line 11: MaxMatch(fm, Fr) — perfect match short-circuit.
        let mm_span = self.tspan("morph.maxmatch", dparent);
        if let Some(m) = self.select(std::slice::from_ref(&fm), &readers) {
            if m.perfect {
                if let Some(s) = mm_span {
                    s.finish();
                }
                if let Some(s) = decide_span.as_mut() {
                    s.tag("outcome", "exact");
                }
                self.metrics.exact.inc();
                let target = &readers[m.to];
                return Ok(Decision::Plan {
                    plan: self.plans.get_or_compile(&fm, target)?,
                    target: format_id(target),
                    exact: true,
                });
            }
        }

        // Line 5/16: Ft = formats reachable through transformations, incl. fm.
        let reachable = self.xforms.closure(&fm);
        let candidates: Vec<Arc<RecordFormat>> =
            reachable.iter().map(|r| Arc::clone(&r.format)).collect();

        // Line 16: MaxMatch(Ft, Fr).
        let selected = self.select(&candidates, &readers);
        if let Some(mut s) = mm_span {
            s.tag("candidates", &candidates.len().to_string());
            s.finish();
        }
        let Some(m) = selected else {
            // Lines 17–19: reject (or default-deliver when a default handler
            // exists — §3.2's "default handler (if any)").
            if self.default_handler.is_some() {
                if let Some(s) = decide_span.as_mut() {
                    s.tag("outcome", "default");
                }
                self.metrics.defaults.inc();
                return Ok(Decision::Default { decode: self.plans.get_or_compile(&fm, &fm)? });
            }
            if let Some(s) = decide_span.as_mut() {
                s.tag("outcome", "reject");
            }
            self.metrics.rejects.inc();
            return Ok(Decision::Reject);
        };

        let chosen = &reachable[m.from];
        let target = &readers[m.to];
        let target_id = format_id(target);

        if chosen.chain.is_empty() {
            // No transformation code needed: one specialized wire→target
            // plan covers decode + default-fill + extra-removal.
            if let Some(s) = decide_span.as_mut() {
                s.tag("outcome", "near");
            }
            self.metrics.near.inc();
            return Ok(Decision::Plan {
                plan: self.plans.get_or_compile(&fm, target)?,
                target: target_id,
                exact: false,
            });
        }

        // Lines 21–24: dynamic code generation, once, cached.
        let compile_tspan = self.tspan("morph.compile", dparent);
        let compile_span = self.metrics.timer(&self.metrics.compile_ns);
        let chain = CompiledChain::compile(&chosen.chain)?;
        compile_span.stop();
        if let Some(mut s) = compile_tspan {
            s.tag("steps", &chain.steps().len().to_string());
            s.finish();
        }
        if let Some(s) = decide_span.as_mut() {
            s.tag("outcome", "morph");
        }
        self.metrics.compiles.add(chain.steps().len() as u64);
        self.metrics.morphs.inc();
        let adapter =
            if m.perfect { None } else { Some(ValueAdapter::compile(&chosen.format, target)) };
        let fused = self.fuse_decision(&fm, &chain);
        Ok(Decision::Morph {
            decode: self.plans.get_or_compile(&fm, &fm)?,
            chain,
            adapter,
            target: target_id,
            fused,
        })
    }

    /// Builds the fused single-pass plan for a morph decision: the chain's
    /// step programs inlined into one [`FusedProgram`], plus a decode plan
    /// projected down to the source fields that program actually reads.
    /// Fusion is best-effort — on failure the decision falls back to the
    /// staged path and `morph.fused.skipped` is incremented.
    fn fuse_decision(
        &self,
        fm: &Arc<RecordFormat>,
        chain: &CompiledChain,
    ) -> Option<Box<FusedMorph>> {
        let fused = chain.fuse().ok().and_then(|program| {
            let used = root_used_fields(program.code(), 0, fm.fields().len());
            let decode = ConversionPlan::project(fm, &used).ok()?;
            let templates =
                program.bindings()[1..].iter().map(|b| Value::default_record(&b.format)).collect();
            Some(Box::new(FusedMorph { decode: Arc::new(decode), program, templates }))
        });
        if fused.is_none() {
            self.metrics.fused_skipped.inc();
        }
        fused
    }

    fn apply_decision(
        &mut self,
        decision: &Decision,
        msg: &[u8],
        trace_stages: bool,
    ) -> Result<Delivery> {
        // The caller hands us its own `Arc` clone of the cached decision, so
        // `&mut self.handlers` access borrows cleanly while the decision is
        // read. Handlers must not recursively call `process` (they receive
        // values, not the receiver).
        //
        // `trace_stages` is true only on the cold path: a warm replay is a
        // single cached step, so beyond `morph.lookup` it records at most
        // the one `morph.apply.fused` span of a fused morph.
        let apply_span = if trace_stages { self.tspan("morph.apply", None) } else { None };
        let aparent = apply_span.as_ref().map(|s| s.id());
        let result = (|| -> Result<Delivery> {
            match decision {
                Decision::Plan { plan, target, .. } => {
                    let value = {
                        let _s =
                            if trace_stages { self.tspan("morph.decode", aparent) } else { None };
                        plan.execute(msg)?
                    };
                    self.invoke(*target, value);
                    Ok(Delivery::Delivered(*target))
                }
                Decision::Morph { decode, chain, adapter, target, fused } => {
                    // Warm replays take the fused plan: one projected decode,
                    // one VM invocation over the whole chain, no intermediate
                    // Value trees between steps. The cold pass stays staged so
                    // its per-stage spans remain observable, and so every
                    // format's first message exercises the oracle the fused
                    // path is differentially tested against.
                    if !trace_stages && self.fusion {
                        if let Some(f) = fused {
                            let mut span = self.tspan("morph.apply.fused", None);
                            if let Some(s) = span.as_mut() {
                                s.tag("steps", &chain.steps().len().to_string());
                            }
                            let _t = self.metrics.timer(&self.metrics.fused_apply_ns);
                            let mut roots = Vec::with_capacity(f.templates.len() + 1);
                            roots.push(f.decode.execute(msg)?);
                            roots.extend(f.templates.iter().cloned());
                            let stats = f.program.run_register(&mut roots)?;
                            self.metrics.batch_copies.add(stats.batch_copies);
                            self.metrics.batch_elems.add(stats.batch_elems);
                            let value = roots.pop().expect("fused program keeps its roots");
                            let value = match adapter {
                                Some(a) => a.apply(&value)?,
                                None => value,
                            };
                            self.metrics.fused_applies.inc();
                            self.metrics.fused_vm_invocations.inc();
                            // Intermediate Value trees built between decode
                            // and delivery: none, by construction. The
                            // counter exists so that invariant is assertable
                            // against morph.staged.intermediates.
                            self.metrics.fused_intermediates.add(0);
                            self.invoke(*target, value);
                            return Ok(Delivery::Delivered(*target));
                        }
                    }
                    let value = {
                        let _s =
                            if trace_stages { self.tspan("morph.decode", aparent) } else { None };
                        decode.execute(msg)?
                    };
                    let value = {
                        let mut s = if trace_stages {
                            self.tspan("morph.transform", aparent)
                        } else {
                            None
                        };
                        if let Some(sp) = s.as_mut() {
                            sp.tag("steps", &chain.steps().len().to_string());
                        }
                        chain.apply(value)?
                    };
                    let value = match adapter {
                        Some(a) => {
                            let _s = if trace_stages {
                                self.tspan("morph.default_fill", aparent)
                            } else {
                                None
                            };
                            a.apply(&value)?
                        }
                        None => value,
                    };
                    // One VM invocation per step, one intermediate Value per
                    // step boundary (plus the adapter input) — the costs the
                    // fused path eliminates.
                    self.metrics.staged_vm_invocations.add(chain.steps().len() as u64);
                    self.metrics
                        .staged_intermediates
                        .add(chain.steps().len() as u64 + u64::from(adapter.is_some()));
                    self.invoke(*target, value);
                    Ok(Delivery::Delivered(*target))
                }
                Decision::Default { decode } => {
                    let value = {
                        let _s =
                            if trace_stages { self.tspan("morph.decode", aparent) } else { None };
                        decode.execute(msg)?
                    };
                    if trace_stages {
                        self.tinstant("morph.default_delivery", aparent, &[]);
                    }
                    let fmt = Arc::clone(decode.wire_format());
                    if let Some(h) = self.default_handler.as_mut() {
                        h(&fmt, value);
                    }
                    Ok(Delivery::DeliveredDefault)
                }
                Decision::Reject => {
                    if trace_stages {
                        self.tinstant("morph.reject", aparent, &[]);
                    }
                    Ok(Delivery::Rejected)
                }
            }
        })();
        result
    }

    fn invoke(&mut self, target: FormatId, value: Value) {
        if let Some(h) = self.handlers.get_mut(&target) {
            h(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbio::{Encoder, FormatBuilder};
    use std::sync::{Arc as SArc, Mutex};

    type Sink = SArc<Mutex<Vec<Value>>>;

    fn sink() -> (Sink, impl FnMut(Value) + Send + 'static) {
        let s: Sink = SArc::new(Mutex::new(Vec::new()));
        let c = SArc::clone(&s);
        (s, move |v| c.lock().unwrap().push(v))
    }

    fn member(extra: bool) -> Arc<RecordFormat> {
        let b = FormatBuilder::record("Member").string("info").int("ID");
        let b = if extra { b.int("is_source").int("is_sink") } else { b };
        b.build_arc().unwrap()
    }

    fn v2() -> Arc<RecordFormat> {
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(true), "member_count")
            .build_arc()
            .unwrap()
    }

    fn v1() -> Arc<RecordFormat> {
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member(false), "member_count")
            .int("src_count")
            .var_array_of("src_list", member(false), "src_count")
            .int("sink_count")
            .var_array_of("sink_list", member(false), "sink_count")
            .build_arc()
            .unwrap()
    }

    /// The paper's Fig. 5 transformation source.
    pub(crate) const FIG5: &str = r#"
        int i;
        int sink_count = 0;
        int src_count = 0;
        old.member_count = new.member_count;
        for (i = 0; i < new.member_count; i++) {
            old.member_list[i].info = new.member_list[i].info;
            old.member_list[i].ID = new.member_list[i].ID;
            if (new.member_list[i].is_source) {
                old.src_list[src_count].info = new.member_list[i].info;
                old.src_list[src_count].ID = new.member_list[i].ID;
                src_count++;
            }
            if (new.member_list[i].is_sink) {
                old.sink_list[sink_count].info = new.member_list[i].info;
                old.sink_list[sink_count].ID = new.member_list[i].ID;
                sink_count++;
            }
        }
        old.src_count = src_count;
        old.sink_count = sink_count;
    "#;

    fn v2_message(n: usize) -> Vec<u8> {
        let members: Vec<Value> = (0..n)
            .map(|i| {
                Value::Record(vec![
                    Value::str(format!("host-{i}:500{i}")),
                    Value::Int(i as i64),
                    Value::Int(i64::from(i % 2 == 0)),
                    Value::Int(1),
                ])
            })
            .collect();
        let v = Value::Record(vec![Value::Int(n as i64), Value::Array(members)]);
        Encoder::new(&v2()).encode(&v).unwrap()
    }

    #[test]
    fn exact_match_delivers() {
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        let id = rx.register_handler(&v2(), h);
        let d = rx.process(&v2_message(2)).unwrap();
        assert_eq!(d, Delivery::Delivered(id));
        assert_eq!(got.lock().unwrap().len(), 1);
        assert_eq!(rx.stats().exact_matches, 1);
        assert_eq!(rx.stats().morphs, 0);
    }

    #[test]
    fn morphing_delivers_old_format_to_old_client() {
        // The paper's headline scenario: a v1-only client receives a v2
        // message via the writer-supplied Fig. 5 transformation.
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        let id1 = rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));

        let d = rx.process(&v2_message(3)).unwrap();
        assert_eq!(d, Delivery::Delivered(id1));
        let vals = got.lock().unwrap();
        let out = &vals[0];
        out.check(&v1()).unwrap();
        assert_eq!(out.field(&v1(), "member_count"), Some(&Value::Int(3)));
        assert_eq!(out.field(&v1(), "src_count"), Some(&Value::Int(2))); // members 0, 2
        assert_eq!(out.field(&v1(), "sink_count"), Some(&Value::Int(3)));
        drop(vals);
        assert_eq!(rx.stats().morphs, 1);
        assert_eq!(rx.stats().compiles, 1);
    }

    #[test]
    fn decisions_are_cached() {
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        for _ in 0..5 {
            rx.process(&v2_message(2)).unwrap();
        }
        assert_eq!(got.lock().unwrap().len(), 5);
        let s = rx.stats();
        assert_eq!(s.messages, 5);
        assert_eq!(s.cache_hits, 4);
        assert_eq!(s.compiles, 1, "DCG happens once, then the cache serves");
    }

    #[test]
    fn unknown_format_errors_without_metadata() {
        let mut rx = MorphReceiver::new();
        let (_, h) = sink();
        rx.register_handler(&v1(), h);
        // No import of v2, no transformation: the wire id is unknown.
        let err = rx.process(&v2_message(1)).unwrap_err();
        assert!(matches!(err, MorphError::UnknownWireFormat(_)));
    }

    #[test]
    fn near_match_fills_defaults_without_code() {
        // Incoming has one extra field and misses one — no transformation
        // registered, but thresholds admit the pair.
        let incoming =
            FormatBuilder::record("Load").int("cpu").int("net").int("extra").build_arc().unwrap();
        let reader =
            FormatBuilder::record("Load").int("cpu").int("net").int("mem").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
            .unwrap();
        let d = rx.process(&wire).unwrap();
        assert!(matches!(d, Delivery::Delivered(_)));
        assert_eq!(
            got.lock().unwrap()[0],
            Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(0)])
        );
        assert_eq!(rx.stats().near_matches, 1);
    }

    #[test]
    fn exact_config_rejects_near_match() {
        let incoming = FormatBuilder::record("Load").int("cpu").int("x").build_arc().unwrap();
        let reader = FormatBuilder::record("Load").int("cpu").int("y").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::with_config(MatchConfig::exact());
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2)]))
            .unwrap();
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
        assert!(got.lock().unwrap().is_empty());
        assert_eq!(rx.stats().rejects, 1);
        // Rejection is cached too.
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
        assert_eq!(rx.stats().cache_hits, 1);
    }

    #[test]
    fn default_handler_catches_unmatched() {
        let incoming = FormatBuilder::record("Other").int("z").build_arc().unwrap();
        let reader = FormatBuilder::record("Load").int("cpu").build_arc().unwrap();
        let caught: SArc<Mutex<Vec<String>>> = SArc::new(Mutex::new(Vec::new()));
        let c = SArc::clone(&caught);
        let mut rx = MorphReceiver::new();
        let (_, h) = sink();
        rx.register_handler(&reader, h);
        rx.register_default_handler(move |fmt, _v| c.lock().unwrap().push(fmt.name().into()));
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming).encode(&Value::Record(vec![Value::Int(9)])).unwrap();
        assert_eq!(rx.process(&wire).unwrap(), Delivery::DeliveredDefault);
        assert_eq!(caught.lock().unwrap().as_slice(), ["Other"]);
    }

    #[test]
    fn name_must_match_for_reader_set() {
        // Same shape, different record name: Fr is empty (line 4 filters by
        // name), so the message falls through to default/reject.
        let incoming = FormatBuilder::record("A").int("x").build_arc().unwrap();
        let reader = FormatBuilder::record("B").int("x").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        let wire = Encoder::new(&incoming).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
        assert!(got.lock().unwrap().is_empty());
    }

    #[test]
    fn two_step_chain_reaches_oldest_reader() {
        let r2 = FormatBuilder::record("M").int("a").int("b").int("c").build_arc().unwrap();
        let r1 = FormatBuilder::record("M").int("a").int("b").build_arc().unwrap();
        let r0 = FormatBuilder::record("M").int("total").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&r0, h);
        rx.import_transformation(Transformation::new(
            r2.clone(),
            r1.clone(),
            "old.a = new.a; old.b = new.b + new.c;",
        ));
        rx.import_transformation(Transformation::new(r1, r0.clone(), "old.total = new.a + new.b;"));
        let wire = Encoder::new(&r2)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
            .unwrap();
        let d = rx.process(&wire).unwrap();
        assert!(matches!(d, Delivery::Delivered(_)));
        assert_eq!(got.lock().unwrap()[0], Value::Record(vec![Value::Int(6)]));
        assert_eq!(rx.stats().compiles, 2);
    }

    #[test]
    fn newer_reader_preferred_over_morph() {
        // A reader that understands v2 directly must win over the v1 +
        // transformation route (perfect match short-circuit, line 12).
        let (got2, h2) = sink();
        let (got1, h1) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h1);
        let id2 = rx.register_handler(&v2(), h2);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        let d = rx.process(&v2_message(2)).unwrap();
        assert_eq!(d, Delivery::Delivered(id2));
        assert_eq!(got2.lock().unwrap().len(), 1);
        assert!(got1.lock().unwrap().is_empty());
    }

    #[test]
    fn registering_new_reader_invalidates_cache() {
        let (got1, h1) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h1);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        rx.process(&v2_message(1)).unwrap();
        assert_eq!(rx.cached_decisions(), 1);
        // A v2-capable reader arrives; the next v2 message must go to it.
        let (got2, h2) = sink();
        let id2 = rx.register_handler(&v2(), h2);
        assert_eq!(rx.cached_decisions(), 0);
        let d = rx.process(&v2_message(1)).unwrap();
        assert_eq!(d, Delivery::Delivered(id2));
        assert_eq!(got1.lock().unwrap().len(), 1);
        assert_eq!(got2.lock().unwrap().len(), 1);
    }

    #[test]
    fn weighted_policy_changes_admission() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        // The incoming format is missing the reader's critical field; only
        // unimportant fields match.
        let incoming = FormatBuilder::record("Load")
            .int("debug_a")
            .int("debug_b")
            .int("debug_c")
            .build_arc()
            .unwrap();
        let reader = FormatBuilder::record("Load")
            .int("price")
            .int("debug_a")
            .int("debug_b")
            .int("debug_c")
            .build_arc()
            .unwrap();
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2), Value::Int(3)]))
            .unwrap();

        // Unweighted, permissive thresholds: 1 missing field out of 4 -> Mr
        // 0.25, admitted.
        let (got, h) = sink();
        let mut rx = MorphReceiver::with_config(crate::matching::MatchConfig {
            diff_threshold: 8,
            mismatch_threshold: 0.3,
        });
        rx.register_handler(&reader, h);
        rx.import_format(incoming.clone());
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        assert_eq!(got.lock().unwrap().len(), 1);

        // Weighted: price carries almost all the importance, so the same
        // message is now inadmissible.
        let (got2, h2) = sink();
        let mut rx2 = MorphReceiver::new();
        rx2.register_handler(&reader, h2);
        rx2.import_format(incoming.clone());
        rx2.set_weight_profile(
            WeightProfile::new().weight("price", 100.0).weight("debug_*", 0.1),
            WeightedConfig { diff_threshold: 8.0, mismatch_threshold: 0.3 },
        );
        assert_eq!(rx2.process(&wire).unwrap(), Delivery::Rejected);
        assert!(got2.lock().unwrap().is_empty());
    }

    #[test]
    fn weighted_policy_still_short_circuits_perfect_matches() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        let fmt = FormatBuilder::record("M").int("a").int("b").build_arc().unwrap();
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&fmt, h);
        rx.set_weight_profile(
            WeightProfile::new().weight("a", 5.0),
            WeightedConfig { diff_threshold: 0.0, mismatch_threshold: 0.0 },
        );
        let wire =
            Encoder::new(&fmt).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        assert_eq!(rx.stats().exact_matches, 1);
        drop(got);
    }

    #[test]
    fn setting_weights_invalidates_cache() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        let incoming = FormatBuilder::record("M").int("junk").int("keep").build_arc().unwrap();
        let reader = FormatBuilder::record("M").int("keep").int("vital").build_arc().unwrap();
        let wire = Encoder::new(&incoming)
            .encode(&Value::Record(vec![Value::Int(1), Value::Int(2)]))
            .unwrap();
        let (_, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&reader, h);
        rx.import_format(incoming);
        // Default policy admits (Mr = 0.5 at the default threshold).
        assert!(matches!(rx.process(&wire).unwrap(), Delivery::Delivered(_)));
        assert_eq!(rx.cached_decisions(), 1);
        // Tight weighted policy: vital dominates -> reject from now on.
        rx.set_weight_profile(
            WeightProfile::new().weight("vital", 50.0),
            WeightedConfig { diff_threshold: 10.0, mismatch_threshold: 0.2 },
        );
        assert_eq!(rx.cached_decisions(), 0);
        assert_eq!(rx.process(&wire).unwrap(), Delivery::Rejected);
    }

    #[test]
    fn explain_reports_every_decision_kind() {
        use crate::receiver::Explanation;
        let (_, h) = sink();
        let mut rx = MorphReceiver::new();
        let v1_id = rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        let v2_id = pbio::format_id(&v2());
        assert!(rx.explain(v2_id).is_none(), "nothing cached yet");

        rx.process(&v2_message(1)).unwrap();
        let e = rx.explain(v2_id).unwrap();
        assert_eq!(e, Explanation::Morph { target: v1_id, chain_len: 1, adapted: false });
        assert!(e.to_string().contains("morph through 1 transformation"));

        // Exact decision for v1 messages.
        let wire = Encoder::new(&v1()).encode(&crate::receiver::tests::v1_value_of(&[])).unwrap();
        rx.process(&wire).unwrap();
        assert_eq!(
            rx.explain(pbio::format_id(&v1())).unwrap(),
            Explanation::Exact { target: v1_id }
        );

        // Rejection is explainable too.
        let stranger = FormatBuilder::record("Other").int("z").build_arc().unwrap();
        rx.import_format(stranger.clone());
        let wire = Encoder::new(&stranger).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        rx.process(&wire).unwrap();
        assert_eq!(rx.explain(pbio::format_id(&stranger)).unwrap(), Explanation::Rejected);
        assert_eq!(Explanation::Rejected.to_string(), "rejected");
        assert_eq!(Explanation::DefaultHandler.to_string(), "default handler");
    }

    /// Helper building an empty v1 response value for the explain test.
    pub(crate) fn v1_value_of(_: &[()]) -> Value {
        Value::Record(vec![
            Value::Int(0),
            Value::Array(vec![]),
            Value::Int(0),
            Value::Array(vec![]),
            Value::Int(0),
            Value::Array(vec![]),
        ])
    }

    #[test]
    fn stats_start_zeroed() {
        let rx = MorphReceiver::new();
        assert_eq!(rx.stats(), MorphStats::default());
        assert_eq!(rx.cached_decisions(), 0);
        assert!(!format!("{rx:?}").is_empty());
    }

    #[test]
    fn warm_morph_is_one_fused_vm_pass_with_no_intermediates() {
        // Acceptance criterion for fusion: after the cold decision, every
        // warm morph is exactly one VM invocation and builds zero
        // intermediate Value trees — asserted through the morph.fused.*
        // counters rather than timing.
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));

        rx.process(&v2_message(3)).unwrap(); // cold: staged, decides + caches
        for _ in 0..4 {
            rx.process(&v2_message(3)).unwrap(); // warm: fused
        }
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.fused.apply"), Some(4));
        assert_eq!(snap.counter("morph.fused.vm_invocations"), Some(4));
        assert_eq!(snap.counter("morph.fused.intermediates"), Some(0));
        assert_eq!(snap.counter("morph.fused.skipped"), Some(0));
        // The cold pass ran the staged oracle once (1-step chain).
        assert_eq!(snap.counter("morph.staged.vm_invocations"), Some(1));

        // And the fused output is the same value the staged path delivers.
        let vals = got.lock().unwrap();
        assert_eq!(vals.len(), 5);
        assert!(vals[1..].iter().all(|v| v == &vals[0]));
        vals[4].check(&v1()).unwrap();
        assert_eq!(vals[4].field(&v1(), "src_count"), Some(&Value::Int(2)));
    }

    #[test]
    fn disabling_fusion_routes_warm_morphs_through_staged_oracle() {
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        rx.set_fusion(false);
        rx.process(&v2_message(2)).unwrap();
        rx.process(&v2_message(2)).unwrap();
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.fused.apply"), Some(0));
        assert_eq!(snap.counter("morph.staged.vm_invocations"), Some(2));
        let vals = got.lock().unwrap();
        assert_eq!(vals[0], vals[1]);
    }

    #[test]
    fn fused_replays_match_the_interpreter() {
        // Warm fused replays on the VM deliver exactly what the reference
        // interpreter computes from the full decode.
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        let xform = Transformation::new(v2(), v1(), FIG5);
        rx.import_transformation(xform.clone());
        let oracle = xform.compile().unwrap();

        let sizes = [0usize, 1, 3, 5];
        let mut want = Vec::new();
        for n in sizes {
            let msg = v2_message(n);
            rx.process(&msg).unwrap();
            let full = pbio::decode_payload(&v2(), &msg).unwrap();
            want.push(oracle.apply_interp(&full).unwrap());
        }
        assert_eq!(*got.lock().unwrap(), want);
        // 3 warm replays (the first message was the cold staged pass).
        assert_eq!(rx.registry().snapshot().counter("morph.fused.apply"), Some(3));
    }

    #[test]
    fn shared_cache_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecisionCache>();
        assert_send_sync::<Arc<Decision>>();
    }

    /// Builds a v1-reading receiver that knows the Fig. 5 transformation —
    /// the identical-subscriber shape of a fan-out deployment.
    fn v1_subscriber(shared: &DecisionCache) -> (Sink, MorphReceiver) {
        let (got, h) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&v1(), h);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));
        rx.set_shared_decisions(shared.clone());
        (got, rx)
    }

    #[test]
    fn shared_decision_cache_pays_maxmatch_and_compile_once() {
        let shared = DecisionCache::new();
        let (got_a, mut a) = v1_subscriber(&shared);
        let (got_b, mut b) = v1_subscriber(&shared);

        a.process(&v2_message(3)).unwrap(); // computes + publishes
        b.process(&v2_message(3)).unwrap(); // shared hit: no decide, no DCG

        assert_eq!(shared.len(), 1);
        assert!(!shared.is_empty());
        assert_eq!(a.stats().compiles, 1);
        assert_eq!(b.stats().compiles, 0, "B must reuse A's compiled decision");
        let snap_a = a.registry().snapshot();
        let snap_b = b.registry().snapshot();
        assert_eq!(snap_a.counter("morph.decision.shared_insert"), Some(1));
        assert_eq!(snap_b.counter("morph.decision.shared_hit"), Some(1));
        assert_eq!(snap_b.counter("morph.decision.morph"), Some(0), "decide() never ran on B");

        // Both delivered the same morphed value.
        assert_eq!(got_a.lock().unwrap()[0], got_b.lock().unwrap()[0]);

        // B's next message is a plain L1 hit: no further shared traffic.
        b.process(&v2_message(3)).unwrap();
        let snap_b = b.registry().snapshot();
        assert_eq!(snap_b.counter("morph.decision.shared_hit"), Some(1));
        assert_eq!(snap_b.counter("morph.decision.hit"), Some(1));

        shared.clear();
        assert!(shared.is_empty());
        assert!(!format!("{shared:?}").is_empty());
    }

    #[test]
    fn invalidate_decisions_cold_restarts_the_l1_but_spares_the_shared_l2() {
        let shared = DecisionCache::new();
        let (_, mut rx) = v1_subscriber(&shared);
        rx.process(&v2_message(4)).unwrap();
        assert_eq!(rx.cached_decisions(), 1);
        assert_eq!(shared.len(), 1);

        // Crash-restart amnesia: the private cache is gone, the shared
        // cache — held outside the process — survives.
        assert_eq!(rx.invalidate_decisions(), 1);
        assert_eq!(rx.cached_decisions(), 0);
        assert_eq!(shared.len(), 1, "the shared L2 outlives the restart");

        // Re-warming is a shared hit, not a recompile.
        rx.process(&v2_message(4)).unwrap();
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.decision.shared_hit"), Some(1));
        assert_eq!(rx.stats().compiles, 1, "MaxMatch + DCG ran once, pre-crash");
    }

    #[test]
    fn shared_cache_segregates_incompatible_receivers() {
        let shared = DecisionCache::new();
        let (_, mut a) = v1_subscriber(&shared);

        // B reads v2 natively: same wire format, different fingerprint, and
        // must not inherit A's morph-to-v1 decision.
        let (got_b, hb) = sink();
        let mut b = MorphReceiver::new();
        let id2 = b.register_handler(&v2(), hb);
        b.set_shared_decisions(shared.clone());

        a.process(&v2_message(2)).unwrap();
        let d = b.process(&v2_message(2)).unwrap();
        assert_eq!(d, Delivery::Delivered(id2));
        got_b.lock().unwrap()[0].check(&v2()).unwrap();
        assert_eq!(b.registry().snapshot().counter("morph.decision.shared_hit"), Some(0));
        assert_eq!(shared.len(), 2, "one entry per fingerprint");
    }

    #[test]
    fn learning_a_transformation_moves_to_a_fresh_fingerprint() {
        let shared = DecisionCache::new();
        let (_, mut a) = v1_subscriber(&shared);
        let (_, mut b) = v1_subscriber(&shared);
        a.process(&v2_message(1)).unwrap();

        // B learns an extra edge before its first message: its fingerprint
        // diverges from A's, so A's cached decision is invisible to it.
        let v0 =
            FormatBuilder::record("ChannelOpenResponse").int("member_count").build_arc().unwrap();
        b.import_transformation(Transformation::new(
            v1(),
            v0,
            "old.member_count = new.member_count;",
        ));
        b.process(&v2_message(1)).unwrap();
        assert_eq!(b.registry().snapshot().counter("morph.decision.shared_hit"), Some(0));
        assert_eq!(b.registry().snapshot().counter("morph.decision.shared_insert"), Some(1));
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn weighted_receivers_bypass_the_shared_cache() {
        use crate::weighted::{WeightProfile, WeightedConfig};
        let shared = DecisionCache::new();
        let (_, mut a) = v1_subscriber(&shared);
        a.set_weight_profile(
            WeightProfile::new().weight("member_count", 1.0),
            WeightedConfig { diff_threshold: 100.0, mismatch_threshold: 1.0 },
        );
        a.process(&v2_message(1)).unwrap();
        assert!(shared.is_empty(), "weighted decisions must stay private");
        assert_eq!(a.registry().snapshot().counter("morph.decision.shared_insert"), Some(0));
    }

    #[test]
    fn importing_transformation_keeps_unrelated_warm_decisions() {
        // Targeted invalidation: a new transformation only drops cached
        // decisions whose reachable-format closure contains its source
        // format; unrelated warm decisions survive and keep serving hits.
        let unrelated = FormatBuilder::record("Heartbeat").int("seq").build_arc().unwrap();
        let (_, hu) = sink();
        let (_, h1) = sink();
        let mut rx = MorphReceiver::new();
        rx.register_handler(&unrelated, hu);
        rx.register_handler(&v1(), h1);
        rx.import_transformation(Transformation::new(v2(), v1(), FIG5));

        let hb = Encoder::new(&unrelated).encode(&Value::Record(vec![Value::Int(7)])).unwrap();
        rx.process(&hb).unwrap(); // cache the Heartbeat decision
        rx.process(&v2_message(1)).unwrap(); // cache the v2 morph decision
        assert_eq!(rx.cached_decisions(), 2);
        let misses_before = rx.registry().snapshot().counter("morph.decision.miss");

        // A new edge out of v2 (v2 -> v2b) affects the v2 closure only: the
        // morph decision is dropped, the Heartbeat decision survives.
        let v2b = FormatBuilder::record("ChannelOpenResponseAudit")
            .int("member_count")
            .build_arc()
            .unwrap();
        rx.import_transformation(Transformation::new(
            v2(),
            v2b,
            "old.member_count = new.member_count;",
        ));
        assert_eq!(rx.cached_decisions(), 1);
        assert!(rx.explain(pbio::format_id(&unrelated)).is_some());
        assert!(rx.explain(pbio::format_id(&v2())).is_none());

        // The surviving decision still serves warm hits (no re-decide).
        rx.process(&hb).unwrap();
        let snap = rx.registry().snapshot();
        assert_eq!(snap.counter("morph.decision.miss"), misses_before);

        // An edge into a format the Heartbeat closure *does* contain drops
        // the Heartbeat decision too.
        let hb0 = FormatBuilder::record("HeartbeatV0").int("seq").build_arc().unwrap();
        rx.import_transformation(Transformation::new(unrelated.clone(), hb0, "old.seq = new.seq;"));
        assert!(rx.explain(pbio::format_id(&unrelated)).is_none());
    }
}
