//! Load-adaptive shed watermarks for the system's bounded queues.
//!
//! PR 7 made shedding *tier-ordered* (who is dropped); this module makes
//! it *load-adaptive* (when dropping starts). Each bounded queue — the
//! link-down retry queue, the per-process ingress buffers, and the sharded
//! runtime's mailboxes — gets an [`obs::AdaptiveThreshold`] fed by its own
//! arrival and drain events on the virtual clock. When the windowed
//! arrival rate overruns the drain rate the effective capacity halves
//! (down to a floor), starting shed pressure *before* a fixed bound would
//! overflow; when drains catch back up it doubles back toward the
//! configured base, with hysteresis so the capacity does not flap.
//!
//! Every adaptation decision is counted (`echo.adaptive.<queue>.tightened`
//! / `.relaxed`), the live effective capacity is exported as a gauge
//! (`echo.adaptive.<queue>.capacity`), and each decision drops an
//! `echo.adaptive.tighten` / `echo.adaptive.relax` instant into the flight
//! recorder under the trace that triggered it. All inputs are virtual-time
//! window states, so two identical runs adapt identically — the chaos
//! suite replays adaptation byte-for-byte.

use std::sync::Arc;

use obs::{AdaptDecision, AdaptiveThreshold, Counter, FlightRecorder, Gauge, Registry, TraceCtx};

/// Window geometry shared by every adaptive queue: eight 1 ms slots, so
/// rates compare over the trailing 8 ms of virtual time — long enough to
/// smooth one round-trip's burst, short enough to react inside a chaos
/// scenario's partition window.
const WINDOW_SLOTS: usize = 8;
const WINDOW_SLOT_NS: u64 = 1_000_000;

/// Metric labels of the adaptive queues, in [`AdaptiveShedding`] field
/// order.
pub(crate) const ADAPT_QUEUE_LABELS: [&str; 3] = ["retry", "ingress", "mailbox"];

/// One bounded queue's adaptive watermark plus its accounting handles.
#[derive(Debug)]
pub(crate) struct AdaptiveQueue {
    label: &'static str,
    threshold: AdaptiveThreshold,
    tightened: Arc<Counter>,
    relaxed: Arc<Counter>,
    capacity_gauge: Arc<Gauge>,
}

impl AdaptiveQueue {
    fn new(registry: &Registry, label: &'static str, base: usize) -> AdaptiveQueue {
        let floor = (base / 8).max(1);
        let q = AdaptiveQueue {
            label,
            threshold: AdaptiveThreshold::new(base, floor, WINDOW_SLOTS, WINDOW_SLOT_NS),
            tightened: registry.counter(&format!("echo.adaptive.{label}.tightened")),
            relaxed: registry.counter(&format!("echo.adaptive.{label}.relaxed")),
            capacity_gauge: registry.gauge(&format!("echo.adaptive.{label}.capacity")),
        };
        q.capacity_gauge.set(base as i64);
        q
    }

    /// Feeds one admission into the arrival window.
    pub fn on_arrival(&mut self, now_ns: u64) {
        self.threshold.on_arrival(now_ns);
    }

    /// Feeds one departure into the drain window.
    pub fn on_drain(&mut self, now_ns: u64) {
        self.threshold.on_drain(now_ns);
    }

    /// Re-evaluates the watermark against the windowed rates, counting and
    /// trace-instrumenting any capacity change under `ctx` (or as a free
    /// instant-less decision when the triggering frame carried no trace).
    pub fn evaluate(
        &mut self,
        now_ns: u64,
        recorder: &FlightRecorder,
        ctx: Option<TraceCtx>,
    ) -> Option<AdaptDecision> {
        let decision = self.threshold.evaluate(now_ns)?;
        let (counter, name) = match decision {
            AdaptDecision::Tighten => (&self.tightened, "echo.adaptive.tighten"),
            AdaptDecision::Relax => (&self.relaxed, "echo.adaptive.relax"),
        };
        counter.inc();
        self.capacity_gauge.set(self.threshold.capacity() as i64);
        if let Some(c) = ctx {
            recorder.instant(
                c.trace,
                c.parent,
                name,
                &[("queue", self.label), ("capacity", &self.threshold.capacity().to_string())],
            );
        }
        Some(decision)
    }

    /// The current adaptive bound (≤ the configured base capacity).
    pub fn capacity(&self) -> usize {
        self.threshold.capacity()
    }

    /// True while the watermark holds the queue in its tightened regime.
    pub fn overloaded(&self) -> bool {
        self.threshold.overloaded()
    }
}

/// The system's three adaptive watermarks, present when
/// [`crate::EchoConfig::adaptive_shedding`] is set.
#[derive(Debug)]
pub(crate) struct AdaptiveShedding {
    pub retry: AdaptiveQueue,
    pub ingress: AdaptiveQueue,
    pub mailbox: AdaptiveQueue,
}

impl AdaptiveShedding {
    /// Builds the watermarks from the queues' configured base capacities.
    /// Metric handles are created here — systems that never opt in keep
    /// their snapshot catalogue unchanged.
    pub fn new(
        registry: &Registry,
        retry_base: usize,
        ingress_base: usize,
        mailbox_base: usize,
    ) -> AdaptiveShedding {
        AdaptiveShedding {
            retry: AdaptiveQueue::new(registry, ADAPT_QUEUE_LABELS[0], retry_base),
            ingress: AdaptiveQueue::new(registry, ADAPT_QUEUE_LABELS[1], ingress_base),
            mailbox: AdaptiveQueue::new(registry, ADAPT_QUEUE_LABELS[2], mailbox_base),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::VirtualClock;

    #[test]
    fn decisions_count_and_export_capacity() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        let rec = FlightRecorder::new(64, clock.clone());
        let mut q = AdaptiveQueue::new(&reg, "retry", 64);
        assert_eq!(q.capacity(), 64);
        // Overload: arrivals far outrun drains across the window.
        for i in 0..32 {
            q.on_arrival(i * 100_000);
        }
        let d = q.evaluate(3_200_000, &rec, None);
        assert_eq!(d, Some(AdaptDecision::Tighten));
        assert!(q.overloaded());
        assert_eq!(q.capacity(), 32);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("echo.adaptive.retry.tightened"), Some(1));
        assert_eq!(snap.gauge("echo.adaptive.retry.capacity"), Some(32));
        // Recovery: drains dominate in a fresh window.
        let later = 3_200_000 + 10 * WINDOW_SLOT_NS;
        for i in 0..16 {
            q.on_drain(later + i * 100_000);
        }
        let d = q.evaluate(later + 1_600_000, &rec, None);
        assert_eq!(d, Some(AdaptDecision::Relax));
        assert_eq!(q.capacity(), 64);
        assert_eq!(reg.snapshot().counter("echo.adaptive.retry.relaxed"), Some(1));
    }

    #[test]
    fn traced_decision_lands_in_the_recorder() {
        let clock = Arc::new(VirtualClock::new());
        let reg = Registry::with_clock(clock.clone());
        let rec = FlightRecorder::new(64, clock.clone());
        let mut q = AdaptiveQueue::new(&reg, "ingress", 16);
        for i in 0..32 {
            q.on_arrival(i * 100_000);
        }
        let ctx = TraceCtx::root(obs::TraceId(7));
        q.evaluate(3_200_000, &rec, Some(ctx));
        let tree = rec.text_tree(obs::TraceId(7));
        assert!(tree.contains("echo.adaptive.tighten"), "missing instant in:\n{tree}");
        assert!(tree.contains("queue=ingress"), "missing queue tag in:\n{tree}");
    }
}
