//! `EchoConfig` contract tests.
//!
//! 1. **Validation** — `EchoSystem::with_config` refuses every value that a
//!    component would otherwise silently clamp or panic on.
//! 2. **Cross-product** — the lossy fragmentation scenario of
//!    `tests/chaos.rs` runs under every combination of adaptive shedding,
//!    journaling, link monitors, and frame budget (none / 96 bytes): 16
//!    configurations. Each must keep the exactly-once accounting (no
//!    duplicate delivery; every published event delivered, dead-lettered,
//!    or lost whole on the wire) and replay byte-identically.
//!
//! Seeds follow `tests/chaos.rs`: a fixed trio, or the single seed in
//! `CHAOS_SEED` (ci.sh loops extra seeds that way).

use std::collections::HashSet;
use std::sync::Arc;

use echo::{EchoConfig, EchoError, EchoSystem, EchoVersion, Role};
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::{FaultPlan, LinkParams};

const SEEDS: [u64; 3] = [0x00C0_FFEE, 0xDEAD_BEEF, 42];

fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => vec![v.parse().unwrap_or_else(|_| panic!("CHAOS_SEED {v:?} is not a u64"))],
        Err(_) => SEEDS.to_vec(),
    }
}

fn rejects(config: EchoConfig) -> bool {
    matches!(EchoSystem::with_config(config), Err(EchoError::InvalidConfig(_)))
}

#[test]
fn default_config_is_valid() {
    assert!(EchoSystem::with_config(EchoConfig::default()).is_ok());
}

#[test]
fn zero_frame_budget_is_rejected() {
    assert!(rejects(EchoConfig { frame_budget: Some(0), ..EchoConfig::default() }));
    assert!(!rejects(EchoConfig { frame_budget: Some(1), ..EchoConfig::default() }));
}

#[test]
fn zero_reassembly_capacity_is_rejected() {
    assert!(rejects(EchoConfig { reassembly_capacity: 0, ..EchoConfig::default() }));
}

#[test]
fn zero_journal_batch_is_rejected() {
    assert!(rejects(EchoConfig { journal_batch: Some(0), ..EchoConfig::default() }));
    assert!(!rejects(EchoConfig { journal_batch: Some(1), ..EchoConfig::default() }));
}

#[test]
fn zero_link_monitor_window_is_rejected() {
    assert!(rejects(EchoConfig { link_monitors: Some((0, 1_000)), ..EchoConfig::default() }));
    assert!(rejects(EchoConfig { link_monitors: Some((8, 0)), ..EchoConfig::default() }));
    assert!(!rejects(EchoConfig { link_monitors: Some((1, 1)), ..EchoConfig::default() }));
}

#[test]
fn adaptive_shedding_over_a_zero_capacity_is_rejected() {
    let adaptive = EchoConfig { adaptive_shedding: true, ..EchoConfig::default() };
    assert!(rejects(EchoConfig { retry_queue_capacity: 0, ..adaptive.clone() }));
    assert!(rejects(EchoConfig { ingress_capacity: 0, ..adaptive.clone() }));
    // Without adaptation a zero bound is a legal "shed everything" queue.
    assert!(!rejects(EchoConfig { retry_queue_capacity: 0, ..EchoConfig::default() }));
}

const EVENTS: u64 = 10;
const FRAG_TIMEOUT_NS: u64 = 50_000_000;

fn blob_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Blob").int("n").string("data").build_arc().unwrap()
}

/// ~450 encoded bytes, content derived from `n` so a misassembled
/// delivery cannot masquerade as a correct one.
fn blob(n: i64) -> Value {
    Value::Record(vec![Value::Int(n), Value::str(format!("{n:03}~").repeat(110))])
}

/// All 16 configurations of the matrix.
fn matrix() -> impl Iterator<Item = EchoConfig> {
    (0..16u8).map(|bits| EchoConfig {
        adaptive_shedding: bits & 1 != 0,
        journal_batch: (bits & 2 != 0).then_some(4),
        link_monitors: (bits & 4 != 0).then_some((8, 1_000_000)),
        frame_budget: (bits & 8 != 0).then_some(96),
        reassembly_capacity: 16,
        reassembly_timeout_ns: FRAG_TIMEOUT_NS,
        ..EchoConfig::default()
    })
}

/// One run of the lossy fragmentation scenario under `config`: asserts the
/// accounting and returns the run's snapshot and trace export.
fn run(config: &EchoConfig, seed: u64) -> (String, String) {
    let tag = format!("seed {seed:#x}, {config:?}");
    let mut sys = EchoSystem::with_config(config.clone()).unwrap();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());

    let fmt = blob_fmt();
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();
    sys.set_fault_plan(
        publisher,
        sink,
        FaultPlan::new(seed)
            .drop_per_mille(100)
            .duplicate_per_mille(150)
            .reorder_per_mille(250, 300_000)
            .jitter_ns(40_000),
    );
    for n in 0..EVENTS {
        sys.publish(publisher, ch, &fmt, &blob(n as i64)).unwrap();
    }
    sys.run();
    // Let the stragglers' partial sets hit the reassembly timeout.
    sys.advance_ns(2 * FRAG_TIMEOUT_NS);
    sys.run();

    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let delivered = counter("echo.events.delivered");
    let partials = counter("echo.deadletter.partial_fragments");
    let shed = counter("echo.queue.shed");
    let dropped = sys.fault_totals().dropped;

    // No duplicate delivery, and every delivery is byte-exact.
    let mut seen = HashSet::new();
    for (c, v) in sys.take_events(sink) {
        assert_eq!(c, ch);
        let n = v.field(&fmt, "n").unwrap().as_i64().unwrap();
        assert_eq!(v, blob(n), "{tag}: reassembled content differs for {n}");
        assert!(seen.insert(n), "{tag}: message {n} delivered twice");
    }
    assert_eq!(seen.len() as u64, delivered, "{tag}");

    // Every published event is delivered, dead-lettered (partial set or
    // shed), or lost whole on the wire. A drop loses one frame and frames
    // are never re-sent here, so a message with `k` frames is lost whole
    // exactly when all `k` dropped, and dead-letters as a partial set when
    // some but not all did.
    let k = if config.frame_budget.is_some() { counter("echo.frag.sent") / EVENTS } else { 1 };
    let lost = EVENTS.checked_sub(delivered + partials + shed).unwrap_or_else(|| {
        panic!("{tag}: {delivered} delivered + {partials} partial + {shed} shed > {EVENTS}")
    });
    assert!(k * lost <= dropped && dropped <= k * lost + (k - 1) * partials, "{tag}");
    assert_eq!(shed, 0, "{tag}: nothing is bounded tightly enough to shed");
    assert_eq!(counter("echo.frag.timeout"), partials, "{tag}: every partial died by timeout");
    assert_eq!(sys.reassembly_depth(sink), 0, "{tag}: the sweep leaves no orphan state");

    // Each knob is really on exactly when configured.
    if config.frame_budget.is_some() {
        assert!(k >= 5, "{tag}: every event splits into ≥5 fragments");
        assert_eq!(counter("echo.frag.reassembled"), delivered, "{tag}");
    } else {
        assert_eq!(counter("echo.frag.sent"), 0, "{tag}");
    }
    assert_eq!(sys.adaptive_capacities().is_some(), config.adaptive_shedding, "{tag}");
    assert_eq!(sys.journal_stats(sink).is_some(), config.journal_batch.is_some(), "{tag}");
    let monitored = sys.link_bandwidth(publisher, sink).is_some();
    assert_eq!(monitored, config.link_monitors.is_some(), "{tag}");

    (snap.to_text(), sys.recorder().chrome_json())
}

#[test]
fn every_config_keeps_exactly_once_accounting_and_replays_byte_identically() {
    for seed in seeds() {
        for config in matrix() {
            let first = run(&config, seed);
            let second = run(&config, seed);
            assert!(first == second, "seed {seed:#x}, {config:?}: non-deterministic replay");
        }
    }
}
