//! Sharded-runtime contract tests.
//!
//! Three properties the shard/driver split must hold, per DESIGN.md's
//! "Concurrency & determinism" section:
//!
//! 1. **Stable assignment** — node → shard placement is a pure function of
//!    the process name and the shard count: independent of insertion
//!    order, system instance, and run. Per-shard metrics are only
//!    comparable across runs because of this.
//! 2. **Driver equivalence** — the wall-clock driver delivers exactly the
//!    events the virtual-time driver delivers, per process and in
//!    per-process order; only the execution substrate differs.
//! 3. **Replay determinism** — the virtual-time driver stays byte-identical
//!    under chaos: for each seed in the 1/7/42 matrix, two runs of a
//!    fault-injected scenario produce identical metric snapshots and
//!    identical trace exports. (The wall-clock driver deliberately makes
//!    no such promise.)

use std::sync::Arc;

use echo::{
    shard_of_name, ChannelId, Driver, EchoConfig, EchoSystem, EchoVersion, ProcessId, Role,
    VirtualTimeDriver, WallClockDriver,
};
use morph::Transformation;
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::{FaultPlan, LinkParams};

/// Deterministic pseudo-random process names (an LCG — no external crates,
/// no wall-clock seeding, so the "property test" is reproducible).
fn names(count: usize, seed: u64) -> Vec<String> {
    let mut state = seed | 1;
    (0..count)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            format!("proc-{i}-{:x}", state >> 32)
        })
        .collect()
}

#[test]
fn shard_assignment_is_a_pure_function_of_name_and_count() {
    for seed in [1u64, 7, 42] {
        let population = names(512, seed);
        for shards in [1usize, 2, 4, 8] {
            let first: Vec<usize> = population.iter().map(|n| shard_of_name(n, shards)).collect();
            // Recomputing — in any order — reproduces the placement.
            let reversed: Vec<usize> =
                population.iter().rev().map(|n| shard_of_name(n, shards)).collect();
            assert!(first.iter().all(|&s| s < shards));
            assert_eq!(
                first,
                reversed.into_iter().rev().collect::<Vec<_>>(),
                "assignment must not depend on evaluation order"
            );
            // And a realistic population spreads over every shard.
            let mut hit = vec![false; shards];
            for &s in &first {
                hit[s] = true;
            }
            assert!(hit.iter().all(|&h| h), "512 names must cover all {shards} shards");
        }
    }
}

#[test]
fn system_shard_of_agrees_with_the_standalone_hash() {
    // Each system delivers one event to each of 32 sinks on 4 shards; its
    // per-shard frame counters show where it placed every sink.
    let per_shard_frames = |names: &[String]| -> Vec<u64> {
        let fmt = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
        let mut sys = EchoSystem::new();
        let c = sys.add_process("creator", EchoVersion::V2);
        let ch = sys.create_channel(c);
        for name in names {
            let s = sys.add_process(name.clone(), EchoVersion::V2);
            sys.connect(c, s, LinkParams::lan());
            sys.provision_sink(s, ch, &fmt).unwrap();
        }
        sys.publish(c, ch, &fmt, &Value::Record(vec![Value::Int(1)])).unwrap();
        assert_eq!(sys.run_with(&mut WallClockDriver::new(4)), names.len());
        let snap = sys.registry().snapshot();
        (0..4).map(|i| snap.counter(&format!("echo.shard.{i}.frames")).unwrap_or(0)).collect()
    };
    let population = names(32, 7);
    let mut expected = vec![0u64; 4];
    for name in &population {
        expected[shard_of_name(name, 4)] += 1;
    }
    assert_eq!(per_shard_frames(&population), expected);
    // A second system with the same names in a different order places
    // every process identically.
    let reversed: Vec<String> = population.iter().rev().cloned().collect();
    assert_eq!(per_shard_frames(&reversed), expected);
}

fn old_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("value").build_arc().unwrap()
}

fn new_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading").int("raw").int("scale").build_arc().unwrap()
}

/// Creator-publisher plus `sinks` morphing subscribers with `events`
/// evolved events published but not yet run — ready for any driver.
fn loaded_fanout(sinks: usize, events: i64, shared: bool) -> (EchoSystem, Vec<ProcessId>) {
    let mut sys = EchoSystem::new();
    if shared {
        sys.enable_shared_morph_caches();
    }
    let c = sys.add_process("creator", EchoVersion::V2);
    let ch = sys.create_channel(c);
    let subs: Vec<ProcessId> = (0..sinks)
        .map(|i| {
            let s = sys.add_process(format!("sub-{i}"), EchoVersion::V2);
            sys.connect(c, s, LinkParams::lan());
            s
        })
        .collect();
    sys.distribute_metadata(
        &[old_fmt(), new_fmt()],
        &[Transformation::new(new_fmt(), old_fmt(), "old.value = new.raw * new.scale;")],
    );
    for &s in &subs {
        sys.provision_sink(s, ch, &old_fmt()).unwrap();
    }
    for n in 0..events {
        sys.publish(c, ch, &new_fmt(), &Value::Record(vec![Value::Int(n), Value::Int(2)])).unwrap();
    }
    (sys, subs)
}

#[test]
fn wall_clock_and_virtual_drivers_deliver_identical_events() {
    let collect = |driver: &mut dyn Driver| -> Vec<Vec<(ChannelId, Value)>> {
        let (mut sys, subs) = loaded_fanout(25, 8, false);
        sys.run_with(driver);
        subs.into_iter().map(|s| sys.take_events(s)).collect()
    };
    let virt = collect(&mut VirtualTimeDriver);
    for shards in [1usize, 2, 4, 8] {
        let wall = collect(&mut WallClockDriver::new(shards));
        assert_eq!(
            wall, virt,
            "{shards}-shard wall-clock delivery diverged from the virtual-time driver"
        );
    }
    // Sanity: the comparison is not vacuous.
    assert_eq!(virt.len(), 25);
    assert!(virt.iter().all(|events| events.len() == 8));
    assert_eq!(virt[0][0].1, Value::Record(vec![Value::Int(0)]), "events morphed at sinks");
}

#[test]
fn shared_caches_do_not_change_what_is_delivered() {
    let collect = |shared: bool| -> Vec<Vec<(ChannelId, Value)>> {
        let (mut sys, subs) = loaded_fanout(10, 4, shared);
        sys.run_with(&mut WallClockDriver::new(4));
        subs.into_iter().map(|s| sys.take_events(s)).collect()
    };
    assert_eq!(collect(true), collect(false));
}

/// A fault-injected mixed-version scenario under the virtual-time driver;
/// returns everything observable: the metric snapshot text and the full
/// chrome trace export.
fn chaos_run(seed: u64) -> (String, String) {
    let fmt = FormatBuilder::record("Tick").int("n").build_arc().unwrap();
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let v1_sink = sys.add_process("v1-sink", EchoVersion::V1);
    let v2_sink = sys.add_process("v2-sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(v1_sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.subscribe(v2_sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run_with(&mut VirtualTimeDriver);
    sys.set_fault_plan(
        publisher,
        v1_sink,
        FaultPlan::new(seed)
            .drop_per_mille(150)
            .corrupt_per_mille(100)
            .duplicate_per_mille(120)
            .jitter_ns(40_000),
    );
    sys.set_fault_plan(
        publisher,
        v2_sink,
        FaultPlan::new(seed ^ 0x5EED).drop_per_mille(250).duplicate_per_mille(80),
    );
    for n in 0..25 {
        sys.publish(publisher, ch, &fmt, &Value::Record(vec![Value::Int(n)])).unwrap();
    }
    sys.run_with(&mut VirtualTimeDriver);
    (sys.registry().snapshot().to_text(), sys.recorder().chrome_json())
}

#[test]
fn virtual_time_driver_replays_chaos_byte_identically_for_the_seed_matrix() {
    for seed in [1u64, 7, 42] {
        let (snap_a, chrome_a) = chaos_run(seed);
        let (snap_b, chrome_b) = chaos_run(seed);
        assert_eq!(snap_a, snap_b, "seed {seed}: metric snapshot diverged between runs");
        assert_eq!(chrome_a, chrome_b, "seed {seed}: trace export diverged between runs");
        assert!(snap_a.contains("echo.events.published"), "snapshot is non-trivial");
    }
    // Different seeds draw different fault sequences — the determinism is
    // per seed, not a constant output.
    assert_ne!(chaos_run(1).0, chaos_run(42).0);
}

// ---------------------------------------------------------------------------
// Fragmentation across the shard boundary.
// ---------------------------------------------------------------------------

fn blob_fmt() -> Arc<RecordFormat> {
    FormatBuilder::record("Blob").int("n").string("data").build_arc().unwrap()
}

/// Fixed-size payload (~450 encoded bytes) so every event splits into the
/// same number of fragments under a 64-byte budget.
fn blob(n: i64) -> Value {
    Value::Record(vec![Value::Int(n), Value::str(format!("{n:03}~").repeat(110))])
}

/// Creator-publisher plus `sinks` subscribers with `events` oversized
/// events published but not yet run; a 64-byte frame budget forces every
/// event through the fragmentation path.
fn loaded_frag_fanout(sinks: usize, events: i64) -> (EchoSystem, Vec<ProcessId>) {
    let cfg = EchoConfig { frame_budget: Some(64), ..EchoConfig::default() };
    let mut sys = EchoSystem::with_config(cfg).unwrap();
    let fmt = blob_fmt();
    let c = sys.add_process("creator", EchoVersion::V2);
    let ch = sys.create_channel(c);
    let subs: Vec<ProcessId> = (0..sinks)
        .map(|i| {
            let s = sys.add_process(format!("sub-{i}"), EchoVersion::V2);
            sys.connect(c, s, LinkParams::lan());
            sys.subscribe(s, ch, Role::sink(), Some(&fmt)).unwrap();
            s
        })
        .collect();
    sys.run_with(&mut VirtualTimeDriver);
    for n in 0..events {
        sys.publish(c, ch, &fmt, &blob(n)).unwrap();
    }
    (sys, subs)
}

/// Fragments of one message land in one sink's mailbox and stay in
/// arrival order, whatever the shard count — so the wall-clock driver
/// reassembles exactly what the virtual-time driver does, and no partial
/// set lingers after quiescence.
#[test]
fn wall_clock_driver_reassembles_fragments_identically_to_virtual_time() {
    let collect = |driver: &mut dyn Driver| -> Vec<Vec<(ChannelId, Value)>> {
        let (mut sys, subs) = loaded_frag_fanout(12, 6);
        sys.run_with(driver);
        for &s in &subs {
            assert_eq!(sys.reassembly_depth(s), 0, "partial set left behind");
        }
        let snap = sys.registry().snapshot();
        assert!(snap.counter("echo.frag.sent").unwrap_or(0) >= 12 * 6 * 5);
        assert_eq!(snap.counter("echo.frag.reassembled"), Some(12 * 6));
        assert_eq!(snap.counter("echo.deadletter.partial_fragments").unwrap_or(0), 0);
        subs.into_iter().map(|s| sys.take_events(s)).collect()
    };
    let virt = collect(&mut VirtualTimeDriver);
    for shards in [1usize, 2, 4] {
        let wall = collect(&mut WallClockDriver::new(shards));
        assert_eq!(
            wall, virt,
            "{shards}-shard wall-clock reassembly diverged from the virtual-time driver"
        );
    }
    assert_eq!(virt.len(), 12);
    assert!(virt.iter().all(|events| events.len() == 6));
    assert_eq!(virt[0][3].1, blob(3), "fragmented events arrive byte-exact");
}

/// When a bounded shard mailbox overflows on fragmented traffic, a shed
/// fragment takes its whole set with it: shed counts come in whole
/// messages, surviving messages reassemble, and no orphan fragment squats
/// in a reassembly buffer waiting to time out.
#[test]
fn mailbox_overflow_sheds_whole_fragment_sets_without_orphans() {
    let (mut sys, subs) = loaded_frag_fanout(1, 10);
    let sink = subs[0];
    let mut driver = WallClockDriver::new(2).with_mailbox_capacity(30);
    sys.run_with(&mut driver);

    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    let frags_per_msg = counter("echo.frag.sent") / 10;
    assert!(frags_per_msg >= 5, "payload must actually fragment");

    let shed = counter("echo.shard.mailbox.shed");
    assert!(shed > 0, "the 30-frame mailbox must overflow");
    assert_eq!(shed % frags_per_msg, 0, "sheds must come in whole fragment sets");

    let delivered = counter("echo.events.delivered");
    assert_eq!(delivered + shed / frags_per_msg, 10, "every message delivered or fully shed");
    assert!(delivered > 0);

    // No orphans: nothing buffered, nothing left to time out.
    assert_eq!(sys.reassembly_depth(sink), 0, "orphan fragments squatting in the buffer");
    assert_eq!(counter("echo.deadletter.partial_fragments"), 0);
    let events = sys.take_events(sink);
    assert_eq!(events.len() as u64, delivered);
    for (_, v) in &events {
        let n = v.field(&blob_fmt(), "n").unwrap().as_i64().unwrap();
        assert_eq!(*v, blob(n), "surviving message must be intact");
    }
}
