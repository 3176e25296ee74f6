//! Crash-restart recovery contract tests.
//!
//! Focused regression coverage for the recovery machinery that the chaos
//! storm (tests/chaos.rs, scenario 7) exercises in anger:
//!
//! 1. **Peer-down parking** — a send to a peer inside a crash window parks
//!    at the window's scheduled end instead of burning retry-budget
//!    attempts into a process that cannot answer.
//! 2. **Epoch fencing edge cases** — a frame from epoch N arriving after
//!    the epoch N+1 handshake is fenced; duplicate resume handshakes are
//!    absorbed harmlessly; a crash *during* resume (double restart) still
//!    converges to exactly-once.
//!
//! Every epoch scenario runs under both drivers — the single-threaded
//! virtual-time driver and the multi-core wall-clock driver at 1, 2, and
//! 4 shards — and must produce identical deliveries and identical
//! recovery counters: dispositions are decided by per-destination arrival
//! order, which both drivers preserve.

use std::sync::Arc;

use echo::{
    ChannelId, Driver, EchoConfig, EchoSystem, EchoVersion, Role, VirtualTimeDriver,
    WallClockDriver,
};
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::{FaultPlan, LinkParams};

const MS: u64 = 1_000_000;

fn tick_format() -> Arc<RecordFormat> {
    FormatBuilder::record("Tick").int("n").build_arc().unwrap()
}

fn tick(n: i64) -> Value {
    Value::Record(vec![Value::Int(n)])
}

/// The recovery-relevant counter slice of a snapshot — the part that must
/// agree across drivers (full snapshots differ: the wall-clock driver
/// registers shard metrics and wall timings).
const RECOVERY_COUNTERS: &[&str] = &[
    "echo.events.delivered",
    "echo.dedup.dropped",
    "echo.epoch.fenced",
    "echo.epoch.resumed",
    "echo.epoch.handshakes",
    "echo.crash.down",
    "echo.crash.restarts",
    "echo.crash.lost.retry",
    "echo.retry.parked",
    "echo.retry.giveup",
    "echo.journal.replayed",
    "echo.journal.redelivered",
    "echo.deadletter.stale_epoch",
    "echo.deadletter.crash_lost",
];

/// What one recovery scenario observed: the delivered payload values (in
/// arrival order) and the recovery counter slice.
#[derive(Debug, PartialEq)]
struct Observed {
    delivered: Vec<i64>,
    counters: Vec<(String, u64)>,
}

fn observe(sys: &mut EchoSystem, sink: echo::ProcessId, ch: ChannelId) -> Observed {
    let fmt = tick_format();
    let snap = sys.registry().snapshot();
    let counters = RECOVERY_COUNTERS
        .iter()
        .map(|&name| (name.to_string(), snap.counter(name).unwrap_or(0)))
        .collect();
    let delivered = sys
        .take_events(sink)
        .into_iter()
        .map(|(c, v)| {
            assert_eq!(c, ch);
            v.field(&fmt, "n").unwrap().as_i64().unwrap()
        })
        .collect();
    Observed { delivered, counters }
}

fn counter_of(obs: &Observed, name: &str) -> u64 {
    obs.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
}

/// Runs `scenario` under the virtual-time driver and the wall-clock driver
/// at 1, 2, and 4 shards, asserting every driver observes the same
/// deliveries and recovery counters, and returns the (shared) observation.
fn for_every_driver(scenario: impl Fn(&mut dyn Driver) -> Observed) -> Observed {
    let virt = scenario(&mut VirtualTimeDriver);
    for shards in [1usize, 2, 4] {
        let wall = scenario(&mut WallClockDriver::new(shards));
        assert_eq!(
            wall, virt,
            "{shards}-shard wall-clock recovery diverged from the virtual-time driver"
        );
    }
    virt
}

// ---------------------------------------------------------------------------
// Peer-down parking (retry regression).
// ---------------------------------------------------------------------------

/// A publisher sending into a peer's crash window parks every frame at the
/// window's scheduled end: zero backoff attempts are burned while the peer
/// is down, nothing gives up, and each frame is delivered on exactly its
/// first real attempt after the restart.
#[test]
fn sends_to_crashed_peer_park_without_burning_backoff() {
    let fmt = tick_format();
    let mut sys = EchoSystem::new();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run();
    let base = sys.registry().snapshot();

    let t = sys.now_ns();
    sys.set_crash_windows(sink, &[(t, t + 5 * MS)]);
    for n in 0..5 {
        sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
    }

    // Before time moves: all five sends parked, no attempt spent.
    assert_eq!(sys.pending_retries(), 5, "sends to a crashed peer must park");
    let mid = sys.registry().snapshot();
    let delta = |snap: &obs::Snapshot, name: &str| {
        snap.counter(name).unwrap_or(0) - base.counter(name).unwrap_or(0)
    };
    assert_eq!(delta(&mid, "echo.retry.parked"), 5);
    assert_eq!(delta(&mid, "echo.retry.attempts"), 0, "parking must not burn attempts");

    sys.run();

    // After the restart: one attempt per frame — park-and-wake, not
    // exponential backoff hammering a down process.
    let end = sys.registry().snapshot();
    assert_eq!(delta(&end, "echo.retry.attempts"), 5, "exactly one attempt per parked frame");
    assert_eq!(delta(&end, "echo.retry.delivered"), 5);
    assert_eq!(delta(&end, "echo.retry.giveup"), 0);
    assert!(sys.now_ns() >= t + 5 * MS, "delivery waited out the crash window");
    let delivered: Vec<i64> = sys
        .take_events(sink)
        .into_iter()
        .map(|(_, v)| v.field(&fmt, "n").unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(delivered, vec![0, 1, 2, 3, 4], "in order, exactly once");
}

// ---------------------------------------------------------------------------
// Epoch fencing edge cases — each under both drivers at 1/2/4 shards.
// ---------------------------------------------------------------------------

/// Builds the standard creator/publisher/sink triangle with journaling on
/// and the control plane settled under `driver`.
fn recovery_triangle(
    driver: &mut dyn Driver,
) -> (EchoSystem, echo::ProcessId, echo::ProcessId, echo::ProcessId, ChannelId) {
    let fmt = tick_format();
    let mut sys =
        EchoSystem::with_config(EchoConfig { journal_batch: Some(4), ..EchoConfig::default() })
            .unwrap();
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let ch = sys.create_channel(creator);
    sys.subscribe(publisher, ch, Role::source(), None).unwrap();
    sys.subscribe(sink, ch, Role::sink(), Some(&fmt)).unwrap();
    sys.run_with(driver);
    (sys, creator, publisher, sink, ch)
}

/// Frames from epoch N arriving after the epoch N+1 handshake are fenced,
/// not delivered: the publisher dies with a reorder-delayed burst still in
/// flight and restarts before the stragglers land, so its resume handshake
/// overtakes them. Every fenced frame is quarantined under `stale_epoch`,
/// redelivery under the new epoch covers the gap, and all four drivers
/// agree to the counter.
#[test]
fn stale_epoch_frames_are_fenced_after_the_newer_handshake() {
    let fmt = tick_format();
    let obs = for_every_driver(|driver| {
        let (mut sys, _, publisher, sink, ch) = recovery_triangle(driver);
        // Reorder-heavy, drop-free plan: stragglers survive to meet the
        // fence instead of dying on the wire.
        sys.set_fault_plan(
            publisher,
            sink,
            FaultPlan::new(7)
                .duplicate_per_mille(300)
                .reorder_per_mille(600, 700_000)
                .jitter_ns(50_000),
        );
        for n in 0..10 {
            sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
        }
        // Die with the burst in flight; restart inside the reorder window.
        let t = sys.now_ns();
        sys.set_crash_windows(publisher, &[(t, t + 3 * MS / 10)]);
        sys.run_with(driver);
        assert_eq!(sys.epoch_of(publisher), 1);
        observe(&mut sys, sink, ch)
    });

    // The edge case actually occurred: dead-incarnation frames arrived
    // behind the epoch-1 fence and were refused, each one inspectable in
    // quarantine — and exactly-once held anyway (journal redelivery under
    // the new epoch covers any fenced frame that never made it).
    let fenced = counter_of(&obs, "echo.epoch.fenced");
    assert!(fenced > 0, "no epoch-0 frame arrived after the epoch-1 handshake");
    assert_eq!(counter_of(&obs, "echo.deadletter.stale_epoch"), fenced);
    assert!(counter_of(&obs, "echo.journal.redelivered") > 0);
    let mut sorted = obs.delivered.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "exactly-once across the fence");
}

/// Duplicate resume handshakes are harmless: with every frame on the link
/// duplicated, each resume's second copy carries an epoch *equal* to the
/// receiver's known epoch — so it passes the fence (which only refuses
/// *older* incarnations) and falls to ordinary dedup. One epoch bump, no
/// fence, no double delivery.
#[test]
fn duplicate_resume_handshakes_are_absorbed_by_dedup() {
    let fmt = tick_format();
    let obs = for_every_driver(|driver| {
        let (mut sys, _, publisher, sink, ch) = recovery_triangle(driver);
        // per-mille 1000 = every frame, deterministically — resumes too.
        sys.set_fault_plan(publisher, sink, FaultPlan::new(1).duplicate_per_mille(1000));
        for n in 0..6 {
            sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
        }
        sys.run_with(driver);
        let t = sys.now_ns();
        sys.set_crash_windows(publisher, &[(t, t + MS)]);
        sys.run_with(driver);
        assert_eq!(sys.epoch_of(publisher), 1);
        observe(&mut sys, sink, ch)
    });

    // The sink handled the resume exactly once; its duplicate (and every
    // duplicated event copy) died in dedup. Nothing was fenced: an
    // equal-epoch copy is a duplicate, not a stale incarnation.
    assert_eq!(counter_of(&obs, "echo.epoch.fenced"), 0);
    assert!(counter_of(&obs, "echo.epoch.handshakes") >= 1);
    assert!(counter_of(&obs, "echo.dedup.dropped") >= 6, "duplicated copies must hit dedup");
    let mut sorted = obs.delivered.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..6).collect::<Vec<_>>(), "exactly-once under universal duplication");
}

/// A crash *during* resume: the publisher restarts while its peer is still
/// down (the epoch-1 resume and redeliveries park), then crashes again
/// before they flow — amnesia erases the parked queue — and restarts a
/// second time. Only the epoch-2 incarnation ever reaches the sink, the
/// journal re-arms the redelivery obligations each time, and every event
/// still arrives exactly once.
#[test]
fn crash_during_resume_double_restart_converges_exactly_once() {
    let fmt = tick_format();
    let obs = for_every_driver(|driver| {
        let (mut sys, _, publisher, sink, ch) = recovery_triangle(driver);
        let t = sys.now_ns();
        // The sink is down across both publisher incarnations, so the
        // first restart's resume handshake can only park — and die with
        // the second crash. The publisher's own windows arm after the
        // publish calls (a process cannot publish from inside one).
        sys.set_crash_windows(sink, &[(t, t + 4 * MS)]);
        for n in 0..8 {
            sys.publish(publisher, ch, &fmt, &tick(n)).unwrap();
        }
        sys.set_crash_windows(publisher, &[(t, t + MS), (t + 3 * MS / 2, t + 5 * MS / 2)]);
        sys.run_with(driver);
        assert_eq!(sys.epoch_of(publisher), 2, "two incarnations");
        assert_eq!(sys.epoch_of(sink), 1);
        observe(&mut sys, sink, ch)
    });

    // The second crash drained the first restart's parked queue (counted
    // as retry amnesia), both restarts replayed the journal, and the sink
    // — having never seen epoch 1 — fenced nothing.
    assert_eq!(counter_of(&obs, "echo.crash.down"), 3);
    assert_eq!(counter_of(&obs, "echo.crash.restarts"), 3);
    assert!(counter_of(&obs, "echo.crash.lost.retry") > 0, "the parked queue must die mid-resume");
    assert!(counter_of(&obs, "echo.journal.replayed") > 0);
    assert_eq!(counter_of(&obs, "echo.epoch.fenced"), 0, "epoch 1 never reached the sink");
    assert_eq!(counter_of(&obs, "echo.retry.giveup"), 0);
    let mut sorted = obs.delivered.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..8).collect::<Vec<_>>(), "exactly-once across the double restart");
}
