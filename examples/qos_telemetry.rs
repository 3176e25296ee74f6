//! Per-channel QoS tiers: a lossy telemetry stream beside a reliable
//! control channel, crossing the *same* faulty link.
//!
//! The paper's ECho channels carry everything with one delivery policy.
//! This example splits the traffic the way a real deployment would:
//!
//! - a **control** channel (`QosTier::Reliable`) whose oversized commands
//!   fragment under the frame budget, ride the retry queue across an
//!   outage, and reassemble at the sink — nothing is lost;
//! - a **telemetry** channel (`QosTier::UnorderedUnreliable`) whose
//!   samples are fire-and-forget: the outage eats them, the tier counters
//!   own up to every loss, and no retry-queue slot is wasted on them.
//!
//! Both channels share one publisher→sink link and one fault plan (a
//! scheduled partition window), so the only difference in outcome is the
//! tier. The example prints the per-tier books and asserts them.
//!
//! Run with: `cargo run --example qos_telemetry`

use message_morphing::prelude::*;

const COMMANDS: u64 = 8;
const SAMPLES_DURING_OUTAGE: u64 = 12;
const SAMPLES_AFTER_HEAL: u64 = 5;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let command_fmt = FormatBuilder::record("Command").int("id").string("script").build_arc()?;
    let sample_fmt = FormatBuilder::record("Sample").int("seq").int("value").build_arc()?;
    let command = |id: i64| {
        Value::Record(vec![Value::Int(id), Value::str(format!("cmd-{id:02};").repeat(60))])
    };
    let sample = |seq: i64| Value::Record(vec![Value::Int(seq), Value::Int(seq * 10)]);

    // One publisher, one sink, one link — and two channels over it with
    // different delivery tiers. ~440-byte commands split into 64-byte
    // fragments; samples fit in one frame and never touch the
    // fragmentation path. 8 commands × 7 fragments stays inside the
    // 64-frame retry queue, so the outage queues every reliable frame
    // instead of shedding any.
    let mut sys =
        EchoSystem::with_config(EchoConfig { frame_budget: Some(64), ..EchoConfig::default() })?;
    let creator = sys.add_process("creator", EchoVersion::V2);
    let publisher = sys.add_process("publisher", EchoVersion::V2);
    let sink = sys.add_process("sink", EchoVersion::V2);
    sys.connect_all(LinkParams::lan());
    let control = sys.create_channel(creator);
    let telemetry = sys.create_channel(creator);
    for (ch, fmt) in [(control, &command_fmt), (telemetry, &sample_fmt)] {
        sys.subscribe(publisher, ch, Role::source(), None)?;
        sys.subscribe(sink, ch, Role::sink(), Some(fmt))?;
    }
    sys.run();

    sys.set_channel_qos(control, QosTier::Reliable);
    sys.set_channel_qos(telemetry, QosTier::UnorderedUnreliable);

    // The same fault plan covers both channels: the link partitions for
    // 10 ms of virtual time starting now.
    let outage_ns = 10_000_000;
    let now = sys.now_ns();
    sys.set_fault_plan(publisher, sink, simnet::FaultPlan::new(42).partition(now, now + outage_ns));

    // -- During the outage: both tiers publish into a dead link. ----------
    for n in 0..COMMANDS {
        sys.publish(publisher, control, &command_fmt, &command(n as i64))?;
    }
    for n in 0..SAMPLES_DURING_OUTAGE {
        sys.publish(publisher, telemetry, &sample_fmt, &sample(n as i64))?;
    }
    let queued = sys.pending_retries();
    println!(
        "outage: {COMMANDS} fragmented commands queued for retry ({queued} frames), \
         {SAMPLES_DURING_OUTAGE} telemetry samples dropped on the floor"
    );
    assert!(queued > 0, "reliable frames must wait out the outage in the retry queue");

    // -- Heal and drain: retries wait out their backoff past the window. --
    sys.run();
    for n in 0..SAMPLES_AFTER_HEAL {
        let seq = (SAMPLES_DURING_OUTAGE + n) as i64;
        sys.publish(publisher, telemetry, &sample_fmt, &sample(seq))?;
    }
    sys.run();

    // -- The per-tier books. ----------------------------------------------
    let snap = sys.registry().snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    println!("\nper-tier accounting (same link, same fault plan):");
    for tier in ["reliable", "unordered"] {
        let sent = counter(&format!("echo.channel.{tier}.sent"));
        let delivered = counter(&format!("echo.channel.{tier}.delivered"));
        let dropped = counter(&format!("echo.channel.{tier}.dropped"));
        println!("  {tier:9} sent={sent:2}  delivered={delivered:2}  dropped={dropped:2}");
        assert_eq!(delivered + dropped, sent, "{tier}: every message accounted for");
    }
    println!(
        "fragmentation: {} fragments sent, {} messages reassembled, {} retry attempts",
        counter("echo.frag.sent"),
        counter("echo.frag.reassembled"),
        counter("echo.retry.attempts"),
    );

    // Reliable: every command crossed the outage intact, in order.
    assert_eq!(counter("echo.channel.reliable.delivered"), COMMANDS);
    assert_eq!(counter("echo.channel.reliable.dropped"), 0);
    assert_eq!(counter("echo.frag.reassembled"), COMMANDS);
    assert!(sys.dead_letters(sink).is_empty(), "nothing dead-lettered");
    assert_eq!(sys.reassembly_depth(sink), 0, "no partial sets left behind");

    // Unordered: the outage losses are owned, the post-heal samples land.
    assert_eq!(counter("echo.channel.unordered.dropped"), SAMPLES_DURING_OUTAGE);
    assert_eq!(counter("echo.channel.unordered.delivered"), SAMPLES_AFTER_HEAL);

    let events = sys.take_events(sink);
    let commands =
        events.iter().filter(|(ch, _)| *ch == control).map(|(_, v)| v.clone()).collect::<Vec<_>>();
    assert_eq!(commands.len() as u64, COMMANDS);
    for (n, v) in commands.iter().enumerate() {
        assert_eq!(*v, command(n as i64), "command {n} must arrive byte-exact and in order");
    }
    let samples = events.iter().filter(|(ch, _)| *ch == telemetry).count();
    assert_eq!(samples as u64, SAMPLES_AFTER_HEAL);
    println!(
        "\nsink saw all {} commands in order and the {} post-heal samples",
        commands.len(),
        samples
    );
    Ok(())
}
