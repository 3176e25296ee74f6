//! Warm-path benchmark: staged vs fused, both on the register VM.
//!
//! Builds a wide source format carrying a 96-element telemetry array plus
//! unread string padding, morphed through a 3-step retro-transformation
//! chain (each step copies the array with the canonical per-element loop,
//! which lowers to one `BatchCopy` superinstruction) down to a narrow
//! reader — and times the warm path two ways on the same receiver code:
//!
//! * **staged** — full decode, one VM invocation per chain step, an
//!   intermediate `Value` tree between steps;
//! * **fused** — projected decode, one composed program for the whole
//!   chain, no intermediate trees.
//!
//! Also verifies the zero-copy message path: one [`WireBytes`] buffer is
//! allocated when a frame is encoded, and every hop after that shares it.
//!
//! Writes the measurements to `BENCH_9.json` and exits non-zero if fusion
//! makes the warm path slower than staged.
//!
//! Run with: `cargo run --release --example fused_bench`

use std::sync::{Arc, Mutex};
use std::time::Instant;

use message_morphing::prelude::*;
use pbio::{BasicType, Width, WireBytes};
use simnet::{LinkParams, Network};

/// Warm iterations per timed pass (the smoke-mode budget: large enough to
/// dominate timer noise, small enough for CI).
const WARM_ITERS: u32 = 2_000;

/// Timed passes per variant; the minimum is reported (standard practice
/// for shaving scheduler noise off a hot loop).
const PASSES: usize = 5;

/// How many string fields pad the wide source format. The narrow reader
/// never touches them, so the fused paths' projected decode skips their
/// allocation entirely while the staged path materializes every one.
const PAD_STRINGS: usize = 64;

/// Telemetry samples carried by every message. Each chain step copies the
/// whole array with one `BatchCopy` dispatch.
const SAMPLES: i64 = 96;

fn samples_field(b: FormatBuilder) -> FormatBuilder {
    b.int("n").var_array_basic("vals", BasicType::Int(Width::W8), "n")
}

fn wide() -> Arc<RecordFormat> {
    let mut b = FormatBuilder::record("Telemetry");
    for i in 0..PAD_STRINGS {
        b = b.string(format!("tag{i}"));
    }
    samples_field(b).long("a").long("b").long("c").build_arc().unwrap()
}

fn mid() -> Arc<RecordFormat> {
    samples_field(FormatBuilder::record("Telemetry"))
        .long("a")
        .long("b")
        .long("c")
        .build_arc()
        .unwrap()
}

fn narrow() -> Arc<RecordFormat> {
    samples_field(FormatBuilder::record("Telemetry")).long("a").long("b").build_arc().unwrap()
}

fn reader() -> Arc<RecordFormat> {
    samples_field(FormatBuilder::record("Telemetry")).long("a").build_arc().unwrap()
}

/// The per-element array copy every step performs — the pattern the
/// register lowering collapses into one `BatchCopy`.
const COPY_LOOP: &str =
    "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";

fn chain() -> Vec<Transformation> {
    vec![
        Transformation::new(
            wide(),
            mid(),
            format!("{COPY_LOOP} old.a = new.a; old.b = new.b; old.c = new.c;"),
        ),
        Transformation::new(
            mid(),
            narrow(),
            format!("{COPY_LOOP} old.a = new.a + new.c; old.b = new.b;"),
        ),
        Transformation::new(narrow(), reader(), format!("{COPY_LOOP} old.a = new.a + new.b;")),
    ]
}

fn receiver(fusion: bool) -> (Arc<Mutex<u64>>, MorphReceiver) {
    let delivered = Arc::new(Mutex::new(0u64));
    let n = Arc::clone(&delivered);
    let mut rx = MorphReceiver::new();
    rx.set_fusion(fusion);
    rx.register_handler(&reader(), move |_| *n.lock().unwrap() += 1);
    for t in chain() {
        rx.import_transformation(t);
    }
    (delivered, rx)
}

fn wide_message() -> Vec<u8> {
    let mut fields: Vec<Value> =
        (0..PAD_STRINGS).map(|i| Value::str(format!("pad-{i:04}"))).collect();
    fields.push(Value::Int(SAMPLES));
    fields.push(Value::Array((0..SAMPLES).map(|k| Value::Int(k * 7 + 1)).collect()));
    fields.extend([Value::Int(40), Value::Int(2), Value::Int(100)]);
    Encoder::new(&wide()).encode(&Value::Record(fields)).unwrap()
}

/// Minimum over `PASSES` timed passes of `WARM_ITERS` warm applies.
fn time_warm(rx: &mut MorphReceiver, msg: &[u8]) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..PASSES {
        let t = Instant::now();
        for _ in 0..WARM_ITERS {
            rx.process(msg).unwrap();
        }
        best = best.min(t.elapsed().as_nanos() as u64 / u64::from(WARM_ITERS));
    }
    best
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let msg = wide_message();

    // -- Cold: the first message pays Algorithm 2 in full. ----------------
    let (_, mut rx_cold) = receiver(true);
    let t = Instant::now();
    rx_cold.process(&msg)?;
    let cold_ns = t.elapsed().as_nanos() as u64;

    // -- Warm, two ways: same workload, same receiver code. ---------------
    let (n_staged, mut rx_staged) = receiver(false);
    let (n_fused, mut rx_fused) = receiver(true);
    rx_staged.process(&msg)?; // decide + cache
    rx_fused.process(&msg)?;
    let warm_staged_ns = time_warm(&mut rx_staged, &msg);
    let warm_fused_ns = time_warm(&mut rx_fused, &msg);
    let fused_speedup = warm_staged_ns as f64 / warm_fused_ns.max(1) as f64;
    let total = u64::from(WARM_ITERS) * PASSES as u64 + 1;
    assert_eq!(*n_staged.lock().unwrap(), total);
    assert_eq!(*n_fused.lock().unwrap(), total);

    // Each receiver really took the path it claims: every warm apply on the
    // fused receiver is one fused pass that ran its three copy loops as
    // batch superinstructions; the staged receiver never fused.
    let warm = total - 1;
    let snap = rx_fused.registry().snapshot();
    assert_eq!(snap.counter("morph.fused.apply"), Some(warm));
    assert_eq!(snap.counter("morph.fused.intermediates"), Some(0));
    assert_eq!(snap.counter("ecode.batch.copies"), Some(3 * warm));
    assert_eq!(snap.counter("ecode.batch.copied_elems"), Some(3 * warm * SAMPLES as u64));
    assert_eq!(rx_staged.registry().snapshot().counter("morph.fused.apply"), Some(0));

    // -- Bytes copied per hop: the zero-copy path, measured. --------------
    let frame = WireBytes::from(msg.clone());
    let bytes_before = frame.len() as u64;
    let mut net = Network::new();
    let (a, b) = (net.add_node("pub"), net.add_node("sub"));
    net.connect(a, b, LinkParams::lan());
    net.send(a, b, frame.clone())?;
    net.step();
    let delivered = net.recv(b).expect("delivered");
    assert!(
        delivered.payload.same_buffer(&frame),
        "the wire must deliver a view of the sender's buffer, not a copy"
    );
    let bytes_after = 0u64;

    let json = format!(
        "{{\n  \"workload\": \"3-step chain, {SAMPLES}-long array copy per step, {PAD_STRINGS} unread strings\",\n  \
         \"cold_ns\": {cold_ns},\n  \"warm_staged_ns\": {warm_staged_ns},\n  \
         \"warm_fused_ns\": {warm_fused_ns},\n  \
         \"fused_speedup_vs_staged\": {fused_speedup:.2},\n  \
         \"bytes_copied_per_hop_before\": {bytes_before},\n  \
         \"bytes_copied_per_hop_after\": {bytes_after}\n}}\n"
    );
    std::fs::write("BENCH_9.json", &json)?;
    println!("{json}");

    // The gate: fusion must never make the warm path slower.
    assert!(
        warm_fused_ns <= warm_staged_ns,
        "fused warm path ({warm_fused_ns} ns) slower than staged ({warm_staged_ns} ns)"
    );
    Ok(())
}
