//! Offline benchmark of the message-morphing system: publish → handler
//! throughput and latency on three seeded workloads, plus a traced run
//! that breaks the delivery path down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fanout_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Every workload is a closed loop with one client: publish a batch (one
//! event), run the system to quiescence, check every sink's delivery
//! against a reference computed outside the system, repeat. The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the gated end-to-end metrics (CPU time stated
//! at a reference machine speed, bytes, memory) with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Wall-clock throughput and latency,
//! and the raw CPU times, are printed and recorded beside them. Each run
//! also appends a full record, with its machine context, to
//! `perfbench/out/records.jsonl`; traced runs write their spans to
//! `perfbench/out/spans-<workload>.jsonl`.
//! See `perfbench/NOTES.md` for the workloads and metric definitions.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads /proc and the CPU clock of 64-bit Linux");

mod calib;
mod layers;
mod machine;
mod rng;
mod spans;
mod stats;
mod workload;

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::layers::Replayer;
use crate::spans::Spans;
use crate::stats::{chunked_median, median, quantile};
use crate::workload::{Bed, Event, Inputs, Kind};

/// Output directory, relative to the checkout root.
const OUT_DIR: &str = "perfbench/out";

/// Busy time of one block of the traced run, which alternates untraced and
/// traced blocks so both sides see the same machine conditions.
const TRACE_BLOCK: Duration = Duration::from_millis(100);

/// Share of `--seconds` the traced run spends on end-to-end blocks; the
/// rest is the layer replay's budget.
const TRACE_E2E_SHARE: f64 = 0.75;

/// Cap on replayed messages, which keeps format_churn's span file (its
/// messages replay fastest) to tens of MB.
const REPLAY_MAX_MESSAGES: usize = 4096;

/// Time between two measurements of the reference kernel in the
/// end-to-end run (about 1.5 ms each).
const CALIB_EVERY: Duration = Duration::from_millis(100);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value:?}; expected one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Correctness and traffic totals over every system a run built.
#[derive(Default)]
struct Tally {
    events: u64,
    expected: u64,
    correct: u64,
    dropped: u64,
    wire_bytes: u64,
    system_spans: u64,
    morph_messages: u64,
    morph_hits: u64,
    compiles: u64,
    sinks_built: u64,
}

/// One batch as measured.
struct Batch {
    latency: Duration,
    /// Process CPU time over the batch, every thread's.
    cpu: Duration,
    deliveries: usize,
    cold: bool,
    /// Duration of the `run` call (traced batches only).
    run: Duration,
}

/// The run's state: inputs, the live system, and everything measured.
struct Run {
    inputs: Inputs,
    bed: Option<Bed>,
    /// Events the live system has carried, its warm-up included.
    bed_events: usize,
    tally: Tally,
    /// Per set-up: wall and CPU seconds.
    setup_s: Vec<f64>,
    setup_cpu_s: Vec<f64>,
    /// Per cold batch (set-up warm-ups included): wall and CPU µs.
    cold_us: Vec<f64>,
    cold_cpu_us: Vec<f64>,
    /// Per batch: wall µs.
    lat_us: Vec<f64>,
}

impl Run {
    /// Builds a fresh system and publishes its warm-up event: set-up time
    /// covers construction, provisioning, meta-data distribution and the
    /// warm-up, which is also a cold batch.
    fn setup(&mut self) -> Result<(), String> {
        if let Some(old) = self.bed.take() {
            self.retire(old);
        }
        self.inputs.restart();
        let ev = self.inputs.next_event()?;
        let (c0, t0) = (machine::process_cpu_ns(), Instant::now());
        let mut bed = Bed::setup(&self.inputs).map_err(|e| format!("set-up: {e}"))?;
        let (c1, t1) = (machine::process_cpu_ns(), Instant::now());
        bed.publish(&ev).map_err(|e| format!("warm-up publish: {e}"))?;
        bed.run();
        let (t2, c2) = (Instant::now(), machine::process_cpu_ns());
        self.setup_s.push((t2 - t0).as_secs_f64());
        self.setup_cpu_s.push((c2 - c0) as f64 / 1e9);
        self.cold_us.push((t2 - t1).as_secs_f64() * 1e6);
        self.cold_cpu_us.push((c2 - c1) as f64 / 1e3);
        self.tally.sinks_built += bed.sinks.len() as u64;
        self.account(&mut bed, &ev);
        self.bed = Some(bed);
        self.bed_events = 1;
        Ok(())
    }

    /// Folds a system's totals into the tally before it is dropped.
    fn retire(&mut self, bed: Bed) {
        let t = &mut self.tally;
        t.dropped += bed.dropped();
        t.wire_bytes += bed.sys.total_bytes();
        t.system_spans += bed.recorded_spans();
        let (m, h, c) = bed.morph_totals();
        t.morph_messages += m;
        t.morph_hits += h;
        t.compiles += c;
    }

    fn finish(&mut self) {
        if let Some(bed) = self.bed.take() {
            self.retire(bed);
        }
    }

    /// Checks one published event at every sink (outside any timed span).
    fn account(&mut self, bed: &mut Bed, ev: &Event) {
        self.tally.events += 1;
        self.tally.expected += bed.sinks.len() as u64;
        self.tally.correct += bed.check(&ev.expect) as u64;
    }

    /// Publishes one event and runs to quiescence; `None` once the live
    /// system has reached the end of its lifetime and a fresh one is due.
    fn batch(&mut self, trace: Option<(&mut Spans, u64)>) -> Result<Option<Batch>, String> {
        if self.bed_events >= self.inputs.kind.lifetime() {
            return Ok(None);
        }
        let ev = self.inputs.next_event()?;
        self.bed_events += 1;
        let bed = self.bed.as_mut().ok_or("no system set up")?;
        let c0 = machine::process_cpu_ns();
        let (latency, deliveries, run) = match trace {
            None => {
                let t0 = Instant::now();
                bed.publish(&ev).map_err(|e| format!("publish: {e}"))?;
                let n = bed.run();
                (t0.elapsed(), n, Duration::ZERO)
            }
            Some((spans, req)) => {
                let root = spans.begin("batch", None, req);
                let p = spans.begin("echo.publish", Some(root), req);
                let published = bed.publish(&ev);
                spans.end(p);
                published.map_err(|e| format!("publish: {e}"))?;
                let r = spans.begin("echo.run", Some(root), req);
                let n = bed.run();
                spans.end(r);
                spans.end(root);
                let ns = |s| Duration::from_nanos(spans.get(s).dur_ns());
                (ns(root), n, ns(r))
            }
        };
        let cpu = Duration::from_nanos(machine::process_cpu_ns() - c0);
        let mut bed = self.bed.take().expect("checked above");
        self.account(&mut bed, &ev);
        self.bed = Some(bed);
        if ev.cold {
            self.cold_us.push(latency.as_secs_f64() * 1e6);
            self.cold_cpu_us.push(cpu.as_secs_f64() * 1e6);
        }
        self.lat_us.push(latency.as_secs_f64() * 1e6);
        Ok(Some(Batch { latency, cpu, deliveries, cold: ev.cold, run }))
    }
}

/// A named metric value with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Deliveries, the busy time (publish to quiescence) they took, and the
/// CPU time spent in it.
#[derive(Default)]
struct Busy {
    time: Duration,
    cpu: Duration,
    deliveries: usize,
}

impl Busy {
    fn add(&mut self, b: &Batch) {
        self.time += b.latency;
        self.cpu += b.cpu;
        self.deliveries += b.deliveries;
    }

    fn rate(&self) -> f64 {
        self.deliveries as f64 / self.time.as_secs_f64()
    }
}

fn end_to_end(
    run: &mut Run,
    seconds: f64,
    reported: &mut Vec<Metric>,
    extra: &mut Vec<(String, String)>,
) -> Result<Vec<Metric>, String> {
    let kernel = calib::Kernel::new();
    let mut kernel_ns: Vec<f64> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut next_calib = Instant::now();
    let mut busy = Busy::default();
    while Instant::now() < deadline {
        if Instant::now() >= next_calib {
            kernel_ns.push(kernel.measure() as f64);
            next_calib = Instant::now() + CALIB_EVERY;
        }
        match run.batch(None)? {
            Some(b) => busy.add(&b),
            None => run.setup()?,
        }
    }
    run.finish();
    let t = &run.tally;
    // CPU-time figures at the reference speed: the machine's speed drifts
    // between runs, and every CPU-time figure of a run with it (calib.rs).
    let kernel_med = chunked_median(&kernel_ns);
    let speed = calib::REFERENCE_NS / kernel_med;
    let cpu_us_per_delivery = busy.cpu.as_secs_f64() * 1e6 / busy.deliveries as f64;
    let cold_cpu_us = chunked_median(&run.cold_cpu_us);
    let setup_cpu_s = chunked_median(&run.setup_cpu_s);
    // Wall-clock figures are reported, not gated: on a shared VM they
    // track hypervisor steal (NOTES.md, "Noise"). Nor are the raw CPU
    // figures, which drift with the machine's speed.
    reported.extend([
        m("deliveries_per_s", busy.rate(), "1/s"),
        m("latency_p50_us", chunked_median(&run.lat_us), "us"),
        m("latency_p99_us", quantile(&run.lat_us, 0.99), "us"),
        m("cold_latency_p50_us", chunked_median(&run.cold_us), "us"),
        m("setup_wall_s", chunked_median(&run.setup_s), "s"),
        m("cpu_us_per_delivery", cpu_us_per_delivery, "us"),
        m("cold_cpu_us", cold_cpu_us, "us"),
        m("setup_cpu_s", setup_cpu_s, "s"),
        m("kernel_ns", kernel_med, "ns"),
    ]);
    extra.push(("batches".into(), run.lat_us.len().to_string()));
    extra.push(("p99_supported".into(), stats::p99_supported(run.lat_us.len()).to_string()));
    extra.push(("cold_batches".into(), run.cold_us.len().to_string()));
    extra.push(("setups".into(), run.setup_s.len().to_string()));
    extra.push(("kernel_samples".into(), kernel_ns.len().to_string()));
    Ok(vec![
        m("norm_cpu_us_per_delivery", speed * cpu_us_per_delivery, "us"),
        m("norm_cold_cpu_us", speed * cold_cpu_us, "us"),
        m("wire_bytes_per_event", t.wire_bytes as f64 / t.events as f64, "B"),
        m("setup_s", speed * setup_cpu_s, "s"),
        m("peak_rss_mb", machine::peak_rss_mb().unwrap_or(f64::NAN), "MB"),
    ])
}

/// Sums over the traced blocks of the end-to-end phase, beyond their
/// deliveries and busy time.
#[derive(Default)]
struct TracedSums {
    events: u64,
    cold_deliveries: u64,
    /// Time inside `run` calls; the rest of the busy time is `publish`.
    run: Duration,
    /// The program's own `echo.stage.*` sums over all sinks.
    stage_unframe_deliver_ns: u64,
    stage_decode_ns: u64,
}

fn traced(
    run: &mut Run,
    seconds: f64,
    spans: &mut Spans,
    extra: &mut Vec<(String, String)>,
) -> Result<Vec<Metric>, String> {
    let kind = run.inputs.kind;
    let e2e_deadline = Instant::now() + Duration::from_secs_f64(seconds * TRACE_E2E_SHARE);
    let mut untraced = Busy::default();
    let mut traced = Busy::default();
    let mut sums = TracedSums::default();
    let mut req = 0u64;
    let mut block = 0u64;
    while Instant::now() < e2e_deadline {
        let is_traced = block % 2 == 1;
        block += 1;
        let stage_sums = |bed: &Bed| {
            (bed.stage_sum_ns("unframe") + bed.stage_sum_ns("deliver"), bed.stage_sum_ns("decode"))
        };
        let before = is_traced.then(|| run.bed.as_ref().map(stage_sums)).flatten();
        let mut block_busy = Duration::ZERO;
        let mut exhausted = false;
        while block_busy < TRACE_BLOCK {
            let b = if is_traced {
                req += 1;
                run.batch(Some((spans, req)))?
            } else {
                run.batch(None)?
            };
            let Some(b) = b else {
                exhausted = true;
                break;
            };
            block_busy += b.latency;
            if is_traced {
                traced.add(&b);
                sums.events += 1;
                if b.cold {
                    sums.cold_deliveries += b.deliveries as u64;
                }
                sums.run += b.run;
            } else {
                untraced.add(&b);
            }
        }
        if let (Some((ud0, d0)), Some(bed)) = (before, run.bed.as_ref()) {
            let (ud1, d1) = stage_sums(bed);
            sums.stage_unframe_deliver_ns += ud1 - ud0;
            sums.stage_decode_ns += d1 - d0;
        }
        if exhausted {
            run.setup()?;
        }
    }
    run.finish();

    // The layer replay, on the same seed's inputs, with fresh receivers
    // wherever the end-to-end phase had a fresh system.
    let mut replayer = Replayer::new(&run.inputs);
    let replay_deadline =
        Instant::now() + Duration::from_secs_f64(seconds * (1.0 - TRACE_E2E_SHARE));
    let mut index = 0usize;
    while Instant::now() < replay_deadline && index < REPLAY_MAX_MESSAGES {
        if index.is_multiple_of(kind.lifetime()) {
            run.inputs.restart();
            replayer.reset();
        }
        let ev = run.inputs.next_event()?;
        req += 1;
        replayer.replay(spans, &ev, req, index)?;
        index += 1;
    }
    if index == 0 {
        return Err("the layer replay ran no message".into());
    }

    let med = |name: &str| median(&spans.per_call(name));
    let d = kind.sinks() as f64;
    let enc = med("pbio.encode");
    let frm = med("echo.frame");
    let send = med("simnet.send") / d;
    let step = med("simnet.step") / d;
    let unf = med("echo.unframe");
    let process = med("morph.process");
    let dec = med("pbio.decode");
    let vm = med("ecode.vm");
    let cold = med("morph.cold");
    let compile = med("ecode.compile");
    let warm_self = process - dec - vm;
    let deliveries = traced.deliveries.max(1) as f64;
    let publish = (traced.time - sums.run).as_nanos() as f64 / sums.events.max(1) as f64;
    let runtime = (sums.run.as_nanos() as f64 - sums.stage_unframe_deliver_ns as f64) / deliveries;
    let wall = traced.time.as_nanos() as f64 / deliveries;
    let cold_share = sums.cold_deliveries as f64 / deliveries;
    // The lifecycle of one delivery, each layer's self time once.
    let parts = [
        ("pbio.encode", enc / d),
        ("echo.frame", frm / d),
        ("echo.publish(self)", publish / d - enc / d - frm / d - send),
        ("simnet.hop", send + step),
        ("echo.unframe", unf),
        ("pbio.decode", (1.0 - cold_share) * dec),
        ("ecode.vm", (1.0 - cold_share) * vm),
        ("morph.warm(self)", (1.0 - cold_share) * warm_self),
        ("morph.cold", cold_share * cold),
        ("echo.runtime(self)", runtime - step),
    ];
    let attributed: f64 = parts.iter().map(|(_, v)| v).sum();
    let unattributed = 1.0 - attributed / wall;
    for (name, v) in &parts {
        extra.push((format!("share.{name}"), format!("{:.4}", v / wall)));
    }
    extra.push(("traced_wall_ns_per_delivery".into(), format!("{wall:.1}")));
    extra.push(("replayed_messages".into(), index.to_string()));
    extra.push(("blocks".into(), block.to_string()));
    extra.push((
        "echo.stage_decode_ns".into(),
        format!("{}", sums.stage_decode_ns as f64 / deliveries),
    ));
    if unattributed.abs() > 0.10 {
        // The replayed receiver-side calls do not account for the program's
        // own echo.stage.{unframe,deliver} probes: name the gap.
        let stage = sums.stage_unframe_deliver_ns as f64 / deliveries;
        let replayed = unf + (1.0 - cold_share) * process + cold_share * cold;
        let gap = if stage < replayed {
            "replayed echo.unframe + morph.process exceed the program's echo.stage probes"
        } else if run.tally.system_spans > 0 {
            "obs span recording inside echo.stage.deliver (MorphReceiver::process_traced), \
             which the untraced replay does not run"
        } else if kind == Kind::FanoutSmall {
            "inside echo.stage.{unframe,deliver} but outside the replayed echo.unframe + \
             morph.process: stage-probe bookkeeping, per-sink state fetched cold, and \
             contention between the shard workers whose thread time the probes sum"
        } else {
            "inside echo.stage.{unframe,deliver} but outside the replayed echo.unframe + \
             morph.process: stage-probe bookkeeping and per-sink state fetched cold"
        };
        extra.push(("unattributed_gap".into(), gap.into()));
        extra.push(("stage_ns_per_delivery".into(), format!("{stage:.1}")));
        extra.push(("replayed_receiver_ns_per_delivery".into(), format!("{replayed:.1}")));
    }
    let t = &run.tally;
    let r = &replayer.totals;
    Ok(vec![
        m("pbio.encode_ns", enc, "ns"),
        m("pbio.decode_ns", dec, "ns"),
        m("pbio.payload_bytes", r.payload_bytes as f64 / r.messages as f64, "B"),
        m("ecode.vm_ns", vm, "ns"),
        m("ecode.batch_elems", r.batch_elems as f64 / r.vm_runs as f64, "count"),
        m("ecode.compile_ns", compile, "ns"),
        m("morph.warm_self_ns", warm_self, "ns"),
        m("morph.cold_ns", cold, "ns"),
        m("morph.hit_ratio", t.morph_hits as f64 / t.morph_messages.max(1) as f64, "ratio"),
        m("morph.compiles", t.compiles as f64 / t.sinks_built.max(1) as f64, "count"),
        m("simnet.hop_ns", send + step, "ns"),
        m("echo.publish_ns", publish, "ns"),
        m("echo.frame_ns", frm, "ns"),
        m("echo.unframe_ns", unf, "ns"),
        m("echo.runtime_ns", runtime, "ns"),
        m("echo.dropped", t.dropped as f64, "count"),
        m("obs.spans_per_event", t.system_spans as f64 / t.events.max(1) as f64, "count"),
        m("trace_overhead", traced.rate() / untraced.rate(), "ratio"),
        m("unattributed_share", unattributed, "ratio"),
    ])
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(x.name),
                x.value,
                json_str(x.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let kind = args.kind;
    let load_start = machine::loadavg();
    let cpu_start = machine::cpu_times();
    let started = Instant::now();

    let inputs = Inputs::generate(kind, args.seed)?;
    let mut run = Run {
        inputs,
        bed: None,
        bed_events: 0,
        tally: Tally::default(),
        setup_s: Vec::new(),
        setup_cpu_s: Vec::new(),
        cold_us: Vec::new(),
        cold_cpu_us: Vec::new(),
        lat_us: Vec::new(),
    };
    run.setup()?;
    // `metrics` are the ones BENCHMARK.json lists; `reported` are printed
    // and recorded beside them.
    let mut reported: Vec<Metric> = Vec::new();
    let mut extra: Vec<(String, String)> = Vec::new();
    let mut spans = Spans::new();
    let metrics = if args.trace {
        traced(&mut run, args.seconds, &mut spans, &mut extra)?
    } else {
        end_to_end(&mut run, args.seconds, &mut reported, &mut extra)?
    };

    let t = &run.tally;
    let failed = t.expected - t.correct + t.dropped;
    reported.push(m("failed_ratio", (t.expected - t.correct) as f64 / t.expected as f64, "ratio"));
    let bad_metric = metrics.iter().find(|x| !x.value.is_finite()).map(|x| x.name);
    let correct = failed == 0 && bad_metric.is_none();
    if let Some(name) = bad_metric {
        eprintln!("perfbench: metric {name} is not a finite number");
    }

    // Human-readable summary: every metric by name with its unit.
    println!(
        "workload {} seed {} trace {} ({} s)",
        kind.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    for x in metrics.iter().chain(&reported) {
        println!("  {:<24} {:>16.4} {}", x.name, x.value, x.unit);
    }
    for (k, v) in &extra {
        println!("  {k} = {v}");
    }

    let steal = machine::steal_share(cpu_start, machine::cpu_times());
    let opt = |x: Option<f64>| x.map_or("null".to_string(), |v| format!("{v}"));
    let mut record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"correct\": {correct}, \
         \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}, \"reported\": {}, \
         \"git_rev\": {}, \"nproc\": {}, \"rustc\": {}, \"loadavg_start\": {}, \"loadavg_end\": {}, \
         \"cpu_steal_share\": {}, \"wall_s\": {}",
        json_str(kind.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        t.expected,
        metrics_json(&metrics),
        metrics_json(&reported),
        json_str(&machine::git_rev()),
        machine::nproc(),
        json_str(&machine::rustc_version()),
        opt(load_start),
        opt(machine::loadavg()),
        opt(steal),
        started.elapsed().as_secs_f64(),
    );
    for (k, v) in &extra {
        let numeric = v.parse::<f64>().is_ok_and(f64::is_finite) || v == "true" || v == "false";
        let v = if numeric { v.clone() } else { json_str(v) };
        record.push_str(&format!(", {}: {v}", json_str(k)));
    }
    record.push('}');
    if let Err(e) = write_outputs(kind, &record, args.trace.then_some(&spans)) {
        eprintln!("perfbench: could not write {OUT_DIR}: {e}");
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        t.expected,
        metrics_json(&metrics)
    );
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Appends the record and (traced runs) replaces the workload's span file.
fn write_outputs(kind: Kind, record: &str, spans: Option<&Spans>) -> std::io::Result<()> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir)?;
    let mut f =
        std::fs::OpenOptions::new().create(true).append(true).open(dir.join("records.jsonl"))?;
    writeln!(f, "{record}")?;
    if let Some(spans) = spans {
        spans.write_jsonl(&dir.join(format!("spans-{}.jsonl", kind.name())))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
