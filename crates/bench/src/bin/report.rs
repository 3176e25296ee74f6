//! Regenerates the paper's evaluation tables and figures as text reports.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin report            # everything
//! cargo run --release -p bench --bin report -- fig8    # one experiment
//! cargo run --release -p bench --bin report -- table1 fig10
//! ```
//!
//! Experiments: `fig8`, `fig9`, `fig10`, `table1`, `fig_b2b`, `latency`,
//! `stats`, `trace`, `vm`.

use std::time::Duration;

use bench::measure::{fmt_kb, fmt_ms, time_ns};
use bench::workload::{self, members_for_size, size_label, SWEEP};
use bench::Pipelines;

const MIN_TIME: Duration = Duration::from_millis(150);
const MIN_RUNS: usize = 5;

fn header(title: &str, paper: &str) {
    println!("\n==============================================================");
    println!("{title}");
    println!("  (paper: {paper})");
    println!("==============================================================");
}

/// Figure 8: encoding cost, PBIO vs XML, over the size sweep.
fn fig8(p: &Pipelines) {
    header(
        "Figure 8 — Encoding cost (ms, lower is better)",
        "XML encoding is at least 2x PBIO at every size",
    );
    println!("{:>8} {:>12} {:>12} {:>8}", "size", "PBIO (ms)", "XML (ms)", "ratio");
    for target in SWEEP {
        let n = members_for_size(target);
        let msg = workload::v2_message(n);
        let pbio_ns = time_ns(
            || {
                std::hint::black_box(p.encode_pbio(&msg));
            },
            MIN_TIME,
            MIN_RUNS,
        );
        let xml_ns = time_ns(
            || {
                std::hint::black_box(p.encode_xml(&msg));
            },
            MIN_TIME,
            MIN_RUNS,
        );
        println!(
            "{:>8} {:>12} {:>12} {:>7.1}x",
            size_label(target),
            fmt_ms(pbio_ns),
            fmt_ms(xml_ns),
            xml_ns / pbio_ns
        );
    }
}

/// Figure 9: decoding cost without evolution.
fn fig9(p: &Pipelines) {
    header(
        "Figure 9 — Decoding cost, no evolution (ms, lower is better)",
        "PBIO is much less expensive than XML for parsing encoded messages",
    );
    println!("{:>8} {:>12} {:>12} {:>8}", "size", "PBIO (ms)", "XML (ms)", "ratio");
    for target in SWEEP {
        let n = members_for_size(target);
        let msg = workload::v2_message(n);
        let wire = p.encode_pbio(&msg);
        let xml = p.encode_xml(&msg);
        let pbio_ns = time_ns(
            || {
                std::hint::black_box(p.decode_pbio(&wire));
            },
            MIN_TIME,
            MIN_RUNS,
        );
        let xml_ns = time_ns(
            || {
                std::hint::black_box(p.decode_xml(&xml));
            },
            MIN_TIME,
            MIN_RUNS,
        );
        println!(
            "{:>8} {:>12} {:>12} {:>7.1}x",
            size_label(target),
            fmt_ms(pbio_ns),
            fmt_ms(xml_ns),
            xml_ns / pbio_ns
        );
    }
}

/// Figure 10: decoding cost with evolution (morphing vs XSLT).
fn fig10(p: &Pipelines) {
    header(
        "Figure 10 — Decoding cost with message evolution (ms)",
        "XML/XSLT takes an order of magnitude longer than PBIO morphing",
    );
    println!("{:>8} {:>16} {:>16} {:>8}", "size", "PBIO morph (ms)", "XML/XSLT (ms)", "ratio");
    for target in SWEEP {
        let n = members_for_size(target);
        let msg = workload::v2_message(n);
        let wire = p.encode_pbio(&msg);
        let xml = p.encode_xml(&msg);
        let pbio_ns = time_ns(
            || {
                std::hint::black_box(p.morph_pbio(&wire));
            },
            MIN_TIME,
            MIN_RUNS,
        );
        let xml_ns = time_ns(
            || {
                std::hint::black_box(p.morph_xml(&xml));
            },
            MIN_TIME,
            MIN_RUNS,
        );
        println!(
            "{:>8} {:>16} {:>16} {:>7.1}x",
            size_label(target),
            fmt_ms(pbio_ns),
            fmt_ms(xml_ns),
            xml_ns / pbio_ns
        );
    }
}

/// Table 1: ChannelOpenResponse message sizes in different formats.
fn table1(p: &Pipelines) {
    header(
        "Table 1 — ChannelOpenResponse message size (KB) in different formats",
        "PBIO adds <30 bytes; v1 rollback ~3x; XML v2 ~6x; XML v1 ~12x",
    );
    // The paper's text sweeps "from 100 bytes to 10MB"; its table prints
    // the 0.1–1000 KB columns. We print all six.
    let targets = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];
    println!(
        "{:>16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "0.1KB", "1KB", "10KB", "100KB", "1000KB", "10MB"
    );
    let rows: Vec<_> = targets.iter().map(|&t| p.table1_row(members_for_size(t))).collect();
    let print_row = |name: &str, f: &dyn Fn(&bench::Table1Row) -> usize| {
        print!("{name:>16}");
        for r in &rows {
            print!(" {:>10}", fmt_kb(f(r)));
        }
        println!();
    };
    print_row("Unencoded v2.0", &|r| r.unencoded_v2);
    print_row("PBIO v2.0", &|r| r.pbio_v2);
    print_row("Unencoded v1.0", &|r| r.unencoded_v1);
    print_row("XML v2.0", &|r| r.xml_v2);
    print_row("XML v1.0", &|r| r.xml_v1);
    println!(
        "\nPBIO overhead at every size: {} bytes (header only)",
        rows[0].pbio_v2 as i64 - rows[0].unencoded_v2 as i64
    );
}

/// The §4.2 broker-CPU comparison (B2B messaging architectures).
fn fig_b2b(p: &Pipelines) {
    header(
        "B2B broker CPU per message (ms) — §4.2 architectures",
        "morphing moves conversion off the broker entirely",
    );
    let n = members_for_size(10_000);
    let msg = workload::v2_message(n);
    let xml = p.encode_xml(&msg);
    let wire = p.encode_pbio(&msg);
    // XSLT-at-broker: parse + transform + serialize, at the broker.
    let broker_xslt_ns = time_ns(
        || {
            let doc = xmlt::parse(&xml).expect("well-formed");
            let out = p.stylesheet.transform(&doc).expect("applies");
            std::hint::black_box(xmlt::write::to_string(&out));
        },
        MIN_TIME,
        MIN_RUNS,
    );
    // Morphing: the broker forwards bytes; its CPU cost is a copy.
    let broker_fwd_ns = time_ns(
        || {
            std::hint::black_box(wire.clone());
        },
        MIN_TIME,
        MIN_RUNS,
    );
    // ... and the receiver pays the (cached, compiled) conversion.
    let receiver_ns = time_ns(
        || {
            std::hint::black_box(p.morph_pbio(&wire));
        },
        MIN_TIME,
        MIN_RUNS,
    );
    println!("  10KB order messages:");
    println!("    broker, XSLT-at-broker:   {} ms/msg", fmt_ms(broker_xslt_ns));
    println!("    broker, morphing:         {} ms/msg (pure forwarding)", fmt_ms(broker_fwd_ns));
    println!("    receiver, morphing:       {} ms/msg", fmt_ms(receiver_ns));
    println!("    broker relief:            {:.0}x", broker_xslt_ns / broker_fwd_ns.max(1.0));
}

/// Delivery latency over constrained links (simnet): the paper's motivation
/// for compact formats — "heterogeneity or dynamic changes in hardware
/// resources (e.g., low bandwidths of newly employed wireless links)".
fn fig_latency(p: &Pipelines) {
    header(
        "Wire latency of one 100KB response over simulated links (ms)",
        "format size directly buys delivery latency on slow links — §1's motivation",
    );
    let n = members_for_size(100_000);
    let msg = workload::v2_message(n);
    let v1_val = p.fig5.apply(&msg).expect("Fig. 5 runs");
    let encodings: [(&str, usize); 3] = [
        ("PBIO v2.0", p.encode_pbio(&msg).len()),
        ("PBIO v1.0", pbio::Encoder::new(&p.v1).encode(&v1_val).expect("conforms").len()),
        ("XML v1.0", xmlt::value_to_xml(&v1_val, &p.v1).len()),
    ];
    let links = [
        ("LAN", simnet::LinkParams::lan()),
        ("WAN", simnet::LinkParams::wan()),
        ("wireless", simnet::LinkParams::wireless()),
    ];
    print!("{:>12}", "");
    for (lname, _) in &links {
        print!(" {lname:>12}");
    }
    println!();
    for (ename, size) in encodings {
        print!("{ename:>12}");
        for (_, params) in &links {
            let mut net = simnet::Network::new();
            let a = net.add_node("sender");
            let b = net.add_node("receiver");
            net.connect(a, b, *params);
            let at = net.send(a, b, vec![0u8; size]).expect("connected");
            print!(" {:>12}", fmt_ms(at as f64));
        }
        println!("  ({size} bytes)");
    }
    println!("\nthe v2.0 redesign (enabled by morphing-based interop) more than halves");
    println!("delivery latency on the wireless link; XML costs another ~3x on top.");
}

/// The observability registry after a cold + warm morphing run: the
/// concrete numbers behind Algorithm 2's amortization, using the metric
/// names catalogued in `OBSERVABILITY.md`.
fn stats() {
    header(
        "Observability — cold vs warm morphing breakdown (report -- stats)",
        "Algorithm 2 lines 6-9: one decision-cache miss, then cache hits only",
    );
    const WARM: usize = 1_000;
    let v2 = workload::response_v2();
    let v1 = workload::response_v1();
    let mut rx = morph::MorphReceiver::new();
    rx.register_handler(&v1, |_| {});
    rx.import_transformation(workload::fig5_transformation());
    // The paper's 0.1KB ChannelOpenResponse: small enough that the
    // per-message transform is cheap and the cold decision dominates.
    let wire = pbio::Encoder::new(&v2)
        .encode(&workload::v2_message(members_for_size(100)))
        .expect("workload conforms");
    for _ in 0..=WARM {
        rx.process(&wire).expect("Fig. 5 morphs");
    }

    let snap = rx.registry().snapshot();
    print!("{}", snap.to_text());
    println!("\n  latency quantiles (ns):");
    println!("  {:<28} {:>8} {:>10} {:>10} {:>10}", "histogram", "count", "p50", "p90", "p99");
    for (name, h) in &snap.histograms {
        if h.count == 0 {
            continue;
        }
        println!(
            "  {:<28} {:>8} {:>10} {:>10} {:>10}",
            name,
            h.count,
            h.quantile(0.50),
            h.quantile(0.90),
            h.quantile(0.99)
        );
    }
    let cold = snap.histogram("morph.decide_ns").expect("cold path ran");
    let warm = snap.histogram("morph.process_ns").expect("warm path ran");
    println!(
        "\n  decision cache: {} miss, {} hits over {} identical 0.1KB messages",
        snap.counter("morph.decision.miss").unwrap_or(0),
        snap.counter("morph.decision.hit").unwrap_or(0),
        WARM + 1,
    );
    println!("  cold decide (MaxMatch + codegen + plan): {} ms", fmt_ms(cold.mean() as f64));
    println!("  warm replay (cached transform + plan):   {} ms", fmt_ms(warm.mean() as f64));
    println!(
        "  amortization: the cold path costs {:.0}x one warm replay and is paid once",
        cold.mean() as f64 / warm.mean().max(1) as f64
    );
}

/// The flight recorder over a cold + warm morphing run: Algorithm 2's
/// control flow rendered as causal span trees (`OBSERVABILITY.md` §Tracing).
fn trace() {
    header(
        "Observability — causal traces of cold vs warm morphing (report -- trace)",
        "cold trace holds MaxMatch + compile exactly once; warm traces only the cache hit",
    );
    let v1 = workload::response_v1();
    let mut rx = morph::MorphReceiver::new();
    rx.register_handler(&v1, |_| {});
    rx.import_transformation(workload::fig5_transformation());
    let recorder = std::sync::Arc::new(obs::FlightRecorder::new(
        256,
        std::sync::Arc::new(obs::MonotonicClock::new()),
    ));
    rx.registry().set_recorder(std::sync::Arc::clone(&recorder));

    let wire = pbio::Encoder::new(&workload::response_v2())
        .encode(&workload::v2_message(members_for_size(100)))
        .expect("workload conforms");
    let cold = recorder.next_trace_id();
    rx.process_traced(&wire, Some(obs::TraceCtx::root(cold))).expect("Fig. 5 morphs");
    let warm = recorder.next_trace_id();
    rx.process_traced(&wire, Some(obs::TraceCtx::root(warm))).expect("Fig. 5 morphs");

    println!("\ncold message — decision-cache miss pays the whole slow path:\n");
    print!("{}", recorder.text_tree(cold));
    println!("\nwarm message — the cached decision replays:\n");
    print!("{}", recorder.text_tree(warm));

    let span_ns = |t: obs::TraceId, name: &str| {
        recorder
            .trace_events(t)
            .iter()
            .find(|e| e.name == name)
            .map(obs::SpanEvent::duration_ns)
            .unwrap_or(0)
    };
    let decide = span_ns(cold, "morph.decide");
    let lookup = span_ns(warm, "morph.lookup");
    println!(
        "\n  one-time morph.decide span: {} ms; warm morph.lookup span: {} ms ({:.0}x)",
        fmt_ms(decide as f64),
        fmt_ms(lookup as f64),
        decide as f64 / (lookup as f64).max(1.0)
    );
    println!("  (the full distributed version of this view: cargo run --example trace_dump)");
}

/// The lowered register programs behind the warm fused path: per-step
/// listings plus the composed single-pass program (`report -- vm`).
fn vm() {
    header(
        "Register VM — lowered programs for a morph chain (report -- vm)",
        "§3.2 dynamic code generation, reproduced as a register ISA with superinstructions",
    );
    let samples = |b: pbio::FormatBuilder| {
        b.int("n").var_array_basic("vals", pbio::BasicType::Int(pbio::Width::W8), "n")
    };
    let wide = samples(pbio::FormatBuilder::record("Telemetry"))
        .long("a")
        .long("b")
        .build_arc()
        .expect("well-formed format");
    let narrow =
        samples(pbio::FormatBuilder::record("Telemetry")).long("a").build_arc().expect("well-formed format");
    let copy = "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
    let chain = [
        morph::Transformation::new(
            std::sync::Arc::clone(&wide),
            std::sync::Arc::clone(&narrow),
            format!("{copy} old.a = new.a + new.b;"),
        ),
        morph::Transformation::new(narrow, wide, format!("{copy} old.a = new.a; old.b = 0;")),
    ];
    let compiled = morph::CompiledChain::compile(&chain).expect("chain compiles");

    for (i, step) in compiled.steps().iter().enumerate() {
        let prog = step.program();
        println!(
            "\n-- step {} : {} -> {} --------------------------------------",
            i + 1,
            step.from_format().name(),
            step.to_format().name()
        );
        println!("   {} insns", prog.code().len());
        print!("{}", ecode::dump::register(prog.code()));
    }

    let fused = compiled.fuse().expect("chain fuses");
    println!("\n-- fused: one register-VM pass over the whole chain ------------");
    println!(
        "   {} insns (per-step Ret becomes a jump to the next step)",
        fused.code().len()
    );
    print!("{}", ecode::dump::register(fused.code()));
    println!("\n  (see also: cargo run --example vm_dump)");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |k: &str| all || args.iter().any(|a| a == k);

    println!("message-morphing evaluation report");
    println!(
        "(shape comparison against ICDCS 2005 §5; absolute numbers differ from 2005 hardware)"
    );

    let p = Pipelines::new();
    if want("fig8") {
        fig8(&p);
    }
    if want("fig9") {
        fig9(&p);
    }
    if want("fig10") {
        fig10(&p);
    }
    if want("table1") {
        table1(&p);
    }
    if want("fig_b2b") {
        fig_b2b(&p);
    }
    if want("latency") {
        fig_latency(&p);
    }
    if want("stats") {
        stats();
    }
    if want("trace") {
        trace();
    }
    if want("vm") {
        vm();
    }
}
