//! The traced replay: a sample of a workload's messages driven through each
//! layer's public functions in lifecycle order — encode → frame →
//! send/step → unframe → process — with the warm path's decode and VM pass
//! timed apart, every call inside a span of the benchmark's own store.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, Mutex};

use echo::{proto, QosTier};
use ecode::{root_used_fields, EcodeCompiler, FusedProgram};
use morph::{CompiledChain, DecisionCache, MorphReceiver, Transformation};
use obs::{FlightRecorder, Registry};
use pbio::{format_id, ConversionPlan, Encoder, FormatId, PlanStore, RecordFormat, Value};
use simnet::{LinkParams, Network, NodeId};

use crate::spans::Spans;
use crate::workload::{Event, Inputs, Kind, CHANNEL};

/// A receiver's delivered values, as a sink's event log holds them.
type EventLog = Arc<Mutex<Vec<Value>>>;

/// Replayed non-churn messages between two cold passes on a fresh
/// receiver — format_churn's rate of new revisions.
const COLD_EVERY: usize = 8;

/// The warm morph artifacts the receiver caches for one wire format,
/// rebuilt here from the public API: the projected decode plan, the fused
/// register program, and the output templates.
struct Fused {
    decode: ConversionPlan,
    program: FusedProgram,
    templates: Vec<Value>,
}

impl Fused {
    fn build(wire: &Arc<RecordFormat>, chain: &[Transformation]) -> Result<Fused, String> {
        let program = CompiledChain::compile(chain)
            .and_then(|c| c.fuse())
            .map_err(|e| format!("fusing the chain: {e}"))?;
        let used = root_used_fields(program.code(), 0, wire.fields().len());
        let decode = ConversionPlan::project(wire, &used).map_err(|e| e.to_string())?;
        let templates =
            program.bindings()[1..].iter().map(|b| Value::default_record(&b.format)).collect();
        Ok(Fused { decode, program, templates })
    }
}

/// What a replay measured beyond the span durations.
#[derive(Default)]
pub struct ReplayTotals {
    pub messages: u64,
    pub payload_bytes: u64,
    pub vm_runs: u64,
    pub batch_elems: u64,
}

pub struct Replayer {
    kind: Kind,
    reps: u32,
    formats: Vec<Arc<RecordFormat>>,
    xforms: Vec<Transformation>,
    reader: Arc<RecordFormat>,
    net: Network,
    publisher: NodeId,
    sinks: Vec<NodeId>,
    /// One receiver per sink, each with its own event log as a sink has,
    /// so the warm path walks the same working set as the fan-out does.
    rxs: Vec<(MorphReceiver, EventLog)>,
    /// fanout_small's system-wide caches, mirrored.
    shared: Option<(DecisionCache, PlanStore)>,
    /// Whether the per-sink receivers have handled a first message. Outside
    /// format_churn that message fills their caches untimed, so the warm
    /// spans see warm receivers, as the fan-out's sinks are.
    warmed: bool,
    fused: HashMap<FormatId, Fused>,
    pub totals: ReplayTotals,
}

impl Replayer {
    /// A replay bed shaped like the workload: one publisher node linked to
    /// as many sink nodes as the workload has (every frame is sent to each
    /// of them, as `publish` does), and as many morphing receivers, each
    /// holding the same meta-data as a sink.
    pub fn new(inputs: &Inputs) -> Replayer {
        let kind = inputs.kind;
        let mut net = Network::new();
        // Mirror the system's network: a registry and a recorder attached.
        let registry = Arc::new(Registry::with_clock(Arc::new(net.virtual_clock())));
        net.attach_registry(Arc::clone(&registry));
        net.attach_recorder(Arc::new(FlightRecorder::new(64, Arc::new(net.virtual_clock()))));
        let publisher = net.add_node("publisher");
        let sinks: Vec<NodeId> = (0..kind.sinks())
            .map(|i| {
                let s = net.add_node(format!("sink-{i}"));
                net.connect(publisher, s, LinkParams::lan());
                s
            })
            .collect();
        let (formats, xforms) = inputs.metadata();
        // Calls under ~1 µs are repeated inside one span so that the
        // clock's own cost stays small against them.
        let reps = if kind == Kind::EvolveLarge { 1 } else { 32 };
        let shared =
            (kind == Kind::FanoutSmall).then(|| (DecisionCache::new(), PlanStore::default()));
        let mut r = Replayer {
            kind,
            reps,
            formats,
            xforms,
            reader: Arc::clone(&inputs.reader),
            net,
            publisher,
            sinks,
            rxs: Vec::new(),
            shared,
            warmed: false,
            fused: HashMap::new(),
            totals: ReplayTotals::default(),
        };
        r.reset();
        r
    }

    /// Replaces every receiver with a fresh one, as a freshly set-up
    /// system has.
    pub fn reset(&mut self) {
        self.rxs = (0..self.sinks.len()).map(|_| self.fresh_receiver(true)).collect();
        self.warmed = false;
    }

    /// A receiver in a sink's state before its first message; `shared`
    /// attaches the workload's system-wide caches, if it has them.
    fn fresh_receiver(&self, shared: bool) -> (MorphReceiver, EventLog) {
        let mut rx = MorphReceiver::new();
        if let Some((decisions, plans)) = self.shared.as_ref().filter(|_| shared) {
            rx.set_shared_decisions(decisions.clone());
            rx.set_plan_store(plans.clone());
        }
        for f in &self.formats {
            rx.import_format(Arc::clone(f));
        }
        for t in &self.xforms {
            rx.import_transformation(t.clone());
        }
        let log = EventLog::default();
        let sink = Arc::clone(&log);
        rx.register_handler(&self.reader, move |v| {
            sink.lock().expect("replay event log lock").push(v);
        });
        (rx, log)
    }

    /// Replays one message as request `req`; `index` counts replayed
    /// messages. Fails if any layer errors or the receiver's output differs
    /// from the reference.
    pub fn replay(
        &mut self,
        spans: &mut Spans,
        ev: &Event,
        req: u64,
        index: usize,
    ) -> Result<(), String> {
        let reps = self.reps;
        let cold = match self.kind {
            Kind::FormatChurn => ev.cold,
            Kind::FanoutSmall | Kind::EvolveLarge => index.is_multiple_of(COLD_EVERY),
        };
        let root = spans.begin("replay", None, req);
        let parent = Some(root);

        let encoder = || Encoder::new(&ev.format).encode(&ev.value);
        let msg =
            spans.time("pbio.encode", parent, req, reps, encoder).map_err(|e| e.to_string())?;
        let frame = spans.time("echo.frame", parent, req, reps, || {
            proto::frame_qos(
                proto::FRAME_EVENT,
                CHANNEL,
                req,
                proto::NO_TRACE,
                QosTier::Reliable,
                0,
                1,
                0,
                &msg,
            )
        });

        let (net, from, sinks) = (&mut self.net, self.publisher, &self.sinks);
        let sent = spans.time("simnet.send", parent, req, 1, || {
            sinks.iter().map(|&to| net.send(from, to, frame.clone())).collect::<Result<Vec<_>, _>>()
        });
        sent.map_err(|e| format!("simnet send: {e:?}"))?;
        let stepped = spans.time("simnet.step", parent, req, 1, || {
            let mut n = 0;
            while let Some(d) = net.step() {
                net.recv(d.to);
                n += 1;
            }
            n
        });
        if stepped != sinks.len() {
            return Err(format!("simnet delivered {stepped} of {} frames", sinks.len()));
        }

        let unframed = spans.time("echo.unframe", parent, req, reps, || proto::unframe(&frame));
        let payload = unframed.map_err(|e| e.to_string())?.payload;

        let mut per_receiver = 0;
        if self.kind == Kind::FormatChurn {
            // A new revision is cold at every sink: no caches are shared.
            if cold {
                for (rx, _) in &mut self.rxs {
                    spans
                        .time("morph.cold", parent, req, 1, || rx.process(payload))
                        .map_err(|e| e.to_string())?;
                }
                per_receiver += 1;
            }
        } else {
            if cold {
                // The full cold path, on a receiver of its own.
                let (mut rx, log) = self.fresh_receiver(false);
                spans
                    .time("morph.cold", parent, req, 1, || rx.process(payload))
                    .map_err(|e| e.to_string())?;
                check_log(&log, 1, &ev.expect)?;
            }
            if !self.warmed {
                for (rx, _) in &mut self.rxs {
                    rx.process(payload).map_err(|e| e.to_string())?;
                }
                per_receiver += 1;
                self.warmed = true;
            }
        }
        // The warm path once at each sink's receiver, in turn.
        let mut turn = self.rxs.iter_mut();
        let warm = spans.time("morph.process", parent, req, self.sinks.len() as u32, || {
            turn.next().expect("one receiver per sink").0.process(payload)
        });
        warm.map_err(|e| e.to_string())?;
        per_receiver += 1;
        for (_, log) in &self.rxs {
            check_log(log, per_receiver, &ev.expect)?;
        }

        let fused = match self.fused.entry(format_id(&ev.format)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => e.insert(Fused::build(&ev.format, &ev.chain)?),
        };
        let decoded =
            spans.time("pbio.decode", parent, req, reps, || fused.decode.execute(payload));
        let decoded = decoded.map_err(|e| e.to_string())?;
        let mut inputs: Vec<Vec<Value>> = (0..reps)
            .map(|_| {
                std::iter::once(decoded.clone()).chain(fused.templates.iter().cloned()).collect()
            })
            .collect();
        let mut next = inputs.iter_mut();
        let mut elems = 0;
        let ran = spans.time("ecode.vm", parent, req, reps, || {
            let roots = next.next().expect("one root set per rep");
            fused.program.run_register(roots).map(|stats| elems += stats.batch_elems)
        });
        ran.map_err(|e| e.to_string())?;
        if inputs[0].last() != Some(&ev.expect) {
            return Err(format!("fused replay produced a wrong value for message {req}"));
        }

        if cold {
            let compiled = spans.time("ecode.compile", parent, req, 1, || compile_chain(&ev.chain));
            compiled?;
        }
        spans.end(root);

        self.totals.messages += 1;
        self.totals.payload_bytes += msg.len() as u64;
        self.totals.vm_runs += u64::from(reps);
        self.totals.batch_elems += elems;
        Ok(())
    }
}

/// Takes a receiver's deliveries and checks there are `n`, each `expect`.
fn check_log(log: &EventLog, n: usize, expect: &Value) -> Result<(), String> {
    let got = std::mem::take(&mut *log.lock().expect("replay event log lock"));
    if got.len() != n || got.iter().any(|v| v != expect) {
        return Err(format!(
            "a replay receiver delivered {} values, not {n} correct ones",
            got.len()
        ));
    }
    Ok(())
}

/// Algorithm 2's code generation for one chain: each step compiled as the
/// receiver compiles it, then the steps composed into one program.
fn compile_chain(chain: &[Transformation]) -> Result<FusedProgram, String> {
    let steps = chain
        .iter()
        .map(|t| {
            EcodeCompiler::new()
                .bind_input("new", t.from_format())
                .bind_output("old", t.to_format())
                .compile(t.source())
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    FusedProgram::compose(&steps.iter().collect::<Vec<_>>()).map_err(|e| e.to_string())
}
