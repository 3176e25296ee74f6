//! The three workloads: seeded inputs generated outside the system, the
//! system under test built from them through `EchoSystem`'s public API,
//! and the reference each delivery is checked against.

use std::sync::Arc;

use echo::{
    proto, ChannelId, EchoError, EchoSystem, EchoVersion, MemberInfo, ProcessId, WallClockDriver,
};
use morph::{CompiledXform, Transformation};
use pbio::{FormatBuilder, RecordFormat, Value};
use simnet::LinkParams;

use crate::rng::Rng;

/// Sinks on the small-event fan-out.
const FANOUT_SINKS: usize = 1000;
/// v1.0 sinks of the large evolved response.
const EVOLVE_SINKS: usize = 2;
/// Members per evolved response (about 36 KB on the wire).
const EVOLVE_MEMBERS: usize = 1500;
/// Distinct evolved responses generated per seed and published in turn.
const EVOLVE_POOL: usize = 8;
/// Sinks pinned at the reader format under format churn.
const CHURN_SINKS: usize = 8;
/// Events per writer revision under format churn.
const CHURN_EVENTS_PER_REVISION: usize = 8;
/// Writer revisions distributed to one system (see [`Kind::lifetime`]).
const CHURN_REVISIONS: usize = 256;

/// The one event channel: the first a fresh system creates.
pub const CHANNEL: ChannelId = ChannelId(1);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    FanoutSmall,
    EvolveLarge,
    FormatChurn,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::FanoutSmall, Kind::EvolveLarge, Kind::FormatChurn];

    pub fn name(self) -> &'static str {
        match self {
            Kind::FanoutSmall => "fanout_small",
            Kind::EvolveLarge => "evolve_large",
            Kind::FormatChurn => "format_churn",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Events one system carries, its warm-up included, before the
    /// benchmark sets up a fresh one. Set-ups, and the cold batches that
    /// follow them, are thereby spread over the whole run instead of
    /// bunched at its start. It also bounds state that grows with traffic:
    /// fanout_small's 1,000 dedup windows (up to 4,096 entries each, grown
    /// in steps), and format_churn's decision caches — one system holds
    /// [`CHURN_REVISIONS`] revisions.
    pub fn lifetime(self) -> usize {
        match self {
            Kind::FanoutSmall => 192,
            Kind::EvolveLarge => 32,
            Kind::FormatChurn => 1 + CHURN_REVISIONS * CHURN_EVENTS_PER_REVISION,
        }
    }

    pub fn sinks(self) -> usize {
        match self {
            Kind::FanoutSmall => FANOUT_SINKS,
            Kind::EvolveLarge => EVOLVE_SINKS,
            Kind::FormatChurn => CHURN_SINKS,
        }
    }
}

/// One event to publish, with the value every sink must receive.
pub struct Event {
    pub format: Arc<RecordFormat>,
    pub value: Value,
    pub expect: Value,
    /// First event of a writer revision the sinks have not seen.
    pub cold: bool,
    /// The transformations that take `format` to the sinks' format, in
    /// order — what Algorithm 2 should choose.
    pub chain: Vec<Transformation>,
}

/// `Reading` as every sink of fanout_small and format_churn expects it.
fn reader_format() -> Arc<RecordFormat> {
    FormatBuilder::record("Reading")
        .string("site")
        .long("value")
        .long("seq")
        .build_arc()
        .expect("static format is valid")
}

/// A writer revision of format_churn: its format, the transformation it
/// ships with, and that transformation compiled for the reference.
struct Revision {
    format: Arc<RecordFormat>,
    xform: Transformation,
    reference: CompiledXform,
}

enum Source {
    Fanout {
        format: Arc<RecordFormat>,
        xform: Transformation,
        reference: Box<CompiledXform>,
        rng: Rng,
        seq: i64,
    },
    Evolve {
        format: Arc<RecordFormat>,
        xform: Transformation,
        pool: Vec<(Value, Value)>,
        next: usize,
    },
    Churn {
        revisions: Vec<Revision>,
        rng: Rng,
        seq: i64,
        /// Revision being published and events already sent in it.
        rev: usize,
        sent: usize,
    },
}

/// Everything the system receives, generated from the seed before the
/// system exists, plus the reference each delivery is checked against.
pub struct Inputs {
    pub kind: Kind,
    /// Meta-data distributed to every process at set-up.
    formats: Vec<Arc<RecordFormat>>,
    xforms: Vec<Transformation>,
    /// The format every sink expects.
    pub reader: Arc<RecordFormat>,
    source: Source,
    /// No event has been drawn since the last [`Inputs::restart`].
    fresh: bool,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Result<Inputs, String> {
        let mut gen = Rng::new(seed);
        let (formats, xforms, reader, source) = match kind {
            Kind::FanoutSmall => {
                let format = FormatBuilder::record("Reading")
                    .string("site")
                    .long("raw")
                    .long("scale")
                    .long("seq")
                    .build_arc()
                    .map_err(|e| e.to_string())?;
                let reader = reader_format();
                let xform = Transformation::new(
                    Arc::clone(&format),
                    Arc::clone(&reader),
                    "old.site = new.site; old.value = new.raw * new.scale; old.seq = new.seq;",
                );
                let reference = Box::new(xform.compile().map_err(|e| e.to_string())?);
                (
                    vec![Arc::clone(&format), Arc::clone(&reader)],
                    vec![xform.clone()],
                    reader,
                    Source::Fanout { format, xform, reference, rng: gen, seq: 0 },
                )
            }
            Kind::EvolveLarge => {
                let format = proto::channel_open_response_v2();
                let xform = proto::response_retro_transformation();
                let reference = xform.compile().map_err(|e| e.to_string())?;
                let mut pool = Vec::with_capacity(EVOLVE_POOL);
                for _ in 0..EVOLVE_POOL {
                    let members: Vec<MemberInfo> = (0..EVOLVE_MEMBERS)
                        .map(|i| MemberInfo {
                            contact: format!("{}:{}", gen.ident(2, 8), gen.range(1024, 65535)),
                            id: i as i64 + 1,
                            is_source: gen.coin(),
                            is_sink: gen.coin(),
                        })
                        .collect();
                    let value = proto::response_v2_value(CHANNEL, &members);
                    let expect = reference.apply_interp(&value).map_err(|e| e.to_string())?;
                    pool.push((value, expect));
                }
                // Formats and the Fig. 5 transformation ship with every
                // process (`EchoSystem::add_process`); nothing to distribute.
                (
                    Vec::new(),
                    Vec::new(),
                    proto::channel_open_response_v1(),
                    Source::Evolve { format, xform, pool, next: 0 },
                )
            }
            Kind::FormatChurn => {
                let reader = reader_format();
                let mut revisions: Vec<Revision> = Vec::with_capacity(CHURN_REVISIONS + 1);
                // Revision 0 is published once, as the set-up's warm-up;
                // revisions 1..=CHURN_REVISIONS are the timed churn.
                for k in 0..=CHURN_REVISIONS {
                    let names: Vec<String> = ["s", "r", "c", "q"]
                        .iter()
                        .map(|tag| format!("{}_{k}_{tag}", gen.ident(2, 7)))
                        .collect();
                    let format = FormatBuilder::record("Reading")
                        .string(names[0].as_str())
                        .long(names[1].as_str())
                        .long(names[2].as_str())
                        .long(names[3].as_str())
                        .build_arc()
                        .map_err(|e| e.to_string())?;
                    let (target, code) = if k % 3 == 0 {
                        (
                            Arc::clone(&reader),
                            format!(
                                "old.site = new.{}; old.value = new.{} * new.{}; old.seq = new.{};",
                                names[0], names[1], names[2], names[3]
                            ),
                        )
                    } else {
                        let prev = &revisions[k - 1].format;
                        let code = (0..4)
                            .map(|i| format!("old.{} = new.{};", prev.fields()[i].name(), names[i]))
                            .collect::<Vec<_>>()
                            .join(" ");
                        (Arc::clone(prev), code)
                    };
                    let xform = Transformation::new(Arc::clone(&format), target, code);
                    let reference = xform.compile().map_err(|e| e.to_string())?;
                    revisions.push(Revision { format, xform, reference });
                }
                let mut formats: Vec<Arc<RecordFormat>> =
                    revisions.iter().map(|r| Arc::clone(&r.format)).collect();
                formats.push(Arc::clone(&reader));
                let xforms = revisions.iter().map(|r| r.xform.clone()).collect();
                (
                    formats,
                    xforms,
                    reader,
                    Source::Churn { revisions, rng: gen, seq: 0, rev: 0, sent: 0 },
                )
            }
        };
        Ok(Inputs { kind, formats, xforms, reader, source, fresh: true })
    }

    /// The next event. format_churn fails once the writer has used every
    /// revision distributed to the current system; a system's lifetime ends
    /// there, and [`Inputs::restart`] begins again for a fresh one.
    pub fn next_event(&mut self) -> Result<Event, String> {
        let fresh = std::mem::replace(&mut self.fresh, false);
        match &mut self.source {
            Source::Fanout { format, xform, reference, rng, seq } => {
                *seq += 1;
                let value = Value::Record(vec![
                    Value::str(format!("site-{}", rng.ident(3, 12))),
                    Value::Int(rng.range(0, 1_000_000) as i64),
                    Value::Int(rng.range(1, 1000) as i64),
                    Value::Int(*seq),
                ]);
                let expect = reference.apply_interp(&value).map_err(|e| e.to_string())?;
                let chain = vec![xform.clone()];
                Ok(Event { format: Arc::clone(format), value, expect, cold: fresh, chain })
            }
            Source::Evolve { format, xform, pool, next } => {
                let (value, expect) = pool[*next % pool.len()].clone();
                *next += 1;
                let chain = vec![xform.clone()];
                Ok(Event { format: Arc::clone(format), value, expect, cold: fresh, chain })
            }
            Source::Churn { revisions, rng, seq, rev, sent } => {
                // Revision 0 carries only the warm-up event.
                let limit = if *rev == 0 { 1 } else { CHURN_EVENTS_PER_REVISION };
                if *sent == limit {
                    if *rev == CHURN_REVISIONS {
                        return Err("format_churn ran past its last revision".into());
                    }
                    *rev += 1;
                    *sent = 0;
                }
                let cold = *sent == 0;
                *sent += 1;
                *seq += 1;
                let value = Value::Record(vec![
                    Value::str(rng.ident(4, 12)),
                    Value::Int(rng.range(0, 1_000_000) as i64),
                    Value::Int(rng.range(1, 1000) as i64),
                    Value::Int(*seq),
                ]);
                // Reference: the tree-walking interpreter, one step at a
                // time down the revision chain to the reader.
                let mut k = *rev;
                let mut expect = value.clone();
                let mut chain = Vec::new();
                loop {
                    let r = &revisions[k];
                    expect = r.reference.apply_interp(&expect).map_err(|e| e.to_string())?;
                    chain.push(r.xform.clone());
                    if k % 3 == 0 {
                        break;
                    }
                    k -= 1;
                }
                let format = Arc::clone(&revisions[*rev].format);
                Ok(Event { format, value, expect, cold, chain })
            }
        }
    }

    /// Starts the revision sequence again for a freshly set-up system.
    pub fn restart(&mut self) {
        self.fresh = true;
        if let Source::Churn { rev, sent, .. } = &mut self.source {
            *rev = 0;
            *sent = 0;
        }
    }

    /// Every format and transformation a sink holds: those shipped with
    /// each process plus the workload's distributed meta-data.
    pub fn metadata(&self) -> (Vec<Arc<RecordFormat>>, Vec<Transformation>) {
        let mut formats =
            vec![proto::channel_open_response_v1(), proto::channel_open_response_v2()];
        formats.extend(self.formats.iter().cloned());
        let mut xforms =
            vec![proto::response_retro_transformation(), proto::response_forward_transformation()];
        xforms.extend(self.xforms.iter().cloned());
        (formats, xforms)
    }
}

/// The system under test: one publisher, its sinks, and the driver that
/// runs it to quiescence.
pub struct Bed {
    pub sys: EchoSystem,
    pub publisher: ProcessId,
    pub channel: ChannelId,
    pub sinks: Vec<ProcessId>,
    /// The multi-threaded driver for fanout_small; `None` runs `run()`.
    driver: Option<WallClockDriver>,
}

impl Bed {
    /// Constructs and provisions the system and distributes meta-data.
    pub fn setup(inputs: &Inputs) -> Result<Bed, EchoError> {
        let kind = inputs.kind;
        let mut sys = EchoSystem::new();
        let driver = (kind == Kind::FanoutSmall).then(|| {
            sys.set_tracing(false);
            sys.enable_shared_morph_caches();
            // A whole batch fits one mailbox: this measures delivery, not
            // shedding.
            let mailbox = FANOUT_SINKS.max(echo::DEFAULT_MAILBOX_CAPACITY);
            WallClockDriver::new(crate::machine::nproc()).with_mailbox_capacity(mailbox)
        });
        let publisher = sys.add_process("publisher", EchoVersion::V2);
        let channel = sys.create_channel(publisher);
        assert_eq!(channel, CHANNEL, "the first channel of a fresh system");
        let sink_version =
            if kind == Kind::EvolveLarge { EchoVersion::V1 } else { EchoVersion::V2 };
        let sinks: Vec<ProcessId> = (0..kind.sinks())
            .map(|i| {
                let s = sys.add_process(format!("sink-{i}"), sink_version);
                sys.connect(publisher, s, LinkParams::lan());
                s
            })
            .collect();
        sys.distribute_metadata(&inputs.formats, &inputs.xforms);
        for &s in &sinks {
            sys.provision_sink(s, channel, &inputs.reader)?;
        }
        Ok(Bed { sys, publisher, channel, sinks, driver })
    }

    pub fn publish(&mut self, ev: &Event) -> Result<usize, EchoError> {
        self.sys.publish(self.publisher, self.channel, &ev.format, &ev.value)
    }

    /// Runs to quiescence; returns the deliveries processed.
    pub fn run(&mut self) -> usize {
        match &mut self.driver {
            Some(d) => self.sys.run_with(d),
            None => self.sys.run(),
        }
    }

    /// Takes every sink's deliveries and counts the sinks that received
    /// exactly the one expected value.
    pub fn check(&mut self, expect: &Value) -> usize {
        let mut correct = 0;
        for &s in &self.sinks {
            let got = self.sys.take_events(s);
            if got.len() == 1 && got[0].0 == self.channel && got[0].1 == *expect {
                correct += 1;
            }
        }
        correct
    }

    /// Frames the system lost or refused: dead letters, shed frames and
    /// dedup drops, from the system registry.
    pub fn dropped(&self) -> u64 {
        let snap = self.sys.registry().snapshot();
        ["echo.deadletter.total", "echo.queue.shed", "echo.dedup.dropped"]
            .iter()
            .map(|n| snap.counter(n).unwrap_or(0))
            .sum()
    }

    /// Sum over sinks of one of the program's own `echo.stage.<name>.ns`
    /// histograms on the event channel.
    pub fn stage_sum_ns(&self, stage: &str) -> u64 {
        let name = format!("echo.stage.{stage}.ns");
        self.sinks
            .iter()
            .filter_map(|&s| self.sys.event_registry(s, self.channel))
            .map(|r| r.histogram(&name).sum())
            .sum()
    }

    /// `(messages, cache hits, compiles)` summed over the sinks.
    pub fn morph_totals(&self) -> (u64, u64, u64) {
        self.sinks
            .iter()
            .filter_map(|&s| self.sys.event_stats(s, self.channel))
            .fold((0, 0, 0), |(m, h, c), st| (m + st.messages, h + st.cache_hits, c + st.compiles))
    }

    /// Spans and instants the system's own recorder has taken.
    pub fn recorded_spans(&self) -> u64 {
        let rec = self.sys.recorder();
        rec.len() as u64 + rec.dropped()
    }
}
