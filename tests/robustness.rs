//! Adversarial-input robustness: whatever bytes arrive off the wire, the
//! decoding stack must return an error — never panic, never hang, never
//! read out of bounds. A deployed morphing receiver faces exactly this
//! (§3.1's failure scenario is *why* morphing exists; crashing on the
//! mismatch would be worse than rejecting it).
//!
//! Inputs come from the same dependency-free xorshift64* scheme as
//! `proptests.rs`: fixed seeds, so every run fuzzes the same corpus.

use message_morphing::prelude::*;
use morph::{MetaClient, MetaServer, MorphError, Transformation};
use pbio::RecordFormat;
use std::sync::Arc;

const CASES: u64 = 256;

struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift64 { state: (z ^ (z >> 31)) | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_u64() as u8).collect()
    }

    /// Random printable-ish unicode text, biased toward XML/Ecode
    /// metacharacters so parsers see structure, not just noise.
    fn text(&mut self, max_len: usize) -> String {
        const SPICE: &[char] =
            &['<', '>', '&', '"', '\'', '/', '{', '}', '(', ')', ';', '=', '%', '\n', 'é', '中'];
        let n = self.below(max_len as u64 + 1) as usize;
        (0..n)
            .map(|_| {
                if self.below(4) == 0 {
                    SPICE[self.below(SPICE.len() as u64) as usize]
                } else {
                    char::from_u32(0x20 + self.below(0x5F) as u32).unwrap()
                }
            })
            .collect()
    }
}

fn for_cases(property: &str, mut body: impl FnMut(&mut XorShift64)) {
    for case in 0..CASES {
        let seed = 0xBAD_F00D ^ (case << 32) ^ case;
        let mut rng = XorShift64::new(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut rng);
        }));
        if let Err(e) = result {
            eprintln!("property `{property}` failed at case {case} (seed {seed:#x})");
            std::panic::resume_unwind(e);
        }
    }
}

fn response_v2() -> Arc<RecordFormat> {
    let member = FormatBuilder::record("Member")
        .string("info")
        .int("ID")
        .int("is_source")
        .int("is_sink")
        .build_arc()
        .unwrap();
    FormatBuilder::record("ChannelOpenResponse")
        .int("member_count")
        .var_array_of("member_list", member, "member_count")
        .build_arc()
        .unwrap()
}

fn response_v1() -> Arc<RecordFormat> {
    let member = FormatBuilder::record("Member").string("info").int("ID").build_arc().unwrap();
    FormatBuilder::record("ChannelOpenResponse")
        .int("member_count")
        .var_array_of("member_list", member.clone(), "member_count")
        .int("src_count")
        .var_array_of("src_list", member, "src_count")
        .build_arc()
        .unwrap()
}

fn sample_wire() -> Vec<u8> {
    let fmt = response_v2();
    let v = Value::Record(vec![
        Value::Int(2),
        Value::Array(vec![
            Value::Record(vec![Value::str("a:1"), Value::Int(1), Value::Int(1), Value::Int(0)]),
            Value::Record(vec![Value::str("b:2"), Value::Int(2), Value::Int(0), Value::Int(1)]),
        ]),
    ]);
    Encoder::new(&fmt).encode(&v).unwrap()
}

/// Random garbage never panics the raw decoder or a conversion plan.
#[test]
fn random_bytes_never_panic() {
    for_cases("random_bytes_never_panic", |rng| {
        let n = rng.below(256) as usize;
        let bytes = rng.bytes(n);
        let fmt = response_v2();
        let _ = pbio::decode_payload(&fmt, &bytes);
        let plan = ConversionPlan::identity(&fmt).unwrap();
        let _ = plan.execute(&bytes);
        let _ = pbio::parse_header(&bytes);
        let _ = pbio::deserialize_format(&bytes);
        let _ = Transformation::deserialize(&bytes);
    });
}

/// Single-byte corruptions of a valid message never panic anything in
/// the receive path (they may decode to a different valid value, or
/// fail cleanly).
#[test]
fn corrupted_wire_never_panics() {
    for_cases("corrupted_wire_never_panics", |rng| {
        let mut wire = sample_wire();
        let idx = rng.below(wire.len() as u64) as usize;
        wire[idx] = rng.next_u64() as u8;
        let fmt = response_v2();
        let _ = pbio::decode_payload(&fmt, &wire);
        let _ = ConversionPlan::identity(&fmt).unwrap().execute(&wire);
        let mut rx = MorphReceiver::new();
        rx.register_handler(&response_v1(), |_v| {});
        rx.import_transformation(Transformation::new(
            response_v2(),
            response_v1(),
            r#"
                int i; int sc = 0;
                old.member_count = new.member_count;
                for (i = 0; i < new.member_count; i++) {
                    old.member_list[i].info = new.member_list[i].info;
                    old.member_list[i].ID = new.member_list[i].ID;
                    if (new.member_list[i].is_source) {
                        old.src_list[sc].info = new.member_list[i].info;
                        old.src_list[sc].ID = new.member_list[i].ID;
                        sc++;
                    }
                }
                old.src_count = sc;
            "#,
        ));
        let _ = rx.process(&wire);
    });
}

/// Truncations at every length never panic.
#[test]
fn truncated_wire_never_panics() {
    let wire = sample_wire();
    let fmt = response_v2();
    for cut in 0..=wire.len() {
        let _ = pbio::decode_payload(&fmt, &wire[..cut]);
        let _ = ConversionPlan::identity(&fmt).unwrap().execute(&wire[..cut]);
    }
}

/// A lying length field (count much larger than the actual payload)
/// fails with an error instead of over-allocating or panicking.
#[test]
fn hostile_length_fields_rejected() {
    for_cases("hostile_length_fields_rejected", |rng| {
        let count = 3 + rng.below(i32::MAX as u64 - 3) as i64;
        let fmt = response_v2();
        let mut wire = sample_wire();
        // Patch the member_count field (first 4 payload bytes) to a lie.
        let c = (count as i32).to_le_bytes();
        wire[pbio::HEADER_LEN..pbio::HEADER_LEN + 4].copy_from_slice(&c);
        assert!(pbio::decode_payload(&fmt, &wire).is_err());
        assert!(ConversionPlan::identity(&fmt).unwrap().execute(&wire).is_err());
    });
}

/// Random bytes thrown at the format server return errors, never panic —
/// it faces the network directly, so every malformed request must come
/// back as a clean protocol (or decoding) error.
#[test]
fn metaserver_random_bytes_never_panic() {
    for_cases("metaserver_random_bytes_never_panic", |rng| {
        let mut server = MetaServer::new();
        server.register_format(response_v2());
        let n = rng.below(128) as usize;
        let bytes = rng.bytes(n);
        let _ = server.handle(&bytes);
        // An empty or unknown-opcode request is a protocol violation
        // specifically (not a panic, not a decode error).
        assert!(matches!(server.handle(&[]), Err(MorphError::Protocol(_))));
        let mut alien = bytes.clone();
        alien.insert(0, 0x7F); // no request starts with 0x7F
        assert!(matches!(server.handle(&alien), Err(MorphError::Protocol(_))));
        // The client's response parsers face the same wire.
        let _ = MetaClient::parse_format(&bytes);
        let _ = MetaClient::parse_transformations(&bytes);
    });
}

/// Truncations and corruptions of *valid* meta-protocol requests fail
/// cleanly: the server either answers or errors, and never panics.
#[test]
fn metaserver_mutated_requests_never_panic() {
    let valid: Vec<Vec<u8>> = vec![
        MetaClient::register_format(&response_v2()),
        MetaClient::register_transformation(&Transformation::new(
            response_v2(),
            response_v1(),
            "old.member_count = new.member_count;",
        )),
        MetaClient::want_format(pbio::format_id(&response_v2())),
        MetaClient::want_transformations(pbio::format_id(&response_v2())),
    ];
    for_cases("metaserver_mutated_requests_never_panic", |rng| {
        let mut server = MetaServer::new();
        let base = &valid[rng.below(valid.len() as u64) as usize];
        // Truncate to a random prefix, then flip one byte of what's left.
        let cut = rng.below(base.len() as u64 + 1) as usize;
        let mut req = base[..cut].to_vec();
        if !req.is_empty() {
            let idx = rng.below(req.len() as u64) as usize;
            req[idx] ^= (rng.below(255) + 1) as u8;
        }
        let _ = server.handle(&req);
    });
}

/// Random text never panics the XML parser or stylesheet parser.
#[test]
fn random_text_never_panics_xml() {
    for_cases("random_text_never_panics_xml", |rng| {
        let s = rng.text(64);
        let _ = xmlt::parse(&s);
        let _ = xmlt::Stylesheet::parse(&s);
        let _ = xmlt::parse_expr(&s);
        let _ = xmlt::parse_path(&s);
    });
}

/// Random text never panics the Ecode front end.
#[test]
fn random_text_never_panics_ecode() {
    for_cases("random_text_never_panics_ecode", |rng| {
        let s = rng.text(64);
        let fmt = response_v2();
        let _ = EcodeCompiler::new().bind_input("new", &fmt).compile(&s);
    });
}

/// Almost-valid Ecode (mutations of Fig. 5) never panics the compiler.
#[test]
fn mutated_fig5_never_panics() {
    for_cases("mutated_fig5_never_panics", |rng| {
        let src = r#"
            int i; int sc = 0;
            old.member_count = new.member_count;
            for (i = 0; i < new.member_count; i++) {
                old.member_list[i].info = new.member_list[i].info;
                if (new.member_list[i].is_source) { sc++; }
            }
            old.src_count = sc;
        "#;
        let mut mutated = src.as_bytes().to_vec();
        let idx = rng.below(mutated.len() as u64) as usize;
        mutated[idx] = 32 + rng.below(95) as u8;
        if let Ok(text) = String::from_utf8(mutated) {
            let _ = EcodeCompiler::new()
                .bind_input("new", &response_v2())
                .bind_output("old", &response_v1())
                .compile(&text);
        }
    });
}

/// Canonical-form tags of `pbio::serialize_format` the hostile inputs
/// below are built from.
const TAG_INT: u8 = 1;
const TAG_ENUM: u8 = 5;
const TAG_RECORD: u8 = 7;
const TAG_ARRAY_FIXED: u8 = 8;

/// Meta-data of record `""` with one field `""` whose type is a chain of
/// `depth - 1` nested levels (fixed arrays or records, by `kinds`) around
/// an `int`: `depth` levels counting the outer record.
fn nested_metadata(depth: usize, mut kinds: impl FnMut() -> bool) -> Vec<u8> {
    let mut out = vec![0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
    for _ in 1..depth {
        if kinds() {
            out.push(TAG_ARRAY_FIXED);
            out.extend_from_slice(&1u64.to_le_bytes());
        } else {
            // A one-field record whose field carries the next level.
            out.push(TAG_RECORD);
            out.extend_from_slice(&[0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]);
        }
    }
    out.extend_from_slice(&[TAG_INT, 4]);
    out
}

/// A field count of `u32::MAX` in 8 bytes of meta-data is refused before
/// anything is reserved for the fields — through every entry point that
/// reads format meta-data off the wire.
#[test]
fn hostile_field_count_in_format_metadata_is_an_error() {
    let hostile = [0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff];
    assert!(pbio::deserialize_format(&hostile).is_err());
    let mut export = vec![1, 0, 0, 0, hostile.len() as u8, 0, 0, 0];
    export.extend_from_slice(&hostile);
    assert!(FormatRegistry::new().import(&export).is_err());
    let mut response = vec![morph::metaserver::RESP_FORMAT, hostile.len() as u8, 0, 0, 0];
    response.extend_from_slice(&hostile);
    assert!(MetaClient::parse_format(&response).is_err());
    // The same bound covers enum variant counts.
    let mut variants = vec![0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, TAG_ENUM, 0, 0, 0, 0];
    variants.extend_from_slice(&[0xff, 0xff, 0xff, 0xff]);
    assert!(pbio::deserialize_format(&variants).is_err());
}

/// 200k nested fixed arrays (~1.8 MB) are refused at the nesting bound
/// instead of recursing until the stack overflows.
#[test]
fn deeply_nested_format_metadata_is_an_error() {
    let hostile = nested_metadata(200_000, || true);
    assert!(hostile.len() > 1_800_000);
    assert!(matches!(pbio::deserialize_format(&hostile), Err(pbio::PbioError::BadData(_))));
    let mut response = vec![morph::metaserver::RESP_FORMAT];
    response.extend_from_slice(&(hostile.len() as u32).to_le_bytes());
    response.extend_from_slice(&hostile);
    assert!(MetaClient::parse_format(&response).is_err());
}

/// A transformations response claiming `u32::MAX` entries in 5 bytes is
/// refused before anything is reserved for them.
#[test]
fn hostile_transformation_count_is_an_error() {
    let response = [morph::metaserver::RESP_XFORMS, 0xff, 0xff, 0xff, 0xff];
    assert!(MetaClient::parse_transformations(&response).is_err());
}

/// Nesting up to [`pbio::MAX_META_DEPTH`] levels parses; one more is
/// refused, whatever mix of records and arrays builds the chain.
#[test]
fn format_metadata_nesting_bound_is_exact() {
    for_cases("format_metadata_nesting_bound_is_exact", |rng| {
        let depth = 1 + rng.below(2 * pbio::MAX_META_DEPTH as u64) as usize;
        let meta = nested_metadata(depth, || rng.below(2) == 0);
        let parsed = pbio::deserialize_format(&meta);
        assert_eq!(parsed.is_ok(), depth <= pbio::MAX_META_DEPTH, "depth {depth}: {parsed:?}");
    });
}

fn random_width(rng: &mut XorShift64, choices: &[usize]) -> pbio::Width {
    pbio::Width::from_bytes(choices[rng.below(choices.len() as u64) as usize]).unwrap()
}

/// A random field type legal after the fields `earlier`, nesting at most
/// `depth` more levels.
fn random_type(rng: &mut XorShift64, depth: usize, earlier: &[pbio::Field]) -> pbio::FieldType {
    use pbio::{ArrayLen, BasicType, FieldType};
    let kinds = if depth == 0 { 6 } else { 9 };
    match rng.below(kinds) {
        0 => FieldType::Basic(BasicType::Int(random_width(rng, &[1, 2, 4, 8]))),
        1 => FieldType::Basic(BasicType::UInt(random_width(rng, &[1, 2, 4, 8]))),
        2 => FieldType::Basic(BasicType::Float(random_width(rng, &[4, 8]))),
        3 => FieldType::Basic(BasicType::Char),
        4 => FieldType::Basic(BasicType::String),
        5 => FieldType::Basic(BasicType::Enum {
            name: rng.text(6),
            variants: (0..1 + rng.below(3))
                .map(|i| pbio::EnumVariant { name: format!("v{i}"), discriminant: i as i32 })
                .collect(),
        }),
        6 => FieldType::Record(Arc::new(random_format(rng, depth - 1))),
        kind => {
            let counts: Vec<&pbio::Field> = earlier
                .iter()
                .filter(|f| matches!(f.ty(), FieldType::Basic(BasicType::Int(_))))
                .collect();
            let len = match counts.first() {
                Some(f) if kind == 8 => ArrayLen::LengthField(f.name().to_string()),
                _ => ArrayLen::Fixed(rng.below(5) as usize),
            };
            FieldType::Array { elem: Box::new(random_type(rng, depth - 1, earlier)), len }
        }
    }
}

/// A random valid record format nesting at most `depth` more levels.
fn random_format(rng: &mut XorShift64, depth: usize) -> RecordFormat {
    let mut fields = Vec::new();
    for i in 0..1 + rng.below(4) {
        let ty = random_type(rng, depth, &fields);
        fields.push(pbio::Field::new(format!("f{i}"), ty));
    }
    RecordFormat::new(rng.text(8), fields).unwrap()
}

/// `deserialize ∘ serialize` is the identity on valid formats, and every
/// truncation or one-byte corruption of their meta-data parses to `Ok` or
/// `Err` — never a panic, an abort, or a runaway allocation.
#[test]
fn format_metadata_round_trips_and_its_mutations_never_panic() {
    for_cases("format_metadata_round_trips_and_its_mutations_never_panic", |rng| {
        let depth = 1 + rng.below(4) as usize;
        let fmt = random_format(rng, depth);
        let meta = pbio::serialize_format(&fmt);
        assert_eq!(pbio::deserialize_format(&meta).as_ref(), Ok(&fmt));
        let cut = rng.below(meta.len() as u64) as usize;
        assert!(pbio::deserialize_format(&meta[..cut]).is_err(), "a strict prefix is incomplete");
        let mut mutated = meta.clone();
        let idx = rng.below(mutated.len() as u64) as usize;
        mutated[idx] = rng.next_u64() as u8;
        let _ = pbio::deserialize_format(&mutated);
        let _ = pbio::deserialize_format(&mutated[..cut.max(idx)]);
    });
}
