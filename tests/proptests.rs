//! Property-based tests over the core data structures and invariants:
//! wire-format round trips, specialized-plan vs meta-data-driven decode
//! agreement, MaxMatch arithmetic, Ecode VM vs interpreter equivalence,
//! fused vs staged morphing, and XML round trips.
//!
//! Deliberately dependency-free: instead of `proptest`/`rand` (which would
//! require registry access to build), inputs are generated by the in-tree
//! [`XorShift64`] PRNG and each property is checked in a seeded loop. Every
//! run explores the same inputs, so failures reproduce from the printed
//! iteration seed alone.

use std::sync::{Arc, Mutex};

use message_morphing::prelude::*;
use morph::{Delivery, MatchQuality, Transformation};
use pbio::{decode_payload, BasicType, FieldType, GenericDecoder, RecordFormat, Width};

/// Iterations per property (each with a distinct derived seed).
const CASES: u64 = 64;

// -- deterministic PRNG ---------------------------------------------------------

/// xorshift64* — tiny, fast, and plenty for test-input generation.
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        // Avoid the all-zero fixed point; splitmix the seed once for spread.
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

    /// Uniform-ish in `0..n` (n > 0). Modulo bias is irrelevant for tests.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn usize_below(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Uniform-ish in `lo..=hi` (span computed in u64, so full-width
    /// bounds like `-i64::MAX..=i64::MAX` don't overflow).
    fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        let span = hi.wrapping_sub(lo) as u64;
        let off = if span == u64::MAX { self.next_u64() } else { self.below(span + 1) };
        lo.wrapping_add(off as i64)
    }

    fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A pseudo-random subset (preserving order) of `0..n`, never empty.
    fn subset(&mut self, n: usize, max_len: usize) -> Vec<usize> {
        let want = 1 + self.usize_below(max_len.min(n));
        let mut picked: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: the first `want` entries become the sample.
        for i in 0..want {
            let j = i + self.usize_below(n - i);
            picked.swap(i, j);
        }
        picked.truncate(want);
        picked.sort_unstable();
        picked
    }
}

// -- random formats and conforming values ---------------------------------------

const NAME_POOL: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "count", "load", "mem", "net", "info", "id", "flag",
    "value", "rate", "name",
];

#[derive(Debug, Clone)]
enum FieldKind {
    Int(usize),
    UInt(usize),
    Double,
    Float,
    Char,
    Str,
    Nested(Vec<(usize, FieldKind)>),
    VarArray(Vec<(usize, FieldKind)>),
    FixedArray(Vec<(usize, FieldKind)>, usize),
}

fn widths() -> [Width; 4] {
    [Width::W1, Width::W2, Width::W4, Width::W8]
}

fn gen_scalar_kind(rng: &mut XorShift64) -> FieldKind {
    match rng.below(6) {
        0 => FieldKind::Int(rng.usize_below(4)),
        1 => FieldKind::UInt(rng.usize_below(4)),
        2 => FieldKind::Double,
        3 => FieldKind::Float,
        4 => FieldKind::Char,
        _ => FieldKind::Str,
    }
}

fn gen_kind(rng: &mut XorShift64, depth: u32) -> FieldKind {
    if depth == 0 {
        return gen_scalar_kind(rng);
    }
    match rng.below(8) {
        0 => FieldKind::Nested(gen_fields(rng, depth - 1)),
        1 => FieldKind::VarArray(gen_fields(rng, depth - 1)),
        2 => FieldKind::FixedArray(gen_fields(rng, depth - 1), rng.usize_below(4)),
        _ => gen_scalar_kind(rng),
    }
}

/// A field list with unique names sampled from the pool.
fn gen_fields(rng: &mut XorShift64, depth: u32) -> Vec<(usize, FieldKind)> {
    rng.subset(NAME_POOL.len(), 5).into_iter().map(|ni| (ni, gen_kind(rng, depth))).collect()
}

/// Materializes a kind list into a format. Variable arrays get a dedicated
/// count field inserted before them.
fn build_format(name: &str, fields: &[(usize, FieldKind)]) -> Arc<RecordFormat> {
    let mut b = FormatBuilder::record(name);
    for (ni, kind) in fields {
        let fname = NAME_POOL[*ni];
        b = match kind {
            FieldKind::Int(w) => b.field(fname, FieldType::Basic(BasicType::Int(widths()[*w]))),
            FieldKind::UInt(w) => b.field(fname, FieldType::Basic(BasicType::UInt(widths()[*w]))),
            FieldKind::Double => b.double(fname),
            FieldKind::Float => b.float(fname),
            FieldKind::Char => b.char(fname),
            FieldKind::Str => b.string(fname),
            FieldKind::Nested(inner) => b.nested(fname, build_format(&format!("N_{fname}"), inner)),
            FieldKind::VarArray(inner) => {
                let count = format!("{fname}_count");
                b.long(count.clone()).var_array_of(
                    fname,
                    build_format(&format!("E_{fname}"), inner),
                    count,
                )
            }
            FieldKind::FixedArray(inner, n) => b.fixed_array(
                fname,
                FieldType::Record(build_format(&format!("F_{fname}"), inner)),
                *n,
            ),
        };
    }
    b.build_arc().expect("generated formats are valid")
}

/// A random value conforming to `fmt`.
fn value_for(fmt: &RecordFormat, rng: &mut XorShift64) -> Value {
    let mut fields = Vec::with_capacity(fmt.fields().len());
    // Variable-array counts must agree with the arrays; generate arrays
    // first, then fix the counts.
    for fd in fmt.fields() {
        fields.push(value_for_type(fd.ty(), rng));
    }
    let mut v = Value::Record(fields);
    pbio::sync_length_fields(&mut v, fmt);
    v
}

fn value_for_type(ty: &FieldType, rng: &mut XorShift64) -> Value {
    match ty {
        FieldType::Basic(b) => match b {
            BasicType::Int(w) => {
                let bits = w.bytes() as u32 * 8 - 1;
                let bound = if bits >= 63 { i64::MAX } else { (1i64 << bits) - 1 };
                Value::Int(rng.range_i64(-bound, bound))
            }
            BasicType::UInt(w) => {
                let bits = w.bytes() as u32 * 8;
                let v = if bits >= 64 { rng.next_u64() } else { rng.below(1u64 << bits) };
                Value::UInt(v)
            }
            // Integer-valued floats are exactly representable at both
            // widths, so round trips stay bit-exact.
            BasicType::Float(Width::W4) => {
                Value::Float(f64::from((rng.next_u64() >> 40) as u32 as f32))
            }
            BasicType::Float(_) => Value::Float(rng.range_i64(-1 << 40, 1 << 40) as f64 * 0.5),
            BasicType::Char => Value::Char(rng.below(256) as u8),
            BasicType::Enum { variants, .. } => {
                Value::Enum(variants[rng.usize_below(variants.len())].discriminant)
            }
            BasicType::String => {
                let n = rng.usize_below(12);
                Value::Str((0..n).map(|_| (b'a' + rng.below(26) as u8) as char).collect())
            }
        },
        FieldType::Record(r) => value_for(r, rng),
        FieldType::Array { elem, len } => {
            let n = match len {
                pbio::ArrayLen::Fixed(n) => *n,
                pbio::ArrayLen::LengthField(_) => rng.usize_below(4),
            };
            Value::Array((0..n).map(|_| value_for_type(elem, rng)).collect())
        }
    }
}

/// Runs `body` for [`CASES`] derived seeds, labelling failures with the
/// iteration's seed so they reproduce standalone.
fn for_cases(property: &str, mut body: impl FnMut(&mut XorShift64)) {
    for case in 0..CASES {
        let seed = 0xC0FFEE ^ (case << 32) ^ case;
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

// -- wire-format properties -----------------------------------------------------

/// Encode → decode is the identity, in both byte orders.
#[test]
fn pbio_roundtrip() {
    for_cases("pbio_roundtrip", |rng| {
        let fmt = build_format("R", &gen_fields(rng, 2));
        let v = value_for(&fmt, rng);
        v.check(&fmt).unwrap();
        for order in [pbio::ByteOrder::Little, pbio::ByteOrder::Big] {
            let wire = pbio::Encoder::with_order(&fmt, order).encode(&v).unwrap();
            let back = decode_payload(&fmt, &wire).unwrap();
            assert_eq!(back, v);
        }
    });
}

/// The specialized conversion plan computes exactly what the fully
/// meta-data-driven decoder computes, for arbitrary format pairs.
#[test]
fn plan_matches_generic_decoder() {
    for_cases("plan_matches_generic_decoder", |rng| {
        let from = build_format("R", &gen_fields(rng, 1));
        let to = build_format("R", &gen_fields(rng, 1));
        let v = value_for(&from, rng);
        let wire = pbio::Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let generic = GenericDecoder::new(from, to.clone());
        let a = plan.execute(&wire).unwrap();
        let b = generic.decode(&wire).unwrap();
        assert_eq!(a, b);
        a.check(&to).unwrap();
    });
}

/// Format meta-data serialization round-trips and preserves identity.
#[test]
fn format_metadata_roundtrip() {
    for_cases("format_metadata_roundtrip", |rng| {
        let fmt = build_format("R", &gen_fields(rng, 2));
        let bytes = pbio::serialize_format(&fmt);
        let back = pbio::deserialize_format(&bytes).unwrap();
        assert_eq!(format_id(&back), format_id(&fmt));
        assert_eq!(back, *fmt);
    });
}

/// Algorithm 1 invariants: diff(f, f) = 0; diff is bounded by the format
/// weight; the Mismatch Ratio lies in [0, 1].
#[test]
fn diff_invariants() {
    for_cases("diff_invariants", |rng| {
        let a = build_format("R", &gen_fields(rng, 1));
        let b = build_format("R", &gen_fields(rng, 1));
        assert_eq!(diff(&a, &a), 0);
        assert_eq!(diff(&b, &b), 0);
        assert!(diff(&a, &b) <= a.weight());
        assert!(diff(&b, &a) <= b.weight());
        let mr = mismatch_ratio(&a, &b);
        assert!((0.0..=1.0).contains(&mr), "Mr = {mr}");
        let q = MatchQuality::of(&a, &b);
        assert_eq!(q.diff_fwd, diff(&a, &b));
        assert_eq!(q.diff_bwd, diff(&b, &a));
    });
}

/// A perfect pair (diff = 0 both ways) is always found by MaxMatch when the
/// identical format is among the candidates.
#[test]
fn max_match_finds_identity() {
    for_cases("max_match_finds_identity", |rng| {
        let f = build_format("R", &gen_fields(rng, 1));
        let m =
            max_match(std::slice::from_ref(&f), std::slice::from_ref(&f), &MatchConfig::exact())
                .expect("identity must match");
        assert!(m.quality.is_perfect());
    });
}

/// Morphing delivery: for a format with strictly fewer fields on the reader
/// side, the plan-delivered value equals the runtime-converted value.
#[test]
fn near_match_delivery_is_convert_record() {
    for_cases("near_match_delivery_is_convert_record", |rng| {
        let fields = gen_fields(rng, 1);
        let from = build_format("R", &fields);
        // Project a pseudo-random subset of top-level fields.
        let keep = rng.next_u64();
        let kept: Vec<_> = fields
            .iter()
            .enumerate()
            .filter(|(i, _)| (keep >> (i % 64)) & 1 == 1)
            .map(|(_, f)| f.clone())
            .collect();
        if kept.is_empty() {
            return; // analogous to prop_assume!
        }
        let to = build_format("R", &kept);
        let v = value_for(&from, rng);
        let wire = pbio::Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let got = plan.execute(&wire).unwrap();
        assert_eq!(got, pbio::convert_record(&v, &from, &to));
    });
}

/// XML serialization round-trips typed records.
#[test]
fn xml_roundtrip() {
    for_cases("xml_roundtrip", |rng| {
        let fmt = build_format("R", &gen_fields(rng, 1));
        let v = value_for(&fmt, rng);
        let xml = value_to_xml(&v, &fmt);
        let back = xml_to_value(&xml, &fmt).unwrap();
        // Floats survive because Rust's f64 Display is shortest-roundtrip.
        assert_eq!(back, v);
    });
}

/// XML text escaping round-trips strings full of markup metacharacters,
/// multi-byte UTF-8, and control-adjacent whitespace (only `\r` is excluded:
/// XML newline normalization is out of scope).
#[test]
fn xml_escaping_roundtrip() {
    const POOL: &[char] = &[
        '<', '>', '&', '"', '\'', ' ', '\n', '\t', 'a', 'Z', '0', ';', ']', '[', 'é', 'π', '→',
        '中', '🦀', '\\',
    ];
    for_cases("xml_escaping_roundtrip", |rng| {
        let n = rng.usize_below(24);
        let s: String = (0..n).map(|_| POOL[rng.usize_below(POOL.len())]).collect();
        let fmt = FormatBuilder::record("S").string("x").build_arc().unwrap();
        let v = Value::Record(vec![Value::Str(s)]);
        let xml = value_to_xml(&v, &fmt);
        let back = xml_to_value(&xml, &fmt).unwrap();
        assert_eq!(back, v);
    });
}

// -- Ecode differential testing -------------------------------------------------

/// A random arithmetic/logic expression over three int locals, guaranteed
/// division-safe.
fn gen_int_expr(rng: &mut XorShift64, depth: u32) -> String {
    if depth == 0 {
        return match rng.below(2) {
            0 => format!("({})", rng.range_i64(-100, 99)),
            _ => ["a", "b", "c"][rng.usize_below(3)].to_string(),
        };
    }
    match rng.below(7) {
        0 | 1 => gen_int_expr(rng, 0),
        2 => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            let op = ["+", "-", "*"][rng.usize_below(3)];
            format!("({l} {op} {r})")
        }
        3 => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            format!("({l} / (({r}) % 7 + 8))")
        }
        4 => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            let op = ["<", "<=", ">", ">=", "==", "!="][rng.usize_below(6)];
            format!("({l} {op} {r})")
        }
        5 => {
            let (l, r) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            let op = ["&&", "||"][rng.usize_below(2)];
            format!("({l} {op} {r})")
        }
        _ => {
            let (c, t) = (gen_int_expr(rng, depth - 1), gen_int_expr(rng, depth - 1));
            format!("(({c}) ? ({t}) : (0 - {t}))")
        }
    }
}

/// Runs `prog` on the register VM and on the reference interpreter (the
/// specification) from the same roots, asserting that both produce the same
/// outcome — return value or error text — and the same final roots, partial
/// writes before an error included. Returns the agreed outcome.
fn vm_agrees_with_interp(
    prog: &EcodeProgram,
    roots: &[Value],
    ctx: &str,
) -> Result<Option<Value>, String> {
    let mut vm_roots = roots.to_vec();
    let vm = prog.run_with_fuel(&mut vm_roots, 1_000_000).map_err(|e| e.to_string());
    let mut it_roots = roots.to_vec();
    let it = prog.run_interp_with_fuel(&mut it_roots, 1_000_000).map_err(|e| e.to_string());
    assert_eq!(vm, it, "outcome divergence, {ctx}");
    assert_eq!(vm_roots, it_roots, "root divergence, {ctx}");
    vm
}

/// The register VM and the reference interpreter agree on arbitrary
/// expressions (results, output roots, and wrap-around arithmetic
/// included).
#[test]
fn vm_matches_interpreter() {
    for_cases("vm_matches_interpreter", |rng| {
        let e = gen_int_expr(rng, 4);
        let (a, b, c) =
            (rng.range_i64(-1000, 999), rng.range_i64(-1000, 999), rng.range_i64(-1000, 999));
        let src = format!("int a = {a}; int b = {b}; int c = {c}; return {e};");
        let fmt = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let prog = EcodeCompiler::new().bind_output("r", &fmt).compile(&src).unwrap();
        let out = vm_agrees_with_interp(&prog, &[Value::default_record(&fmt)], &src);
        assert!(out.is_ok(), "src: {src}: {out:?}");
    });
}

/// Loops with data-dependent control flow agree across both engines.
#[test]
fn vm_matches_interpreter_loops() {
    for_cases("vm_matches_interpreter_loops", |rng| {
        let n = rng.range_i64(0, 49);
        let step = rng.range_i64(1, 4);
        let brk = rng.range_i64(0, 59);
        let src = format!(
            "int s = 0; int i;
             for (i = 0; i < {n}; i += {step}) {{
                 if (i == {brk}) break;
                 if (i % 3 == 0) continue;
                 s += i;
             }}
             return s;"
        );
        let fmt = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let prog = EcodeCompiler::new().bind_output("r", &fmt).compile(&src).unwrap();
        let out = vm_agrees_with_interp(&prog, &[Value::default_record(&fmt)], &src);
        assert!(out.is_ok(), "src: {src}: {out:?}");
    });
}

/// Array-copy loops agree across both engines, whether or not the lowering
/// collapses them into a `BatchCopy` superinstruction — including sources
/// shorter than their claimed count and negative starts, where both engines
/// must fail with the same error after the same partial copy.
#[test]
fn vm_matches_interpreter_array_loops() {
    let fmt = FormatBuilder::record("A")
        .int("n")
        .var_array_basic("vals", BasicType::Int(Width::W8), "n")
        .build_arc()
        .unwrap();
    let (mut batched, mut scalar, mut failed) = (0, 0, 0);
    for_cases("vm_matches_interpreter_array_loops", |rng| {
        let start = [0, 0, 1, -1][rng.usize_below(4)];
        let limit = ["new.n", "len(new.vals)", "4"][rng.usize_below(3)];
        let rhs = ["new.vals[i]", "new.vals[i]", "new.vals[i] + 1"][rng.usize_below(3)];
        let src = format!(
            "int i; old.n = new.n; for (i = {start}; i < {limit}; i++) old.vals[i] = {rhs}; return i;"
        );
        let prog = EcodeCompiler::new()
            .bind_input("new", &fmt)
            .bind_output("old", &fmt)
            .compile(&src)
            .unwrap();
        let array = |rng: &mut XorShift64| {
            let len = rng.usize_below(7);
            Value::Array((0..len).map(|_| Value::Int(rng.range_i64(-99, 99))).collect())
        };
        // The claimed count need not match the carried elements, and the
        // output may already hold elements the loop overwrites or keeps.
        let input = Value::Record(vec![Value::Int(rng.range_i64(0, 6)), array(rng)]);
        let output = Value::Record(vec![Value::Int(0), array(rng)]);
        let out = vm_agrees_with_interp(&prog, &[input, output], &src);
        if prog.code().insns.iter().any(|i| matches!(i, ecode::RInsn::BatchCopy { .. })) {
            batched += 1;
        } else {
            scalar += 1;
        }
        failed += usize::from(out.is_err());
    });
    assert!(batched > 0 && scalar > 0, "batched {batched}, scalar {scalar}");
    assert!(failed > 0, "no generated case failed mid-copy");
}

/// A compiled transformation applied via the VM equals the interpreter on
/// random inputs (the whole Fig. 5 shape, variable-size input).
#[test]
fn transformation_vm_matches_interp() {
    let member = FormatBuilder::record("M")
        .string("info")
        .int("ID")
        .int("is_source")
        .int("is_sink")
        .build_arc()
        .unwrap();
    let from = FormatBuilder::record("R")
        .int("member_count")
        .var_array_of("member_list", member.clone(), "member_count")
        .build_arc()
        .unwrap();
    let member_v1 = FormatBuilder::record("M").string("info").int("ID").build_arc().unwrap();
    let to = FormatBuilder::record("R")
        .int("member_count")
        .var_array_of("member_list", member_v1.clone(), "member_count")
        .int("src_count")
        .var_array_of("src_list", member_v1, "src_count")
        .build_arc()
        .unwrap();
    let src = r#"
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
    "#;
    let t = Transformation::new(from.clone(), to, src);
    let cx = t.compile().unwrap();
    for_cases("transformation_vm_matches_interp", |rng| {
        let n = rng.usize_below(8);
        let members: Vec<Value> = (0..n)
            .map(|i| {
                Value::Record(vec![
                    Value::str(format!("m{i}")),
                    Value::Int(i as i64),
                    Value::Int(i64::from(rng.bool())),
                    Value::Int(i64::from(rng.bool())),
                ])
            })
            .collect();
        let input = Value::Record(vec![Value::Int(n as i64), Value::Array(members)]);
        input.check(&from).unwrap();
        assert_eq!(cx.apply(&input).unwrap(), cx.apply_interp(&input).unwrap());
    });
}

/// Constant folding is semantics-preserving: the optimized and unoptimized
/// compilations of the same program agree with each other and with the
/// interpreter, which runs the folded AST.
#[test]
fn folding_preserves_semantics() {
    for_cases("folding_preserves_semantics", |rng| {
        let e = gen_int_expr(rng, 4);
        let (a, b, c) = (rng.range_i64(-50, 49), rng.range_i64(-50, 49), rng.range_i64(-50, 49));
        let src = format!("int a = {a}; int b = {b}; int c = {c}; return ({e}) + ({e});");
        let fmt = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let compiler = EcodeCompiler::new().bind_output("r", &fmt);
        let opt = compiler.compile(&src).unwrap();
        let unopt = compiler.compile_unoptimized(&src).unwrap();
        assert!(opt.code().len() <= unopt.code().len());
        let roots = [Value::default_record(&fmt)];
        let v1 = vm_agrees_with_interp(&opt, &roots, &src);
        let v2 = vm_agrees_with_interp(&unopt, &roots, &src);
        assert!(v1.is_ok(), "src: {src}: {v1:?}");
        assert_eq!(v1, v2);
    });
}

/// Programs routed through a user-defined function agree with direct
/// inlining, and the VM's register-window call frames agree with the
/// interpreter.
#[test]
fn functions_are_transparent() {
    for_cases("functions_are_transparent", |rng| {
        let e = gen_int_expr(rng, 3);
        let x = rng.range_i64(-100, 99);
        let fmt = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let compiler = EcodeCompiler::new().bind_output("r", &fmt);
        let via_fn = format!(
            "int f(int a, int b, int c) {{ return {e}; }} return f({x}, {x} + 1, {x} - 1);"
        );
        let inline = format!("int a = {x}; int b = {x} + 1; int c = {x} - 1; return {e};");
        let pf = compiler.compile(&via_fn).unwrap();
        let pi = compiler.compile(&inline).unwrap();
        let roots = [Value::default_record(&fmt)];
        let v1 = vm_agrees_with_interp(&pf, &roots, &via_fn);
        let v2 = vm_agrees_with_interp(&pi, &roots, &inline);
        assert!(v1.is_ok(), "src: {via_fn}: {v1:?}");
        assert_eq!(v1, v2);
    });
}

/// Weighted matching degenerates to unweighted under an empty profile for
/// arbitrary format pairs.
#[test]
fn weighted_degenerates_to_unweighted() {
    for_cases("weighted_degenerates_to_unweighted", |rng| {
        use morph::weighted::{wdiff, wmismatch_ratio, WeightProfile};
        let a = build_format("R", &gen_fields(rng, 1));
        let b = build_format("R", &gen_fields(rng, 1));
        let p = WeightProfile::new();
        assert_eq!(wdiff(&a, &b, &p), diff(&a, &b) as f64);
        let wm = wmismatch_ratio(&a, &b, &p);
        let um = mismatch_ratio(&a, &b);
        assert!((wm - um).abs() < 1e-12, "wMr {wm} vs Mr {um}");
    });
}

// -- fused vs staged morphing ---------------------------------------------------

/// Field kinds the chain generator uses — each has an obvious Ecode
/// assignment form, so random chains always compile. `Arr` is a
/// fixed-stride long array (with its count field), the shape the register
/// lowering can collapse into a `BatchCopy` superinstruction.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ChainKind {
    Long,
    Double,
    Str,
    Arr,
}

fn gen_chain_kind(rng: &mut XorShift64) -> ChainKind {
    match rng.below(4) {
        0 => ChainKind::Long,
        1 => ChainKind::Double,
        2 => ChainKind::Str,
        _ => ChainKind::Arr,
    }
}

fn chain_format(name: &str, fields: &[(String, ChainKind)]) -> Arc<RecordFormat> {
    let mut b = FormatBuilder::record(name);
    for (fname, kind) in fields {
        b = match kind {
            ChainKind::Long => b.long(fname.clone()),
            ChainKind::Double => b.double(fname.clone()),
            ChainKind::Str => b.string(fname.clone()),
            ChainKind::Arr => {
                let count = format!("{fname}_n");
                b.int(count.clone()).var_array_basic(fname, BasicType::Int(Width::W8), count)
            }
        };
    }
    b.build_arc().expect("generated chain formats are valid")
}

/// The copy statement for one retained field. Arrays copy element-wise;
/// about half the time the loop is the canonical plain copy (which the
/// register lowering turns into a `BatchCopy`), otherwise the element is
/// perturbed so the loop must stay scalar — both shapes must agree across
/// engines.
fn chain_copy_stmt(rng: &mut XorShift64, fname: &str, kind: ChainKind) -> String {
    match kind {
        ChainKind::Arr => {
            let rhs =
                if rng.bool() { format!("new.{fname}[i]") } else { format!("new.{fname}[i] + 1") };
            format!(
                "old.{fname}_n = new.{fname}_n; \
                 for (i = 0; i < new.{fname}_n; i++) old.{fname}[i] = {rhs};"
            )
        }
        _ => format!("old.{fname} = new.{fname};"),
    }
}

/// The fused warm path (projected decode + one composed program) and the
/// staged path (full decode, then one VM invocation per chain step) both
/// deliver exactly what the reference interpreter computes step by step
/// from the full decode — over randomized formats and randomized 1–3-step
/// retro-transformation chains, including target fields that no statement
/// assigns (all paths must default-fill identically) and fixed-stride
/// arrays copied by loops the register lowering may or may not be able to
/// batch.
#[test]
fn fused_single_pass_matches_staged_oracle() {
    let mut fused_exercised = false;
    let mut batch_exercised = false;
    for_cases("fused_single_pass_matches_staged_oracle", |rng| {
        // Writer generation: 3–6 random fields. Every generation shares
        // the record name — the matcher pairs formats by name, the field
        // lists are what evolve.
        let mut fields: Vec<(String, ChainKind)> =
            (0..3 + rng.usize_below(4)).map(|i| (format!("f{i}"), gen_chain_kind(rng))).collect();
        let mut generations = vec![fields.clone()];
        let mut formats = vec![chain_format("R", &fields)];
        let mut xforms: Vec<Transformation> = Vec::new();
        let hops = 1 + rng.usize_below(3);
        let mut fresh = 0;
        for k in 1..=hops {
            // Each newer→older step keeps a nonempty subset of the fields…
            let keep = rng.subset(fields.len(), fields.len());
            let mut next: Vec<(String, ChainKind)> =
                keep.iter().map(|&i| fields[i].clone()).collect();
            let mut stmts: Vec<String> =
                next.iter().map(|(f, k)| chain_copy_stmt(rng, f, *k)).collect();
            if next.iter().any(|(_, k)| *k == ChainKind::Arr) {
                stmts.insert(0, "int i;".to_string());
            }
            // …sometimes derives a field from two retained longs…
            let longs: Vec<String> = next
                .iter()
                .filter(|(_, k)| *k == ChainKind::Long)
                .map(|(f, _)| f.clone())
                .collect();
            if longs.len() >= 2 && rng.bool() {
                fresh += 1;
                let name = format!("sum{fresh}");
                stmts.push(format!("old.{name} = new.{} + new.{};", longs[0], longs[1]));
                next.push((name, ChainKind::Long));
            }
            // …and sometimes declares a field no statement assigns: it must
            // come out default-filled, identically on both paths.
            if rng.bool() {
                fresh += 1;
                next.push((format!("d{fresh}"), gen_chain_kind(rng)));
            }
            // Field lists must be unique across generations: a repeat would
            // collapse two generations into one format id (and a step into
            // a self-loop). A fresh name restores uniqueness.
            if generations.contains(&next) {
                fresh += 1;
                next.push((format!("d{fresh}"), gen_chain_kind(rng)));
            }
            let to = chain_format("R", &next);
            xforms.push(Transformation::new(
                Arc::clone(&formats[k - 1]),
                Arc::clone(&to),
                stmts.join("\n"),
            ));
            formats.push(to);
            generations.push(next.clone());
            fields = next;
        }

        let reader = formats.last().unwrap();
        let make_rx = |fusion: bool| {
            let got = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&got);
            let mut rx = MorphReceiver::new();
            rx.set_fusion(fusion);
            rx.register_handler(reader, move |v| sink.lock().unwrap().push(v));
            for t in &xforms {
                rx.import_transformation(t.clone());
            }
            (got, rx)
        };
        let (got_fused, mut rx_fused) = make_rx(true);
        let (got_staged, mut rx_staged) = make_rx(false);

        let v = value_for(&formats[0], rng);
        let wire = pbio::Encoder::new(&formats[0]).encode(&v).unwrap();
        // Reference: the interpreter applies each step to the full decode.
        let mut want = decode_payload(&formats[0], &wire).unwrap();
        for t in &xforms {
            want = t.compile().unwrap().apply_interp(&want).unwrap();
        }
        // Two messages: the first decides (cold, staged on both), the
        // second replays the cached decision — fused, and staged.
        for _ in 0..2 {
            assert!(matches!(rx_fused.process(&wire).unwrap(), Delivery::Delivered(_)));
            assert!(matches!(rx_staged.process(&wire).unwrap(), Delivery::Delivered(_)));
        }
        let want = vec![want; 2];
        assert_eq!(*got_fused.lock().unwrap(), want);
        assert_eq!(*got_staged.lock().unwrap(), want);
        want[0].check(reader).unwrap();
        let snap = rx_fused.registry().snapshot();
        if snap.counter("morph.fused.apply").unwrap_or(0) > 0 {
            fused_exercised = true;
        }
        if snap.counter("ecode.batch.copies").unwrap_or(0) > 0 {
            batch_exercised = true;
        }
    });
    assert!(fused_exercised, "no generated case took the fused warm path");
    assert!(batch_exercised, "no generated case ran a BatchCopy superinstruction");
}

/// Transformation meta-data round-trips for arbitrary generated format
/// pairs (source text is fixed; formats vary).
#[test]
fn transformation_metadata_roundtrips() {
    for_cases("transformation_metadata_roundtrips", |rng| {
        use morph::Transformation;
        let from = build_format("A", &gen_fields(rng, 1));
        let to = build_format("B", &gen_fields(rng, 1));
        let t = Transformation::new(from, to, "/* no-op */");
        let back = Transformation::deserialize(&t.serialize()).unwrap();
        assert_eq!(back.from_id(), t.from_id());
        assert_eq!(back.to_id(), t.to_id());
        assert_eq!(back.source(), t.source());
    });
}

/// Fragmentation round trip: splitting a payload at any budget, then
/// offering the fragments in any order — shuffled, with duplicates mixed
/// in — reassembles the exact original bytes. Sizes are drawn to straddle
/// the budget (smaller, equal, one over, many times over), including the
/// exactly-one-fragment and zero-length edges.
#[test]
fn fragment_split_reassemble_is_identity() {
    use echo::frag::{split_message, Offer, ReassemblyBuffer};

    for_cases("fragment_split_reassemble_is_identity", |rng| {
        let budget = 1 + rng.usize_below(64);
        let size = match rng.below(6) {
            0 => 0,                                                           // empty message
            1 => budget,                         // exactly one fragment
            2 => budget + 1,                     // minimally over
            3 => rng.usize_below(budget.max(1)), // under budget
            _ => budget * (2 + rng.usize_below(9)) + rng.usize_below(budget), // well over
        };
        let payload: Vec<u8> = (0..size).map(|_| rng.next_u64() as u8).collect();
        let payload = pbio::WireBytes::from(payload);
        let frags = split_message(&payload, budget).expect("within u16 fragment numbering");
        assert_eq!(frags.len(), if size == 0 { 1 } else { size.div_ceil(budget) });
        let total: usize = frags.iter().map(|f| f.bytes.len()).sum();
        assert_eq!(total, size, "fragments cover the payload exactly");

        // Arrival order: a shuffle of all fragments, with some duplicated.
        let mut order: Vec<usize> = (0..frags.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.usize_below(i + 1));
        }
        let dupes = rng.usize_below(3);
        for _ in 0..dupes {
            order.push(rng.usize_below(frags.len()));
        }

        let mut buf = ReassemblyBuffer::new(4, u64::MAX);
        let mut completions = 0usize;
        let mut duplicate_parts = 0usize;
        for &i in &order {
            let f = frags[i].clone();
            let frame = f.bytes.clone(); // stand-in for the full frame
            match buf.offer(7, 42, f, frame, None, 0) {
                (Offer::Complete(bytes), evicted) => {
                    assert!(evicted.is_empty(), "one set never evicts");
                    assert_eq!(&*bytes, &*payload, "reassembly is byte-identical");
                    completions += 1;
                }
                (Offer::Buffered, evicted) => assert!(evicted.is_empty()),
                (Offer::DuplicatePart, _) => duplicate_parts += 1,
                (Offer::Mismatch, _) => panic!("self-consistent fragments never mismatch"),
            }
        }
        // Duplicates the buffer sees *before* a set completes are flagged;
        // ones arriving *after* re-open the set and may even re-complete
        // it (on the real path the node's (sender, seq, index) dedup
        // screens them out first) — however they land, every completion
        // above was byte-identical and nothing finished partial.
        assert!(completions >= 1, "all fragments offered, so the set completed");
        assert!(completions + duplicate_parts <= frags.len() + dupes);
        assert!(buf.len() <= 1, "at most a duplicate-reopened set remains");
    });
}

// -- journal replay properties --------------------------------------------------

/// Brute-force reconstruction of what a replay of `prefix` must produce,
/// computed with deliberately different algorithms than the journal's
/// incremental fold: unacked membership by full-log rescans (a `Sent`
/// survives iff no *later* `Acked` carries its key, and the latest `Sent`
/// bytes win), watermarks and the floor by filter-and-max.
fn brute_force_replay(prefix: &[echo::JournalEntry]) -> echo::Recovered {
    use echo::JournalEntry as E;
    let mut rec = echo::Recovered::default();
    for (i, e) in prefix.iter().enumerate() {
        if let E::Sent { to, channel, seq, frag_index, frame } = e {
            let key = (*to, *channel, *seq, *frag_index);
            let acked_later = prefix[i + 1..].iter().any(|later| {
                matches!(later, E::Acked { to: t, channel: c, seq: s, frag_index: f }
                    if (*t, *c, *s, *f) == key)
            });
            if acked_later {
                rec.unacked.remove(&key);
            } else {
                rec.unacked.insert(key, frame.clone());
            }
        }
        if let E::Seen { sender, seq, frag_index } = e {
            rec.seen.push((*sender, *seq, *frag_index));
        }
    }
    for e in prefix {
        if let E::Watermark { channel, sender, seq: _ } = e {
            let best = prefix
                .iter()
                .filter_map(|x| match x {
                    E::Watermark { channel: c, sender: s, seq: q }
                        if (c, s) == (channel, sender) =>
                    {
                        Some(*q)
                    }
                    _ => None,
                })
                .max()
                .unwrap();
            rec.watermarks.insert((*channel, *sender), best);
        }
    }
    rec.seq_floor = prefix
        .iter()
        .filter_map(|e| match e {
            E::SeqFloor { next_seq } => Some(*next_seq),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    rec
}

/// A random journal entry over a small key space, so `Sent`/`Acked`/
/// `Watermark` keys collide often (collisions are where replay can go
/// wrong: overwrites, ack-resurrection, watermark regressions).
fn gen_journal_entry(rng: &mut XorShift64) -> echo::JournalEntry {
    use echo::JournalEntry as E;
    let to = rng.below(3);
    let channel = echo::ChannelId(rng.below(2) as u32 + 1);
    let seq = rng.below(8);
    let frag_index = rng.below(2) as u16;
    match rng.below(5) {
        0 => E::Sent {
            to,
            channel,
            seq,
            frag_index,
            frame: pbio::WireBytes::from(vec![rng.next_u64() as u8, seq as u8]),
        },
        1 => E::Acked { to, channel, seq, frag_index },
        2 => E::Seen { sender: to, seq, frag_index },
        3 => E::Watermark { channel, sender: to, seq },
        _ => E::SeqFloor { next_seq: rng.below(64) },
    }
}

/// Replay equals brute force at every crash cut-point: under arbitrary
/// interleavings of appends, explicit syncs, and crashes (each tearing the
/// unsynced tail off both the journal and a mirrored model log), the
/// journal's replay always equals the brute-force reconstruction of its
/// synced prefix, and its self-accounting (`appended`/`synced`/`lost`)
/// matches the model's tallies exactly.
#[test]
fn journal_replay_matches_brute_force_across_crash_cuts() {
    for_cases("journal_replay_matches_brute_force_across_crash_cuts", |rng| {
        let batch = 1 + rng.usize_below(8);
        let mut journal = echo::Journal::new(batch);
        // The model mirrors only the *spec*: entries land in a log, forced
        // or batch-filling appends move the synced fence, a crash truncates
        // to it. Everything downstream (replay content) is derived from
        // scratch by `brute_force_replay`.
        let mut log: Vec<echo::JournalEntry> = Vec::new();
        let mut synced = 0usize;
        let mut lost_total = 0u64;
        let mut appended_total = 0u64;
        let mut at = 0u64;

        for _ in 0..40 {
            match rng.below(10) {
                // Crash: both sides tear off the unsynced tail.
                0 => {
                    let want_lost = log.len() - synced;
                    assert_eq!(journal.crash(), want_lost, "crash must report the torn-off tail");
                    log.truncate(synced);
                    lost_total += want_lost as u64;
                }
                // Explicit sync: the whole log becomes durable.
                1 => {
                    journal.sync();
                    synced = log.len();
                }
                _ => {
                    let entry = gen_journal_entry(rng);
                    at += rng.below(1_000);
                    journal.append(at, entry.clone());
                    appended_total += 1;
                    log.push(entry.clone());
                    let forced = !matches!(
                        entry,
                        echo::JournalEntry::Acked { .. } | echo::JournalEntry::Watermark { .. }
                    );
                    if forced || log.len() - synced >= batch {
                        synced = log.len();
                    }
                }
            }
            // The invariant holds at *every* step, not just at the end:
            // what a crash right now would leave behind replays to exactly
            // the brute-force reconstruction of the synced prefix.
            assert_eq!(journal.synced_len(), synced, "synced fence diverged from the model");
            assert_eq!(journal.len(), log.len());
            assert_eq!(journal.replay(), brute_force_replay(&log[..synced]));
        }

        let stats = journal.stats();
        assert_eq!(stats.appended, appended_total);
        assert_eq!(stats.lost, lost_total);
        // Every entry is appended once and thereafter either synced or
        // lost — never both, never neither — except the tail still in
        // flight at the end.
        let in_flight = (log.len() - synced) as u64;
        assert_eq!(stats.synced + lost_total + in_flight, appended_total);
    });
}

// -- rolling-window properties --------------------------------------------------

/// Reference model for `RollingWindow`: keep every recorded (epoch, value)
/// and re-derive visibility from the documented rule — a sample recorded
/// at epoch `e` is visible at the current epoch `E` while `E - e < slots`.
fn model_window_sum(records: &[(u64, u64)], now_ns: u64, slots: u64, slot_ns: u64) -> (u64, u64) {
    let epoch_now = now_ns / slot_ns;
    records
        .iter()
        .filter(|&&(at, _)| {
            let e = at / slot_ns;
            e <= epoch_now && epoch_now - e < slots
        })
        .fold((0, 0), |(s, c), &(_, v)| (s + v, c + 1))
}

/// Under arbitrary forward clock jumps — within a slot, across several
/// slots, past whole windows — slot rotation never loses a live sample and
/// never resurrects a stale one: the ring agrees with a from-scratch model
/// at every step.
#[test]
fn rolling_window_slot_rotation_across_clock_jumps() {
    for_cases("rolling_window_slot_rotation_across_clock_jumps", |rng| {
        let slots = 1 + rng.usize_below(8);
        let slot_ns = 1 + rng.below(1_000);
        let mut w = obs::RollingWindow::new(slots, slot_ns);
        let mut records: Vec<(u64, u64)> = Vec::new();
        let mut now = rng.below(1_000);
        for _ in 0..64 {
            // Jump geometry: mostly small steps, sometimes past the window.
            now += match rng.below(4) {
                0 => rng.below(slot_ns.max(2) / 2 + 1),         // intra-slot
                1 => slot_ns + rng.below(slot_ns),              // next slot
                2 => rng.below(3 * slot_ns * slots as u64 + 1), // multi-window
                _ => 0,                                         // same instant
            };
            let v = rng.below(1_000);
            w.record(now, v);
            records.push((now, v));
            let (want_sum, want_count) = model_window_sum(&records, now, slots as u64, slot_ns);
            assert_eq!(w.sum(now), want_sum, "sum diverged at t={now}");
            assert_eq!(w.count(now), want_count, "count diverged at t={now}");
        }
        // Reading far past the last record finds every slot stale.
        let far = now + slot_ns * (slots as u64 + 1);
        assert_eq!(w.sum(far), 0);
        assert_eq!(w.count(far), 0);
    });
}

/// Monotonicity both ways: recording more at the same instant never
/// lowers the windowed sum or rate, and letting time pass without
/// recording never raises them. The EWMA stays inside the sample range.
#[test]
fn window_rate_monotonicity_and_ewma_bounds() {
    for_cases("window_rate_monotonicity_and_ewma_bounds", |rng| {
        let slots = 1 + rng.usize_below(6);
        let slot_ns = 1 + rng.below(10_000);
        let mut w = obs::RollingWindow::new(slots, slot_ns);
        let mut now = 0u64;
        for _ in 0..32 {
            now += rng.below(2 * slot_ns);
            let before_sum = w.sum(now);
            let before_rate = w.rate_per_sec(now);
            w.record(now, 1 + rng.below(100));
            assert!(w.sum(now) > before_sum, "recording must raise the sum");
            assert!(w.rate_per_sec(now) >= before_rate, "recording must not lower the rate");
            // Forgetting is monotone: with no new samples, the sum can
            // only shrink as the window slides.
            let sum_now = w.sum(now);
            let later = now + rng.below(2 * slot_ns * slots as u64);
            assert!(w.sum(later) <= sum_now, "aging out must not create samples");
        }

        let num = 1 + rng.below(8);
        let den = num + rng.below(8);
        let mut e = obs::Ewma::new(num, den);
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for _ in 0..32 {
            let s = rng.below(1_000_000);
            lo = lo.min(s);
            hi = hi.max(s);
            e.observe(s);
            assert!(
                (lo..=hi).contains(&e.get()),
                "EWMA {} escaped the observed range {lo}..={hi}",
                e.get()
            );
        }
    });
}

/// Clock-source equivalence: a `RateGauge` driven through a virtual clock
/// publishes exactly the rate a bare `RollingWindow` computes from the
/// same explicit timestamps. Rates are pure functions of clock readings —
/// swap in a wall clock producing the same readings and nothing changes,
/// which is why virtual-time chaos replays are byte-identical.
#[test]
fn rate_gauge_matches_explicit_window_on_same_readings() {
    for_cases("rate_gauge_matches_explicit_window_on_same_readings", |rng| {
        let slots = 1 + rng.usize_below(6);
        let slot_ns = 1 + rng.below(100_000);
        let clock = Arc::new(obs::VirtualClock::new());
        let reg = obs::Registry::with_clock(clock.clone());
        let mut rg = obs::RateGauge::new(clock.clone(), reg.gauge("prop.rate"), slots, slot_ns);
        let mut bare = obs::RollingWindow::new(slots, slot_ns);
        let mut now = 0u64;
        for _ in 0..48 {
            now += rng.below(3 * slot_ns);
            clock.set_ns(now);
            let v = rng.below(500);
            rg.record(v);
            bare.record(now, v);
            let want = bare.rate_per_sec(now);
            assert_eq!(rg.rate_per_sec(), want, "rate diverged at t={now}");
            assert_eq!(
                reg.snapshot().gauge("prop.rate"),
                Some(i64::try_from(want).unwrap()),
                "published gauge diverged at t={now}"
            );
        }
    });
}
