//! Specialized conversion plans — this crate's analogue of PBIO's dynamic
//! code generation.
//!
//! The original PBIO emits native machine code, once, for each (wire format,
//! native format) pair, so that every subsequent message is converted by a
//! straight-line routine with no meta-data interpretation. Runtime native
//! codegen is out of scope here (see DESIGN.md "Substitutions"); instead we
//! *compile* the pair into a [`ConversionPlan`] — a resolved program of copy
//! and convert steps with all field-name resolution, type-compatibility
//! decisions, and default-value selection done at compile time. Executing a
//! plan touches no format meta-data and performs no name lookups, preserving
//! the architectural property the paper measures: a one-time compilation
//! cost, then cheap per-message conversion (Algorithm 2's caching).

use std::sync::Arc;

use crate::decode::Cursor;
use crate::encode::{parse_header, HEADER_LEN};
use crate::error::{PbioError, Result};
use crate::types::{ArrayLen, BasicType, FieldType, RecordFormat};
use crate::value::Value;

/// How a decoded wire scalar is materialized into the native value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cast {
    /// Narrow/widen to a signed integer of the native width.
    ToInt(crate::types::Width),
    /// Narrow/widen to an unsigned integer of the native width.
    ToUInt(crate::types::Width),
    ToFloat,
    Same,
}

/// What scalar to read off the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WireScalar {
    Int(usize),
    UInt(usize),
    Float(usize),
    Char,
    Enum,
    Str,
}

impl WireScalar {
    fn of(b: &BasicType) -> WireScalar {
        match b {
            BasicType::Int(w) => WireScalar::Int(w.bytes()),
            BasicType::UInt(w) => WireScalar::UInt(w.bytes()),
            BasicType::Float(w) => WireScalar::Float(w.bytes()),
            BasicType::Char => WireScalar::Char,
            BasicType::Enum { .. } => WireScalar::Enum,
            BasicType::String => WireScalar::Str,
        }
    }
}

#[derive(Debug, Clone)]
enum ElemPlan {
    Basic {
        read: WireScalar,
        cast: Cast,
    },
    Record(RecordPlan),
    Array {
        elem: Box<ElemPlan>,
        len: LenPlan,
        /// Fixed wire stride of one element, when every element occupies the
        /// same number of payload bytes ([`FieldType::wire_stride`]). Lets
        /// execution bounds-check the whole range once and reserve the exact
        /// element count instead of a defensive cap.
        stride: Option<usize>,
    },
}

#[derive(Debug, Clone, Copy)]
enum LenPlan {
    Fixed(usize),
    /// Count comes from the wire field at this index of the *enclosing*
    /// record level (already decoded — resolved and validated at compile
    /// time).
    WireField(usize),
}

#[derive(Debug, Clone)]
struct Step {
    /// Destination field index in the native record, `None` to skip.
    dst: Option<usize>,
    elem: ElemPlan,
    /// True if this wire field is an integer whose raw value must be
    /// remembered for later variable-length arrays at this level.
    is_count_source: bool,
}

#[derive(Debug, Clone)]
struct RecordPlan {
    /// Number of fields in the native record.
    native_len: usize,
    /// Pre-resolved values for native fields with no wire source.
    prefill: Vec<(usize, Value)>,
    /// One step per wire field, in wire order.
    steps: Vec<Step>,
    /// `(array_field, count_field)` native index pairs to re-synchronize
    /// after decoding, maintaining the length-field invariant.
    len_syncs: Vec<(usize, usize)>,
    /// True when some step is a count source, i.e. this level has a
    /// variable-length array. Only such levels need a count table, so
    /// records without one (most array elements) decode without it.
    has_count_sources: bool,
}

/// A compiled wire-to-native conversion routine for one format pair.
///
/// Compile once (e.g. on first receipt of an unseen format — Algorithm 2
/// line 22), cache, and execute per message.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::{ConversionPlan, Encoder, FormatBuilder, Value};
///
/// let wire = FormatBuilder::record("M").int("a").string("x").build_arc()?;
/// let native = FormatBuilder::record("M").string("x").build_arc()?;
/// let plan = ConversionPlan::compile(&wire, &native)?;
/// let msg = Encoder::new(&wire).encode(&Value::Record(vec![1.into(), "hi".into()]))?;
/// assert_eq!(plan.execute(&msg)?, Value::Record(vec![Value::str("hi")]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConversionPlan {
    wire: Arc<RecordFormat>,
    native: Arc<RecordFormat>,
    root: RecordPlan,
}

impl ConversionPlan {
    /// Compiles the conversion from `wire` (sender format) to `native`
    /// (receiver format).
    ///
    /// Fields match by name when their types are structurally compatible
    /// ([`BasicType::convertible_to`] for basics, recursive matching for
    /// records/arrays). Unmatched wire fields are skipped; unmatched native
    /// fields take their declared default (or the canonical zero value).
    ///
    /// # Errors
    ///
    /// Returns [`PbioError::BadFormat`] if either format violates
    /// length-field invariants (cannot happen for formats built through
    /// [`RecordFormat::new`]).
    pub fn compile(wire: &Arc<RecordFormat>, native: &Arc<RecordFormat>) -> Result<ConversionPlan> {
        let root = compile_record(wire, native)?;
        Ok(ConversionPlan { wire: Arc::clone(wire), native: Arc::clone(native), root })
    }

    /// Compiles the identity plan for a single format (pure decode).
    ///
    /// # Errors
    ///
    /// See [`ConversionPlan::compile`].
    pub fn identity(format: &Arc<RecordFormat>) -> Result<ConversionPlan> {
        ConversionPlan::compile(format, format)
    }

    /// Compiles a *projected* identity plan: top-level fields whose entry in
    /// `used` is false are parsed for cursor advancement but never
    /// materialized — strings, records, and arrays in dead fields allocate
    /// nothing, and the output record carries their default values instead.
    ///
    /// This is the decode half of a fused morph plan: the fusion layer scans
    /// a compiled transformation chain for the source fields it actually
    /// reads and projects everything else away, so per-message decode cost is
    /// proportional to the fields consumed (the Selective Field Transmission
    /// observation applied at the receiver).
    ///
    /// Length-field synchronization is dropped for projected-away arrays so a
    /// *used* count field keeps its wire value rather than being rewritten to
    /// the (empty) default array's length.
    ///
    /// # Errors
    ///
    /// [`PbioError::BadFormat`] when `used` does not have one entry per
    /// top-level field; otherwise as [`ConversionPlan::identity`].
    pub fn project(format: &Arc<RecordFormat>, used: &[bool]) -> Result<ConversionPlan> {
        if used.len() != format.fields().len() {
            return Err(PbioError::BadFormat(format!(
                "projection mask has {} entries for {} fields",
                used.len(),
                format.fields().len()
            )));
        }
        let mut plan = ConversionPlan::identity(format)?;
        let mut dropped = Vec::new();
        for (i, step) in plan.root.steps.iter_mut().enumerate() {
            if !used[i] {
                step.dst = None;
                dropped.push(i);
            }
        }
        for i in dropped {
            let fd = &format.fields()[i];
            let v = fd.default().cloned().unwrap_or_else(|| Value::default_for(fd.ty()));
            plan.root.prefill.push((i, v));
        }
        plan.root.len_syncs.retain(|&(arr, _)| used[arr]);
        Ok(plan)
    }

    /// The sender-side format.
    pub fn wire_format(&self) -> &Arc<RecordFormat> {
        &self.wire
    }

    /// The receiver-side format.
    pub fn native_format(&self) -> &Arc<RecordFormat> {
        &self.native
    }

    /// Executes the plan on a full wire message (header + payload),
    /// producing a value shaped by the native format.
    ///
    /// # Errors
    ///
    /// Header/truncation errors as in [`crate::decode::decode_payload`].
    /// Does **not** verify that the message's format id matches the plan's
    /// wire format — callers (the morphing receiver) route by id first.
    pub fn execute(&self, buf: &[u8]) -> Result<Value> {
        let h = parse_header(buf)?;
        let payload = &buf[HEADER_LEN..HEADER_LEN + h.payload_len];
        let mut c = Cursor::new(payload, h.order);
        let v = exec_record(&self.root, &mut c)?;
        if !c.at_end() {
            return Err(PbioError::BadData("trailing bytes after record payload".into()));
        }
        Ok(v)
    }

    /// Executes the plan on a bare payload (no header), assuming
    /// little-endian scalars. Used by transports that frame messages
    /// themselves.
    ///
    /// # Errors
    ///
    /// Same as [`ConversionPlan::execute`].
    pub fn execute_payload(&self, payload: &[u8]) -> Result<Value> {
        let mut c = Cursor::new(payload, crate::encode::ByteOrder::Little);
        let v = exec_record(&self.root, &mut c)?;
        if !c.at_end() {
            return Err(PbioError::BadData("trailing bytes after record payload".into()));
        }
        Ok(v)
    }
}

fn types_match(wire: &FieldType, native: &FieldType) -> bool {
    match (wire, native) {
        (FieldType::Basic(a), FieldType::Basic(b)) => a.convertible_to(b),
        (FieldType::Record(_), FieldType::Record(_)) => true,
        (FieldType::Array { elem: a, len: la }, FieldType::Array { elem: b, len: lb }) => {
            // The length discipline is part of the type: converting a
            // variable array into a fixed one (or fixed arrays of different
            // lengths) cannot preserve the target's length invariant, so
            // such fields are unmatched and take defaults.
            let len_ok = match (la, lb) {
                (ArrayLen::Fixed(n), ArrayLen::Fixed(m)) => n == m,
                (ArrayLen::LengthField(_), ArrayLen::LengthField(_)) => true,
                _ => false,
            };
            len_ok && types_match(a, b)
        }
        _ => false,
    }
}

fn compile_record(wire: &RecordFormat, native: &RecordFormat) -> Result<RecordPlan> {
    let mut taken: Vec<bool> = vec![false; native.fields().len()];
    let mut steps = Vec::with_capacity(wire.fields().len());

    for wf in wire.fields() {
        let dst = native
            .field_index(wf.name())
            .filter(|&i| !taken[i] && types_match(wf.ty(), native.fields()[i].ty()));
        if let Some(i) = dst {
            taken[i] = true;
        }
        let elem = compile_elem(wf.ty(), dst.map(|i| native.fields()[i].ty()), wire)?;
        steps.push(Step { dst, elem, is_count_source: false });
    }
    let has_count_sources = mark_count_sources(&mut steps);

    let prefill = native
        .fields()
        .iter()
        .enumerate()
        .filter(|(i, _)| !taken[*i])
        .map(|(i, fd)| (i, fd.default().cloned().unwrap_or_else(|| Value::default_for(fd.ty()))))
        .collect();

    let len_syncs = native
        .fields()
        .iter()
        .enumerate()
        .filter_map(|(i, fd)| match fd.ty() {
            FieldType::Array { len: ArrayLen::LengthField(name), .. } => {
                native.field_index(name).map(|c| (i, c))
            }
            _ => None,
        })
        .collect();

    Ok(RecordPlan {
        native_len: native.fields().len(),
        prefill,
        steps,
        len_syncs,
        has_count_sources,
    })
}

/// Compiles one wire element. `level` is the record whose fields size any
/// variable-length array in `wire_ty` — the field's own record, also for
/// arrays nested inside array elements.
fn compile_elem(
    wire_ty: &FieldType,
    native_ty: Option<&FieldType>,
    level: &RecordFormat,
) -> Result<ElemPlan> {
    match (wire_ty, native_ty) {
        (FieldType::Basic(wb), nb) => {
            let cast = match nb {
                None => Cast::Same,
                Some(FieldType::Basic(nb)) => match nb {
                    BasicType::Int(w) => Cast::ToInt(*w),
                    BasicType::UInt(w) => Cast::ToUInt(*w),
                    BasicType::Float(_) => Cast::ToFloat,
                    _ => Cast::Same,
                },
                Some(_) => unreachable!("types_match checked basic-vs-basic"),
            };
            Ok(ElemPlan::Basic { read: WireScalar::of(wb), cast })
        }
        (FieldType::Record(wr), None) => {
            // Skipped nested record: compile against an empty destination by
            // reusing the record plan machinery with all fields unmatched.
            Ok(ElemPlan::Record(compile_skip_record(wr)?))
        }
        (FieldType::Record(wr), Some(FieldType::Record(nr))) => {
            Ok(ElemPlan::Record(compile_record(wr, nr)?))
        }
        (FieldType::Array { elem, len }, nty) => {
            let native_elem = match nty {
                None => None,
                Some(FieldType::Array { elem: ne, .. }) => Some(ne.as_ref()),
                Some(_) => unreachable!("types_match checked array-vs-array"),
            };
            Ok(ElemPlan::Array {
                elem: Box::new(compile_elem(elem, native_elem, level)?),
                len: match len {
                    ArrayLen::Fixed(n) => LenPlan::Fixed(*n),
                    ArrayLen::LengthField(name) => {
                        LenPlan::WireField(level.field_index(name).ok_or_else(|| {
                            PbioError::BadFormat(format!("no length field `{name}`"))
                        })?)
                    }
                },
                stride: elem.wire_stride(),
            })
        }
        (FieldType::Record(_), Some(_)) => unreachable!("types_match checked record-vs-record"),
    }
}

/// A record plan that parses (for cursor advancement) but stores nothing.
fn compile_skip_record(wire: &RecordFormat) -> Result<RecordPlan> {
    let mut steps = Vec::with_capacity(wire.fields().len());
    for wf in wire.fields() {
        let elem = compile_elem(wf.ty(), None, wire)?;
        steps.push(Step { dst: None, elem, is_count_source: false });
    }
    let has_count_sources = mark_count_sources(&mut steps);
    Ok(RecordPlan {
        native_len: 0,
        prefill: Vec::new(),
        steps,
        len_syncs: Vec::new(),
        has_count_sources,
    })
}

/// Flags the steps whose integers size a variable-length array at this
/// record level — read by an array field or by an array nested inside an
/// array field's elements. Returns whether any step was flagged.
fn mark_count_sources(steps: &mut [Step]) -> bool {
    let mut sources = Vec::new();
    for step in steps.iter() {
        let mut elem = &step.elem;
        while let ElemPlan::Array { elem: inner, len, .. } = elem {
            if let LenPlan::WireField(i) = len {
                sources.push(*i);
            }
            elem = inner;
        }
    }
    for &i in &sources {
        steps[i].is_count_source = true;
    }
    !sources.is_empty()
}

fn exec_record(plan: &RecordPlan, c: &mut Cursor<'_>) -> Result<Value> {
    let mut out: Vec<Value> = Vec::new();
    if plan.native_len > 0 {
        out = vec![Value::Int(0); plan.native_len];
        for (i, v) in &plan.prefill {
            out[*i] = v.clone();
        }
    }
    // `Vec::new` does not allocate: a level without count sources has no
    // variable-length array to read a count for.
    let mut counts: Vec<u64> =
        if plan.has_count_sources { vec![0; plan.steps.len()] } else { Vec::new() };
    for (wi, step) in plan.steps.iter().enumerate() {
        let v = exec_elem(&step.elem, c, &counts, step.dst.is_some())?;
        if step.is_count_source {
            if let Some(ref v) = v {
                counts[wi] = v.as_count().unwrap_or(0);
            }
        }
        if let (Some(dst), Some(v)) = (step.dst, v) {
            out[dst] = v;
        }
    }
    let mut rec = Value::Record(out);
    if let Value::Record(ref mut fields) = rec {
        for &(arr, cnt) in &plan.len_syncs {
            let n = fields[arr].as_array().map_or(0, <[Value]>::len) as u64;
            fields[cnt] = match fields[cnt] {
                Value::UInt(_) => Value::UInt(n),
                _ => Value::Int(n as i64),
            };
        }
    }
    Ok(rec)
}

/// Decodes one element. `build` is false when the value is being skipped —
/// strings and records are then parsed without allocation. Count-source
/// integers are always materialized (cheap) so array lengths stay available.
fn exec_elem(
    elem: &ElemPlan,
    c: &mut Cursor<'_>,
    counts: &[u64],
    build: bool,
) -> Result<Option<Value>> {
    match elem {
        ElemPlan::Basic { read, cast } => match read {
            WireScalar::Int(w) => {
                let v = c.read_int(*w)?;
                Ok(Some(apply_cast_i(v, *cast)))
            }
            WireScalar::UInt(w) => {
                let v = c.read_uint(*w)?;
                Ok(Some(apply_cast_u(v, *cast)))
            }
            WireScalar::Float(w) => {
                let v = c.read_float(*w)?;
                Ok(Some(Value::Float(v)))
            }
            WireScalar::Char => Ok(Some(Value::Char(c.read_char()?))),
            WireScalar::Enum => Ok(Some(Value::Enum(c.read_enum()?))),
            WireScalar::Str => {
                if build {
                    Ok(Some(Value::Str(c.read_string()?)))
                } else {
                    c.skip_string()?;
                    Ok(None)
                }
            }
        },
        ElemPlan::Record(rp) => {
            let v = exec_record(rp, c)?;
            Ok(if build { Some(v) } else { None })
        }
        ElemPlan::Array { elem, len, stride } => {
            let n = match len {
                LenPlan::Fixed(n) => *n,
                LenPlan::WireField(i) => counts[*i] as usize,
            };
            // Fixed-stride ranges are bounds-checked as a block: one
            // comparison proves every element read is in-bounds, which also
            // justifies reserving the exact count (a hostile length field
            // fails here instead of over-allocating).
            if let Some(s) = stride {
                match n.checked_mul(*s) {
                    Some(need) if need <= c.remaining() => {}
                    _ => return Err(PbioError::UnexpectedEof),
                }
            }
            if build {
                let cap = if stride.is_some() { n } else { n.min(1 << 16) };
                let mut es = Vec::with_capacity(cap);
                for _ in 0..n {
                    es.push(
                        exec_elem(elem, c, counts, true)?
                            .expect("build=true always yields a value"),
                    );
                }
                Ok(Some(Value::Array(es)))
            } else {
                for _ in 0..n {
                    exec_elem(elem, c, counts, false)?;
                }
                Ok(None)
            }
        }
    }
}

fn apply_cast_i(v: i64, cast: Cast) -> Value {
    match cast {
        Cast::ToInt(w) => Value::Int(w.wrap_i64(v as u64)),
        Cast::ToUInt(w) => Value::UInt(w.wrap_u64(v as u64)),
        Cast::ToFloat => Value::Float(v as f64),
        Cast::Same => Value::Int(v),
    }
}

fn apply_cast_u(v: u64, cast: Cast) -> Value {
    match cast {
        Cast::ToInt(w) => Value::Int(w.wrap_i64(v)),
        Cast::ToUInt(w) => Value::UInt(w.wrap_u64(v)),
        Cast::ToFloat => Value::Float(v as f64),
        Cast::Same => Value::UInt(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Encoder;
    use crate::types::FormatBuilder;

    fn member(extra: bool) -> Arc<RecordFormat> {
        let b = FormatBuilder::record("Member").string("info").int("ID");
        let b = if extra { b.int("is_source").int("is_sink") } else { b };
        b.build_arc().unwrap()
    }

    fn resp(extra: bool) -> Arc<RecordFormat> {
        FormatBuilder::record("Resp")
            .int("count")
            .var_array_of("list", member(extra), "count")
            .build_arc()
            .unwrap()
    }

    #[test]
    fn identity_plan_roundtrips() {
        let fmt = resp(true);
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![
                Value::str("a"),
                Value::Int(1),
                Value::Int(1),
                Value::Int(0),
            ])]),
        ]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        let plan = ConversionPlan::identity(&fmt).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), v);
    }

    #[test]
    fn plan_drops_extra_nested_fields() {
        let from = resp(true);
        let to = resp(false);
        let v = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1), Value::Int(1), Value::Int(0)]),
                Value::Record(vec![Value::str("b"), Value::Int(2), Value::Int(0), Value::Int(1)]),
            ]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out = plan.execute(&wire).unwrap();
        assert_eq!(
            out,
            Value::Record(vec![
                Value::Int(2),
                Value::Array(vec![
                    Value::Record(vec![Value::str("a"), Value::Int(1)]),
                    Value::Record(vec![Value::str("b"), Value::Int(2)]),
                ])
            ])
        );
    }

    #[test]
    fn plan_fills_missing_nested_fields_with_defaults() {
        let from = resp(false);
        let to = resp(true);
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![Value::str("a"), Value::Int(7)])]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out = plan.execute(&wire).unwrap();
        assert_eq!(
            out,
            Value::Record(vec![
                Value::Int(1),
                Value::Array(vec![Value::Record(vec![
                    Value::str("a"),
                    Value::Int(7),
                    Value::Int(0),
                    Value::Int(0),
                ])])
            ])
        );
    }

    #[test]
    fn plan_reorders_fields() {
        let from = FormatBuilder::record("R").int("a").int("b").build_arc().unwrap();
        let to = FormatBuilder::record("R").int("b").int("a").build_arc().unwrap();
        let wire =
            Encoder::new(&from).encode(&Value::Record(vec![Value::Int(1), Value::Int(2)])).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(2), Value::Int(1)]));
    }

    #[test]
    fn plan_skips_strings_without_decoding() {
        let from = FormatBuilder::record("R").string("junk").int("keep").build_arc().unwrap();
        let to = FormatBuilder::record("R").int("keep").build_arc().unwrap();
        let wire = Encoder::new(&from)
            .encode(&Value::Record(vec![Value::str("a long skipped string"), Value::Int(5)]))
            .unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(5)]));
    }

    #[test]
    fn plan_uses_declared_defaults() {
        use crate::types::{BasicType, Width};
        let from = FormatBuilder::record("R").int("a").build_arc().unwrap();
        let to = FormatBuilder::record("R")
            .int("a")
            .field_with_default("mode", FieldType::Basic(BasicType::Int(Width::W4)), Value::Int(3))
            .build_arc()
            .unwrap();
        let wire = Encoder::new(&from).encode(&Value::Record(vec![Value::Int(1)])).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(1), Value::Int(3)]));
    }

    #[test]
    fn plan_casts_int_to_float() {
        let from = FormatBuilder::record("R").int("x").build_arc().unwrap();
        let to = FormatBuilder::record("R").double("x").build_arc().unwrap();
        let wire = Encoder::new(&from).encode(&Value::Record(vec![Value::Int(4)])).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Float(4.0)]));
    }

    #[test]
    fn plan_skips_entire_var_array() {
        let from = resp(false);
        let to = FormatBuilder::record("Resp").int("count").build_arc().unwrap();
        let v = Value::Record(vec![
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1)]),
                Value::Record(vec![Value::str("b"), Value::Int(2)]),
            ]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), Value::Record(vec![Value::Int(2)]));
    }

    #[test]
    fn plan_syncs_native_length_field_without_wire_source() {
        // Native has count+list; wire only has the list under a fixed name
        // match... not possible without a count, so emulate: wire count named
        // differently, list matched. Native count must equal list len after
        // decode (sync), not the default 0.
        let m = member(false);
        let from = FormatBuilder::record("Resp")
            .int("n")
            .var_array_of("list", m.clone(), "n")
            .build_arc()
            .unwrap();
        let to = FormatBuilder::record("Resp")
            .int("count")
            .var_array_of("list", m, "count")
            .build_arc()
            .unwrap();
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![Value::str("a"), Value::Int(1)])]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let out = plan.execute(&wire).unwrap();
        assert_eq!(out.field(&to, "count"), Some(&Value::Int(1)));
    }

    #[test]
    fn projected_plan_skips_dead_fields_but_keeps_arity() {
        let fmt = FormatBuilder::record("R")
            .string("junk")
            .int("keep")
            .int("count")
            .var_array_of("list", member(false), "count")
            .build_arc()
            .unwrap();
        let v = Value::Record(vec![
            Value::str("a very long string nobody reads"),
            Value::Int(7),
            Value::Int(2),
            Value::Array(vec![
                Value::Record(vec![Value::str("a"), Value::Int(1)]),
                Value::Record(vec![Value::str("b"), Value::Int(2)]),
            ]),
        ]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        // Only `keep` and `count` are consumed downstream.
        let used = [false, true, true, false];
        let plan = ConversionPlan::project(&fmt, &used).unwrap();
        let out = plan.execute(&wire).unwrap();
        // Full arity, dead fields defaulted, and the *used* count field keeps
        // its wire value (its sync pair was dropped with the array).
        assert_eq!(
            out,
            Value::Record(
                vec![Value::str(""), Value::Int(7), Value::Int(2), Value::Array(vec![]),]
            )
        );
        // All-used projection degenerates to the identity plan.
        let ident = ConversionPlan::project(&fmt, &[true; 4]).unwrap();
        assert_eq!(ident.execute(&wire).unwrap(), v);
        // Mask arity is validated.
        assert!(ConversionPlan::project(&fmt, &[true; 3]).is_err());
    }

    #[test]
    fn fixed_stride_array_bounds_checks_as_a_block() {
        // `vals` is a fixed-stride (8-byte) array: a hostile count that
        // exceeds the remaining payload must fail up front (one comparison),
        // not after allocating element-by-element.
        let fmt = FormatBuilder::record("R")
            .int("n")
            .var_array_basic("vals", crate::types::BasicType::Int(crate::types::Width::W8), "n")
            .build_arc()
            .unwrap();
        let good = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
        ]);
        let wire = Encoder::new(&fmt).encode(&good).unwrap();
        let plan = ConversionPlan::identity(&fmt).unwrap();
        assert_eq!(plan.execute(&wire).unwrap(), good);

        // Corrupt the count (first payload int, little-endian) to a huge
        // value: the block bounds check rejects it as truncation.
        let mut bad = wire.clone();
        let payload = crate::encode::HEADER_LEN;
        bad[payload..payload + 4].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        assert!(matches!(plan.execute(&bad), Err(PbioError::UnexpectedEof)));
    }

    /// Runs the identity plan, the all-fields projection, and every
    /// single-field projection of `fmt` over `wire`, each checked against
    /// the meta-data-driven `decode_payload`.
    fn assert_plans_match_decode_payload(fmt: &Arc<RecordFormat>, wire: &[u8]) {
        let full = crate::decode::decode_payload(fmt, wire).unwrap();
        assert_eq!(ConversionPlan::identity(fmt).unwrap().execute(wire).unwrap(), full);
        let n = fmt.fields().len();
        let all = ConversionPlan::project(fmt, &vec![true; n]).unwrap();
        assert_eq!(all.execute(wire).unwrap(), full);
        let wire_fields = full.as_record().unwrap();
        for keep in 0..n {
            let used: Vec<bool> = (0..n).map(|i| i == keep).collect();
            let got = ConversionPlan::project(fmt, &used).unwrap().execute(wire).unwrap();
            // A kept variable array re-syncs its (dropped) count field.
            let synced = match fmt.fields()[keep].ty() {
                FieldType::Array { len: ArrayLen::LengthField(lf), .. } => fmt.field_index(lf),
                _ => None,
            };
            for (i, fd) in fmt.fields().iter().enumerate() {
                let want = if i == keep || Some(i) == synced {
                    wire_fields[i].clone()
                } else {
                    fd.default().cloned().unwrap_or_else(|| Value::default_for(fd.ty()))
                };
                assert_eq!(got.as_record().unwrap()[i], want, "field {i} projected onto {keep}");
            }
        }
    }

    #[test]
    fn plans_match_decode_payload_without_count_sources() {
        // Member records (the evolve workload's array elements) carry no
        // count source; neither does any level of `Shape`.
        let members = Value::Record(vec![
            Value::Int(3),
            Value::Array(
                (0..3)
                    .map(|i| {
                        Value::Record(vec![
                            Value::str(format!("host-{i}")),
                            Value::Int(i),
                            Value::Int(i % 2),
                            Value::Int(1 - i % 2),
                        ])
                    })
                    .collect(),
            ),
        ]);
        let fmt = resp(true);
        assert_plans_match_decode_payload(&fmt, &Encoder::new(&fmt).encode(&members).unwrap());

        let point = FormatBuilder::record("Point").double("x").string("label").build_arc().unwrap();
        let shape = FormatBuilder::record("Shape")
            .string("name")
            .fixed_array("corners", FieldType::Record(point), 2)
            .int("id")
            .build_arc()
            .unwrap();
        let corner =
            |x: f64, l: &str| Value::Record(vec![Value::Float(x), Value::str(l.to_string())]);
        let v = Value::Record(vec![
            Value::str("tri"),
            Value::Array(vec![corner(1.5, "a"), corner(-2.0, "")]),
            Value::Int(9),
        ]);
        assert_plans_match_decode_payload(&shape, &Encoder::new(&shape).encode(&v).unwrap());
    }

    /// `Group { int count; Member list[count]; string trailer }` whose
    /// members carry their own counted arrays: `tags[ntags]` of records
    /// (no fixed stride, 8-byte count) and `ids[nids]` of ints (fixed
    /// stride).
    fn nested_counted() -> Arc<RecordFormat> {
        use crate::types::Width;
        let tag = FormatBuilder::record("Tag").string("k").int("v").build_arc().unwrap();
        let member = FormatBuilder::record("Member")
            .string("info")
            .field("ntags", FieldType::Basic(BasicType::UInt(Width::W8)))
            .var_array_of("tags", tag, "ntags")
            .int("nids")
            .var_array_basic("ids", BasicType::Int(Width::W4), "nids")
            .build_arc()
            .unwrap();
        FormatBuilder::record("Group")
            .int("count")
            .var_array_of("list", member, "count")
            .string("trailer")
            .build_arc()
            .unwrap()
    }

    fn nested_member(i: i64) -> Value {
        let tags: Vec<Value> = (0..i)
            .map(|t| Value::Record(vec![Value::str(format!("k{t}")), Value::Int(t * 10)]))
            .collect();
        let ids: Vec<Value> = (0..(3 - i)).map(Value::Int).collect();
        Value::Record(vec![
            Value::str(format!("m{i}")),
            Value::UInt(tags.len() as u64),
            Value::Array(tags),
            Value::Int(ids.len() as i64),
            Value::Array(ids),
        ])
    }

    #[test]
    fn plans_match_decode_payload_with_nested_counted_arrays() {
        let fmt = nested_counted();
        let v = Value::Record(vec![
            Value::Int(3),
            Value::Array((0..3).map(nested_member).collect()),
            Value::str("end"),
        ]);
        assert_plans_match_decode_payload(&fmt, &Encoder::new(&fmt).encode(&v).unwrap());
    }

    #[test]
    fn plans_match_decode_payload_for_arrays_of_counted_arrays() {
        // A fixed array whose elements are variable arrays sized by a count
        // field of the enclosing record.
        use crate::types::Width;
        let row = FieldType::Array {
            elem: Box::new(FieldType::Basic(BasicType::Int(Width::W4))),
            len: ArrayLen::LengthField("m".into()),
        };
        let fmt = FormatBuilder::record("Grid")
            .int("m")
            .fixed_array("rows", row, 2)
            .string("tail")
            .build_arc()
            .unwrap();
        let ints = |xs: &[i64]| Value::Array(xs.iter().copied().map(Value::Int).collect());
        let v = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![ints(&[1, 2, 3]), ints(&[4, 5, 6])]),
            Value::str("t"),
        ]);
        assert_plans_match_decode_payload(&fmt, &Encoder::new(&fmt).encode(&v).unwrap());
    }

    /// Every plan shape `nested_counted` compiles to.
    fn nested_plans() -> Vec<ConversionPlan> {
        let fmt = nested_counted();
        vec![
            ConversionPlan::identity(&fmt).unwrap(),
            ConversionPlan::project(&fmt, &[true, true, true]).unwrap(),
            ConversionPlan::project(&fmt, &[false, false, true]).unwrap(),
        ]
    }

    #[test]
    fn truncated_nested_payloads_are_errors() {
        let fmt = nested_counted();
        let v = Value::Record(vec![
            Value::Int(3),
            Value::Array((0..3).map(nested_member).collect()),
            Value::str("end"),
        ]);
        let wire = Encoder::new(&fmt).encode(&v).unwrap();
        let payload = &wire[HEADER_LEN..];
        for plan in nested_plans() {
            assert!(plan.execute_payload(payload).is_ok());
            for cut in 0..payload.len() {
                assert!(plan.execute_payload(&payload[..cut]).is_err(), "cut at {cut}");
            }
            for cut in 0..wire.len() {
                assert!(plan.execute(&wire[..cut]).is_err(), "message cut at {cut}");
            }
        }
    }

    #[test]
    fn oversized_count_fields_are_errors_without_oversized_reservations() {
        // Hand-built little-endian payloads whose count fields claim far
        // more elements than the bytes that follow. Each must fail as
        // truncation. A reservation sized by the claimed count would ask
        // the allocator for terabytes (2^40 `Value`s) and abort the test
        // process; the plan caps element reservations at 2^16 unless a
        // fixed stride has already proved the whole range is present.
        let fmt = nested_counted();
        let int4 = |v: i32| v.to_le_bytes().to_vec();
        let hostile: Vec<(&str, Vec<u8>)> = vec![
            // list claims i32::MAX members; one is present.
            ("count", [int4(i32::MAX), b"m\0".to_vec(), vec![0; 8], int4(0)].concat()),
            // A member claims 2^40 tag records.
            ("ntags", [int4(1), b"m\0".to_vec(), (1u64 << 40).to_le_bytes().to_vec()].concat()),
            // A member claims u64::MAX tag records.
            ("ntags max", [int4(1), b"m\0".to_vec(), u64::MAX.to_le_bytes().to_vec()].concat()),
            // A member claims i32::MAX ids (fixed stride: checked as a block).
            ("nids", [int4(1), b"m\0".to_vec(), vec![0; 8], int4(i32::MAX), int4(7)].concat()),
        ];
        let mut header = Encoder::new(&fmt)
            .encode(&Value::Record(vec![Value::Int(0), Value::Array(vec![]), Value::str("")]))
            .unwrap();
        header.truncate(HEADER_LEN);
        for (what, payload) in hostile {
            let mut msg = header.clone();
            msg[12..16].copy_from_slice(&(payload.len() as u32).to_le_bytes());
            msg.extend_from_slice(&payload);
            assert!(crate::decode::decode_payload(&fmt, &msg).is_err(), "{what}: oracle");
            for plan in nested_plans() {
                assert!(
                    matches!(plan.execute(&msg), Err(PbioError::UnexpectedEof)),
                    "{what}: {:?}",
                    plan.execute(&msg)
                );
            }
        }
    }

    #[test]
    fn plan_agrees_with_generic_decoder() {
        let from = resp(true);
        let to = resp(false);
        let v = Value::Record(vec![
            Value::Int(1),
            Value::Array(vec![Value::Record(vec![
                Value::str("node-1"),
                Value::Int(42),
                Value::Int(1),
                Value::Int(1),
            ])]),
        ]);
        let wire = Encoder::new(&from).encode(&v).unwrap();
        let plan = ConversionPlan::compile(&from, &to).unwrap();
        let gen = crate::decode::GenericDecoder::new(from, to);
        assert_eq!(plan.execute(&wire).unwrap(), gen.decode(&wire).unwrap());
    }
}
