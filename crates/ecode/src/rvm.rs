//! The register virtual machine — the one execution engine. Executes
//! [`RCode`](crate::bytecode::RCode) produced by the lowering pass, for
//! single transformations and fused chains alike.
//!
//! Scalar semantics (arithmetic, comparisons, conversions, error texts) are
//! shared with the reference interpreter through `ops.rs`, and fuel is
//! charged per dispatch, so the two engines disagree only in cost — the
//! interpreter is the semantic oracle. The register file lives in one flat
//! `Vec<Value>`; user-function calls open a fresh window at the top
//! (Lua-style), with arguments cloned into the callee's low registers.
//! Access paths into the bound root records are resolved through
//! pre-compiled field indices, so execution never consults format
//! meta-data except to materialize default elements when a write extends
//! an array (the `old.src_list[src_count] = ...` pattern of the paper's
//! Fig. 5, where the output list grows as the transformation discovers
//! sources).
//!
//! Two superinstructions fold a whole access pattern into one dispatch:
//!
//! * [`RInsn::CopyPath`] moves a whole field between roots (with an optional
//!   scalar conversion) in a single dispatch.
//! * [`RInsn::BatchCopy`] replays an entire counted array-copy loop as one
//!   bounds check plus a range `clone_from_slice`, charging fuel per element
//!   so budgets stay comparable with the scalar loop it replaces.

use pbio::{FieldType, RecordFormat, Value};

use crate::bytecode::{CSeg, RCode, RInsn, ScalarConv};
use crate::error::Result;
use crate::ops::{atof, atoi, farith, fcmp, iarith, icmp, rt_err, scmp};
use crate::tast::{Binding, Builtin};

/// Maximum user-function call depth (independent of fuel).
const MAX_CALL_DEPTH: usize = 64;

/// Execution statistics from one register-VM run. Surfaced by the morph
/// layer as `ecode.batch.*` counters so batch-superinstruction
/// effectiveness is observable in production.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of `BatchCopy` instructions that moved at least one element.
    pub batch_copies: u64,
    /// Total array elements moved by `BatchCopy` range clones.
    pub batch_elems: u64,
}

struct Frame {
    ret_pc: usize,
    ret_dst: u32,
    prev_base: usize,
}

fn as_int(v: &Value) -> Result<i64> {
    match v {
        Value::Int(n) => Ok(*n),
        other => Err(rt_err(format!("expected int in register, found {}", other.kind_name()))),
    }
}

fn as_float(v: &Value) -> Result<f64> {
    match v {
        Value::Float(f) => Ok(*f),
        other => Err(rt_err(format!("expected double in register, found {}", other.kind_name()))),
    }
}

fn as_char(v: &Value) -> Result<u8> {
    match v {
        Value::Char(c) => Ok(*c),
        other => Err(rt_err(format!("expected char in register, found {}", other.kind_name()))),
    }
}

fn as_str(v: &Value) -> Result<&str> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(rt_err(format!("expected string in register, found {}", other.kind_name()))),
    }
}

/// Index-register → array subscript.
fn to_index(v: &Value) -> Result<usize> {
    match v {
        Value::Int(n) if *n >= 0 => Ok(*n as usize),
        Value::Int(n) => Err(rt_err(format!("negative array index {n}"))),
        other => Err(rt_err(format!("array index is not an int (found {})", other.kind_name()))),
    }
}

fn apply_conv(conv: ScalarConv, v: Value) -> Result<Value> {
    Ok(match (conv, v) {
        (ScalarConv::I2F, Value::Int(n)) => Value::Float(n as f64),
        (ScalarConv::F2I, Value::Float(f)) => Value::Int(f as i64),
        (ScalarConv::C2I, Value::Char(c)) => Value::Int(c as i64),
        (ScalarConv::I2C, Value::Int(n)) => Value::Char(n as u8),
        (conv, other) => {
            let want = match conv {
                ScalarConv::I2F | ScalarConv::I2C => "int",
                ScalarConv::F2I => "double",
                ScalarConv::C2I => "char",
            };
            return Err(rt_err(format!(
                "expected {want} in register, found {}",
                other.kind_name()
            )));
        }
    })
}

/// Navigates a fused path for reading; returns a reference to the value.
/// `idx` holds one evaluated subscript per [`CSeg::Index`], in path order.
fn nav<'v>(roots: &'v [Value], root: u8, segs: &[CSeg], idx: &[usize]) -> Result<&'v Value> {
    let mut cur: &Value =
        roots.get(root as usize).ok_or_else(|| rt_err(format!("no root #{root}")))?;
    let mut it = idx.iter();
    for seg in segs {
        match seg {
            CSeg::Field(i) => {
                cur = cur
                    .as_record()
                    .and_then(|fs| fs.get(*i as usize))
                    .ok_or_else(|| rt_err("path field does not resolve to a record slot"))?;
            }
            CSeg::Index => {
                let n = *it.next().expect("one index register per CSeg::Index");
                let arr = cur
                    .as_array()
                    .ok_or_else(|| rt_err("path index applied to a non-array value"))?;
                cur = arr.get(n).ok_or_else(|| {
                    rt_err(format!("array index {n} out of bounds (len {})", arr.len()))
                })?;
            }
        }
    }
    Ok(cur)
}

enum TyRef<'f> {
    Rec(&'f RecordFormat),
    Ty(&'f FieldType),
}

/// Navigates a fused path for writing, auto-extending arrays with
/// format-appropriate default elements, and stores `value` at the end.
fn write_path(
    roots: &mut [Value],
    bindings: &[Binding],
    root: u8,
    segs: &[CSeg],
    idx: &[usize],
    value: Value,
) -> Result<()> {
    let root_idx = root as usize;
    let binding = bindings.get(root_idx).ok_or_else(|| rt_err(format!("no root #{root}")))?;
    let mut cur: &mut Value =
        roots.get_mut(root_idx).ok_or_else(|| rt_err(format!("no root #{root}")))?;
    let mut ty = TyRef::Rec(&binding.format);
    let mut it = idx.iter();
    for seg in segs {
        match seg {
            CSeg::Field(i) => {
                let i = *i as usize;
                let field_ty = match ty {
                    TyRef::Rec(r) => r.fields().get(i),
                    TyRef::Ty(FieldType::Record(r)) => r.fields().get(i),
                    _ => None,
                }
                .ok_or_else(|| rt_err("path field does not match the bound format"))?
                .ty();
                cur = cur
                    .as_record_mut()
                    .and_then(|fs| fs.get_mut(i))
                    .ok_or_else(|| rt_err("path field does not resolve to a record slot"))?;
                ty = TyRef::Ty(field_ty);
            }
            CSeg::Index => {
                let n = *it.next().expect("one index register per CSeg::Index");
                let elem_ty = match ty {
                    TyRef::Ty(FieldType::Array { elem, .. }) => elem.as_ref(),
                    _ => return Err(rt_err("path index applied to a non-array field")),
                };
                let arr = cur
                    .as_array_mut()
                    .ok_or_else(|| rt_err("path index applied to a non-array value"))?;
                if n >= arr.len() {
                    arr.resize_with(n + 1, || Value::default_for(elem_ty));
                }
                cur = &mut arr[n];
                ty = TyRef::Ty(elem_ty);
            }
        }
    }
    *cur = value;
    Ok(())
}

/// Evaluates a builtin over its argument registers.
fn call_builtin(b: Builtin, args: &[&Value]) -> Result<Value> {
    Ok(match (b, args) {
        (Builtin::Strlen, [s]) => Value::Int(as_str(s)?.len() as i64),
        (Builtin::Strcat, [a, b]) => {
            let mut s = as_str(a)?.to_owned();
            s.push_str(as_str(b)?);
            Value::Str(s)
        }
        (Builtin::AbsI, [a]) => Value::Int(as_int(a)?.wrapping_abs()),
        (Builtin::AbsF, [a]) => Value::Float(as_float(a)?.abs()),
        (Builtin::MinI, [a, b]) => Value::Int(as_int(a)?.min(as_int(b)?)),
        (Builtin::MaxI, [a, b]) => Value::Int(as_int(a)?.max(as_int(b)?)),
        (Builtin::MinF, [a, b]) => Value::Float(as_float(a)?.min(as_float(b)?)),
        (Builtin::MaxF, [a, b]) => Value::Float(as_float(a)?.max(as_float(b)?)),
        (Builtin::Sqrt, [a]) => Value::Float(as_float(a)?.sqrt()),
        (Builtin::Floor, [a]) => Value::Float(as_float(a)?.floor()),
        (Builtin::Ceil, [a]) => Value::Float(as_float(a)?.ceil()),
        (Builtin::Atoi, [s]) => Value::Int(atoi(as_str(s)?)),
        (Builtin::Itoa, [a]) => Value::Str(as_int(a)?.to_string()),
        (Builtin::Atof, [s]) => Value::Float(atof(as_str(s)?)),
        (Builtin::Ftoa, [a]) => Value::Str(as_float(a)?.to_string()),
        (b, args) => {
            return Err(rt_err(format!("builtin {b:?} called with {} arguments", args.len())))
        }
    })
}

/// Walks a field-only path to the destination array for a batch copy,
/// returning the array storage and its element type (for default-filling).
fn nav_array_mut<'v, 'f>(
    root: &'v mut Value,
    fmt: &'f RecordFormat,
    segs: &[CSeg],
) -> Result<(&'v mut Vec<Value>, &'f FieldType)> {
    let mut cur = root;
    let mut ty: Option<&'f FieldType> = None;
    for seg in segs {
        let CSeg::Field(i) = seg else {
            return Err(rt_err("batch path contains a dynamic segment"));
        };
        let i = *i as usize;
        let field_ty = match ty {
            None => fmt.fields().get(i),
            Some(FieldType::Record(r)) => r.fields().get(i),
            Some(_) => None,
        }
        .ok_or_else(|| rt_err("path field does not match the bound format"))?
        .ty();
        cur = cur
            .as_record_mut()
            .and_then(|fs| fs.get_mut(i))
            .ok_or_else(|| rt_err("path field does not resolve to a record slot"))?;
        ty = Some(field_ty);
    }
    let elem = match ty {
        Some(FieldType::Array { elem, .. }) => elem.as_ref(),
        _ => return Err(rt_err("path index applied to a non-array field")),
    };
    let arr =
        cur.as_array_mut().ok_or_else(|| rt_err("path index applied to a non-array value"))?;
    Ok((arr, elem))
}

/// Executes register bytecode against the root values. See
/// [`run_with_fuel`] for the budgeted variant.
///
/// # Errors
///
/// Returns [`EcodeError::Runtime`](crate::EcodeError::Runtime) on division
/// by zero, out-of-bounds reads, or shape mismatches between roots and
/// bound formats.
pub(crate) fn run(
    code: &RCode,
    bindings: &[Binding],
    roots: &mut [Value],
) -> Result<(Option<Value>, RunStats)> {
    run_with_fuel(code, bindings, roots, u64::MAX)
}

/// [`run`] with an instruction budget. `BatchCopy` charges one unit per
/// element moved on top of its own dispatch, so budgets remain meaningful
/// against the scalar loop it replaces.
///
/// # Errors
///
/// As [`run`], plus fuel exhaustion.
pub(crate) fn run_with_fuel(
    code: &RCode,
    bindings: &[Binding],
    roots: &mut [Value],
    mut fuel: u64,
) -> Result<(Option<Value>, RunStats)> {
    if roots.len() != code.n_roots {
        return Err(rt_err(format!(
            "program expects {} root record(s), got {}",
            code.n_roots,
            roots.len()
        )));
    }
    let mut regs: Vec<Value> = vec![Value::Int(0); code.n_regs];
    let mut frames: Vec<Frame> = Vec::new();
    let mut base: usize = 0;
    let mut idx_scratch: Vec<usize> = Vec::with_capacity(4);
    let mut pc: usize = 0;
    let mut stats = RunStats::default();

    macro_rules! reg {
        ($r:expr) => {
            regs[base + $r as usize]
        };
    }

    loop {
        if fuel == 0 {
            return Err(rt_err("instruction budget exhausted"));
        }
        fuel -= 1;
        let insn = code
            .insns
            .get(pc)
            .ok_or_else(|| rt_err("program counter ran off the end of the code"))?;
        pc += 1;
        match insn {
            RInsn::ConstI { dst, v } => reg!(*dst) = Value::Int(*v),
            RInsn::ConstF { dst, v } => reg!(*dst) = Value::Float(*v),
            RInsn::ConstC { dst, v } => reg!(*dst) = Value::Char(*v),
            RInsn::ConstS { dst, s } => {
                reg!(*dst) = Value::Str(code.strings[*s as usize].clone());
            }
            RInsn::Move { dst, src } => {
                let v = reg!(*src).clone();
                reg!(*dst) = v;
            }
            RInsn::Load { dst, root, segs, idx } => {
                idx_scratch.clear();
                for &r in idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                let v = nav(roots, *root, segs, &idx_scratch)?.clone();
                reg!(*dst) = v;
            }
            RInsn::Store { src, root, segs, idx } => {
                idx_scratch.clear();
                for &r in idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                let v = reg!(*src).clone();
                write_path(roots, bindings, *root, segs, &idx_scratch, v)?;
            }
            RInsn::LenOf { dst, root, segs, idx } => {
                idx_scratch.clear();
                for &r in idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                let v = nav(roots, *root, segs, &idx_scratch)?;
                let n = v.as_array().ok_or_else(|| rt_err("len() target is not an array"))?.len();
                reg!(*dst) = Value::Int(n as i64);
            }
            RInsn::IArith { op, dst, a, b } => {
                let x = as_int(&reg!(*a))?;
                let y = as_int(&reg!(*b))?;
                reg!(*dst) = Value::Int(iarith(*op, x, y)?);
            }
            RInsn::FArith { op, dst, a, b } => {
                let x = as_float(&reg!(*a))?;
                let y = as_float(&reg!(*b))?;
                reg!(*dst) = Value::Float(farith(*op, x, y));
            }
            RInsn::ICmp { op, dst, a, b } => {
                let x = as_int(&reg!(*a))?;
                let y = as_int(&reg!(*b))?;
                reg!(*dst) = Value::Int(icmp(*op, x, y));
            }
            RInsn::FCmp { op, dst, a, b } => {
                let x = as_float(&reg!(*a))?;
                let y = as_float(&reg!(*b))?;
                reg!(*dst) = Value::Int(fcmp(*op, x, y));
            }
            RInsn::SCmp { op, dst, a, b } => {
                let r = {
                    let x = as_str(&reg!(*a))?;
                    let y = as_str(&reg!(*b))?;
                    scmp(*op, x, y)
                };
                reg!(*dst) = Value::Int(r);
            }
            RInsn::AddImmI { dst, src, imm } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Int(x.wrapping_add(*imm));
            }
            RInsn::Concat { dst, a, b } => {
                let mut s = as_str(&reg!(*a))?.to_owned();
                s.push_str(as_str(&reg!(*b))?);
                reg!(*dst) = Value::Str(s);
            }
            RInsn::NegI { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Int(x.wrapping_neg());
            }
            RInsn::NegF { dst, src } => {
                let x = as_float(&reg!(*src))?;
                reg!(*dst) = Value::Float(-x);
            }
            RInsn::Not { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Int(i64::from(x == 0));
            }
            RInsn::I2F { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Float(x as f64);
            }
            RInsn::F2I { dst, src } => {
                let x = as_float(&reg!(*src))?;
                reg!(*dst) = Value::Int(x as i64);
            }
            RInsn::C2I { dst, src } => {
                let x = as_char(&reg!(*src))?;
                reg!(*dst) = Value::Int(x as i64);
            }
            RInsn::I2C { dst, src } => {
                let x = as_int(&reg!(*src))?;
                reg!(*dst) = Value::Char(x as u8);
            }
            RInsn::FTest { dst, src } => {
                let x = as_float(&reg!(*src))?;
                reg!(*dst) = Value::Int(i64::from(x != 0.0));
            }
            RInsn::Jmp(t) => pc = *t as usize,
            RInsn::Jz { cond, target } => {
                if as_int(&reg!(*cond))? == 0 {
                    pc = *target as usize;
                }
            }
            RInsn::Jnz { cond, target } => {
                if as_int(&reg!(*cond))? != 0 {
                    pc = *target as usize;
                }
            }
            RInsn::Call { f, dst, args } => {
                let v = {
                    let vals: Vec<&Value> = args.iter().map(|&r| &reg!(r)).collect();
                    call_builtin(*f, &vals)?
                };
                reg!(*dst) = v;
            }
            RInsn::CallFn { f, dst, args } => {
                if frames.len() >= MAX_CALL_DEPTH {
                    return Err(rt_err("call stack overflow"));
                }
                let fc = code
                    .funcs
                    .get(*f as usize)
                    .ok_or_else(|| rt_err(format!("no function #{f}")))?;
                if args.len() > fc.n_regs as usize {
                    return Err(rt_err("function call passes more arguments than registers"));
                }
                let new_base = regs.len();
                regs.resize(new_base + fc.n_regs as usize, Value::Int(0));
                for (k, &r) in args.iter().enumerate() {
                    let v = regs[base + r as usize].clone();
                    regs[new_base + k] = v;
                }
                frames.push(Frame { ret_pc: pc, ret_dst: *dst, prev_base: base });
                base = new_base;
                pc = fc.entry as usize;
            }
            RInsn::Ret { src } => {
                let v = src.map(|r| reg!(r).clone());
                match frames.pop() {
                    Some(frame) => {
                        regs.truncate(base);
                        base = frame.prev_base;
                        pc = frame.ret_pc;
                        regs[base + frame.ret_dst as usize] = v.unwrap_or(Value::Int(0));
                    }
                    None => return Ok((v, stats)),
                }
            }
            RInsn::SyncRoot(r) => {
                let ri = *r as usize;
                let binding = bindings.get(ri).ok_or_else(|| rt_err(format!("no root #{r}")))?;
                let root = roots.get_mut(ri).ok_or_else(|| rt_err(format!("no root #{r}")))?;
                pbio::sync_length_fields(root, &binding.format);
            }
            RInsn::CopyPath { src_root, src_segs, src_idx, dst_root, dst_segs, dst_idx, conv } => {
                idx_scratch.clear();
                for &r in src_idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                let mut v = nav(roots, *src_root, src_segs, &idx_scratch)?.clone();
                if let Some(conv) = conv {
                    v = apply_conv(*conv, v)?;
                }
                idx_scratch.clear();
                for &r in dst_idx.iter() {
                    idx_scratch.push(to_index(&reg!(r))?);
                }
                write_path(roots, bindings, *dst_root, dst_segs, &idx_scratch, v)?;
            }
            RInsn::BatchCopy { counter, limit, src_root, src_segs, dst_root, dst_segs } => {
                let n = as_int(&reg!(*limit))?;
                let i0 = as_int(&reg!(*counter))?;
                if i0 < n {
                    if i0 < 0 {
                        return Err(rt_err(format!("negative array index {i0}")));
                    }
                    let start = i0 as usize;
                    let want = n as usize;
                    let (si, di) = (*src_root as usize, *dst_root as usize);
                    let binding =
                        bindings.get(di).ok_or_else(|| rt_err(format!("no root #{dst_root}")))?;
                    if si >= roots.len() || di >= roots.len() || si == di {
                        return Err(rt_err(format!("no root #{}", si.max(di))));
                    }
                    // The lowering pass guarantees distinct roots, so the two
                    // halves of a split borrow cover source and destination.
                    let (lo, hi) = roots.split_at_mut(si.max(di));
                    let (src_v, dst_v) =
                        if si < di { (&lo[si], &mut hi[0]) } else { (&hi[0], &mut lo[di]) };
                    let src_arr = nav(std::slice::from_ref(src_v), 0, src_segs, &[])?
                        .as_array()
                        .ok_or_else(|| rt_err("path index applied to a non-array value"))?;
                    let avail = src_arr.len();
                    let end = want.min(avail);
                    if end > start {
                        let (dst_arr, elem_ty) = nav_array_mut(dst_v, &binding.format, dst_segs)?;
                        if dst_arr.len() < end {
                            dst_arr.resize_with(end, || Value::default_for(elem_ty));
                        }
                        dst_arr[start..end].clone_from_slice(&src_arr[start..end]);
                        let moved = (end - start) as u64;
                        stats.batch_copies += 1;
                        stats.batch_elems += moved;
                        fuel = fuel.saturating_sub(moved);
                    }
                    // A short source surfaces exactly as the scalar loop
                    // would: an out-of-bounds read at the first missing
                    // element, after the in-range prefix was copied.
                    if want > avail {
                        return Err(rt_err(format!(
                            "array index {} out of bounds (len {avail})",
                            start.max(avail)
                        )));
                    }
                    reg!(*counter) = Value::Int(n);
                }
            }
        }
    }
}
