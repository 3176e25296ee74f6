//! Chain fusion: compile a whole retro-transformation chain into **one**
//! register program.
//!
//! A staged morph runs each chain step as its own VM invocation, with a
//! freshly-allocated intermediate `Value` tree between steps. Fusion inlines
//! every step's compiled body into a single instruction stream instead: the
//! fused program binds `m + 1` roots — the incoming message plus one output
//! record per step — and threads them through, so a warm morph is one VM
//! entry with no per-step dispatch. Between inlined bodies a
//! [`RInsn::SyncRoot`] re-establishes the length-field invariant exactly
//! where the staged path called [`pbio::sync_length_fields`], keeping the
//! fused result `Value`-identical to the staged path (differentially
//! tested in `tests/proptests.rs`).
//!
//! The rewrite is purely mechanical, which is what makes it safe:
//!
//! * jump targets, function entries, string-pool and function indices are
//!   shifted by each step's placement offset;
//! * root indices shift by the step's position (step *i* reads root *i*,
//!   writes root *i + 1*);
//! * *main-body* registers rebase by the sum of preceding steps' main
//!   frames (function frames are window-relative and need no shift);
//! * *main-body* returns become jumps to the step's `SyncRoot` trailer (a
//!   return value simply stays in its register — the staged path ignores
//!   step return values); function-body returns are untouched, they pop
//!   call frames.

use pbio::format_id;

use crate::bytecode::{map_registers, CSeg, RCode, RFnCode, RInsn};
use crate::error::{EcodeError, Result};
use crate::rvm::{self, RunStats};
use crate::tast::Binding;
use crate::EcodeProgram;
use pbio::Value;

/// A transformation chain compiled into a single register program.
///
/// Build with [`FusedProgram::compose`]; execute with
/// [`FusedProgram::run_register`] against `m + 1` roots (incoming message
/// first, then one default record per step's target format, in chain
/// order). On return, the last root holds the final morphed value.
#[derive(Debug, Clone)]
pub struct FusedProgram {
    code: RCode,
    bindings: Vec<Binding>,
}

impl FusedProgram {
    /// Fuses the compiled chain `steps` (each a two-root `new`/`old`
    /// transformation, in application order) into one program.
    ///
    /// # Errors
    ///
    /// Returns [`EcodeError::Runtime`] when the chain is empty, a step does
    /// not have exactly two roots, adjacent steps do not compose (step
    /// *i*'s output format differs from step *i + 1*'s input format), or
    /// the chain exceeds the VM's `u8` root-index space.
    pub fn compose(steps: &[&EcodeProgram]) -> Result<FusedProgram> {
        if steps.is_empty() {
            return Err(EcodeError::runtime("cannot fuse an empty chain"));
        }
        if steps.len() >= u8::MAX as usize {
            return Err(EcodeError::runtime("chain too long to fuse"));
        }
        for (i, p) in steps.iter().enumerate() {
            if p.bindings().len() != 2 {
                return Err(EcodeError::runtime(format!(
                    "chain step {i} has {} roots, fusion needs exactly 2",
                    p.bindings().len()
                )));
            }
        }
        for (i, pair) in steps.windows(2).enumerate() {
            let out = format_id(&pair[0].bindings()[1].format);
            let inp = format_id(&pair[1].bindings()[0].format);
            if out != inp {
                return Err(EcodeError::runtime(format!(
                    "chain steps {i} and {} do not compose",
                    i + 1
                )));
            }
        }

        let mut insns: Vec<RInsn> = Vec::new();
        let mut strings: Vec<String> = Vec::new();
        let mut funcs: Vec<RFnCode> = Vec::new();
        let mut reg_base: u32 = 0;
        let last = steps.len() - 1;

        for (i, p) in steps.iter().enumerate() {
            let rc = p.code();
            let off = insns.len() as u32;
            let string_base = strings.len() as u32;
            let func_base = funcs.len() as u32;
            // Everything before the first function entry is the main body
            // (lowering lays out main first).
            let main_end =
                rc.funcs.iter().map(|f| f.entry as usize).min().unwrap_or(rc.insns.len());
            // The trailer sits right after the step's body; main-body
            // returns jump to it.
            let tail = off + rc.insns.len() as u32;

            for (pc, insn) in rc.insns.iter().enumerate() {
                let in_main = pc < main_end;
                let shifted = match insn {
                    RInsn::Jmp(t) => RInsn::Jmp(t + off),
                    RInsn::Jz { cond, target } => RInsn::Jz { cond: *cond, target: target + off },
                    RInsn::Jnz { cond, target } => RInsn::Jnz { cond: *cond, target: target + off },
                    RInsn::ConstS { dst, s } => RInsn::ConstS { dst: *dst, s: s + string_base },
                    RInsn::CallFn { f, dst, args } => {
                        RInsn::CallFn { f: f + func_base, dst: *dst, args: args.clone() }
                    }
                    RInsn::Load { dst, root, segs, idx } => RInsn::Load {
                        dst: *dst,
                        root: root + i as u8,
                        segs: segs.clone(),
                        idx: idx.clone(),
                    },
                    RInsn::Store { src, root, segs, idx } => RInsn::Store {
                        src: *src,
                        root: root + i as u8,
                        segs: segs.clone(),
                        idx: idx.clone(),
                    },
                    RInsn::LenOf { dst, root, segs, idx } => RInsn::LenOf {
                        dst: *dst,
                        root: root + i as u8,
                        segs: segs.clone(),
                        idx: idx.clone(),
                    },
                    RInsn::CopyPath {
                        src_root,
                        src_segs,
                        src_idx,
                        dst_root,
                        dst_segs,
                        dst_idx,
                        conv,
                    } => RInsn::CopyPath {
                        src_root: src_root + i as u8,
                        src_segs: src_segs.clone(),
                        src_idx: src_idx.clone(),
                        dst_root: dst_root + i as u8,
                        dst_segs: dst_segs.clone(),
                        dst_idx: dst_idx.clone(),
                        conv: *conv,
                    },
                    RInsn::BatchCopy { counter, limit, src_root, src_segs, dst_root, dst_segs } => {
                        RInsn::BatchCopy {
                            counter: *counter,
                            limit: *limit,
                            src_root: src_root + i as u8,
                            src_segs: src_segs.clone(),
                            dst_root: dst_root + i as u8,
                            dst_segs: dst_segs.clone(),
                        }
                    }
                    RInsn::Ret { .. } if in_main => RInsn::Jmp(tail),
                    other => other.clone(),
                };
                insns.push(if in_main {
                    map_registers(&shifted, |r| r + reg_base)
                } else {
                    shifted
                });
            }
            insns.push(RInsn::SyncRoot((i + 1) as u8));
            if i == last {
                insns.push(RInsn::Ret { src: None });
            }

            strings.extend(rc.strings.iter().cloned());
            funcs.extend(rc.funcs.iter().map(|f| RFnCode { entry: f.entry + off, ..*f }));
            reg_base += rc.n_regs as u32;
        }

        let mut bindings = Vec::with_capacity(steps.len() + 1);
        bindings.push(steps[0].bindings()[0].clone());
        for p in steps {
            bindings.push(p.bindings()[1].clone());
        }
        let code =
            RCode { insns, strings, n_regs: reg_base as usize, n_roots: bindings.len(), funcs };
        Ok(FusedProgram { code, bindings })
    }

    /// Executes the fused chain — one register-VM pass wire-roots → final
    /// `Value`. `roots` must hold the incoming message followed by one
    /// default record per step's target format; the last root receives the
    /// final value. Returns batch-superinstruction statistics.
    ///
    /// # Errors
    ///
    /// As [`EcodeProgram::run`].
    pub fn run_register(&self, roots: &mut [Value]) -> Result<RunStats> {
        let (_, stats) = rvm::run(&self.code, &self.bindings, roots)?;
        Ok(stats)
    }

    /// [`FusedProgram::run_register`] with an instruction budget.
    ///
    /// # Errors
    ///
    /// As [`FusedProgram::run_register`], plus fuel exhaustion.
    pub fn run_register_with_fuel(&self, roots: &mut [Value], fuel: u64) -> Result<RunStats> {
        let (_, stats) = rvm::run_with_fuel(&self.code, &self.bindings, roots, fuel)?;
        Ok(stats)
    }

    /// The fused register bytecode (inspection/metrics).
    pub fn code(&self) -> &RCode {
        &self.code
    }

    /// The fused root bindings: incoming message, then one per step.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Number of roots the fused program expects (`steps + 1`).
    pub fn n_roots(&self) -> usize {
        self.bindings.len()
    }
}

/// Scans `code` for the top-level fields of root `root` that it actually
/// reads or writes, returning a mask over `n_fields` entries. Both paths of
/// a `CopyPath` or `BatchCopy` count. Conservative: any access whose path
/// does not start with a static field descent marks every field used.
///
/// This feeds the projected decode of a fused morph plan: fields the chain
/// never touches are parsed but not materialized.
pub fn root_used_fields(code: &RCode, root: u8, n_fields: usize) -> Vec<bool> {
    let mut used = vec![false; n_fields];
    for insn in &code.insns {
        let paths: [Option<(u8, &[CSeg])>; 2] = match insn {
            RInsn::Load { root, segs, .. }
            | RInsn::Store { root, segs, .. }
            | RInsn::LenOf { root, segs, .. } => [Some((*root, segs)), None],
            RInsn::CopyPath { src_root, src_segs, dst_root, dst_segs, .. }
            | RInsn::BatchCopy { src_root, src_segs, dst_root, dst_segs, .. } => {
                [Some((*src_root, src_segs)), Some((*dst_root, dst_segs))]
            }
            _ => continue,
        };
        for (r, segs) in paths.into_iter().flatten() {
            if r != root {
                continue;
            }
            match segs.first() {
                Some(CSeg::Field(i)) if (*i as usize) < n_fields => used[*i as usize] = true,
                _ => {
                    // Whole-root or dynamic access: give up field precision.
                    used.iter_mut().for_each(|u| *u = true);
                    return used;
                }
            }
        }
    }
    used
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EcodeCompiler;
    use pbio::FormatBuilder;
    use pbio::RecordFormat;
    use std::sync::Arc;

    fn fmt(name: &str, fields: &[&str]) -> Arc<RecordFormat> {
        let mut b = FormatBuilder::record(name);
        for f in fields {
            b = b.int(*f);
        }
        b.build_arc().unwrap()
    }

    fn step(from: &Arc<RecordFormat>, to: &Arc<RecordFormat>, src: &str) -> EcodeProgram {
        EcodeCompiler::new().bind_input("new", from).bind_output("old", to).compile(src).unwrap()
    }

    /// Reference: run each step on its own on the interpreter, syncing
    /// between steps.
    fn staged(steps: &[&EcodeProgram], input: &Value) -> Value {
        let mut v = input.clone();
        for p in steps {
            let to = &p.bindings()[1].format;
            let mut roots = vec![v, Value::default_record(to)];
            p.run_interp(&mut roots).unwrap();
            v = roots.pop().unwrap();
            pbio::sync_length_fields(&mut v, to);
        }
        v
    }

    /// Runs the fused chain and returns the final value.
    fn fused(steps: &[&EcodeProgram], input: &Value) -> Value {
        let fp = FusedProgram::compose(steps).unwrap();
        let mut roots = vec![input.clone()];
        for p in steps {
            roots.push(Value::default_record(&p.bindings()[1].format));
        }
        fp.run_register(&mut roots).unwrap();
        roots.pop().unwrap()
    }

    #[test]
    fn fused_matches_staged_on_scalar_chain() {
        let a = fmt("M", &["x", "y"]);
        let b = fmt("M", &["sum"]);
        let c = fmt("M", &["twice"]);
        let s1 = step(&a, &b, "old.sum = new.x + new.y;");
        let s2 = step(&b, &c, "old.twice = new.sum * 2;");
        let input = Value::Record(vec![Value::Int(3), Value::Int(4)]);
        let chain = [&s1, &s2];
        assert_eq!(fused(&chain, &input), staged(&chain, &input));
        assert_eq!(fused(&chain, &input), Value::Record(vec![Value::Int(14)]));
    }

    #[test]
    fn fused_handles_mid_body_returns_and_functions() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let c = fmt("M", &["z"]);
        // Step 1 returns early from the main body; step 2 calls a function
        // that both returns a value and writes a root.
        let s1 = step(&a, &b, "old.y = new.x; if (new.x > 0) return 1; old.y = -1;");
        let s2 = step(
            &b,
            &c,
            "int bump(int v) { old.z = v + 1; return v; } int t = bump(new.y); t = bump(t + 10);",
        );
        for x in [-5i64, 0, 7] {
            let input = Value::Record(vec![Value::Int(x)]);
            let chain = [&s1, &s2];
            assert_eq!(fused(&chain, &input), staged(&chain, &input), "x = {x}");
        }
    }

    #[test]
    fn fused_syncs_length_fields_between_steps() {
        let member = FormatBuilder::record("E").int("ID").build_arc().unwrap();
        let a = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member.clone(), "n")
            .build_arc()
            .unwrap();
        let b = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member, "n")
            .build_arc()
            .unwrap();
        let c = fmt("M", &["total"]);
        // Step 1 copies items but "forgets" old.n — the inter-step sync must
        // repair it, because step 2 trusts new.n.
        let s1 = step(
            &a,
            &b,
            "int i; for (i = 0; i < new.n; i++) { old.items[i].ID = new.items[i].ID * 10; }",
        );
        let s2 =
            step(&b, &c, "int i; for (i = 0; i < new.n; i++) { old.total += new.items[i].ID; }");
        let input = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![
                Value::Record(vec![Value::Int(1)]),
                Value::Record(vec![Value::Int(2)]),
                Value::Record(vec![Value::Int(3)]),
            ]),
        ]);
        let chain = [&s1, &s2];
        assert_eq!(fused(&chain, &input), staged(&chain, &input));
        assert_eq!(fused(&chain, &input), Value::Record(vec![Value::Int(60)]));
    }

    #[test]
    fn fused_isolates_main_locals_across_steps() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let c = fmt("M", &["z"]);
        // Both steps use a main-body local named/slotted identically; slot
        // rebasing must keep them distinct.
        let s1 = step(&a, &b, "int t = new.x * 2; old.y = t;");
        let s2 = step(&b, &c, "int t = new.y + 5; old.z = t;");
        let input = Value::Record(vec![Value::Int(10)]);
        let chain = [&s1, &s2];
        assert_eq!(fused(&chain, &input), Value::Record(vec![Value::Int(25)]));
    }

    #[test]
    fn single_step_chain_fuses() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let s1 = step(&a, &b, "old.y = new.x - 1;");
        let input = Value::Record(vec![Value::Int(9)]);
        assert_eq!(fused(&[&s1], &input), staged(&[&s1], &input));
    }

    #[test]
    fn compose_rejects_bad_chains() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let c = fmt("M", &["z"]);
        assert!(FusedProgram::compose(&[]).is_err());
        // Steps that do not compose: a→b then a→c.
        let s1 = step(&a, &b, "old.y = new.x;");
        let s2 = step(&a, &c, "old.z = new.x;");
        assert!(FusedProgram::compose(&[&s1, &s2]).is_err());
        // Wrong root count (single-root program).
        let one = EcodeCompiler::new().bind_output("r", &a).compile("r.x = 1;").unwrap();
        assert!(FusedProgram::compose(&[&one]).is_err());
    }

    #[test]
    fn fuel_budget_applies_to_fused_programs() {
        let a = fmt("M", &["x"]);
        let b = fmt("M", &["y"]);
        let s1 = step(&a, &b, "while (1) {}");
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        let mut roots = vec![Value::Record(vec![Value::Int(1)]), Value::default_record(&b)];
        assert!(fp.run_register_with_fuel(&mut roots, 1_000).is_err());
    }

    #[test]
    fn fused_register_stream_keeps_batch_superinstructions() {
        let elem = pbio::BasicType::Int(pbio::Width::W8);
        let a = FormatBuilder::record("M")
            .int("n")
            .var_array_basic("vals", elem.clone(), "n")
            .build_arc()
            .unwrap();
        let b = FormatBuilder::record("M")
            .int("n")
            .var_array_basic("vals", elem, "n")
            .build_arc()
            .unwrap();
        let body = "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
        let s1 = step(&a, &b, body);
        let s2 = step(&b, &a, body);
        let input = Value::Record(vec![
            Value::Int(3),
            Value::Array(vec![Value::Int(4), Value::Int(5), Value::Int(6)]),
        ]);
        let fp = FusedProgram::compose(&[&s1, &s2]).unwrap();
        let mut roots = vec![input, Value::default_record(&b), Value::default_record(&a)];
        let stats = fp.run_register(&mut roots).unwrap();
        assert_eq!(stats.batch_copies, 2, "one BatchCopy per step");
        assert_eq!(stats.batch_elems, 6);
        assert_eq!(
            roots[2],
            Value::Record(vec![
                Value::Int(3),
                Value::Array(vec![Value::Int(4), Value::Int(5), Value::Int(6)])
            ])
        );
    }

    #[test]
    fn used_field_scan_is_precise_for_static_paths() {
        let a = fmt("M", &["x", "y", "z"]);
        let b = fmt("M", &["out"]);
        let s1 = step(&a, &b, "old.out = new.x + new.z;");
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        assert_eq!(root_used_fields(fp.code(), 0, 3), vec![true, false, true]);
        // The output root is written, not part of root 0's mask.
        assert_eq!(root_used_fields(fp.code(), 1, 1), vec![true]);
    }

    #[test]
    fn used_field_scan_covers_len_and_arrays() {
        let member = FormatBuilder::record("E").int("ID").build_arc().unwrap();
        let a = FormatBuilder::record("M")
            .int("n")
            .var_array_of("items", member, "n")
            .string("junk")
            .build_arc()
            .unwrap();
        let b = fmt("M", &["total"]);
        let s1 = step(
            &a,
            &b,
            "int i; for (i = 0; i < len(new.items); i++) { old.total += new.items[i].ID; }",
        );
        let fp = FusedProgram::compose(&[&s1]).unwrap();
        // `n` and `junk` are never touched; `items` is read via len + index.
        assert_eq!(root_used_fields(fp.code(), 0, 3), vec![false, true, false]);
    }

    /// Field masks over every root of every chain in this module, plus a
    /// lone `CopyPath` and a lone `BatchCopy` reading root 0. A wider mask
    /// would make projected decode materialize fields no step reads.
    #[test]
    fn used_field_masks_are_stable_across_chain_shapes() {
        let member = FormatBuilder::record("E").int("ID").build_arc().unwrap();
        let items = |extra: Option<&str>| {
            let b = FormatBuilder::record("M").int("n").var_array_of("items", member.clone(), "n");
            match extra {
                Some(name) => b.string(name),
                None => b,
            }
            .build_arc()
            .unwrap()
        };
        let vals = || {
            FormatBuilder::record("M")
                .int("n")
                .var_array_basic("vals", pbio::BasicType::Int(pbio::Width::W8), "n")
                .string("junk")
                .build_arc()
                .unwrap()
        };
        let (x, y, z) = (fmt("M", &["x"]), fmt("M", &["y"]), fmt("M", &["z"]));
        let (xy, sum, twice) = (fmt("M", &["x", "y"]), fmt("M", &["sum"]), fmt("M", &["twice"]));
        let (xyz, out, total) =
            (fmt("M", &["x", "y", "z"]), fmt("M", &["out"]), fmt("M", &["total"]));
        let (ia, ib, ij) = (items(None), items(None), items(Some("junk")));
        let (va, vb) = (vals(), vals());
        let loop_copy =
            "int i; old.n = new.n; for (i = 0; i < new.n; i++) old.vals[i] = new.vals[i];";
        let cases: Vec<(Vec<EcodeProgram>, Vec<Vec<bool>>)> = vec![
            (
                vec![
                    step(&xy, &sum, "old.sum = new.x + new.y;"),
                    step(&sum, &twice, "old.twice = new.sum * 2;"),
                ],
                vec![vec![true, true], vec![true], vec![true]],
            ),
            (
                vec![
                    step(&x, &y, "old.y = new.x; if (new.x > 0) return 1; old.y = -1;"),
                    step(
                        &y,
                        &z,
                        "int bump(int v) { old.z = v + 1; return v; } \
                         int t = bump(new.y); t = bump(t + 10);",
                    ),
                ],
                vec![vec![true], vec![true], vec![true]],
            ),
            (
                vec![
                    step(
                        &ia,
                        &ib,
                        "int i; for (i = 0; i < new.n; i++) { old.items[i].ID = new.items[i].ID * 10; }",
                    ),
                    step(
                        &ib,
                        &total,
                        "int i; for (i = 0; i < new.n; i++) { old.total += new.items[i].ID; }",
                    ),
                ],
                vec![vec![true, true], vec![true, true], vec![true]],
            ),
            (vec![step(&x, &y, "old.y = new.x - 1;")], vec![vec![true], vec![true]]),
            (
                vec![step(&va, &vb, loop_copy), step(&vb, &va, loop_copy)],
                vec![vec![true, true, false]; 3],
            ),
            (
                vec![step(&xyz, &out, "old.out = new.x + new.z;")],
                vec![vec![true, false, true], vec![true]],
            ),
            (
                vec![step(
                    &ij,
                    &total,
                    "int i; for (i = 0; i < len(new.items); i++) { old.total += new.items[i].ID; }",
                )],
                vec![vec![false, true, false], vec![true]],
            ),
            // A whole-field copy (one CopyPath) reading root 0.
            (vec![step(&xyz, &out, "old.out = new.y;")], vec![vec![false, true, false], vec![true]]),
            // A batchable loop with a constant bound: root 0 is only read
            // through the BatchCopy's source path.
            (
                vec![step(&va, &vb, "int i; for (i = 0; i < 3; i++) old.vals[i] = new.vals[i];")],
                vec![vec![false, true, false], vec![false, true, false]],
            ),
        ];
        for (chain, masks) in &cases {
            let refs: Vec<&EcodeProgram> = chain.iter().collect();
            let fp = FusedProgram::compose(&refs).unwrap();
            for (r, want) in masks.iter().enumerate() {
                let got = root_used_fields(fp.code(), r as u8, want.len());
                assert_eq!(&got, want, "root {r} of\n{}", fp.code());
            }
        }
        // The last two cases really exercise the superinstruction paths.
        let n = cases.len();
        let insns = |k: usize| &cases[k].0[0].code().insns;
        assert!(insns(n - 2).iter().any(|i| matches!(i, RInsn::CopyPath { src_root: 0, .. })));
        assert!(insns(n - 1).iter().any(|i| matches!(i, RInsn::BatchCopy { src_root: 0, .. })));
    }

    #[test]
    fn used_field_scan_gives_up_on_dynamic_first_segment() {
        let dynamic = |insn: RInsn| RCode {
            insns: vec![RInsn::ConstI { dst: 0, v: 0 }, insn, RInsn::Ret { src: None }],
            strings: vec![],
            n_regs: 2,
            n_roots: 2,
            funcs: vec![],
        };
        let load = dynamic(RInsn::Load {
            dst: 1,
            root: 0,
            segs: vec![CSeg::Index, CSeg::Field(1)].into(),
            idx: vec![0].into(),
        });
        assert_eq!(root_used_fields(&load, 0, 3), vec![true; 3]);
        // The other root is not touched at all.
        assert_eq!(root_used_fields(&load, 1, 3), vec![false; 3]);
        let copy = dynamic(RInsn::CopyPath {
            src_root: 1,
            src_segs: vec![CSeg::Field(0)].into(),
            src_idx: vec![].into(),
            dst_root: 0,
            dst_segs: vec![].into(),
            dst_idx: vec![].into(),
            conv: None,
        });
        // A whole-root destination marks everything; the source stays precise.
        assert_eq!(root_used_fields(&copy, 0, 2), vec![true, true]);
        assert_eq!(root_used_fields(&copy, 1, 2), vec![true, false]);
    }
}
