//! Program-level integration tests: realistic Ecode programs run on the
//! register VM and on the reference interpreter, and must agree.

use std::sync::Arc;

use ecode::{EcodeCompiler, EcodeError, EcodeProgram};
use pbio::{FormatBuilder, RecordFormat, Value};

fn scratch() -> Arc<RecordFormat> {
    let item = FormatBuilder::record("Item").string("key").int("val").build_arc().unwrap();
    FormatBuilder::record("Scratch")
        .int("n")
        .var_array_of("items", item, "n")
        .int("acc")
        .double("facc")
        .string("sacc")
        .build_arc()
        .unwrap()
}

fn empty_scratch(n_items: usize) -> Value {
    Value::Record(vec![
        Value::Int(n_items as i64),
        Value::Array(
            (0..n_items)
                .map(|i| Value::Record(vec![Value::str(format!("k{i}")), Value::Int(i as i64)]))
                .collect(),
        ),
        Value::Int(0),
        Value::Float(0.0),
        Value::Str(String::new()),
    ])
}

fn compile(src: &str) -> EcodeProgram {
    EcodeCompiler::new()
        .bind_output("s", &scratch())
        .compile(src)
        .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"))
}

/// Runs on both engines, asserts agreement, returns (root, return value).
fn run_both(src: &str, input: Value) -> (Value, Option<Value>) {
    let prog = compile(src);
    let mut vm_roots = vec![input.clone()];
    let vm_ret = prog.run_with_fuel(&mut vm_roots, 50_000_000).unwrap();
    let mut it_roots = vec![input];
    let it_ret = prog.run_interp_with_fuel(&mut it_roots, 50_000_000).unwrap();
    assert_eq!(vm_roots, it_roots, "engine divergence (roots)");
    assert_eq!(vm_ret, it_ret, "engine divergence (return)");
    (vm_roots.pop().unwrap(), vm_ret)
}

#[test]
fn gcd_with_functions() {
    let src = r#"
        int gcd(int a, int b) {
            while (b != 0) {
                int t = b;
                b = a % b;
                a = t;
            }
            return a;
        }
        return gcd(462, 1071);
    "#;
    let (_, ret) = run_both(src, empty_scratch(0));
    assert_eq!(ret, Some(Value::Int(21)));
}

#[test]
fn selection_sort_on_root_array() {
    // Sort items by val, descending, using whole-record swaps.
    let src = r#"
        int i; int j; int best;
        for (i = 0; i < s.n; i++) {
            best = i;
            for (j = i + 1; j < s.n; j++) {
                if (s.items[j].val > s.items[best].val) best = j;
            }
            if (best != i) {
                s.acc = s.items[i].val;
                s.items[i] = s.items[best];
                s.items[best].val = s.acc;
            }
        }
    "#;
    let mut input = empty_scratch(0);
    // Shuffled values with matching keys.
    let vals = [3i64, 1, 4, 1, 5, 9, 2, 6];
    if let Value::Record(fields) = &mut input {
        fields[0] = Value::Int(vals.len() as i64);
        fields[1] = Value::Array(
            vals.iter()
                .map(|&v| Value::Record(vec![Value::str(format!("k{v}")), Value::Int(v)]))
                .collect(),
        );
    }
    let (root, _) = run_both(src, input);
    let out: Vec<i64> = root
        .field(&scratch(), "items")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|i| i.as_record().unwrap()[1].as_i64().unwrap())
        .collect();
    let mut expect = vals.to_vec();
    expect.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(out, expect);
}

#[test]
fn string_report_building() {
    let src = r#"
        string join(string acc, string piece) {
            if (strlen(acc) == 0) return piece;
            return acc + "," + piece;
        }
        int i;
        for (i = 0; i < s.n; i++) {
            s.sacc = join(s.sacc, s.items[i].key);
        }
    "#;
    let (root, _) = run_both(src, empty_scratch(3));
    assert_eq!(root.field(&scratch(), "sacc"), Some(&Value::str("k0,k1,k2")));
}

#[test]
fn numeric_integration_loop() {
    // Trapezoidal integral of x^2 on [0, 1] — floats + functions + loops.
    let src = r#"
        double f(double x) { return x * x; }
        int i;
        int steps = 1000;
        double h = 1.0 / steps;
        double sum = (f(0.0) + f(1.0)) / 2.0;
        for (i = 1; i < steps; i++) {
            sum += f(i * h);
        }
        s.facc = sum * h;
    "#;
    let (root, _) = run_both(src, empty_scratch(0));
    let Some(Value::Float(v)) = root.field(&scratch(), "facc").cloned() else {
        panic!("facc not set")
    };
    assert!((v - 1.0 / 3.0).abs() < 1e-5, "integral = {v}");
}

#[test]
fn collatz_with_early_exit() {
    let src = r#"
        int steps(int n) {
            int c = 0;
            while (n != 1) {
                if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
                c++;
                if (c > 10000) return -1;
            }
            return c;
        }
        return steps(27);
    "#;
    let (_, ret) = run_both(src, empty_scratch(0));
    assert_eq!(ret, Some(Value::Int(111)));
}

#[test]
fn histogram_via_write_extension() {
    // Buckets grow on demand through auto-extending writes.
    let bucket = FormatBuilder::record("B").int("count").build_arc().unwrap();
    let fmt = FormatBuilder::record("H")
        .int("n")
        .var_array_of("buckets", bucket, "n")
        .build_arc()
        .unwrap();
    // Writes auto-extend; reads do not — so zero the buckets first (the
    // idiomatic Fig. 5 pattern writes before it ever reads the output).
    let src = r#"
        int i;
        for (i = 0; i < 7; i++) { h.buckets[i].count = 0; }
        for (i = 0; i < 50; i++) {
            int b = (i * i) % 7;
            h.buckets[b].count = h.buckets[b].count + 1;
        }
        h.n = 7;
    "#;
    let prog = EcodeCompiler::new().bind_output("h", &fmt).compile(src).unwrap();
    let mut roots = vec![Value::Record(vec![Value::Int(0), Value::Array(vec![])])];
    prog.run(&mut roots).unwrap();
    roots[0].check(&fmt).unwrap();
    let counts: Vec<i64> = roots[0]
        .field(&fmt, "buckets")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|b| b.as_record().unwrap()[0].as_i64().unwrap())
        .collect();
    assert_eq!(counts.iter().sum::<i64>(), 50);
    // i*i mod 7 only hits quadratic residues {0,1,2,4}.
    assert_eq!(counts.len(), 7);
    assert_eq!(counts[3], 0);
    assert_eq!(counts[5], 0);
    assert_eq!(counts[6], 0);
}

#[test]
fn fuel_bounds_function_heavy_programs() {
    let src = r#"
        int burn(int n) {
            int i; int s = 0;
            for (i = 0; i < n; i++) s += i;
            return s;
        }
        int i;
        for (i = 0; i < 1000000; i++) { s.acc = burn(1000); }
    "#;
    let prog = compile(src);
    let mut roots = vec![empty_scratch(0)];
    assert!(matches!(prog.run_with_fuel(&mut roots, 100_000), Err(EcodeError::Runtime(_))));
}

#[test]
fn compile_once_run_many_is_deterministic() {
    let src = "int i; for (i = 0; i < s.n; i++) { s.acc += s.items[i].val; }";
    let prog = compile(src);
    let mut expected = None;
    for _ in 0..5 {
        let mut roots = vec![empty_scratch(10)];
        prog.run(&mut roots).unwrap();
        let acc = roots[0].field(&scratch(), "acc").cloned();
        match &expected {
            None => expected = Some(acc),
            Some(e) => assert_eq!(&acc, e),
        }
    }
    assert_eq!(expected.unwrap(), Some(Value::Int(45)));
}

#[test]
fn bytecode_is_inspectable() {
    let prog = compile("s.acc = 1 + 2;");
    assert!(!prog.code().is_empty());
    // Constant folding leaves exactly: r0 = 3, Store, Ret.
    assert_eq!(prog.code().len(), 3);
    let listing = prog.code().disassemble();
    assert!(listing.contains("r0 = 3"), "{listing}");
    assert!(listing.contains("Store root0.2 = r0"), "{listing}");
    assert_eq!(prog.bindings().len(), 1);
    assert_eq!(prog.bindings()[0].name, "s");
}
