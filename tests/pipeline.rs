//! Cross-crate integration tests: invariants that hold across the whole
//! compile → profile → optimize → inline pipeline.

use impact::callgraph::{CallGraph, NodeKind};
use impact::cfront::{compile, Source};
use impact::il::verify_module;
use impact::inline::{inline_module, InlineConfig};
use impact::vm::{run, Engine, VmConfig};

fn compile_one(src: &str) -> impact::il::Module {
    let m = compile(&[Source::new("t.c", src)]).expect("compiles");
    verify_module(&m).expect("verifies");
    m
}

const CALC: &str = r#"
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int poly(int x) { return add(mul(x, x), add(mul(3, x), 7)); }
int main() {
    int i; int acc;
    acc = 0;
    for (i = 0; i < 37; i++) acc = add(acc, poly(i)) & 0xffff;
    return acc & 0xff;
}
"#;

/// Node weight equals the sum of incoming *real* arc weights for every
/// function except main (§2.2: "it is necessary to know the weights of
/// all outgoing arcs associated with a particular incoming arc" — our
/// direct-call graph makes the flow conservation exact).
#[test]
fn node_weight_equals_incoming_arc_weights() {
    let module = compile_one(CALC);
    let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
    let graph = CallGraph::build(&module, &out.profile);
    for node in graph.nodes() {
        let NodeKind::Func(f) = node.kind else {
            continue;
        };
        if Some(f) == module.main_id() {
            assert_eq!(node.weight, 1, "main runs once");
            continue;
        }
        let incoming: u64 = node
            .in_arcs
            .iter()
            .map(|&a| graph.arc(a))
            .filter(|a| a.site.is_some())
            .map(|a| a.weight)
            .sum();
        assert_eq!(
            node.weight,
            incoming,
            "{} weight vs incoming arcs",
            module.function(f).name
        );
    }
}

/// Optimizing, inlining, then optimizing again — every stage preserves
/// the observable result.
#[test]
fn full_pipeline_preserves_exit_code() {
    let module = compile_one(CALC);
    let baseline = run(&module, vec![], vec![], &VmConfig::default()).unwrap();

    let mut optimized = module.clone();
    impact::opt::optimize_module(&mut optimized);
    verify_module(&optimized).unwrap();
    let after_opt = run(&optimized, vec![], vec![], &VmConfig::default()).unwrap();
    assert_eq!(baseline.exit_code, after_opt.exit_code);

    let mut inlined = optimized.clone();
    let report = inline_module(
        &mut inlined,
        &after_opt.profile.averaged(),
        &InlineConfig::default(),
    );
    verify_module(&inlined).unwrap();
    let after_inline = run(&inlined, vec![], vec![], &VmConfig::default()).unwrap();
    assert_eq!(baseline.exit_code, after_inline.exit_code);
    assert!(report.expanded.len() >= 2, "hot arcs got expanded");

    let mut cleaned = inlined.clone();
    impact::opt::optimize_module(&mut cleaned);
    verify_module(&cleaned).unwrap();
    let after_clean = run(&cleaned, vec![], vec![], &VmConfig::default()).unwrap();
    assert_eq!(baseline.exit_code, after_clean.exit_code);
    // Post-inline cleanup shrinks the parameter-buffering overhead (§2.4).
    assert!(cleaned.total_size() <= inlined.total_size());
}

/// Inlining twice (re-profiling in between) stays semantics-preserving
/// and converges: the second pass finds nothing hot left to expand.
#[test]
fn second_inline_pass_converges() {
    let mut module = compile_one(CALC);
    let p1 = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
    inline_module(
        &mut module,
        &p1.profile.averaged(),
        &InlineConfig::default(),
    );
    let p2 = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
    assert_eq!(p1.exit_code, p2.exit_code);
    let report2 = inline_module(
        &mut module,
        &p2.profile.averaged(),
        &InlineConfig::default(),
    );
    assert!(
        report2.expanded.is_empty(),
        "second pass re-expanded {:?}",
        report2.expanded
    );
    let p3 = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
    assert_eq!(p1.exit_code, p3.exit_code);
}

/// The realized code size respects the configured budget (with a small
/// constant slack for the splice overhead of movs and jumps, which the
/// plan's estimate does not count).
#[test]
fn code_growth_budget_is_respected() {
    for limit in [1.1f64, 1.5, 2.0] {
        let module = compile_one(CALC);
        let before = module.total_size();
        let profile = run(&module, vec![], vec![], &VmConfig::default())
            .unwrap()
            .profile;
        let mut inlined = module.clone();
        let config = InlineConfig {
            code_growth_limit: limit,
            eliminate_unreachable: false, // measure raw expansion size
            ..InlineConfig::default()
        };
        let report = inline_module(&mut inlined, &profile.averaged(), &config);
        let budget = (before as f64 * limit) as u64;
        let overhead =
            4 * report.expanded.len() as u64 + report.expanded.iter().map(|_| 2).sum::<u64>();
        assert!(
            report.size_after <= budget + overhead,
            "limit {limit}: size {} > budget {budget} + overhead {overhead}",
            report.size_after
        );
    }
}

/// Profile weights drive decisions: with a profile from a different input
/// (where a different path is hot), different arcs get expanded.
#[test]
fn profiles_steer_expansion() {
    let src = r#"
extern int __fgetc(int fd);
int path_a(int x) { return x * 3 + 1; }
int path_b(int x) { return x / 2; }
int main() {
    int c; int acc;
    acc = 0;
    while ((c = __fgetc(0)) != -1) {
        if (c == 'a') acc += path_a(acc + c);
        else acc += path_b(acc + c);
        acc &= 0xffff;
    }
    return acc & 0x7f;
}
"#;
    let module = compile_one(src);
    let input_a = vec![impact::vm::NamedFile::new("stdin", vec![b'a'; 200])];
    let input_b = vec![impact::vm::NamedFile::new("stdin", vec![b'b'; 200])];
    let vm = VmConfig::default();

    let prof_a = run(&module, input_a.clone(), vec![], &vm).unwrap().profile;
    let prof_b = run(&module, input_b.clone(), vec![], &vm).unwrap().profile;

    let cfg = InlineConfig::default();
    let mut mod_a = module.clone();
    let rep_a = inline_module(&mut mod_a, &prof_a.averaged(), &cfg);
    let mut mod_b = module.clone();
    let rep_b = inline_module(&mut mod_b, &prof_b.averaged(), &cfg);

    let names = |r: &impact::inline::InlineReport, m: &impact::il::Module| {
        r.expanded
            .iter()
            .map(|e| m.function(e.callee).name.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&rep_a, &module), vec!["path_a"]);
    assert_eq!(names(&rep_b, &module), vec!["path_b"]);

    // Both still behave identically on BOTH inputs.
    for input in [input_a, input_b] {
        let base = run(&module, input.clone(), vec![], &vm).unwrap();
        let a = run(&mod_a, input.clone(), vec![], &vm).unwrap();
        let b = run(&mod_b, input.clone(), vec![], &vm).unwrap();
        assert_eq!(base.exit_code, a.exit_code);
        assert_eq!(base.exit_code, b.exit_code);
    }
}

/// A whole-suite smoke check through the facade pipeline helper.
#[test]
fn facade_pipeline_runs_a_workload() {
    let b = impact::workloads::benchmark("eqn").unwrap();
    let input = b.run_input(0);
    let report = impact::pipeline::compile_profile_inline(
        &b.sources(),
        input.inputs,
        input.args,
        &InlineConfig {
            code_growth_limit: 1.2,
            ..InlineConfig::default()
        },
    )
    .expect("pipeline");
    assert_eq!(report.exit_before, report.exit_after);
    assert!(report.calls_after < report.calls_before / 2);
}

/// `sizeof` of an integer literal takes the literal's kind: `int` when
/// the value fits, else `long`.
#[test]
fn sizeof_a_literal_follows_its_kind() {
    let module = compile_one("int main() { return sizeof(2147483647) + sizeof(2147483648) * 10; }");
    let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
    assert_eq!(out.exit_code, 84);
}

/// A global initializer folds to the value the same expression computes
/// at run time, unsigned operands (`sizeof`, unsigned casts) included.
#[test]
fn global_initializers_compute_what_the_code_computes() {
    let exprs = [
        "3 < 4",
        "(1 && 0) ? 10 : 20",
        "(7, 2 >= 2 || 0)",
        "sizeof(int) > -1",
        "-sizeof(char) < 0",
        "(unsigned short)1 > -1",
        "(unsigned)-1 > 0",
        "(0 ? sizeof(int) : -1) > 0",
        "-8 / sizeof(int)",
        "-9 % sizeof(long)",
        "(unsigned long)-1 >> 60",
        "-16 >> 2",
        "sizeof(1)",
        "sizeof(4294967296)",
        "sizeof((char)1)",
        "sizeof(1/0)",
        "sizeof(1 ? (char)1 : 2)",
    ];
    let mut src = String::new();
    for (i, e) in exprs.iter().enumerate() {
        src += &format!("long g{i} = {e};\n");
    }
    src += "int main() {\n";
    for (i, e) in exprs.iter().enumerate() {
        src += &format!("    if (g{i} != (long)({e})) return {};\n", i + 1);
    }
    src += "    return 0;\n}\n";
    let module = compile_one(&src);
    let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
    let mismatch = out.exit_code as usize;
    assert_eq!(
        mismatch,
        0,
        "global `{}` differs from the run-time value",
        exprs[mismatch.saturating_sub(1)]
    );
    // An array size takes the same constant.
    let module = compile_one("int a[sizeof(1)];\nint main() { return sizeof(a); }\n");
    let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
    assert_eq!(out.exit_code, 16, "`int a[sizeof(1)];` has four ints");
}

/// Narrow and unsigned conversions give what `gcc -O0` gives. The answers
/// were recorded from it, so the test needs no C compiler.
#[test]
fn narrow_integers_convert_as_a_c_compiler_does() {
    // (statements, the returned expression, gcc -O0's value for it)
    let cases = [
        ("char c = 127; c++;", "c < 0", 1),
        ("char c = 127; ++c;", "c", -128),
        ("unsigned char u = 0; u--;", "u", 255),
        ("short s = -32768; s--;", "s", 32767),
        ("unsigned short w = 65535; ++w;", "w", 0),
        ("char c = 127; int r = c++;", "r", 127),
        ("char c = -57; unsigned short u = c;", "u", 65479),
        ("short s = -1; unsigned u = s;", "u", 4294967295),
        ("char c = -1; unsigned long u = c;", "u == -1", 1),
    ];
    for (stmts, expr, want) in cases {
        let module = compile_one(&format!("long main() {{ {stmts} return {expr}; }}"));
        for engine in [Engine::Interp, Engine::Bytecode] {
            let config = VmConfig {
                engine,
                ..VmConfig::default()
            };
            let out = run(&module, vec![], vec![], &config).unwrap();
            assert_eq!(out.exit_code, want, "`{stmts}` then `{expr}` ({engine:?})");
        }
    }
}
