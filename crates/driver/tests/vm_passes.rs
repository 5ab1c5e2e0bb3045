//! The driver pipeline makes one VM pass per module state: the profiling
//! run, the inlined module, and the optimized module. These tests pin
//! the pass count through the `vm:run` spans of `--metrics-out`, check
//! that the path reusing the profiling run and the path re-measuring
//! the original report the same bytes, and that `bench <name>` runs the
//! same pipeline, optimizer included.

use impact_cfront::Source;
use impact_driver::{execute, inline_pipeline, Options, RunSpec};
use impact_fuzz::{generate, program_seed};

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

/// A fresh temp dir, distinct per tag.
fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("impactc-vm-passes-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs the command with `--metrics-out` and returns its stdout and the
/// metrics document.
fn with_metrics(dir: &std::path::Path, args: &[&str]) -> (String, String) {
    let metrics = dir.join("metrics.json");
    let mut argv = strs(args);
    argv.extend(strs(&["--metrics-out", metrics.to_str().unwrap()]));
    let (code, out) = execute(&Options::parse(&argv).unwrap()).unwrap();
    assert_eq!(code, 0, "{args:?}: {out}");
    (out, std::fs::read_to_string(metrics).unwrap())
}

/// The `count` of the span `name` in a metrics document; 0 when absent.
fn span_count(metrics: &str, name: &str) -> u64 {
    let needle = format!("{{\"name\": \"{name}\", \"count\": ");
    metrics.find(&needle).map_or(0, |at| {
        let rest = &metrics[at + needle.len()..];
        rest[..rest.find(',').unwrap()].parse().unwrap()
    })
}

const HOT: &str = "int sq(int x) { return x * x; }\n\
     int cube(int x) { return x * x * x; }\n\
     int main() { int i; int s; s = 0;\n\
       for (i = 0; i < 100; i++) { s += sq(i); s += cube(i); }\n\
       return s & 0xff; }\n";

/// One run spec, so each module state the pipeline measures is one
/// `vm:run` span. `--fuel 1999999999` makes the profiling config differ
/// from the measuring one, so the original module is measured anew.
#[test]
fn each_module_state_is_run_once() {
    let dir = tmp_dir("spans");
    let src = dir.join("hot.c");
    std::fs::write(&src, HOT).unwrap();
    let src = src.to_str().unwrap();
    for (args, runs) in [
        (vec!["inline", src, "--quiet", "--opt"], 3),
        (vec!["inline", src, "--quiet"], 2),
        (
            vec!["inline", src, "--quiet", "--opt", "--fuel", "1999999999"],
            4,
        ),
    ] {
        let (out, metrics) = with_metrics(&dir, &args);
        assert!(out.contains("; incidents: 0 (0 rolled back)"), "{out}");
        assert_eq!(span_count(&metrics, "vm:run"), runs, "{args:?}: {metrics}");
    }
}

#[test]
fn bench_runs_each_module_state_once_and_honours_opt() {
    let dir = tmp_dir("bench");
    let runs = impact_workloads::benchmark("wc")
        .unwrap()
        .profile_run_set(4)
        .len() as u64;
    let (plain, metrics) = with_metrics(&dir, &["bench", "wc"]);
    assert_eq!(span_count(&metrics, "vm:run"), 2 * runs, "{metrics}");
    assert_eq!(span_count(&metrics, "opt:constant-fold"), 0, "{metrics}");

    let (opt, metrics) = with_metrics(&dir, &["bench", "wc", "--opt"]);
    assert_eq!(span_count(&metrics, "vm:run"), 3 * runs, "{metrics}");
    assert!(
        span_count(&metrics, "opt:constant-fold") > 0,
        "bench --opt did not optimize: {metrics}"
    );
    // The optimizer keeps behavior, so the report line is unchanged.
    assert_eq!(opt, plain);
}

/// Fixed fuzz programs and the twelve bundled sources, each with one
/// empty run: the report must not depend on whether the profiling run
/// stood in for the original module's measurement.
#[test]
fn reusing_the_profiling_run_matches_measuring_anew() {
    let mut units: Vec<Vec<Source>> = (0..64)
        .map(|i| {
            vec![Source::new(
                format!("unit{i}.c"),
                generate(program_seed(0x5eed, i)),
            )]
        })
        .collect();
    units.extend(
        impact_workloads::all_benchmarks()
            .iter()
            .map(|b| b.sources()),
    );
    let runs: Vec<RunSpec> = vec![(Vec::new(), Vec::new())];
    let reuse = Options::parse(&strs(&["inline", "--opt", "--quiet"])).unwrap();
    let anew = Options::parse(&strs(&[
        "inline",
        "--opt",
        "--quiet",
        "--fuel",
        "1999999999",
    ]))
    .unwrap();
    for (i, unit) in units.iter().enumerate() {
        let a = inline_pipeline(unit, &runs, &reuse).map_err(|f| f.render());
        let b = inline_pipeline(unit, &runs, &anew).map_err(|f| f.render());
        assert_eq!(a, b, "unit {i} ({})", unit[0].name);
        assert!(a.is_ok(), "unit {i}: {a:?}");
    }
}
