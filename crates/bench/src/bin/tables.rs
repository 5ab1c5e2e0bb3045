//! Regenerates the paper's evaluation tables from one evaluation of each
//! benchmark:
//!
//! - **Table 1 — Benchmark characteristics**: lines of C, number of
//!   profiled runs, average dynamic IL instructions and control
//!   transfers per run (in thousands), and the input description.
//! - **Table 2 — Static function call characteristics**: the number of
//!   static call sites and the percentage that is external /
//!   through-pointer / unsafe / safe. Only safe sites are candidates for
//!   inline expansion.
//! - **Table 3 — Dynamic function call behavior**: the share of
//!   *dynamic* calls attributable to each call-site class. The paper's
//!   central observation: the small set of safe static sites accounts
//!   for most dynamic calls.
//! - **Table 4 — Inline expansion results**: static code-size increase,
//!   dynamic call decrease, and ILs / control transfers executed between
//!   calls after expansion, with AVG and SD rows.
//! - The §4.4 post-inline dynamic call mix (the paper's 56.1% / 2.8% /
//!   18.0% / 23.1% statistic).
//!
//! Run with `--quick` to profile 2 runs per benchmark instead of the full
//! paper-shaped set.

use impact_bench::{evaluate_all, mean_sd, row, Evaluation, HarnessConfig};
use impact_inline::{ClassTotals, SiteClass};

/// The call-site classes, in the column order of Tables 2 and 3.
const CLASSES: [SiteClass; 4] = [
    SiteClass::External,
    SiteClass::Pointer,
    SiteClass::Unsafe,
    SiteClass::Safe,
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = HarnessConfig {
        max_runs: if quick { 2 } else { u32::MAX },
        ..HarnessConfig::default()
    };
    let evals = evaluate_all(&cfg).expect("evaluation runs");
    table1(&evals);
    println!();
    class_table(
        "Table 2. Static function call characteristics.",
        ("total", 7),
        &evals,
        |e| &e.static_totals,
    );
    println!();
    class_table(
        "Table 3. Dynamic function call behavior.",
        ("calls/run", 11),
        &evals,
        |e| &e.dynamic_totals,
    );
    println!();
    table4(&evals);
}

/// Mean and SD of one per-benchmark figure.
fn column(evals: &[Evaluation], f: impl Fn(&Evaluation) -> f64) -> (f64, f64) {
    mean_sd(&evals.iter().map(f).collect::<Vec<_>>())
}

fn table1(evals: &[Evaluation]) {
    let widths = [10, 8, 6, 10, 10, 34];
    println!("Table 1. Benchmark characteristics.");
    let head = [
        "benchmark",
        "C lines",
        "runs",
        "IL's",
        "control",
        "input description",
    ];
    println!("{}", row(&head.map(String::from), &widths));
    for e in evals {
        let cells = [
            e.name.clone(),
            e.c_lines.to_string(),
            e.runs.to_string(),
            format!("{}K", e.avg_ils / 1000),
            format!("{}K", e.avg_control / 1000),
            format!("  {}", e.input_description),
        ];
        println!("{}", row(&cells, &widths));
    }
}

/// Tables 2 and 3: a site count and the share of each call-site class
/// per benchmark, with an AVG row. `count` is the count column's header
/// and width.
fn class_table(
    title: &str,
    (count, count_width): (&str, usize),
    evals: &[Evaluation],
    totals: impl Fn(&Evaluation) -> &ClassTotals,
) {
    let widths = [10, count_width, 10, 9, 8, 7];
    println!("{title}");
    let head = ["benchmark", count, "external", "pointer", "unsafe", "safe"];
    println!("{}", row(&head.map(String::from), &widths));
    for e in evals {
        let t = totals(e);
        let mut cells = vec![e.name.clone(), t.total().to_string()];
        cells.extend(CLASSES.map(|c| format!("{:.1}%", t.percent(c))));
        println!("{}", row(&cells, &widths));
    }
    let mut avg = vec!["AVG".to_string(), String::new()];
    avg.extend(CLASSES.map(|c| format!("{:.1}%", column(evals, |e| totals(e).percent(c)).0)));
    println!("{}", row(&avg, &widths));
}

/// Table 4 with its AVG and SD rows, then the §4.4 post-inline mix.
fn table4(evals: &[Evaluation]) {
    let widths = [10, 9, 9, 13, 13];
    println!("Table 4. Inline expansion results.");
    let head = [
        "benchmark",
        "code inc",
        "call dec",
        "IL's per call",
        "CT's per call",
    ];
    println!("{}", row(&head.map(String::from), &widths));
    for e in evals {
        let cells = [
            e.name.clone(),
            format!("{:.0}%", e.code_inc_percent),
            format!("{:.0}%", e.call_dec_percent),
            e.ils_per_call.to_string(),
            e.cts_per_call.to_string(),
        ];
        println!("{}", row(&cells, &widths));
    }
    let stats = [
        column(evals, |e| e.code_inc_percent),
        column(evals, |e| e.call_dec_percent),
        column(evals, |e| e.ils_per_call as f64),
        column(evals, |e| e.cts_per_call as f64),
    ];
    for (label, [inc, dec, ipc, cpc]) in [("AVG", stats.map(|s| s.0)), ("SD", stats.map(|s| s.1))] {
        let cells = [
            label.to_string(),
            format!("{inc:.1}%"),
            format!("{dec:.1}%"),
            format!("{ipc:.0}"),
            format!("{cpc:.0}"),
        ];
        println!("{}", row(&cells, &widths));
    }
    println!();
    println!("Post-inline dynamic call mix (paper §4.4: 56.1% external, 2.8% pointer, 18.0% unsafe, 23.1% safe):");
    let [ext, ptr, uns, safe]: [f64; 4] =
        std::array::from_fn(|i| column(evals, |e| e.post_mix[i]).0);
    println!("  external {ext:.1}%  pointer {ptr:.1}%  unsafe {uns:.1}%  safe {safe:.1}%");
}
