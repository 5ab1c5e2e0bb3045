//! The metric catalogue, per-run results, and their two renderings: an
//! aligned table for people and one JSON line for tools.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;
use crate::trace::{child_coverage, NameTotals, SpanRec};

/// End-to-end metrics: `(name, unit)`. Reported by untraced runs.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("dyn_ils_inlined", "count"),
    ("dyn_ils_optimized", "count"),
    ("code_growth_pct", "%"),
];

/// Per-layer metrics: `(name, unit)`. Reported by traced runs.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("vm.run_us", "us"),
    ("vm.ils_per_s", "1/s"),
    ("vm.runs", "count"),
    ("vm.interp_ils_per_s", "1/s"),
    ("cfront.lex_us", "us"),
    ("cfront.parse_us", "us"),
    ("cfront.lower_us", "us"),
    ("cfront.tokens_per_s", "1/s"),
    ("il.verify_us", "us"),
    ("callgraph.build_us", "us"),
    ("inline.classify_us", "us"),
    ("inline.linearize_us", "us"),
    ("inline.plan_us", "us"),
    ("inline.expand_us", "us"),
    ("inline.eliminate_us", "us"),
    ("opt.constant_fold_us", "us"),
    ("opt.strength_reduce_us", "us"),
    ("opt.local_cse_us", "us"),
    ("opt.copy_propagation_us", "us"),
    ("opt.dead_code_elimination_us", "us"),
    ("opt.jump_optimization_us", "us"),
    ("inline.arcs_expanded", "count"),
    ("inline.calls_removed_pct", "%"),
    ("inline.accept_ratio", "ratio"),
    ("opt.changes", "count"),
    ("opt.il_removed", "count"),
    ("driver.pipeline_overhead_us", "us"),
    ("cache.load_us", "us"),
    ("cache.store_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("serve.connect_us", "us"),
    ("serve.rtt_us", "us"),
    ("serve.codec_us", "us"),
    ("serve.busy", "count"),
    ("serve.service_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.outside_worker_us", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.telemetry_on_pct", "%"),
];

/// One reported figure: the value the JSON carries, plus its spread.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// The reported number (a median or a percentile).
    pub value: f64,
    /// First and third quartile of the samples behind it, when there are
    /// samples to speak of.
    pub quartiles: Option<(f64, f64)>,
    /// How many samples it rests on.
    pub n: usize,
}

impl Value {
    /// The median of per-round samples, with their quartiles.
    pub fn median(samples: &[f64]) -> Value {
        let (q1, m, q3) = stats::quartiles(samples).unwrap_or((0.0, 0.0, 0.0));
        Value {
            value: m,
            quartiles: Some((q1, q3)),
            n: samples.len(),
        }
    }

    /// A single figure (an exact count, or a ratio of totals).
    pub fn single(v: f64) -> Value {
        Value {
            value: v,
            quartiles: None,
            n: 1,
        }
    }
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: program runs, compile units, or requests.
    pub attempted: u64,
    /// Operations that failed or whose output did not match.
    pub failed: u64,
    /// Reasons the run is not correct: output mismatches and determinism
    /// violations. The first few are kept.
    pub problems: Vec<String>,
    /// Reported figures by metric name.
    pub values: BTreeMap<&'static str, Value>,
    /// Context lines for the table (sub-phase coverage and the like).
    pub notes: Vec<String>,
    /// The traced rounds' spans (first traced round) and per-name totals
    /// (all traced rounds), written out at the end of a traced run.
    pub trace: Option<(Vec<SpanRec>, BTreeMap<String, NameTotals>)>,
}

impl Outcome {
    /// Records a figure.
    pub fn put(&mut self, name: &'static str, v: Value) {
        self.values.insert(name, v);
    }

    /// Records a problem (kept up to a small cap, always counted as
    /// making the run incorrect).
    pub fn problem(&mut self, msg: String) {
        if self.problems.len() < 8 {
            self.problems.push(msg);
        } else if self.problems.len() == 8 {
            self.problems.push("(further problems omitted)".to_string());
        }
    }

    /// Counts one failed operation and records why.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problem(msg);
    }

    /// True when every output matched and every exact count repeated.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Checks that an exact count came out the same in every round, and
/// records it. `what` names the count in the problem report.
pub fn exact(out: &mut Outcome, name: &'static str, per_round: &[f64]) {
    match per_round.first() {
        None => out.problem(format!("{name}: no rounds")),
        Some(&first) => {
            if per_round.iter().any(|&v| v != first) {
                out.problem(format!(
                    "determinism: {name} differs between repeats: {per_round:?}"
                ));
            }
            out.put(name, Value::single(first));
        }
    }
}

/// One timed round: its wall time and the latency of each unit of work
/// in it, in milliseconds. Every round runs the same units in the same
/// order.
pub struct RoundTime {
    /// Wall time of the round, in seconds.
    pub wall: f64,
    /// Per-unit latencies, in milliseconds.
    pub unit_ms: Vec<f64>,
}

/// Records `wall_s`, `units_per_s`, `p50_ms` and `p99_ms` from each unit's
/// fastest latency over the run's rounds. `concurrency` is how many units
/// are in flight at once (1, or the closed loop's connections).
///
/// On a shared host the same code runs up to 1.4x slower for stretches of
/// a second or more while other tenants are busy, and a daemon's wake-ups
/// add a random few milliseconds to a request. A unit's fastest time
/// estimates the speed of the code rather than of the neighbours or the
/// timer; a change that slows a unit slows every one of its repeats.
///
/// A round's wall time is its units' latencies spread over `concurrency`
/// plus a rest (loop overhead and, on `paper-suite`, the compiler's own
/// work between runs); `wall_s` is the sum of the fastest latencies plus
/// the smallest rest, over `concurrency`. `p99_ms` falls back to the
/// highest percentile with ten units beyond it when there are fewer than
/// a thousand units.
pub fn timings(out: &mut Outcome, rounds: &[RoundTime], concurrency: usize) {
    let Some(first) = rounds.first() else {
        out.problem("timings: no rounds".to_string());
        return;
    };
    let units = first.unit_ms.len();
    if rounds.iter().any(|r| r.unit_ms.len() != units) {
        out.problem("timings: rounds timed different numbers of units".to_string());
        return;
    }
    let best: Vec<f64> = (0..units)
        .map(|i| rounds.iter().map(|r| r.unit_ms[i]).fold(f64::INFINITY, f64::min))
        .collect();
    let lanes = concurrency as f64;
    let rest_ms = rounds
        .iter()
        .map(|r| (r.wall * 1e3 * lanes - r.unit_ms.iter().sum::<f64>()).max(0.0))
        .fold(f64::INFINITY, f64::min);
    let wall = (best.iter().sum::<f64>() + rest_ms) / lanes / 1e3;
    out.put(
        "wall_s",
        Value {
            value: wall,
            quartiles: None,
            n: rounds.len(),
        },
    );
    out.put("units_per_s", Value::single(units as f64 / wall));
    let (q1, p50, q3) = stats::quartiles(&best).unwrap_or_default();
    out.put(
        "p50_ms",
        Value {
            value: p50,
            quartiles: Some((q1, q3)),
            n: units,
        },
    );
    match stats::tail_percentile(&best, 99.0) {
        Ok((v, taken)) => {
            out.put(
                "p99_ms",
                Value {
                    value: v,
                    quartiles: None,
                    n: units,
                },
            );
            if taken < 99.0 {
                out.notes.push(format!(
                    "p99_ms is p{taken:.1}, the highest percentile with ten of the {units} units beyond it"
                ));
            }
        }
        Err(e) => out.problem(format!("p99_ms: {e}")),
    }
    let all: Vec<f64> = rounds.iter().map(|r| r.wall).collect();
    let (a1, am, a3) = stats::quartiles(&all).unwrap_or_default();
    out.notes.push(format!(
        "timings from each unit's fastest of {} rounds; rounds' own wall_s median {am:.4} (q1 {a1:.4}, q3 {a3:.4})",
        rounds.len()
    ));
}

/// How much slower, in percent, the fastest of `with` is than the fastest
/// of `without` (fastest, for the reason given at [`timings`]).
pub fn overhead_pct(with: &[f64], without: &[f64]) -> f64 {
    let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    100.0 * (fastest(with) / fastest(without) - 1.0)
}

/// Per-layer time metrics and the span names that feed each: the
/// benchmark's own spans (`layer.call`) and the program's telemetry spans
/// (`layer:phase`). A layer's figure is the self time of its spans.
const LAYER_SPANS: &[(&str, &[&str])] = &[
    ("vm.run_us", &["vm.run", "vm:run", "vm:lower"]),
    ("cfront.lex_us", &["cfront.lex", "cfront:lex"]),
    ("cfront.parse_us", &["cfront.parse", "cfront:parse"]),
    ("cfront.lower_us", &["cfront.lower", "cfront:lower"]),
    ("il.verify_us", &["il.verify", "il:verify"]),
    (
        "callgraph.build_us",
        &["callgraph.build", "callgraph:build"],
    ),
    (
        "inline.classify_us",
        &["inline.classify", "inline:classify"],
    ),
    ("inline.linearize_us", &["inline:linearize"]),
    ("inline.plan_us", &["inline:plan"]),
    ("inline.expand_us", &["inline:expand"]),
    ("inline.eliminate_us", &["inline:eliminate"]),
    (
        "opt.constant_fold_us",
        &["opt.constant_fold", "opt:constant-fold"],
    ),
    ("opt.strength_reduce_us", &["opt:strength-reduce"]),
    ("opt.local_cse_us", &["opt:local-cse"]),
    ("opt.copy_propagation_us", &["opt:copy-propagation"]),
    (
        "opt.dead_code_elimination_us",
        &["opt:dead-code-elimination"],
    ),
    (
        "opt.jump_optimization_us",
        &["opt.jump_optimization", "opt:jump-optimization"],
    ),
];

/// Sum of self time (µs) over spans with any of `names`.
pub fn self_us(totals: &BTreeMap<String, NameTotals>, names: &[&str]) -> f64 {
    names
        .iter()
        .filter_map(|n| totals.get(*n))
        .map(|t| t.self_ns as f64 / 1e3)
        .sum()
}

/// Records every per-layer time metric as self µs per unit of work.
pub fn layer_times(out: &mut Outcome, totals: &BTreeMap<String, NameTotals>, units: f64) {
    for &(metric, names) in LAYER_SPANS {
        out.put(
            metric,
            Value::single(self_us(totals, names) / units.max(1.0)),
        );
    }
}

/// Checks that the sub-phase spans a crate emitted inside `parent` add up
/// to no more than the benchmark's own timing of that call, and returns
/// the share of the call they cover.
pub fn coverage(out: &mut Outcome, spans: &[SpanRec], parent: &str) -> f64 {
    let (children, parents) = child_coverage(spans, parent);
    let calls = spans.iter().filter(|s| s.name == parent).count() as u64;
    // Each imported span is truncated to whole microseconds at both ends.
    let slack = 2_000 * calls + parents / 50;
    if children > parents + slack {
        out.problem(format!(
            "sub-phase spans inside {parent} sum to {} us, more than the call's own {} us",
            children / 1_000,
            parents / 1_000
        ));
    }
    if parents == 0 {
        0.0
    } else {
        children as f64 / parents as f64
    }
}

fn fmt_num(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e7 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The human-readable table for the metrics in `catalogue`.
pub fn table(workload: &str, out: &Outcome, catalogue: &[(&str, &str)]) -> String {
    let mut s = String::new();
    let share = if out.attempted == 0 {
        0.0
    } else {
        100.0 * out.failed as f64 / out.attempted as f64
    };
    let _ = writeln!(
        s,
        "# {workload}: {} attempted, {} failed ({share:.3}% failed)",
        out.attempted, out.failed
    );
    let _ = writeln!(
        s,
        "# {:<30} {:>6} {:>14} {:>14} {:>14} {:>7}",
        "metric", "unit", "value", "q1", "q3", "n"
    );
    for &(name, unit) in catalogue {
        let Some(v) = out.values.get(name) else {
            continue;
        };
        let (q1, q3) = v
            .quartiles
            .map_or(("-".to_string(), "-".to_string()), |(a, b)| {
                (fmt_num(a), fmt_num(b))
            });
        let _ = writeln!(
            s,
            "# {name:<30} {unit:>6} {:>14} {q1:>14} {q3:>14} {:>7}",
            fmt_num(v.value),
            v.n
        );
    }
    for n in &out.notes {
        let _ = writeln!(s, "# note: {n}");
    }
    for p in &out.problems {
        let _ = writeln!(s, "# problem: {p}");
    }
    s
}

/// The one-line JSON result over the metrics in `catalogue`, each keyed
/// by `prefix` + name.
pub fn json(outcomes: &[(&str, &Outcome)], catalogue: &[(&str, &str)]) -> String {
    let correct = outcomes.iter().all(|(_, o)| o.correct());
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    for (workload, o) in outcomes {
        for &(name, unit) in catalogue {
            let key = if single {
                name.to_string()
            } else {
                format!("{workload}/{name}")
            };
            let value = o.values.get(name).map_or(f64::NAN, |v| v.value);
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_counts_must_repeat() {
        let mut o = Outcome::default();
        exact(&mut o, "dyn_ils_inlined", &[5.0, 5.0, 5.0]);
        assert!(o.correct());
        assert_eq!(o.values["dyn_ils_inlined"].value, 5.0);
        exact(&mut o, "code_growth_pct", &[1.0, 1.5]);
        assert!(!o.correct());
        assert!(o.problems[0].contains("determinism"));
    }

    #[test]
    fn timings_come_from_each_units_fastest_repeat() {
        // Two rounds of 20 units; unit i takes 1 + i ms, but each round is
        // slow on half of them. Each round also spends 5 or 7 ms outside
        // its units.
        let ms = |slow_odd: bool| -> Vec<f64> {
            (0..20)
                .map(|i| f64::from(1 + i) * if (i % 2 == 1) == slow_odd { 3.0 } else { 1.0 })
                .collect()
        };
        let round = |slow_odd: bool, rest: f64| {
            let unit_ms = ms(slow_odd);
            RoundTime {
                wall: (unit_ms.iter().sum::<f64>() + rest) / 1e3,
                unit_ms,
            }
        };
        let mut o = Outcome::default();
        timings(&mut o, &[round(true, 7.0), round(false, 5.0)], 1);
        assert!(o.correct());
        // Fastest latencies are 1..=20 ms: 210 ms, plus the smaller rest.
        assert!((o.values["wall_s"].value - 0.215).abs() < 1e-12);
        assert!((o.values["units_per_s"].value - 20.0 / 0.215).abs() < 1e-9);
        assert_eq!(o.values["p50_ms"].value, 10.5);
        // Twenty units leave ten beyond p50 at most.
        assert_eq!(o.values["p99_ms"].value, 10.0);
        // Two lanes: the same latencies fill half the wall time.
        let mut o = Outcome::default();
        let two = |r: RoundTime| RoundTime {
            wall: r.wall / 2.0,
            ..r
        };
        timings(&mut o, &[two(round(true, 7.0)), two(round(false, 5.0))], 2);
        assert!((o.values["wall_s"].value - 0.1075).abs() < 1e-12);
        // Rounds that timed different units cannot be compared.
        let mut o = Outcome::default();
        let mut short = round(true, 0.0);
        short.unit_ms.pop();
        timings(&mut o, &[round(true, 0.0), short], 1);
        assert!(!o.correct());
    }

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.put("wall_s", Value::median(&[1.0, 2.0, 3.0]));
        let line = json(&[("w", &o)], &[("wall_s", "s"), ("p50_ms", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 2, \"unit\": \"s\"}, \"p50_ms\": {\"value\": null, \"unit\": \"ms\"}}}"
        );
    }
}
