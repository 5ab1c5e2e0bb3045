//! `compile-corpus`: seeded fuzz-generated programs plus the twelve
//! bundled sources (with empty input, as large units), each compiled on
//! one thread by `impact_driver::inline_pipeline` with `--opt`. The VM
//! does little here; the front end, the inliner, the optimizer and the
//! driver do most of the work, so their changes show here and VM changes
//! should not.

use std::hint::black_box;
use std::time::Instant;

use impact_cfront::Source;
use impact_driver::{inline_pipeline, inline_pipeline_observed, Options, RunSpec};
use impact_fuzz::{generate, program_seed};
use impact_vm::fnv1a64;

use crate::check::{check_units, replica, Sums};
use crate::report::{self, exact, Outcome, RoundTime, Value};
use crate::trace::{self, Tracer};
use crate::{measure, peak_rss_mb, timed_setup, Ctx};

/// Fuzz-generated units per corpus.
pub const FUZZ_UNITS: u64 = 1000;

/// Keeps this corpus apart from the serve workload's, for the same seed.
const SALT: u64 = 0x00c0_4b05;

/// The seeded corpus: fuzz units first, then the bundled programs.
pub fn units(seed: u64) -> Vec<Vec<Source>> {
    let mut units: Vec<Vec<Source>> = (0..FUZZ_UNITS)
        .map(|i| {
            vec![Source::new(
                format!("unit{i}.c"),
                generate(program_seed(seed ^ SALT, i)),
            )]
        })
        .collect();
    units.extend(
        impact_workloads::all_benchmarks()
            .iter()
            .map(|b| b.sources()),
    );
    units
}

/// The driver options every unit is compiled with.
pub fn options() -> Options {
    Options::parse(&["inline".to_string(), "--opt".to_string()]).expect("fixed flags parse")
}

/// Runs `f`, returning its wall time in seconds and its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Runs both closures, `g` first when `swap` is set, so that order
/// effects fall evenly on both sides of a comparison.
fn both<A, B>(swap: bool, f: impl FnOnce() -> A, g: impl FnOnce() -> B) -> (A, B) {
    if swap {
        let b = g();
        (f(), b)
    } else {
        let a = f();
        (a, g())
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let units = timed_setup(&mut setup, || units(ctx.seed));
    let runs: Vec<RunSpec> = vec![(Vec::new(), Vec::new())];
    let opts = options();
    let flags = opts.validate_flags()?;
    // Every round's report must be byte-identical to the checked one.
    let (checked, expect) = check_units(&units, &runs, &opts, |c| fnv1a64(c.report.as_bytes()))?;
    let sums = checked.sums;

    let mut untraced = Vec::new();
    let mut traced_sums = Vec::new();
    let mut totals = Default::default();
    let mut first_spans = None;
    let (mut sum_a, mut sum_b, mut sum_c, mut sum_d) = (0.0, 0.0, 0.0, 0.0);
    let mut traced_units = 0u64;
    measure(ctx, |traced| {
        black_box(timed_setup(&mut setup, || self::units(ctx.seed)));
        let mut tr = Tracer::new(traced);
        let mut round_sums = Sums::default();
        let mut unit_ms = Vec::with_capacity(units.len());
        let t = Instant::now();
        tr.enter("round");
        for (i, unit) in units.iter().enumerate() {
            out.attempted += 1;
            let (a, result) = if traced {
                // Telemetry off vs. on, and the replica untraced vs.
                // traced, alternating which of each pair goes first.
                let odd = i % 2 == 1;
                let ((a, result), (b, on)) = both(
                    odd,
                    || timed(|| inline_pipeline(unit, &runs, &opts)),
                    || {
                        timed(|| {
                            let obs = impact_obs::Telemetry::enabled();
                            inline_pipeline_observed(unit, &runs, &opts, &obs)
                                .map(|(code, text, _)| (code, text))
                        })
                    },
                );
                if on.as_ref().ok() != result.as_ref().ok() {
                    out.problem(format!("unit {i}: telemetry changed the pipeline's output"));
                }
                let ((c, quiet), (d, r)) = both(
                    odd,
                    || timed(|| replica(unit, &runs, &flags, false, &mut Tracer::new(false))),
                    || {
                        timed(|| {
                            tr.enter("unit");
                            let r = replica(unit, &runs, &flags, false, &mut tr);
                            tr.exit();
                            r
                        })
                    },
                );
                match (r, quiet) {
                    (Ok(r), Ok(_)) => round_sums.add(&r),
                    (Err(e), _) | (_, Err(e)) => out.problem(format!("unit {i}: replica: {e}")),
                }
                sum_a += a;
                sum_b += b;
                sum_c += c;
                sum_d += d;
                traced_units += 1;
                (a, result)
            } else {
                timed(|| inline_pipeline(unit, &runs, &opts))
            };
            unit_ms.push(a * 1e3);
            let verdict = match (&expect[i], &result) {
                (Err(e), _) => Err(e.clone()),
                (_, Err(f)) => Err(format!("unit {i}: pipeline failed: {}", f.render())),
                (Ok(want), Ok((_, text))) if fnv1a64(text.as_bytes()) == *want => Ok(()),
                (Ok(_), Ok(_)) => Err(format!(
                    "determinism: unit {i}'s report differs from the checked one"
                )),
            };
            if let Err(m) = verdict {
                out.fail(m);
            }
        }
        tr.exit();
        let wall = t.elapsed().as_secs_f64();
        if traced {
            traced_sums.push(round_sums);
            let spans = tr.take();
            trace::add_totals(&mut totals, &trace::totals(&spans));
            let inline_cov = report::coverage(&mut out, &spans, "inline.inline_module");
            let opt_cov = report::coverage(&mut out, &spans, "opt.optimize_module");
            if first_spans.is_none() {
                out.notes.push(format!(
                    "sub-phase spans cover {:.1}% of inline_module and {:.1}% of optimize_module",
                    100.0 * inline_cov,
                    100.0 * opt_cov
                ));
                first_spans = Some(spans);
            }
        } else {
            untraced.push(RoundTime { wall, unit_ms });
        }
        Ok(())
    })?;

    for (k, s) in traced_sums.iter().enumerate() {
        if *s != sums {
            out.problem(format!(
                "determinism: traced round {k}'s exact counts differ from the checking pass"
            ));
        }
    }
    exact(
        &mut out,
        "dyn_ils_inlined",
        &[checked.dyn_ils_inlined as f64],
    );
    exact(&mut out, "dyn_ils_optimized", &[sums.dyn_ils_final as f64]);
    exact(&mut out, "code_growth_pct", &[sums.code_growth_pct()]);
    if !ctx.trace {
        out.put("setup_s", Value::median(&setup));
        out.put("peak_rss_mb", Value::single(peak_rss_mb("self")?));
        report::timings(&mut out, &untraced, 1);
    } else {
        let per_unit = traced_units as f64;
        report::layer_times(&mut out, &totals, per_unit);
        let rounds = traced_sums.len() as f64;
        let vm_secs = report::self_us(&totals, &["vm.run"]) / 1e6;
        out.put(
            "vm.ils_per_s",
            Value::single(sums.vm_ils as f64 * rounds / vm_secs),
        );
        out.put("vm.runs", Value::single(sums.vm_runs as f64));
        out.put(
            "vm.interp_ils_per_s",
            Value::single(checked.interp_ils as f64 / checked.interp_secs),
        );
        let lex_secs = report::self_us(&totals, &["cfront.lex"]) / 1e6;
        out.put(
            "cfront.tokens_per_s",
            Value::single(sums.tokens as f64 * rounds / lex_secs),
        );
        sums.put_layer_counts(&mut out);
        out.put(
            "driver.pipeline_overhead_us",
            Value::single((sum_a - sum_c) * 1e6 / per_unit),
        );
        out.put(
            "obs.telemetry_on_pct",
            Value::single(100.0 * (sum_b / sum_a - 1.0)),
        );
        out.put(
            "obs.trace_overhead_pct",
            Value::single(100.0 * (sum_d / sum_c - 1.0)),
        );
        for idle in [
            "cache.load_us",
            "cache.store_us",
            "cache.hit_ratio",
            "serve.connect_us",
            "serve.rtt_us",
            "serve.codec_us",
            "serve.busy",
            "serve.service_us",
            "serve.queue_wait_us",
            "serve.outside_worker_us",
        ] {
            out.put(idle, Value::single(0.0));
        }
        out.notes.push(format!(
            "cache and serve layers do no work here; pipeline {:.0} us/unit, telemetry on {:.0} us/unit, replica {:.0} us/unit untraced, {:.0} traced",
            sum_a * 1e6 / per_unit,
            sum_b * 1e6 / per_unit,
            sum_c * 1e6 / per_unit,
            sum_d * 1e6 / per_unit
        ));
        out.trace = first_spans.map(|s| (s, totals));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_corpus_other_seed_other_corpus() {
        let text = |seed| -> Vec<String> {
            units(seed)
                .into_iter()
                .flatten()
                .map(|s| format!("{}\n{}", s.name, s.text))
                .collect()
        };
        assert_eq!(text(3), text(3));
        assert_ne!(text(3), text(4));
        assert_eq!(units(3).len(), FUZZ_UNITS as usize + 12);
    }
}
