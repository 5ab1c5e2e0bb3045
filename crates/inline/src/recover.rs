//! Transactional expansion with rollback (robustness layer).
//!
//! The paper's expander assumes every planned arc expands cleanly. A
//! production inliner cannot: a bad interaction between renaming and an
//! unusual body shape must not take the whole compilation down, and it
//! must *never* ship a caller it cannot re-verify. This module wraps each
//! physical expansion in a transaction:
//!
//! 1. snapshot the caller's [`Function`] (the only state `expand_site`
//!    mutates besides the monotone call-site counter);
//! 2. perform the expansion;
//! 3. re-verify the caller with [`impact_il::verify_function`];
//! 4. on failure, restore the snapshot, record a structured
//!    [`Incident`], and continue with the rest of the plan.
//!
//! Fresh call-site ids allocated by a rolled-back expansion are simply
//! never referenced again — the id space is monotone, so orphaned ids are
//! harmless to verification and profiling alike.
//!
//! Failure is injected deterministically through [`FaultPlan`] keys:
//! `expand:verify` forces step 3 to fail on its Nth evaluation, and
//! `promote:verify` does the same for indirect-call promotion.

use std::fmt;

use impact_il::{verify_function, Module};
use impact_vm::{FaultPlan, Profile};

use crate::expand::{DefCache, DefCacheStats, ExpansionRecord};
use crate::plan::InlinePlan;
use crate::promote::{promote_candidates, promote_one, PromotedSite};

/// Which stage of the pipeline an [`Incident`] occurred in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IncidentStage {
    /// Physical inline expansion of one arc.
    Expand,
    /// Indirect-call promotion of one site.
    Promote,
    /// An optimization pass on one function.
    OptPass,
    /// The optimizer's fixpoint loop hit its round cap while passes were
    /// still reporting changes (pass oscillation).
    OptFixpoint,
    /// Profile acquisition (corrupt file or trapping profiling run).
    Profile,
    /// The differential safety net observed a behavior divergence.
    Divergence,
}

impl fmt::Display for IncidentStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IncidentStage::Expand => "expand",
            IncidentStage::Promote => "promote",
            IncidentStage::OptPass => "opt",
            IncidentStage::OptFixpoint => "opt:fixpoint",
            IncidentStage::Profile => "profile",
            IncidentStage::Divergence => "differential",
        })
    }
}

/// A structured record of one recovered failure.
///
/// Incidents are the audit trail of the robustness layer: every rollback,
/// skipped pass, or degraded input produces one, and the driver surfaces
/// them in its report line (`; incidents: N (M rolled back)`).
#[derive(Clone, Debug)]
pub struct Incident {
    /// Pipeline stage the failure occurred in.
    pub stage: IncidentStage,
    /// What was being worked on (e.g. `` `sq` -> `main` (site 3) ``).
    pub subject: String,
    /// Why it failed.
    pub detail: String,
    /// Whether the transaction was rolled back (as opposed to merely
    /// skipped or degraded).
    pub rolled_back: bool,
}

impl fmt::Display for Incident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.stage, self.subject, self.detail)?;
        if self.rolled_back {
            f.write_str(" (rolled back)")?;
        }
        Ok(())
    }
}

/// Renders a verification failure into one incident detail line.
fn render_failure(errors: &[impact_il::VerifyError]) -> String {
    let mut out = String::from("post-expansion verification failed: ");
    for (i, e) in errors.iter().take(3).enumerate() {
        if i > 0 {
            out.push_str("; ");
        }
        out.push_str(&e.to_string());
    }
    if errors.len() > 3 {
        out.push_str(&format!("; ... ({} total)", errors.len()));
    }
    out
}

/// Executes every planned expansion in linear order, each inside a
/// snapshot/verify/rollback transaction, while simulating a definition
/// cache of `cache_capacity` function bodies (§3.3's write-back cache).
///
/// An arc whose expansion leaves the caller unverifiable (or whose
/// `expand:verify` fault point fires) is rolled back and recorded as an
/// [`Incident`]; the remaining plan still executes. Returns one
/// [`ExpansionRecord`] per performed expansion and the cache statistics.
///
/// # Panics
///
/// Panics if the plan refers to sites that do not exist in `module` —
/// plans are only valid for the module they were computed from.
pub fn expand_plan_transactional(
    module: &mut Module,
    plan: &InlinePlan,
    cache_capacity: usize,
    fault: &FaultPlan,
) -> (Vec<ExpansionRecord>, DefCacheStats, Vec<Incident>) {
    let mut cache = DefCache::new(cache_capacity.min(1 << 20));
    let mut records = Vec::with_capacity(plan.expansions.len());
    let mut incidents = Vec::new();
    for e in plan.execution_order() {
        cache.touch(e.callee, false);
        cache.touch(e.caller, true);
        let snapshot = module.function(e.caller).clone();
        let record = crate::expand::expand_site(module, e.caller, e.site, e.callee);
        let verdict = if fault.should_fail("expand:verify") {
            Err("fault injection forced a verification failure".to_string())
        } else {
            verify_function(module, e.caller).map_err(|errs| render_failure(&errs))
        };
        match verdict {
            Ok(()) => records.push(record),
            Err(detail) => {
                *module.function_mut(e.caller) = snapshot;
                incidents.push(Incident {
                    stage: IncidentStage::Expand,
                    subject: format!(
                        "`{}` -> `{}` (site {})",
                        module.function(e.callee).name,
                        module.function(e.caller).name,
                        e.site.0
                    ),
                    detail,
                    rolled_back: true,
                });
            }
        }
    }
    (records, cache.finish(), incidents)
}

/// Promotes every hot, single-target-dominated indirect call site.
///
/// A site qualifies when the profile attributes at least `min_weight`
/// hits to one function and that function covers at least `min_fraction`
/// of the site's executions. `profile` is updated in place so the fresh
/// direct sites carry the dominant weight (and the residual stays on the
/// indirect leg) — downstream classification and planning then see the
/// promoted arcs as ordinary weighted arcs.
///
/// Each qualifying site is promoted inside its own transaction: the
/// caller is snapshotted, the guarded direct call is built, and the
/// caller is re-verified (the `promote:verify` fault point forces a
/// failure). A failed promotion rolls back the caller, leaves the
/// profile untouched, and is recorded as an [`Incident`].
pub fn promote_indirect_calls_transactional(
    module: &mut Module,
    profile: &mut Profile,
    min_weight: u64,
    min_fraction: f64,
    fault: &FaultPlan,
) -> (Vec<PromotedSite>, Vec<Incident>) {
    let candidates = promote_candidates(module, profile, min_weight, min_fraction);
    let mut promoted = Vec::new();
    let mut incidents = Vec::new();
    for (caller, site, target, hits, residual) in candidates {
        let snapshot = module.function(caller).clone();
        let Some(p) = promote_one(module, caller, site, target, hits, residual) else {
            continue;
        };
        let verdict = if fault.should_fail("promote:verify") {
            Err("fault injection forced a verification failure".to_string())
        } else {
            verify_function(module, caller).map_err(|errs| render_failure(&errs))
        };
        match verdict {
            Ok(()) => {
                // Seed the profile only for promotions that stick.
                let limit = module.call_site_limit() as usize;
                if profile.site_counts.len() < limit {
                    profile.site_counts.resize(limit, 0);
                }
                profile.site_counts[p.direct_site.0 as usize] = hits;
                profile.site_counts[p.site.0 as usize] = residual;
                promoted.push(p);
            }
            Err(detail) => {
                *module.function_mut(caller) = snapshot;
                incidents.push(Incident {
                    stage: IncidentStage::Promote,
                    subject: format!(
                        "site {} -> `{}` in `{}`",
                        site.0,
                        module.function(target).name,
                        module.function(caller).name
                    ),
                    detail,
                    rolled_back: true,
                });
            }
        }
    }
    (promoted, incidents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inline_module, InlineConfig};
    use impact_cfront::{compile, Source};
    use impact_vm::{run, VmConfig};

    const TWO_ARCS: &str = "int sq(int x) { return x * x; }\n\
         int cube(int x) { return x * x * x; }\n\
         int main() { int i; int s; s = 0;\n\
           for (i = 0; i < 100; i++) { s += sq(i); s += cube(i); }\n\
           return s & 0xff; }";

    fn faulted_config(spec: &str) -> InlineConfig {
        let fault = FaultPlan::new();
        fault.arm_spec(spec).expect("valid fault spec");
        InlineConfig {
            fault,
            ..InlineConfig::default()
        }
    }

    #[test]
    fn forced_verify_failure_rolls_back_one_arc_and_keeps_the_rest() {
        let module = compile(&[Source::new("t.c", TWO_ARCS)]).unwrap();
        let base = run(&module, vec![], vec![], &VmConfig::default()).unwrap();

        let mut inlined = module.clone();
        let report = inline_module(
            &mut inlined,
            &base.profile,
            &faulted_config("expand:verify:1"),
        );
        assert_eq!(report.incidents.len(), 1);
        let inc = &report.incidents[0];
        assert_eq!(inc.stage, IncidentStage::Expand);
        assert!(inc.rolled_back);
        // One of the two planned arcs survived the fault.
        assert_eq!(report.expanded.len(), 2, "both arcs were planned");
        assert_eq!(report.records.len(), 1, "one arc was rolled back");

        impact_il::verify_module(&inlined).expect("module still verifies");
        let after = run(&inlined, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(after.exit_code, base.exit_code);
        assert_eq!(after.stdout, base.stdout);
    }

    #[test]
    fn rollback_restores_the_exact_caller_body() {
        let module = compile(&[Source::new("t.c", TWO_ARCS)]).unwrap();
        let base = run(&module, vec![], vec![], &VmConfig::default()).unwrap();

        let mut inlined = module.clone();
        let mut config = faulted_config("expand:verify:1");
        config.eliminate_unreachable = false;
        let report = inline_module(&mut inlined, &base.profile, &config);
        // First arc rolled back; second arc expanded normally.
        assert_eq!(report.incidents.len(), 1);
        let main_id = inlined.main_id().unwrap();
        let sq = inlined.func_by_name("sq").unwrap();
        let cube = inlined.func_by_name("cube").unwrap();
        // The rolled-back callee is still called; the expanded one is not.
        let still_called: Vec<_> = inlined
            .function(main_id)
            .call_sites()
            .filter_map(|(_, _, _, c)| match c {
                impact_il::Callee::Func(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(still_called.len(), 1);
        assert!(still_called[0] == sq || still_called[0] == cube);
    }

    #[test]
    fn promote_fault_rolls_back_and_leaves_profile_untouched() {
        let src = "int hot(int x) { return x * 2; }\n\
             int cold(int x) { return x + 100; }\n\
             int (*pick[8])(int) = {hot, hot, hot, hot, hot, hot, hot, cold};\n\
             int main() { int i; int s; s = 0;\n\
               for (i = 0; i < 160; i++) s += pick[i & 7](i);\n\
               return s & 0xff; }";
        let mut module = compile(&[Source::new("t.c", src)]).unwrap();
        let base = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
        let mut profile = base.profile.clone();
        let before_counts = profile.site_counts.clone();

        let fault = FaultPlan::new();
        fault.arm("promote:verify", 1);
        let (promoted, incidents) =
            promote_indirect_calls_transactional(&mut module, &mut profile, 10, 0.5, &fault);
        assert!(promoted.is_empty());
        assert_eq!(incidents.len(), 1);
        assert_eq!(incidents[0].stage, IncidentStage::Promote);
        assert!(incidents[0].rolled_back);
        assert_eq!(profile.site_counts, before_counts);
        impact_il::verify_module(&module).expect("module unchanged and valid");
        let after = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(after.exit_code, base.exit_code);
    }

    #[test]
    fn incident_display_is_informative() {
        let inc = Incident {
            stage: IncidentStage::Expand,
            subject: "`sq` -> `main` (site 3)".into(),
            detail: "fault injection forced a verification failure".into(),
            rolled_back: true,
        };
        let s = inc.to_string();
        assert!(s.contains("[expand]"));
        assert!(s.contains("`sq` -> `main`"));
        assert!(s.ends_with("(rolled back)"));
    }

    #[test]
    fn without_faults_transactional_matches_plain_expansion() {
        let module = compile(&[Source::new("t.c", TWO_ARCS)]).unwrap();
        let base = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
        let mut a = module.clone();
        let mut b = module.clone();
        let ra = inline_module(&mut a, &base.profile, &InlineConfig::default());
        let rb = inline_module(&mut b, &base.profile, &InlineConfig::default());
        assert!(ra.incidents.is_empty());
        assert_eq!(ra.records.len(), rb.records.len());
        assert_eq!(
            impact_il::module_to_string(&a),
            impact_il::module_to_string(&b)
        );
    }
}
