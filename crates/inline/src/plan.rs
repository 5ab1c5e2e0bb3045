//! Expansion-site selection (§3.4) and the cost function (§2.3.3).
//!
//! Arcs that violate the linear order or touch the special nodes are
//! marked `not_expandable`; the rest are considered from the most to the
//! least frequently executed, accepting each arc whose cost is finite —
//! i.e. it passes the stack-explosion check and fits the remaining code-
//! size budget. Function sizes are re-evaluated after every acceptance,
//! exactly as §3.4 requires ("the code size of each function body must be
//! re-evaluated as new function calls are considered for expansion").

use impact_il::{CallSiteId, FuncId, Inst, Module, Terminator};

use crate::classify::{Classification, SiteClass};
use crate::linearize::positions_of;
use crate::InlineConfig;

/// Why a site was not selected for expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// Not classified safe (external / pointer / unsafe).
    NotSafe(SiteClass),
    /// The callee does not precede the caller in the linear order.
    ViolatesLinearOrder,
    /// Accepting this arc would exceed the code-size budget.
    OverBudget,
}

/// Budget state captured at the moment the planner ruled on one call
/// site — the raw material of the inline-decision audit trail
/// (`impactc inline --explain` / `--decisions-out`). Only recorded when
/// [`InlineConfig::audit`] is set; the vector stays unallocated
/// otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanDecision {
    /// The call site ruled on.
    pub site: CallSiteId,
    /// Whether the arc was accepted for expansion.
    pub accepted: bool,
    /// The reject reason; `None` when accepted.
    pub reject: Option<RejectReason>,
    /// Projected total module size when the site was considered.
    pub size_at_decision: u64,
    /// Callee body size acceptance would add (0 for non-safe sites,
    /// which are rejected before sizing).
    pub growth: u64,
    /// The code-size budget in force.
    pub budget: u64,
}

/// One accepted arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedExpansion {
    /// The call site to expand.
    pub site: CallSiteId,
    /// Caller (the function absorbing the body).
    pub caller: FuncId,
    /// Callee (the function being duplicated).
    pub callee: FuncId,
    /// Arc weight, for reporting.
    pub weight: u64,
}

/// The outcome of expansion-site selection.
#[derive(Clone, Debug)]
pub struct InlinePlan {
    /// The linear sequence the physical expansion must follow.
    pub order: Vec<FuncId>,
    /// Accepted arcs, in the order they were accepted (descending
    /// weight).
    pub expansions: Vec<PlannedExpansion>,
    /// Rejected sites with reasons (every site not in `expansions`).
    pub rejected: Vec<(CallSiteId, RejectReason)>,
    /// Projected total size after expansion, in IL instructions.
    pub projected_size: u64,
    /// The size budget that applied.
    pub budget: u64,
    /// Per-site audit records in planner consideration order; empty
    /// unless [`InlineConfig::audit`] is set.
    pub decisions: Vec<PlanDecision>,
}

/// Selects the arcs to expand.
///
/// `order` comes from [`crate::linearize`]; `classification` from
/// [`crate::classify`]. The budget is
/// `original_size * config.code_growth_limit`.
pub fn plan(
    module: &Module,
    classification: &Classification,
    order: &[FuncId],
    config: &InlineConfig,
) -> InlinePlan {
    let pos = positions_of(order, module.functions.len());
    let original_size = module.total_size();
    let budget = (original_size as f64 * config.code_growth_limit).floor() as u64;

    // Current size estimate per function, updated as arcs are accepted.
    let mut sizes: Vec<u64> = module.functions.iter().map(|f| f.size()).collect();
    let mut total: u64 = original_size;

    let mut expansions = Vec::new();
    let mut rejected = Vec::new();
    // `Vec::new()` does not allocate; decisions are only pushed (and the
    // vector only grows) when the audit trail was requested.
    let mut decisions = Vec::new();

    // Non-safe arcs are rejected outright.
    for s in &classification.sites {
        if s.class != SiteClass::Safe {
            rejected.push((s.site, RejectReason::NotSafe(s.class)));
            if config.audit {
                decisions.push(PlanDecision {
                    site: s.site,
                    accepted: false,
                    reject: Some(RejectReason::NotSafe(s.class)),
                    size_at_decision: total,
                    growth: 0,
                    budget,
                });
            }
        }
    }

    // Safe arcs, most frequently executed first.
    for s in classification.safe_sites_by_weight() {
        let callee = s.callee.expect("safe sites have direct callees");
        let size_at_decision = total;
        // The linear-order constraint: callee strictly before caller.
        if pos[callee.index()] >= pos[s.caller.index()] {
            rejected.push((s.site, RejectReason::ViolatesLinearOrder));
            if config.audit {
                decisions.push(PlanDecision {
                    site: s.site,
                    accepted: false,
                    reject: Some(RejectReason::ViolatesLinearOrder),
                    size_at_decision,
                    growth: sizes[callee.index()],
                    budget,
                });
            }
            continue;
        }
        // Code-expansion hazard: the caller absorbs a copy of the callee
        // (at its *current*, possibly already-grown size).
        let growth = sizes[callee.index()];
        if total + growth > budget {
            rejected.push((s.site, RejectReason::OverBudget));
            if config.audit {
                decisions.push(PlanDecision {
                    site: s.site,
                    accepted: false,
                    reject: Some(RejectReason::OverBudget),
                    size_at_decision,
                    growth,
                    budget,
                });
            }
            continue;
        }
        sizes[s.caller.index()] += growth;
        total += growth;
        expansions.push(PlannedExpansion {
            site: s.site,
            caller: s.caller,
            callee,
            weight: s.weight,
        });
        if config.audit {
            decisions.push(PlanDecision {
                site: s.site,
                accepted: true,
                reject: None,
                size_at_decision,
                growth,
                budget,
            });
        }
    }

    InlinePlan {
        order: order.to_vec(),
        expansions,
        rejected,
        projected_size: total,
        budget,
        decisions,
    }
}

impl InlinePlan {
    /// Total dynamic calls the accepted arcs account for (the predicted
    /// upper bound of eliminated calls).
    pub fn planned_dynamic_calls(&self) -> u64 {
        self.expansions.iter().map(|e| e.weight).sum()
    }

    /// Flattens the plan into execution order: callers in linear order
    /// (every callee is complete before any caller absorbs it), and
    /// within a caller heaviest arc first, matching selection order.
    pub fn execution_order(&self) -> Vec<&PlannedExpansion> {
        let mut by_caller: std::collections::HashMap<FuncId, Vec<&PlannedExpansion>> =
            std::collections::HashMap::new();
        for e in &self.expansions {
            by_caller.entry(e.caller).or_default().push(e);
        }
        let mut out = Vec::with_capacity(self.expansions.len());
        for &func in &self.order {
            let Some(expansions) = by_caller.get(&func) else {
                continue;
            };
            let mut sorted = expansions.clone();
            sorted.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.site.cmp(&b.site)));
            out.extend(sorted);
        }
        out
    }

    /// The *exact* module size (IL instructions) after this plan is
    /// physically executed by [`crate::expand_plan_transactional`], computed by
    /// simulating [`InlinePlan::execution_order`] with the expander's real
    /// arithmetic. Absorbing a callee grows the caller by the callee's
    /// *current* simulated size, plus one parameter-buffering `Mov` per
    /// actual argument, plus — when the call reads a result — one
    /// value-funneling instruction per `Return`-terminated block of the
    /// callee; the removed `Call` instruction and the continuation
    /// block's new terminator cancel exactly. `Return`-block counts are
    /// invariant under expansion (cloned returns become jumps), so the
    /// original module's counts stay valid throughout the simulation.
    ///
    /// This is the oracle the fuzzer's size-accounting invariant checks
    /// against: it must equal `Module::total_size()` after a rollback-free
    /// expansion, *before* unreachable elimination. (`projected_size` is
    /// the coarser budget-time estimate, which ignores the per-site mov
    /// overhead.)
    ///
    /// # Panics
    ///
    /// Panics if the plan refers to sites absent from `module` — plans
    /// are only valid for the module they were computed from.
    pub fn predicted_final_size(&self, module: &Module) -> u64 {
        let mut sizes: Vec<u64> = module.functions.iter().map(|f| f.size()).collect();
        let ret_blocks: Vec<u64> = module
            .functions
            .iter()
            .map(|f| {
                f.blocks
                    .iter()
                    .filter(|b| matches!(b.term, Terminator::Return(_)))
                    .count() as u64
            })
            .collect();
        let mut site_shape: std::collections::HashMap<CallSiteId, (u64, bool)> =
            std::collections::HashMap::new();
        for f in &module.functions {
            for b in &f.blocks {
                for inst in &b.insts {
                    if let Inst::Call {
                        site, args, dst, ..
                    } = inst
                    {
                        site_shape.insert(*site, (args.len() as u64, dst.is_some()));
                    }
                }
            }
        }
        for e in self.execution_order() {
            let (nargs, has_dst) = site_shape[&e.site];
            let retfix = if has_dst {
                ret_blocks[e.callee.index()]
            } else {
                0
            };
            sizes[e.caller.index()] += sizes[e.callee.index()] + nargs + retfix;
        }
        sizes.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::linearize::{linearize, Linearization};
    use impact_cfront::{compile, Source};
    use impact_vm::{run, FaultPlan, VmConfig};

    fn plan_for(src: &str, config: &InlineConfig) -> (Module, InlinePlan) {
        let module = compile(&[Source::new("t.c", src)]).expect("compiles");
        let out = run(&module, vec![], vec![], &VmConfig::default()).expect("runs");
        let profile = out.profile.averaged();
        let graph = impact_callgraph::CallGraph::build(&module, &profile);
        let classification = classify(&module, &graph, config);
        let order = linearize(&module, &profile, Linearization::NodeWeight);
        let p = plan(&module, &classification, &order, config);
        (module, p)
    }

    const TWO_HOT: &str = "int a(int x) { return x + 1; }\n\
         int b(int x) { return x * 2; }\n\
         int main() {\n\
           int i; int s; s = 0;\n\
           for (i = 0; i < 60; i++) s += a(i);\n\
           for (i = 0; i < 40; i++) s += b(i);\n\
           return s & 0xff;\n\
         }";

    #[test]
    fn accepts_heaviest_arcs_first() {
        let (module, p) = plan_for(TWO_HOT, &InlineConfig::default());
        assert_eq!(p.expansions.len(), 2);
        assert!(p.expansions[0].weight >= p.expansions[1].weight);
        assert_eq!(module.function(p.expansions[0].callee).name, "a");
    }

    #[test]
    fn every_site_is_either_expanded_or_rejected() {
        let (module, p) = plan_for(TWO_HOT, &InlineConfig::default());
        let total = module.all_call_sites().len();
        assert_eq!(p.expansions.len() + p.rejected.len(), total);
    }

    #[test]
    fn projection_stays_within_budget() {
        for limit in [1.1f64, 1.5, 2.0] {
            let config = InlineConfig {
                code_growth_limit: limit,
                ..InlineConfig::default()
            };
            let (_, p) = plan_for(TWO_HOT, &config);
            assert!(
                p.projected_size <= p.budget,
                "limit {limit}: projected {} > budget {}",
                p.projected_size,
                p.budget
            );
        }
    }

    #[test]
    fn tight_budget_rejects_over_budget() {
        let config = InlineConfig {
            code_growth_limit: 1.0,
            ..InlineConfig::default()
        };
        let (_, p) = plan_for(TWO_HOT, &config);
        assert!(p.expansions.is_empty());
        assert!(p
            .rejected
            .iter()
            .any(|(_, r)| *r == RejectReason::OverBudget));
    }

    #[test]
    fn planned_dynamic_calls_sums_weights() {
        let (_, p) = plan_for(TWO_HOT, &InlineConfig::default());
        assert_eq!(p.planned_dynamic_calls(), 100);
    }

    #[test]
    fn predicted_final_size_matches_physical_expansion() {
        // Transitive chains, multi-return callees, and result-free calls:
        // every term of the growth formula gets exercised.
        let cases = [
            TWO_HOT,
            "int leaf(int x) { return x + 1; }\n\
             int mid(int x) { return leaf(x) + leaf(x + 1); }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 40; i++) s += mid(i); return s & 0xff; }",
            "int abs2(int x) { if (x < 0) return 0 - x; return x; }\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 30; i++) s += abs2(15 - i); return s & 0xff; }",
            "int gsink;\n\
             int poke(int x) { gsink = gsink + x; return 0; }\n\
             int main() { int i; for (i = 0; i < 25; i++) poke(i); return gsink & 0x7f; }",
        ];
        for src in cases {
            let (module, p) = plan_for(src, &InlineConfig::default());
            assert!(!p.expansions.is_empty(), "no expansions for {src}");
            let mut m = module.clone();
            let (_, _, incidents) =
                crate::expand_plan_transactional(&mut m, &p, usize::MAX, &FaultPlan::new());
            assert!(incidents.is_empty(), "{incidents:?}");
            assert_eq!(
                p.predicted_final_size(&module),
                m.total_size(),
                "prediction diverged for {src}"
            );
        }
    }
}
