//! Profile-guided indirect-call promotion (extension).
//!
//! The paper stops at the worst-case `###` node: calls through pointers
//! "defeat inline expansion" (§4.2) and it suggests interprocedural
//! analysis to narrow their callee sets (§2.5). The profiler, however,
//! already *observes* the real target distribution of every indirect
//! site. When one function dominates a hot site, the call can be promoted
//! to a guarded direct call:
//!
//! ```text
//!     r = call *fp(args)          t = &dominant
//!                          ==>    if (fp == t)  r = call dominant(args)
//!                                 else          r = call *fp(args)
//! ```
//!
//! The direct leg then classifies *safe* and becomes inlinable, while the
//! indirect leg keeps full generality. This is the forerunner of what
//! modern PGO compilers call indirect-call promotion / speculative
//! devirtualization.

use impact_il::{Block, BlockId, CallSiteId, Callee, CmpOp, FuncId, Inst, Module, Terminator};
use impact_vm::{ProfTarget, Profile};

/// Record of one promoted site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PromotedSite {
    /// The original indirect site (now the cold leg's site).
    pub site: CallSiteId,
    /// The fresh site of the hot direct leg.
    pub direct_site: CallSiteId,
    /// The function the site was promoted to.
    pub target: FuncId,
    /// Observed hits on the dominant target.
    pub target_weight: u64,
    /// Observed hits on all other targets.
    pub residual_weight: u64,
}

/// Collects qualifying sites (caller, site, dominant target, target hits,
/// residual hits) without mutating anything.
pub(crate) fn promote_candidates(
    module: &Module,
    profile: &Profile,
    min_weight: u64,
    min_fraction: f64,
) -> Vec<(FuncId, CallSiteId, FuncId, u64, u64)> {
    let mut candidates: Vec<(FuncId, CallSiteId, FuncId, u64, u64)> = Vec::new();
    for (caller, site, callee) in module.all_call_sites() {
        if !matches!(callee, Callee::Reg(_)) {
            continue;
        }
        let Some(targets) = profile.site_targets.get(&site) else {
            continue;
        };
        let total: u64 = targets.values().sum();
        let Some((&ProfTarget::Func(dominant), &hits)) = targets
            .iter()
            .filter(|(t, _)| matches!(t, ProfTarget::Func(_)))
            .max_by_key(|(_, &n)| n)
        else {
            continue;
        };
        if hits < min_weight || (hits as f64) < min_fraction * total as f64 {
            continue;
        }
        candidates.push((caller, site, dominant, hits, total - hits));
    }
    candidates
}

pub(crate) fn promote_one(
    module: &mut Module,
    caller: FuncId,
    site: CallSiteId,
    target: FuncId,
    target_weight: u64,
    residual_weight: u64,
) -> Option<PromotedSite> {
    // The guarded direct call must match the target's arity.
    let expected_params = module.function(target).num_params as usize;
    let direct_site = module.fresh_call_site();

    let func = module.function_mut(caller);
    let (block, idx) = func
        .call_sites()
        .find(|(_, _, s, _)| *s == site)
        .map(|(b, i, _, _)| (b, i))?;
    let Inst::Call {
        callee: Callee::Reg(fp),
        args,
        dst,
        ..
    } = func.block(block).insts[idx].clone()
    else {
        return None;
    };
    if args.len() != expected_params {
        return None;
    }

    // Split: head | [guard] -> direct/indirect -> join(tail).
    let join = BlockId::from_index(func.blocks.len());
    let direct_b = BlockId::from_index(func.blocks.len() + 1);
    let indirect_b = BlockId::from_index(func.blocks.len() + 2);

    let tail: Vec<Inst> = func.block_mut(block).insts.split_off(idx + 1);
    func.block_mut(block).insts.pop();
    let orig_term = std::mem::replace(&mut func.block_mut(block).term, Terminator::Jump(join));

    let t_reg = func.new_reg();
    let c_reg = func.new_reg();
    func.block_mut(block).insts.push(Inst::AddrOfFunc {
        dst: t_reg,
        func: target,
    });
    func.block_mut(block).insts.push(Inst::Cmp {
        op: CmpOp::Eq,
        dst: c_reg,
        lhs: fp,
        rhs: t_reg,
    });
    func.block_mut(block).term = Terminator::Branch {
        cond: c_reg,
        then_to: direct_b,
        else_to: indirect_b,
    };

    // join
    func.blocks.push(Block {
        insts: tail,
        term: orig_term,
    });
    // direct leg
    func.blocks.push(Block {
        insts: vec![Inst::Call {
            site: direct_site,
            callee: Callee::Func(target),
            args: args.clone(),
            dst,
        }],
        term: Terminator::Jump(join),
    });
    // indirect leg (keeps the original site id)
    func.blocks.push(Block {
        insts: vec![Inst::Call {
            site,
            callee: Callee::Reg(fp),
            args,
            dst,
        }],
        term: Terminator::Jump(join),
    });

    Some(PromotedSite {
        site,
        direct_site,
        target,
        target_weight,
        residual_weight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{inline_module, promote_indirect_calls_transactional, InlineConfig};
    use impact_cfront::{compile, Source};
    use impact_vm::{run, FaultPlan, VmConfig};

    const DISPATCH: &str = "int hot(int x) { return x * 2; }\n\
         int cold(int x) { return x + 100; }\n\
         int (*pick[8])(int) = {hot, hot, hot, hot, hot, hot, hot, cold};\n\
         int main() {\n\
           int i; int s; s = 0;\n\
           for (i = 0; i < 160; i++) s += pick[i & 7](i);\n\
           return s & 0xff;\n\
         }";

    /// Promotes with no fault armed; no promotion may roll back.
    fn promote(
        module: &mut Module,
        profile: &mut Profile,
        min_weight: u64,
        min_fraction: f64,
    ) -> Vec<PromotedSite> {
        let (promoted, incidents) = promote_indirect_calls_transactional(
            module,
            profile,
            min_weight,
            min_fraction,
            &FaultPlan::new(),
        );
        assert!(incidents.is_empty(), "{incidents:?}");
        promoted
    }

    fn compiled(src: &str) -> (Module, Profile, i64) {
        let module = compile(&[Source::new("t.c", src)]).expect("compiles");
        let out = run(&module, vec![], vec![], &VmConfig::default()).expect("runs");
        (module.clone(), out.profile, out.exit_code)
    }

    #[test]
    fn promotes_dominated_site_and_preserves_semantics() {
        let (mut module, mut profile, baseline) = compiled(DISPATCH);
        let promoted = promote(&mut module, &mut profile, 10, 0.5);
        assert_eq!(promoted.len(), 1);
        let p = &promoted[0];
        assert_eq!(module.function(p.target).name, "hot");
        assert_eq!(p.target_weight, 140);
        assert_eq!(p.residual_weight, 20);
        impact_il::verify_module(&module).expect("verifies");
        let after = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(after.exit_code, baseline);
        // The profile was reseeded.
        assert_eq!(profile.site_weight(p.direct_site), 140);
        assert_eq!(profile.site_weight(p.site), 20);
    }

    #[test]
    fn promotion_enables_inlining_of_the_hot_target() {
        let (mut module, mut profile, baseline) = compiled(DISPATCH);
        let before_calls = {
            let out = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
            out.profile.calls
        };
        let promoted = promote(&mut module, &mut profile, 10, 0.5);
        assert_eq!(promoted.len(), 1);
        let report = inline_module(&mut module, &profile.averaged(), &InlineConfig::default());
        assert!(
            report
                .expanded
                .iter()
                .any(|e| module.functions.get(e.callee.index()).is_some()),
            "the promoted direct arc should expand: {:?}",
            report.expanded
        );
        let after = run(&module, vec![], vec![], &VmConfig::default()).unwrap();
        assert_eq!(after.exit_code, baseline);
        // 140 of the 160 dispatch calls are gone (plus/minus the cold leg).
        assert!(
            after.profile.calls <= before_calls - 130,
            "calls {} -> {}",
            before_calls,
            after.profile.calls
        );
    }

    #[test]
    fn respects_min_weight_and_fraction() {
        let (mut module, mut profile, _) = compiled(DISPATCH);
        // Too high a weight bar: nothing promoted.
        assert!(promote(&mut module, &mut profile, 1000, 0.5).is_empty());
        // Too high a fraction bar (hot covers 87.5%): nothing promoted.
        let (mut module2, mut profile2, _) = compiled(DISPATCH);
        assert!(promote(&mut module2, &mut profile2, 10, 0.95).is_empty());
    }

    #[test]
    fn balanced_sites_are_left_alone_under_majority_rule() {
        let src = "int a(int x) { return x + 1; }\n\
             int b(int x) { return x + 2; }\n\
             int (*pick[2])(int) = {a, b};\n\
             int main() { int i; int s; s = 0; for (i = 0; i < 100; i++) s += pick[i & 1](i); return s & 0xff; }";
        let (mut module, mut profile, _) = compiled(src);
        // 50/50 split: fails a 0.6 fraction requirement.
        assert!(promote(&mut module, &mut profile, 10, 0.6).is_empty());
        // But a plain majority rule (0.5) promotes one leg.
        let promoted = promote(&mut module, &mut profile, 10, 0.5);
        assert_eq!(promoted.len(), 1);
        impact_il::verify_module(&module).unwrap();
    }

    #[test]
    fn never_fires_without_observed_targets() {
        let src = "int f(int x) { return x; }\n\
             int main() { int (*g)(int); g = f; if (0) return g(1); return f(2) + 40; }";
        let (mut module, mut profile, _) = compiled(src);
        assert!(promote(&mut module, &mut profile, 1, 0.5).is_empty());
    }
}
