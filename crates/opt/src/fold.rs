//! Constant folding and copy propagation (local, per basic block).
//!
//! Both passes track facts within one basic block only; facts never cross
//! block boundaries, which keeps the passes linear and trivially correct
//! for non-SSA code.

use impact_il::{Function, Inst, Reg, Terminator};

use crate::Facts;

/// Folds constant operations and propagates known constants within each
/// block. A `Branch` on a known condition becomes a `Jump` (the seed for
/// [`crate::jump_optimization`]).
///
/// Returns the number of instructions or terminators rewritten.
pub fn constant_fold(func: &mut Function) -> usize {
    let mut changed = 0;
    let mut known = Facts::new(func);
    for block in &mut func.blocks {
        known.next_block();
        for inst in &mut block.insts {
            let rewritten = match *inst {
                Inst::Un { op, dst, src } => known.get(src).map(|v| (dst, op.eval(v))),
                Inst::Bin { op, dst, lhs, rhs } => match (known.get(lhs), known.get(rhs)) {
                    (Some(a), Some(b)) => op.eval(a, b).map(|v| (dst, v)),
                    _ => None,
                },
                Inst::Cmp { op, dst, lhs, rhs } => match (known.get(lhs), known.get(rhs)) {
                    (Some(a), Some(b)) => Some((dst, op.eval(a, b) as i64)),
                    _ => None,
                },
                Inst::Ext {
                    dst,
                    src,
                    width,
                    signed,
                } => known.get(src).map(|v| (dst, width.extend(v, signed))),
                _ => None,
            };
            if let Some((dst, value)) = rewritten {
                *inst = Inst::Const { dst, value };
                changed += 1;
            }
            // Update the constant facts. A copy of a known constant stays
            // a copy, since local CSE would turn the constant back into
            // one, but later folds in the block see its value.
            if let Some(d) = inst.def() {
                let value = match *inst {
                    Inst::Const { value, .. } => Some(value),
                    Inst::Mov { src, .. } => known.get(src),
                    _ => None,
                };
                known.set(d, value);
            }
        }
        if let Terminator::Branch {
            cond,
            then_to,
            else_to,
        } = block.term
        {
            if let Some(v) = known.get(cond) {
                block.term = Terminator::Jump(if v != 0 { then_to } else { else_to });
                changed += 1;
            }
        }
    }
    changed
}

/// Replaces uses of registers that are plain copies of another register
/// within the block. Copies are invalidated when either side is
/// redefined.
///
/// This removes the parameter-buffering `Mov`s that physical inline
/// expansion introduces (§2.4: "copy propagation and other optimizations
/// can be applied to eliminate unnecessary overhead instructions").
///
/// Returns the number of uses rewritten.
pub fn copy_propagation(func: &mut Function) -> usize {
    let mut changed = 0;
    // copy_of[r] = (s, v): r holds the value s had at definition version
    // v, so one redefinition of s invalidates every copy of it.
    let mut copy_of = Facts::new(func);
    let mut version = vec![0u32; func.num_regs as usize];
    for block in &mut func.blocks {
        copy_of.next_block();
        for inst in &mut block.insts {
            // Resolve uses through the copy facts first.
            let mut rewritten = false;
            inst.for_each_use_mut(|r| rewritten |= resolve(&copy_of, &version, r));
            changed += usize::from(rewritten);
            // Replace the redefined register's fact, recording a new copy.
            if let Some(d) = inst.def() {
                version[d.index()] += 1;
                let copy = match *inst {
                    Inst::Mov { src, .. } if src != d => Some((src, version[src.index()])),
                    _ => None,
                };
                copy_of.set(d, copy);
            }
        }
        // Rewrite terminator uses too.
        block
            .term
            .for_each_use_mut(|r| changed += usize::from(resolve(&copy_of, &version, r)));
    }
    changed
}

/// Rewrites `r` to the register it is a copy of, if any; reports whether
/// it did.
fn resolve(copy_of: &Facts<(Reg, u32)>, version: &[u32], r: &mut Reg) -> bool {
    let live = copy_of
        .get(*r)
        .filter(|&(src, v)| version[src.index()] == v);
    live.map(|(src, _)| *r = src).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_il::{BinOp, BlockId, CmpOp, FunctionBuilder, UnOp, Width};

    fn fold_once(build: impl FnOnce(&mut FunctionBuilder)) -> Function {
        let mut fb = FunctionBuilder::new("t", 0);
        build(&mut fb);
        let mut f = fb.finish();
        constant_fold(&mut f);
        f
    }

    #[test]
    fn folds_binary_chain() {
        let f = fold_once(|fb| {
            let a = fb.const_(6);
            let b = fb.const_(7);
            let c = fb.bin(BinOp::Mul, a, b);
            fb.terminate(Terminator::Return(Some(c)));
        });
        assert!(matches!(
            f.block(BlockId(0)).insts[2],
            Inst::Const { value: 42, .. }
        ));
    }

    #[test]
    fn folds_unary_cmp_ext() {
        let f = fold_once(|fb| {
            let a = fb.const_(300);
            let n = fb.un(UnOp::Neg, a);
            let c = fb.cmp(CmpOp::SLt, n, a);
            let e = fb.push_ext(a, Width::W1, true);
            fb.terminate(Terminator::Return(Some(c)));
            let _ = e;
        });
        assert!(matches!(
            f.block(BlockId(0)).insts[1],
            Inst::Const { value: -300, .. }
        ));
        assert!(matches!(
            f.block(BlockId(0)).insts[2],
            Inst::Const { value: 1, .. }
        ));
        assert!(matches!(
            f.block(BlockId(0)).insts[3],
            Inst::Const { value: 44, .. }
        ));
    }

    #[test]
    fn folds_through_copies_without_rewriting_them() {
        let mut fb = FunctionBuilder::new("t", 0);
        let six = fb.const_(6);
        let copy = fb.new_reg();
        fb.mov(copy, six);
        let seven = fb.const_(7);
        let product = fb.bin(BinOp::Mul, copy, seven);
        fb.terminate(Terminator::Return(Some(product)));
        let mut f = fb.finish();
        assert_eq!(constant_fold(&mut f), 1, "only the multiply is rewritten");
        let b = f.block(BlockId(0));
        assert_eq!(
            b.insts[1],
            Inst::Mov {
                dst: copy,
                src: six
            }
        );
        assert!(matches!(b.insts[3], Inst::Const { value: 42, .. }));
    }

    #[test]
    fn does_not_fold_division_by_zero() {
        let f = fold_once(|fb| {
            let a = fb.const_(1);
            let z = fb.const_(0);
            let d = fb.bin(BinOp::Div, a, z);
            fb.terminate(Terminator::Return(Some(d)));
        });
        assert!(matches!(f.block(BlockId(0)).insts[2], Inst::Bin { .. }));
    }

    #[test]
    fn redefinition_invalidates_constants() {
        // r1 = 5; r1 = load [...]; r2 = r1 + 1 must NOT fold to 6.
        let mut fb = FunctionBuilder::new("t", 1);
        let addr = impact_il::Reg(0);
        let r1 = fb.const_(5);
        // Redefine r1 with a load by hand-crafting the instruction.
        fb.push(Inst::Load {
            dst: r1,
            addr,
            width: Width::W8,
            signed: true,
        });
        let one = fb.const_(1);
        let sum = fb.bin(BinOp::Add, r1, one);
        fb.terminate(Terminator::Return(Some(sum)));
        let mut f = fb.finish();
        constant_fold(&mut f);
        assert!(matches!(f.block(BlockId(0)).insts[3], Inst::Bin { .. }));
    }

    #[test]
    fn folds_branch_on_constant() {
        let mut fb = FunctionBuilder::new("t", 0);
        let t = fb.new_block();
        let e = fb.new_block();
        let c = fb.const_(1);
        fb.terminate(Terminator::Branch {
            cond: c,
            then_to: t,
            else_to: e,
        });
        fb.switch_to(t);
        fb.terminate(Terminator::Return(None));
        fb.switch_to(e);
        fb.terminate(Terminator::Return(None));
        let mut f = fb.finish();
        constant_fold(&mut f);
        assert_eq!(f.block(BlockId(0)).term, Terminator::Jump(t));
    }

    #[test]
    fn copy_prop_rewrites_uses() {
        let mut fb = FunctionBuilder::new("t", 1);
        let p = impact_il::Reg(0);
        let copy = fb.new_reg();
        fb.mov(copy, p);
        let one = fb.const_(1);
        let sum = fb.bin(BinOp::Add, copy, one);
        fb.terminate(Terminator::Return(Some(sum)));
        let mut f = fb.finish();
        let changed = copy_propagation(&mut f);
        assert!(changed > 0);
        // The add now reads r0 directly.
        assert!(matches!(
            f.block(BlockId(0)).insts[2],
            Inst::Bin { lhs, .. } if lhs == p
        ));
    }

    #[test]
    fn copy_prop_invalidated_by_redefinition_of_source() {
        // copy = p; p = 9; use copy — must keep reading `copy`.
        let mut fb = FunctionBuilder::new("t", 1);
        let p = impact_il::Reg(0);
        let copy = fb.new_reg();
        fb.mov(copy, p);
        fb.push(Inst::Const { dst: p, value: 9 });
        let one = fb.const_(1);
        let sum = fb.bin(BinOp::Add, copy, one);
        fb.terminate(Terminator::Return(Some(sum)));
        let mut f = fb.finish();
        copy_propagation(&mut f);
        assert!(matches!(
            f.block(BlockId(0)).insts[3],
            Inst::Bin { lhs, .. } if lhs == copy
        ));
    }

    #[test]
    fn copy_prop_one_redefinition_invalidates_every_copy() {
        // a = p; b = p; p = 9; use a and b — both must keep their names.
        let mut fb = FunctionBuilder::new("t", 1);
        let p = impact_il::Reg(0);
        let a = fb.new_reg();
        fb.mov(a, p);
        let b = fb.new_reg();
        fb.mov(b, p);
        fb.push(Inst::Const { dst: p, value: 9 });
        let sum = fb.bin(BinOp::Add, a, b);
        fb.terminate(Terminator::Return(Some(sum)));
        let mut f = fb.finish();
        assert_eq!(copy_propagation(&mut f), 0);
        assert_eq!(
            f.block(BlockId(0)).insts[3],
            Inst::Bin {
                op: BinOp::Add,
                dst: sum,
                lhs: a,
                rhs: b
            }
        );
    }
}
