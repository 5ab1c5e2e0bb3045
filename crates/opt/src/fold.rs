//! Constant folding and copy propagation (local, per basic block).
//!
//! Both passes track facts within one basic block only; facts never cross
//! block boundaries, which keeps the passes linear and trivially correct
//! for non-SSA code. Only the counts of each register's definitions and
//! reads, which copy coalescing checks, cover the whole function.

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
/// Then coalesces copies into their definitions: within one block,
/// `x = <def>; …; y = x` becomes `y = <def>` and the copy is deleted,
/// when `x` is not a parameter, has exactly one definition and one use
/// in the function (this copy), and `y` is neither read nor written
/// between the two.
///
/// Together these remove the buffering `Mov`s that physical inline
/// expansion introduces (§2.4: "copy propagation and other optimizations
/// can be applied to eliminate unnecessary overhead instructions"): the
/// rewrite reads a copied argument at its source, and coalescing makes a
/// computed value, such as an expanded callee's return value, land in
/// the register its copy wrote.
///
/// Returns the number of instructions or terminators rewritten plus the
/// number of copies deleted.
pub fn copy_propagation(func: &mut Function) -> usize {
    let mut changed = 0;
    // copy_of[r] = (s, v): r holds the value s had at definition version
    // v, so one redefinition of s invalidates every copy of it.
    let mut copy_of = Facts::new(func);
    // Once the sweep is done, version[r] is r's number of definitions and
    // uses[r] its number of reads.
    let mut version = vec![0u32; func.num_regs as usize];
    let mut uses = vec![0u32; func.num_regs as usize];
    // Each copy of a non-parameter defined earlier in the copy's block
    // (every definition records a copy fact), as (block, source): where
    // coalescing may find work.
    let mut copies = Vec::new();
    let num_params = func.num_params;
    for (b, block) in func.blocks.iter_mut().enumerate() {
        copy_of.next_block();
        for inst in &mut block.insts {
            // Resolve uses through the copy facts first.
            let mut rewritten = false;
            inst.for_each_use_mut(|r| {
                rewritten |= resolve(&copy_of, &version, r);
                uses[r.index()] += 1;
            });
            changed += usize::from(rewritten);
            // Replace the redefined register's fact, recording a new copy.
            if let Some(d) = inst.def() {
                version[d.index()] += 1;
                let copy = match *inst {
                    Inst::Mov { src, .. } if src != d => Some((src, version[src.index()])),
                    _ => None,
                };
                if let Some((src, _)) =
                    copy.filter(|&(src, _)| src.0 >= num_params && copy_of.recorded(src))
                {
                    copies.push((b, src));
                }
                copy_of.set(d, copy);
            }
        }
        // Rewrite terminator uses too.
        block.term.for_each_use_mut(|r| {
            changed += usize::from(resolve(&copy_of, &version, r));
            uses[r.index()] += 1;
        });
    }
    changed + coalesce_copies(func, &copies, &version, &uses)
}

/// Deletes each copy `y = x` that [`copy_propagation`]'s coalescing rule
/// allows, making the definition of `x` write `y` instead. `copies` lists
/// the candidates as (block, source), in order, and `defs` and `uses`
/// count each register's definitions and reads. Only a block holding a
/// candidate whose source is defined and read once is scanned. Returns
/// the number of copies deleted.
fn coalesce_copies(
    func: &mut Function,
    copies: &[(usize, Reg)],
    defs: &[u32],
    uses: &[u32],
) -> usize {
    let single = |x: Reg| defs[x.index()] == 1 && uses[x.index()] == 1;
    let mut blocks: Vec<usize> = copies
        .iter()
        .filter(|&&(_, x)| single(x))
        .map(|&(b, _)| b)
        .collect();
    blocks.dedup();
    if blocks.is_empty() {
        return 0;
    }
    let mut deleted = 0;
    // The position, among the block's kept instructions, of the last one
    // that read or wrote each register.
    let mut touched: Facts<usize> = Facts::new(func);
    let num_params = func.num_params;
    for b in blocks {
        touched.next_block();
        let insts = &mut func.blocks[b].insts;
        let mut kept = 0;
        for j in 0..insts.len() {
            if let Inst::Mov { dst: y, src: x } = insts[j] {
                // The copy is x's one read, so the last instruction of the
                // block to touch x, if any, is x's one definition.
                let def = touched.get(x).filter(|&i| {
                    x.0 >= num_params && single(x) && touched.get(y).is_none_or(|t| t <= i)
                });
                if let Some(d) = def.and_then(|i| insts[i].def_mut()) {
                    *d = y;
                    touched.set(y, def);
                    deleted += 1;
                    continue;
                }
            }
            insts.swap(kept, j);
            insts[kept].for_each_use(|r| touched.set(r, Some(kept)));
            if let Some(d) = insts[kept].def() {
                touched.set(d, Some(kept));
            }
            kept += 1;
        }
        insts.truncate(kept);
    }
    deleted
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
    use impact_il::{
        BinOp, BlockId, CallSiteId, Callee, CmpOp, FuncId, FunctionBuilder, UnOp, Width,
    };

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

    /// Over parameters r0 and r1: `b0: x = r0 + r1; <between>; y = x;
    /// jump b1` and `b1: <tail>; return y`, with x = r2 and y = r3.
    fn copy_of_sum(
        between: impl FnOnce(&mut FunctionBuilder, Reg, Reg),
        tail: impl FnOnce(&mut FunctionBuilder, Reg, Reg),
    ) -> Function {
        let mut fb = FunctionBuilder::new("t", 2);
        let exit = fb.new_block();
        let x = fb.bin(BinOp::Add, Reg(0), Reg(1));
        let y = fb.new_reg();
        between(&mut fb, x, y);
        fb.mov(y, x);
        fb.terminate(Terminator::Jump(exit));
        fb.switch_to(exit);
        tail(&mut fb, x, y);
        fb.terminate(Terminator::Return(Some(y)));
        fb.finish()
    }

    /// [`copy_of_sum`] with nothing added: the copy is coalesced.
    fn plain_copy_of_sum() -> Function {
        copy_of_sum(|_, _, _| {}, |_, _, _| {})
    }

    /// Asserts that copy propagation neither reports nor makes a change.
    fn assert_refused(f: Function) {
        let mut g = f.clone();
        assert_eq!(copy_propagation(&mut g), 0);
        assert_eq!(g, f);
    }

    #[test]
    fn coalescing_retargets_an_arithmetic_definition() {
        let mut f = plain_copy_of_sum();
        assert_eq!(copy_propagation(&mut f), 1);
        let sum = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(3),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert_eq!(f.block(BlockId(0)).insts, [sum]);
        assert_eq!(f.block(BlockId(1)).term, Terminator::Return(Some(Reg(3))));
    }

    #[test]
    fn coalescing_retargets_a_call_result() {
        // b0: v = call f0(r0); y = v; jump b1   b1: return y
        let mut fb = FunctionBuilder::new("t", 1);
        let exit = fb.new_block();
        let callee = Callee::Func(FuncId(0));
        let v = fb.call(CallSiteId(0), callee, vec![Reg(0)], true).unwrap();
        let y = fb.new_reg();
        fb.mov(y, v);
        fb.terminate(Terminator::Jump(exit));
        fb.switch_to(exit);
        fb.terminate(Terminator::Return(Some(y)));
        let mut f = fb.finish();
        assert_eq!(copy_propagation(&mut f), 1);
        let call = Inst::Call {
            site: CallSiteId(0),
            callee,
            args: vec![Reg(0)],
            dst: Some(y),
        };
        assert_eq!(f.block(BlockId(0)).insts, [call]);
    }

    #[test]
    fn coalescing_refuses_when_the_copy_target_is_read_between() {
        assert_eq!(copy_propagation(&mut plain_copy_of_sum()), 1);
        assert_refused(copy_of_sum(
            |fb, _, y| fb.store(Reg(0), y, Width::W8),
            |_, _, _| {},
        ));
    }

    #[test]
    fn coalescing_refuses_when_the_copy_target_is_written_between() {
        assert_eq!(copy_propagation(&mut plain_copy_of_sum()), 1);
        assert_refused(copy_of_sum(
            |fb, _, y| fb.push(Inst::Const { dst: y, value: 7 }),
            |_, _, _| {},
        ));
        // A write that coalescing itself moved counts too. In
        // b0: w = r0 - r1; x = r0 + r1; y = x; y = w   b1: return y
        // the first copy is taken into the add, which then writes y
        // between w's definition and the second copy.
        let mut fb = FunctionBuilder::new("t", 2);
        let exit = fb.new_block();
        let w = fb.bin(BinOp::Sub, Reg(0), Reg(1));
        let x = fb.bin(BinOp::Add, Reg(0), Reg(1));
        let y = fb.new_reg();
        fb.mov(y, x);
        fb.mov(y, w);
        fb.terminate(Terminator::Jump(exit));
        fb.switch_to(exit);
        fb.terminate(Terminator::Return(Some(y)));
        let mut f = fb.finish();
        assert_eq!(copy_propagation(&mut f), 1);
        let add = Inst::Bin {
            op: BinOp::Add,
            dst: y,
            lhs: Reg(0),
            rhs: Reg(1),
        };
        let last = Inst::Mov { dst: y, src: w };
        assert_eq!(f.block(BlockId(0)).insts[1..], [add, last]);
    }

    #[test]
    fn coalescing_refuses_a_source_with_a_second_use_or_definition() {
        assert_eq!(copy_propagation(&mut plain_copy_of_sum()), 1);
        // Both the second use and the second definition sit in another
        // block: the counts are the function's.
        assert_refused(copy_of_sum(
            |_, _, _| {},
            |fb, x, _| fb.store(Reg(0), x, Width::W8),
        ));
        assert_refused(copy_of_sum(
            |_, _, _| {},
            |fb, x, _| fb.push(Inst::Const { dst: x, value: 7 }),
        ));
    }

    #[test]
    fn coalescing_refuses_a_parameter_source() {
        // b0: x = r1 * r1; y = x; jump b1   b1: return y, where x is the
        // parameter r0 or a fresh register.
        let square_copied_through = |param: bool| {
            let mut fb = FunctionBuilder::new("t", 2);
            let exit = fb.new_block();
            let x = if param { Reg(0) } else { fb.new_reg() };
            fb.push(Inst::Bin {
                op: BinOp::Mul,
                dst: x,
                lhs: Reg(1),
                rhs: Reg(1),
            });
            let y = fb.new_reg();
            fb.mov(y, x);
            fb.terminate(Terminator::Jump(exit));
            fb.switch_to(exit);
            fb.terminate(Terminator::Return(Some(y)));
            fb.finish()
        };
        assert_eq!(copy_propagation(&mut square_copied_through(false)), 1);
        assert_refused(square_copied_through(true));
    }

    #[test]
    fn coalescing_counts_one_change_per_copy_deleted() {
        // b0: a = r0 + r1; y = a; b = r0 * r1; z = b; c = r0 - r1; w = c
        // b1: return y + z + w
        let mut fb = FunctionBuilder::new("t", 2);
        let exit = fb.new_block();
        let mut outs = Vec::new();
        for op in [BinOp::Add, BinOp::Mul, BinOp::Sub] {
            let v = fb.bin(op, Reg(0), Reg(1));
            let out = fb.new_reg();
            fb.mov(out, v);
            outs.push((op, out));
        }
        fb.terminate(Terminator::Jump(exit));
        fb.switch_to(exit);
        let yz = fb.bin(BinOp::Add, outs[0].1, outs[1].1);
        let sum = fb.bin(BinOp::Add, yz, outs[2].1);
        fb.terminate(Terminator::Return(Some(sum)));
        let mut f = fb.finish();
        assert_eq!(copy_propagation(&mut f), 3);
        let retargeted: Vec<Inst> = outs
            .iter()
            .map(|&(op, dst)| Inst::Bin {
                op,
                dst,
                lhs: Reg(0),
                rhs: Reg(1),
            })
            .collect();
        assert_eq!(f.block(BlockId(0)).insts, retargeted);
        assert_eq!(copy_propagation(&mut f), 0);
    }
}
