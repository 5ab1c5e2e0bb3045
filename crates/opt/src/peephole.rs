//! Strength reduction and algebraic identities (peephole).
//!
//! Complements [`crate::constant_fold`], which only fires when *both*
//! operands are known: here one known operand is enough. Algebraic
//! identities (`x + 0`, `x - 0`, `x * 1`, `x / 1`, `x & -1`, `x | 0`,
//! `x ^ 0`, a shift by 0) collapse into copies; `x * 0`, `x & 0` and
//! unsigned `x % 1` become 0; and `x * 2` becomes `x + x`. Each rewrite
//! needs no value the block does not already hold.

use impact_il::{BinOp, Function, Inst, Reg};

use crate::Facts;

/// Runs the peephole over every block. Returns the number of rewrites.
pub fn strength_reduce(func: &mut Function) -> usize {
    let mut changed = 0;
    let mut known = Facts::new(func);
    for block in &mut func.blocks {
        known.next_block();
        for inst in &mut block.insts {
            if let Inst::Bin { op, dst, lhs, rhs } = *inst {
                let (lk, rk) = (known.get(lhs), known.get(rhs));
                if let Some(rewritten) = reduce(op, dst, lhs, rhs, lk, rk) {
                    *inst = rewritten;
                    changed += 1;
                }
            }
            if let Some(d) = inst.def() {
                let value = match *inst {
                    Inst::Const { value, .. } => Some(value),
                    _ => None,
                };
                known.set(d, value);
            }
        }
    }
    changed
}

/// The rewrite table. `lk`/`rk` are the operands' known constant values.
fn reduce(
    op: BinOp,
    dst: Reg,
    lhs: Reg,
    rhs: Reg,
    lk: Option<i64>,
    rk: Option<i64>,
) -> Option<Inst> {
    let mov = |src: Reg| Some(Inst::Mov { dst, src });
    let zero = || Some(Inst::Const { dst, value: 0 });
    match op {
        BinOp::Add => match (lk, rk) {
            (_, Some(0)) => mov(lhs),
            (Some(0), _) => mov(rhs),
            _ => None,
        },
        BinOp::Sub if rk == Some(0) => mov(lhs),
        BinOp::Mul => match (lk, rk) {
            (_, Some(0)) | (Some(0), _) => zero(),
            (_, Some(1)) => mov(lhs),
            (Some(1), _) => mov(rhs),
            (_, Some(2)) => Some(Inst::Bin {
                op: BinOp::Add,
                dst,
                lhs,
                rhs: lhs,
            }),
            (Some(2), _) => Some(Inst::Bin {
                op: BinOp::Add,
                dst,
                lhs: rhs,
                rhs,
            }),
            _ => None,
        },
        BinOp::UDiv if rk == Some(1) => mov(lhs),
        BinOp::Div if rk == Some(1) => mov(lhs),
        BinOp::URem if rk == Some(1) => zero(),
        BinOp::And => match (lk, rk) {
            (_, Some(0)) | (Some(0), _) => zero(),
            (_, Some(-1)) => mov(lhs),
            (Some(-1), _) => mov(rhs),
            _ => None,
        },
        BinOp::Or | BinOp::Xor => match (lk, rk) {
            (_, Some(0)) => mov(lhs),
            (Some(0), _) => mov(rhs),
            _ => None,
        },
        BinOp::Shl | BinOp::Shr | BinOp::UShr if rk == Some(0) => mov(lhs),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_il::{BlockId, FunctionBuilder, Terminator};

    fn reduced(build: impl FnOnce(&mut FunctionBuilder)) -> Function {
        let mut fb = FunctionBuilder::new("t", 2);
        build(&mut fb);
        let mut f = fb.finish();
        strength_reduce(&mut f);
        f
    }

    #[test]
    fn additive_and_multiplicative_identities() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let zero = fb.const_(0);
            let one = fb.const_(1);
            let x = fb.bin(BinOp::Add, a, zero);
            let y = fb.bin(BinOp::Mul, x, one);
            let z = fb.bin(BinOp::Sub, y, zero);
            fb.terminate(Terminator::Return(Some(z)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Mov { .. }));
        assert!(matches!(insts[3], Inst::Mov { .. }));
        assert!(matches!(insts[4], Inst::Mov { .. }));
    }

    #[test]
    fn multiply_by_zero_and_two() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let zero = fb.const_(0);
            let two = fb.const_(2);
            let x = fb.bin(BinOp::Mul, a, zero);
            let y = fb.bin(BinOp::Mul, a, two);
            let out = fb.bin(BinOp::Add, x, y);
            fb.terminate(Terminator::Return(Some(out)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Const { value: 0, .. }));
        assert!(
            matches!(insts[3], Inst::Bin { op: BinOp::Add, lhs, rhs, .. } if lhs == rhs),
            "x*2 should become x+x: {:?}",
            insts[3]
        );
    }

    #[test]
    fn masks_and_shifts() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let zero = fb.const_(0);
            let all = fb.const_(-1);
            let x = fb.bin(BinOp::And, a, all);
            let y = fb.bin(BinOp::And, a, zero);
            let z = fb.bin(BinOp::Shl, x, zero);
            let out = fb.bin(BinOp::Or, y, z);
            fb.terminate(Terminator::Return(Some(out)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Mov { .. })); // a & -1
        assert!(matches!(insts[3], Inst::Const { value: 0, .. })); // a & 0
        assert!(matches!(insts[4], Inst::Mov { .. })); // x << 0
    }

    #[test]
    fn division_identities_keep_traps() {
        // x / 1 → x, but x / 0 must NOT be touched (it traps).
        let f = reduced(|fb| {
            let a = Reg(0);
            let one = fb.const_(1);
            let zero = fb.const_(0);
            let x = fb.bin(BinOp::Div, a, one);
            let y = fb.bin(BinOp::Div, a, zero);
            let out = fb.bin(BinOp::Add, x, y);
            fb.terminate(Terminator::Return(Some(out)));
        });
        let insts = &f.block(BlockId(0)).insts;
        assert!(matches!(insts[2], Inst::Mov { .. }));
        assert!(matches!(insts[3], Inst::Bin { op: BinOp::Div, .. }));
    }

    #[test]
    fn non_constant_operands_untouched() {
        let f = reduced(|fb| {
            let a = Reg(0);
            let b = Reg(1);
            let x = fb.bin(BinOp::Mul, a, b);
            fb.terminate(Terminator::Return(Some(x)));
        });
        assert!(matches!(f.block(BlockId(0)).insts[0], Inst::Bin { .. }));
    }
}
