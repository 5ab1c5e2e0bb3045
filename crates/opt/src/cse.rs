//! Local common-subexpression elimination.
//!
//! The paper names CSE among the optimizations whose scope inline
//! expansion enlarges (§1, §1.2). This pass value-numbers pure
//! instructions within each basic block: a recomputation of an
//! already-available value becomes a `Mov` from the register that holds
//! it (copy propagation and DCE then erase the `Mov`).
//!
//! Registers are versioned so that redefinitions invalidate stale
//! availability facts — necessary because the IL is not SSA.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use impact_il::{BinOp, CmpOp, Function, Inst, Reg, UnOp, Width};

/// A versioned operand: the register plus the definition generation its
/// value was read at.
type VReg = (Reg, u32);

/// Hashable description of a pure computation.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Key {
    Const(i64),
    Un(UnOp, VReg),
    Bin(BinOp, VReg, VReg),
    Cmp(CmpOp, VReg, VReg),
    AddrOfGlobal(u32),
    AddrOfSlot(u32),
    AddrOfFunc(u32),
    Ext(Width, bool, VReg),
}

/// The multiplicative (Fx) hasher for [`Key`]s: one rotate, xor and
/// multiply per word, where std's SipHash spends tens of cycles.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Runs local CSE over every block of `func`. Returns the number of
/// instructions replaced by copies.
pub fn local_cse(func: &mut Function) -> usize {
    let mut changed = 0;
    // Versions only grow, so one vector serves every block: a key only
    // meets keys of its own block, read from the same counters.
    let mut version = vec![0u32; func.num_regs as usize];
    // available[key] = (holder register, holder's version at insert).
    let mut available: HashMap<Key, VReg, BuildHasherDefault<MulHasher>> = HashMap::default();
    for block in &mut func.blocks {
        available.clear();
        for inst in &mut block.insts {
            let v = |r: Reg| (r, version[r.index()]);
            let key = match inst {
                Inst::Const { value, .. } => Some(Key::Const(*value)),
                Inst::Un { op, src, .. } => Some(Key::Un(*op, v(*src))),
                Inst::Bin { op, lhs, rhs, .. } => {
                    // Canonicalize commutative operands for more hits.
                    let (mut a, mut b) = (v(*lhs), v(*rhs));
                    if is_commutative(*op) && b < a {
                        std::mem::swap(&mut a, &mut b);
                    }
                    Some(Key::Bin(*op, a, b))
                }
                Inst::Cmp { op, lhs, rhs, .. } => Some(Key::Cmp(*op, v(*lhs), v(*rhs))),
                Inst::AddrOfGlobal { global, .. } => Some(Key::AddrOfGlobal(global.0)),
                Inst::AddrOfSlot { slot, .. } => Some(Key::AddrOfSlot(slot.0)),
                Inst::AddrOfFunc { func, .. } => Some(Key::AddrOfFunc(func.0)),
                Inst::Ext {
                    width, signed, src, ..
                } => Some(Key::Ext(*width, *signed, v(*src))),
                // Loads read mutable memory; calls and stores have
                // effects; plain moves are copy-propagation's job.
                Inst::Mov { .. } | Inst::Load { .. } | Inst::Store { .. } | Inst::Call { .. } => {
                    None
                }
            };
            if let (Some(key), Some(d)) = (key, inst.def()) {
                // A stale or missing holder gives way to d's next version.
                let fresh = (d, version[d.index()] + 1);
                let holder = available.entry(key).or_insert(fresh);
                let (src, at_version) = *holder;
                if src != d && version[src.index()] == at_version {
                    *inst = Inst::Mov { dst: d, src };
                    changed += 1;
                } else {
                    *holder = fresh;
                }
            }
            if let Some(d) = inst.def() {
                version[d.index()] += 1;
            }
        }
    }
    changed
}

fn is_commutative(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_il::{BlockId, FunctionBuilder, Terminator};

    #[test]
    fn dedupes_repeated_constants_and_addresses() {
        let mut fb = FunctionBuilder::new("t", 0);
        let s = fb.add_slot("buf", 16, 8);
        let c1 = fb.const_(4);
        let a1 = fb.addr_of_slot(s);
        let c2 = fb.const_(4);
        let a2 = fb.addr_of_slot(s);
        let sum = fb.bin(BinOp::Add, c2, a2);
        fb.terminate(Terminator::Return(Some(sum)));
        let mut f = fb.finish();
        let changed = local_cse(&mut f);
        assert_eq!(changed, 2);
        let b = f.block(BlockId(0));
        assert_eq!(b.insts[2], Inst::Mov { dst: c2, src: c1 });
        assert_eq!(b.insts[3], Inst::Mov { dst: a2, src: a1 });
    }

    #[test]
    fn dedupes_commutative_operand_orders() {
        let mut fb = FunctionBuilder::new("t", 2);
        let a = Reg(0);
        let b = Reg(1);
        let x = fb.bin(BinOp::Add, a, b);
        let y = fb.bin(BinOp::Add, b, a);
        let z = fb.bin(BinOp::Sub, a, b);
        let w = fb.bin(BinOp::Sub, b, a); // NOT commutative: must stay
        let r = fb.bin(BinOp::Xor, x, y);
        let r2 = fb.bin(BinOp::Xor, z, w);
        let out = fb.bin(BinOp::Or, r, r2);
        fb.terminate(Terminator::Return(Some(out)));
        let mut f = fb.finish();
        let changed = local_cse(&mut f);
        assert_eq!(changed, 1, "only the add is deduped");
        assert_eq!(f.block(BlockId(0)).insts[1], Inst::Mov { dst: y, src: x });
    }

    #[test]
    fn redefinition_invalidates_availability() {
        // x = a + b; a = 0; y = a + b — must NOT reuse x.
        let mut fb = FunctionBuilder::new("t", 2);
        let a = Reg(0);
        let b = Reg(1);
        let _x = fb.bin(BinOp::Add, a, b);
        fb.push(Inst::Const { dst: a, value: 0 });
        let y = fb.bin(BinOp::Add, a, b);
        fb.terminate(Terminator::Return(Some(y)));
        let mut f = fb.finish();
        let changed = local_cse(&mut f);
        assert_eq!(changed, 0);
        assert!(matches!(f.block(BlockId(0)).insts[2], Inst::Bin { .. }));
    }

    #[test]
    fn loads_are_never_merged() {
        let mut fb = FunctionBuilder::new("t", 1);
        let p = Reg(0);
        let l1 = fb.load(p, Width::W4, true);
        // A store may change the value in between.
        fb.store(p, l1, Width::W4);
        let l2 = fb.load(p, Width::W4, true);
        let out = fb.bin(BinOp::Add, l1, l2);
        fb.terminate(Terminator::Return(Some(out)));
        let mut f = fb.finish();
        assert_eq!(local_cse(&mut f), 0);
    }

    #[test]
    fn availability_does_not_cross_blocks() {
        let mut fb = FunctionBuilder::new("t", 0);
        let next = fb.new_block();
        let _c1 = fb.const_(9);
        fb.terminate(Terminator::Jump(next));
        fb.switch_to(next);
        let c2 = fb.const_(9);
        fb.terminate(Terminator::Return(Some(c2)));
        let mut f = fb.finish();
        assert_eq!(local_cse(&mut f), 0);
    }

    #[test]
    fn holder_invalidation_when_holder_is_overwritten() {
        // c1 = 5; c1 = 6; c2 = 5 — c2 must not become Mov from c1.
        let mut fb = FunctionBuilder::new("t", 0);
        let c1 = fb.const_(5);
        fb.push(Inst::Const { dst: c1, value: 6 });
        let c2 = fb.const_(5);
        fb.terminate(Terminator::Return(Some(c2)));
        let mut f = fb.finish();
        assert_eq!(local_cse(&mut f), 0);
        assert!(matches!(
            f.block(BlockId(0)).insts[2],
            Inst::Const { value: 5, .. }
        ));
    }
}
