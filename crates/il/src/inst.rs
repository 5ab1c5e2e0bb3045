//! IL instructions, operators, and block terminators.
//!
//! The IL is a classic (non-SSA) three-address code, as used by compiler
//! mid-ends of the paper's era: each function owns a set of virtual
//! registers, every register holds a 64-bit integer, and memory is accessed
//! through explicit sized loads and stores.

use crate::ids::{BlockId, CallSiteId, ExternId, FuncId, GlobalId, Reg, SlotId};

/// Width of a memory access in bytes.
///
/// The front end maps C types onto widths: `char` → [`Width::W1`],
/// `short` → [`Width::W2`], `int` → [`Width::W4`], `long` and pointers →
/// [`Width::W8`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// One byte.
    W1,
    /// Two bytes.
    W2,
    /// Four bytes.
    W4,
    /// Eight bytes.
    W8,
}

impl Width {
    /// Number of bytes covered by this width.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Width::W1 => 1,
            Width::W2 => 2,
            Width::W4 => 4,
            Width::W8 => 8,
        }
    }

    /// Builds a width from a byte count.
    ///
    /// Returns `None` unless `bytes` is 1, 2, 4, or 8.
    pub fn from_bytes(bytes: u64) -> Option<Self> {
        match bytes {
            1 => Some(Width::W1),
            2 => Some(Width::W2),
            4 => Some(Width::W4),
            8 => Some(Width::W8),
            _ => None,
        }
    }

    /// Truncates `v` to this width and sign- or zero-extends it back to
    /// 64 bits: the semantics of [`Inst::Ext`].
    #[inline(always)]
    pub fn extend(self, v: i64, signed: bool) -> i64 {
        match (self, signed) {
            (Width::W1, true) => v as i8 as i64,
            (Width::W1, false) => v as u8 as i64,
            (Width::W2, true) => v as i16 as i64,
            (Width::W2, false) => v as u16 as i64,
            (Width::W4, true) => v as i32 as i64,
            (Width::W4, false) => v as u32 as i64,
            (Width::W8, _) => v,
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Two's-complement negation.
    Neg,
    /// Bitwise complement (`~`).
    BitNot,
    /// Logical negation: yields 1 if the operand is 0, otherwise 0.
    LogNot,
}

impl UnOp {
    /// Applies the operator to `v`.
    #[inline(always)]
    pub fn eval(self, v: i64) -> i64 {
        match self {
            UnOp::Neg => v.wrapping_neg(),
            UnOp::BitNot => !v,
            UnOp::LogNot => (v == 0) as i64,
        }
    }
}

/// Binary arithmetic and bitwise operators.
///
/// Division and remainder come in signed and unsigned flavours because the
/// front end lowers C's unsigned arithmetic onto the same 64-bit registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division (traps on division by zero).
    Div,
    /// Signed remainder (traps on division by zero).
    Rem,
    /// Unsigned division.
    UDiv,
    /// Unsigned remainder.
    URem,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Left shift (shift count masked to 0..=63).
    Shl,
    /// Arithmetic (sign-propagating) right shift.
    Shr,
    /// Logical (zero-filling) right shift.
    UShr,
}

impl BinOp {
    /// Applies the operator to `a` and `b`.
    ///
    /// Returns `None` for division or remainder by zero, which traps at
    /// run time; a constant folder must leave such an instruction alone.
    #[inline(always)]
    pub fn eval(self, a: i64, b: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div if b != 0 => a.wrapping_div(b),
            BinOp::Rem if b != 0 => a.wrapping_rem(b),
            BinOp::UDiv if b != 0 => ((a as u64) / (b as u64)) as i64,
            BinOp::URem if b != 0 => ((a as u64) % (b as u64)) as i64,
            BinOp::Div | BinOp::Rem | BinOp::UDiv | BinOp::URem => return None,
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl(b as u32 & 63),
            BinOp::Shr => a.wrapping_shr(b as u32 & 63),
            BinOp::UShr => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
        })
    }
}

/// Comparison operators; the result register receives 0 or 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
    /// Unsigned less-than.
    ULt,
    /// Unsigned less-or-equal.
    ULe,
    /// Unsigned greater-than.
    UGt,
    /// Unsigned greater-or-equal.
    UGe,
}

impl CmpOp {
    /// Whether `a op b` holds.
    #[inline(always)]
    pub fn eval(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::SLt => a < b,
            CmpOp::SLe => a <= b,
            CmpOp::SGt => a > b,
            CmpOp::SGe => a >= b,
            CmpOp::ULt => (a as u64) < (b as u64),
            CmpOp::ULe => (a as u64) <= (b as u64),
            CmpOp::UGt => (a as u64) > (b as u64),
            CmpOp::UGe => (a as u64) >= (b as u64),
        }
    }
}

/// The target of a call instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Callee {
    /// Direct call to a user function whose body is in the module.
    Func(FuncId),
    /// Call to an external function — the body is unavailable, so the call
    /// graph routes this arc through the `$$$` node (paper §3.2).
    Ext(ExternId),
    /// Indirect call through a function pointer held in a register — routed
    /// through the `###` node (paper §3.2).
    Reg(Reg),
}

/// A single three-address IL instruction.
///
/// Every instruction counts as one "intermediate instruction" (IL) in the
/// dynamic counts reported by the profiler, matching the paper's
/// measurement unit (§4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inst {
    /// `dst = value`.
    Const {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        value: i64,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = op src`.
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        src: Reg,
    },
    /// `dst = lhs op rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = lhs op rhs` for a comparison; `dst` receives 0 or 1.
    Cmp {
        /// Comparison operator.
        op: CmpOp,
        /// Destination register.
        dst: Reg,
        /// Left operand.
        lhs: Reg,
        /// Right operand.
        rhs: Reg,
    },
    /// `dst = &global`.
    AddrOfGlobal {
        /// Destination register.
        dst: Reg,
        /// Global whose address is taken.
        global: GlobalId,
    },
    /// `dst = &slot` — address of a stack slot in the current frame.
    AddrOfSlot {
        /// Destination register.
        dst: Reg,
        /// Frame slot whose address is taken.
        slot: SlotId,
    },
    /// `dst = &func` — materializes a function pointer.
    AddrOfFunc {
        /// Destination register.
        dst: Reg,
        /// Function whose address is taken.
        func: FuncId,
    },
    /// `dst = extend(truncate(src, width))` — truncates `src` to `width`
    /// bytes and sign- or zero-extends back to 64 bits. Lowered from C
    /// casts and stores into narrow register-allocated variables.
    Ext {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
        /// Width to truncate to.
        width: Width,
        /// Whether to sign-extend (`true`) or zero-extend (`false`).
        signed: bool,
    },
    /// `dst = *(width*)addr`, sign- or zero-extended to 64 bits.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address register.
        addr: Reg,
        /// Access width.
        width: Width,
        /// Whether to sign-extend (`true`) or zero-extend (`false`).
        signed: bool,
    },
    /// `*(width*)addr = src` (truncating to `width`).
    Store {
        /// Address register.
        addr: Reg,
        /// Value register.
        src: Reg,
        /// Access width.
        width: Width,
    },
    /// `dst = callee(args...)`.
    ///
    /// Each call instruction carries a module-unique [`CallSiteId`]; the
    /// weighted call graph keys its arcs on this id (§2.2).
    Call {
        /// Unique static call-site identifier.
        site: CallSiteId,
        /// Call target.
        callee: Callee,
        /// Argument registers, in order.
        args: Vec<Reg>,
        /// Register receiving the return value, if used.
        dst: Option<Reg>,
    },
}

impl Inst {
    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::AddrOfGlobal { dst, .. }
            | Inst::AddrOfSlot { dst, .. }
            | Inst::AddrOfFunc { dst, .. }
            | Inst::Ext { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => *dst,
        }
    }

    /// Mutable access to the register written by this instruction, if any.
    pub fn def_mut(&mut self) -> Option<&mut Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::AddrOfGlobal { dst, .. }
            | Inst::AddrOfSlot { dst, .. }
            | Inst::AddrOfFunc { dst, .. }
            | Inst::Ext { dst, .. }
            | Inst::Load { dst, .. } => Some(dst),
            Inst::Store { .. } => None,
            Inst::Call { dst, .. } => dst.as_mut(),
        }
    }

    /// Invokes `f` for every register read by this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match self {
            Inst::Const { .. }
            | Inst::AddrOfGlobal { .. }
            | Inst::AddrOfSlot { .. }
            | Inst::AddrOfFunc { .. } => {}
            Inst::Mov { src, .. } | Inst::Un { src, .. } | Inst::Ext { src, .. } => f(*src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Load { addr, .. } => f(*addr),
            Inst::Store { addr, src, .. } => {
                f(*addr);
                f(*src);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Reg(r) = callee {
                    f(*r);
                }
                for a in args {
                    f(*a);
                }
            }
        }
    }

    /// Invokes `f` on every register read by this instruction, in the
    /// order of [`Inst::for_each_use`], so it can rewrite them.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Reg)) {
        match self {
            Inst::Const { .. }
            | Inst::AddrOfGlobal { .. }
            | Inst::AddrOfSlot { .. }
            | Inst::AddrOfFunc { .. } => {}
            Inst::Mov { src, .. } | Inst::Un { src, .. } | Inst::Ext { src, .. } => f(src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                f(lhs);
                f(rhs);
            }
            Inst::Load { addr, .. } => f(addr),
            Inst::Store { addr, src, .. } => {
                f(addr);
                f(src);
            }
            Inst::Call { callee, args, .. } => {
                if let Callee::Reg(r) = callee {
                    f(r);
                }
                args.iter_mut().for_each(f);
            }
        }
    }

    /// Whether this instruction has an effect beyond writing its
    /// destination register (memory writes, calls).
    ///
    /// Loads are treated as effect-free: the VM traps on wild addresses,
    /// but the IL's dead-code elimination may delete a load whose result
    /// is unused, exactly as IMPACT-I's optimizer would.
    pub fn has_side_effect(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. })
    }

    /// Whether this is a call instruction.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }
}

/// Block terminator: every basic block ends in exactly one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch on `cond != 0`.
    Branch {
        /// Condition register.
        cond: Reg,
        /// Target when `cond != 0`.
        then_to: BlockId,
        /// Target when `cond == 0`.
        else_to: BlockId,
    },
    /// Return from the function, optionally with a value.
    Return(Option<Reg>),
    /// Stops the whole program (reached only via generated shutdown stubs).
    Halt,
}

impl Terminator {
    /// Invokes `f` for the register this terminator reads, if any (a
    /// branch's condition or a returned value).
    pub fn for_each_use(&self, f: impl FnOnce(Reg)) {
        if let Terminator::Branch { cond: r, .. } | Terminator::Return(Some(r)) = self {
            f(*r);
        }
    }

    /// Invokes `f` on the register this terminator reads, if any, so it
    /// can rewrite it.
    pub fn for_each_use_mut(&mut self, f: impl FnOnce(&mut Reg)) {
        if let Terminator::Branch { cond: r, .. } | Terminator::Return(Some(r)) = self {
            f(r);
        }
    }

    /// Invokes `f` for every successor block of this terminator.
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            Terminator::Jump(b) => f(*b),
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                f(*then_to);
                f(*else_to);
            }
            Terminator::Return(_) | Terminator::Halt => {}
        }
    }

    /// Rewrites every successor block id through `f`.
    pub fn map_successors(&mut self, mut f: impl FnMut(BlockId) -> BlockId) {
        match self {
            Terminator::Jump(b) => *b = f(*b),
            Terminator::Branch {
                then_to, else_to, ..
            } => {
                *then_to = f(*then_to);
                *else_to = f(*else_to);
            }
            Terminator::Return(_) | Terminator::Halt => {}
        }
    }

    /// Whether this terminator transfers control within the function
    /// (a jump or branch), as opposed to leaving it.
    ///
    /// The profiler counts executed intra-function transfers as "control
    /// transfers other than function call/return" (Table 1's `control`
    /// column).
    pub fn is_control_transfer(&self) -> bool {
        matches!(self, Terminator::Jump(_) | Terminator::Branch { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_round_trips_through_bytes() {
        for w in [Width::W1, Width::W2, Width::W4, Width::W8] {
            assert_eq!(Width::from_bytes(w.bytes()), Some(w));
        }
        assert_eq!(Width::from_bytes(3), None);
        assert_eq!(Width::from_bytes(16), None);
    }

    #[test]
    fn def_and_uses_of_bin() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(2),
            lhs: Reg(0),
            rhs: Reg(1),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(0), Reg(1)]);
        assert!(!i.has_side_effect());
    }

    #[test]
    fn store_has_no_def_and_two_uses() {
        let i = Inst::Store {
            addr: Reg(4),
            src: Reg(5),
            width: Width::W4,
        };
        assert_eq!(i.def(), None);
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(4), Reg(5)]);
        assert!(i.has_side_effect());
    }

    #[test]
    fn indirect_call_uses_callee_register() {
        let i = Inst::Call {
            site: CallSiteId(0),
            callee: Callee::Reg(Reg(9)),
            args: vec![Reg(1)],
            dst: Some(Reg(2)),
        };
        assert!(i.is_call());
        assert!(i.has_side_effect());
        assert_eq!(i.def(), Some(Reg(2)));
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(9), Reg(1)]);
    }

    #[test]
    fn mutable_visitors_reach_every_register() {
        let mut i = Inst::Call {
            site: CallSiteId(0),
            callee: Callee::Reg(Reg(9)),
            args: vec![Reg(1), Reg(2)],
            dst: Some(Reg(3)),
        };
        i.for_each_use_mut(|r| r.0 += 10);
        *i.def_mut().unwrap() = Reg(0);
        let mut uses = Vec::new();
        i.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(19), Reg(11), Reg(12)]);
        assert_eq!(i.def(), Some(Reg(0)));
        let mut store = Inst::Store {
            addr: Reg(4),
            src: Reg(5),
            width: Width::W4,
        };
        assert_eq!(store.def_mut(), None);
    }

    #[test]
    fn terminator_uses() {
        let mut t = Terminator::Branch {
            cond: Reg(4),
            then_to: BlockId(1),
            else_to: BlockId(2),
        };
        t.for_each_use_mut(|r| r.0 += 1);
        let mut uses = Vec::new();
        t.for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(5)]);
        Terminator::Return(Some(Reg(7))).for_each_use(|r| uses.push(r));
        assert_eq!(uses, vec![Reg(5), Reg(7)]);
        for t in [
            Terminator::Return(None),
            Terminator::Jump(BlockId(0)),
            Terminator::Halt,
        ] {
            t.for_each_use(|_| panic!("{t:?} reads no register"));
        }
    }

    #[test]
    fn ext_value_truncates_and_extends() {
        assert_eq!(Width::W1.extend(0x1ff, false), 0xff);
        assert_eq!(Width::W1.extend(0x1ff, true), -1);
        assert_eq!(Width::W4.extend(-1, false), 0xffff_ffff);
        assert_eq!(Width::W8.extend(i64::MIN, true), i64::MIN);
    }

    #[test]
    fn bin_traps_on_division_by_zero() {
        assert_eq!(BinOp::Div.eval(1, 0), None);
        assert_eq!(BinOp::URem.eval(1, 0), None);
        assert_eq!(BinOp::Div.eval(7, 2), Some(3));
        assert_eq!(BinOp::Div.eval(i64::MIN, -1), Some(i64::MIN));
    }

    #[test]
    fn unsigned_ops_treat_operands_as_u64() {
        assert_eq!(BinOp::UDiv.eval(-1, 2), Some(i64::MAX));
        assert_eq!(BinOp::UShr.eval(-1, 63), Some(1));
        assert!(CmpOp::UGt.eval(-1, 1));
        assert!(!CmpOp::SGt.eval(-1, 1));
    }

    #[test]
    fn shifts_mask_their_count() {
        assert_eq!(BinOp::Shl.eval(1, 64), Some(1));
        assert_eq!(BinOp::Shl.eval(1, 65), Some(2));
    }

    #[test]
    fn terminator_successors() {
        let mut succs = Vec::new();
        Terminator::Branch {
            cond: Reg(0),
            then_to: BlockId(1),
            else_to: BlockId(2),
        }
        .for_each_successor(|b| succs.push(b));
        assert_eq!(succs, vec![BlockId(1), BlockId(2)]);

        succs.clear();
        Terminator::Return(None).for_each_successor(|b| succs.push(b));
        assert!(succs.is_empty());
    }

    #[test]
    fn map_successors_rewrites_targets() {
        let mut t = Terminator::Jump(BlockId(3));
        t.map_successors(|b| BlockId(b.0 + 10));
        assert_eq!(t, Terminator::Jump(BlockId(13)));
    }

    #[test]
    fn control_transfer_classification() {
        assert!(Terminator::Jump(BlockId(0)).is_control_transfer());
        assert!(!Terminator::Return(None).is_control_transfer());
        assert!(!Terminator::Halt.is_control_transfer());
    }
}
