//! Convenience builder for constructing [`Function`] bodies.
//!
//! The front end drives a `FunctionBuilder` with a notion of the *current
//! block*; instructions are appended there, and helpers allocate result
//! registers on the fly.

use crate::function::{Function, Slot};
use crate::ids::{BlockId, CallSiteId, FuncId, GlobalId, Reg, SlotId};
use crate::inst::{BinOp, Callee, CmpOp, Inst, Terminator, UnOp, Width};

/// Incremental builder for one function.
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    current: BlockId,
    terminated: Vec<bool>,
}

impl FunctionBuilder {
    /// Starts a function with `num_params` formals (registers
    /// `r0..r{num_params}`) and an open entry block.
    pub fn new(name: impl Into<String>, num_params: u32) -> Self {
        let func = Function::new(name, num_params);
        FunctionBuilder {
            func,
            current: BlockId(0),
            terminated: vec![false],
        }
    }

    /// Whether the current block has already been given a terminator.
    ///
    /// Lowering uses this to avoid emitting dead code after a `return`
    /// inside a statement list.
    pub fn is_terminated(&self) -> bool {
        self.terminated[self.current.index()]
    }

    /// Creates a new (open, unterminated) block and returns its id without
    /// switching to it.
    pub fn new_block(&mut self) -> BlockId {
        let id = self.func.add_block(Terminator::Return(None));
        self.terminated.push(false);
        id
    }

    /// Makes `block` the current block.
    pub fn switch_to(&mut self, block: BlockId) {
        self.current = block;
    }

    /// Allocates a fresh virtual register.
    pub fn new_reg(&mut self) -> Reg {
        self.func.new_reg()
    }

    /// Adds a frame slot.
    pub fn add_slot(&mut self, name: impl Into<String>, size: u64, align: u64) -> SlotId {
        self.func.add_slot(Slot {
            name: name.into(),
            size,
            align,
        })
    }

    /// Appends a raw instruction to the current block.
    ///
    /// Instructions pushed after the block was terminated are silently
    /// dropped — they are unreachable by construction.
    pub fn push(&mut self, inst: Inst) {
        if self.is_terminated() {
            return;
        }
        self.func.block_mut(self.current).insts.push(inst);
    }

    /// Terminates the current block. Subsequent `push`/`terminate` calls on
    /// this block are ignored (unreachable code).
    pub fn terminate(&mut self, term: Terminator) {
        if self.is_terminated() {
            return;
        }
        self.func.block_mut(self.current).term = term;
        self.terminated[self.current.index()] = true;
    }

    /// `dst = value` into a fresh register.
    pub fn const_(&mut self, value: i64) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Const { dst, value });
        dst
    }

    /// `dst = src` into an existing register.
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.push(Inst::Mov { dst, src });
    }

    /// Unary operation into a fresh register.
    pub fn un(&mut self, op: UnOp, src: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Un { op, dst, src });
        dst
    }

    /// Binary operation into a fresh register.
    pub fn bin(&mut self, op: BinOp, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Bin { op, dst, lhs, rhs });
        dst
    }

    /// Comparison into a fresh register.
    pub fn cmp(&mut self, op: CmpOp, lhs: Reg, rhs: Reg) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Cmp { op, dst, lhs, rhs });
        dst
    }

    /// Truncate-and-extend into a fresh register (see [`Inst::Ext`]).
    pub fn push_ext(&mut self, src: Reg, width: Width, signed: bool) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Ext {
            dst,
            src,
            width,
            signed,
        });
        dst
    }

    /// Sized load into a fresh register.
    pub fn load(&mut self, addr: Reg, width: Width, signed: bool) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Load {
            dst,
            addr,
            width,
            signed,
        });
        dst
    }

    /// Sized store.
    pub fn store(&mut self, addr: Reg, src: Reg, width: Width) {
        self.push(Inst::Store { addr, src, width });
    }

    /// Address of a global into a fresh register.
    pub fn addr_of_global(&mut self, global: GlobalId) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::AddrOfGlobal { dst, global });
        dst
    }

    /// Address of a frame slot into a fresh register.
    pub fn addr_of_slot(&mut self, slot: SlotId) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::AddrOfSlot { dst, slot });
        dst
    }

    /// Address of a function into a fresh register.
    pub fn addr_of_func(&mut self, func: FuncId) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::AddrOfFunc { dst, func });
        dst
    }

    /// Emits a call. When `want_ret` is true a fresh destination register
    /// is allocated and returned.
    pub fn call(
        &mut self,
        site: CallSiteId,
        callee: Callee,
        args: Vec<Reg>,
        want_ret: bool,
    ) -> Option<Reg> {
        let dst = if want_ret { Some(self.new_reg()) } else { None };
        self.push(Inst::Call {
            site,
            callee,
            args,
            dst,
        });
        dst
    }

    /// Finishes the function. Any still-open block keeps its implicit
    /// `ret` terminator (the C front end relies on this for functions that
    /// fall off the end).
    pub fn finish(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_straight_line_code() {
        let mut b = FunctionBuilder::new("f", 1);
        let one = b.const_(1);
        let sum = b.bin(BinOp::Add, Reg(0), one);
        b.terminate(Terminator::Return(Some(sum)));
        let f = b.finish();
        assert_eq!(f.num_regs, 3);
        assert_eq!(f.size(), 3);
    }

    #[test]
    fn push_after_terminate_is_dropped() {
        let mut b = FunctionBuilder::new("f", 0);
        b.terminate(Terminator::Return(None));
        b.const_(42); // register allocated, instruction dropped
        b.terminate(Terminator::Halt); // ignored
        let f = b.finish();
        assert!(f.block(BlockId(0)).insts.is_empty());
        assert_eq!(f.block(BlockId(0)).term, Terminator::Return(None));
    }

    #[test]
    fn multi_block_construction() {
        let mut b = FunctionBuilder::new("f", 0);
        let exit = b.new_block();
        let c = b.const_(0);
        b.terminate(Terminator::Branch {
            cond: c,
            then_to: exit,
            else_to: exit,
        });
        b.switch_to(exit);
        assert!(!b.is_terminated());
        b.terminate(Terminator::Return(None));
        let f = b.finish();
        assert_eq!(f.blocks.len(), 2);
    }

    #[test]
    fn call_allocates_dst_only_when_wanted() {
        let mut b = FunctionBuilder::new("f", 0);
        let r = b.call(CallSiteId(0), Callee::Func(FuncId(0)), vec![], true);
        assert!(r.is_some());
        let none = b.call(CallSiteId(1), Callee::Func(FuncId(0)), vec![], false);
        assert!(none.is_none());
    }
}
