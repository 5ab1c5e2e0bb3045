//! Lowering IL into the flat register bytecode (DESIGN.md §12).
//!
//! The tree-walking interpreter pays for the IL's nested structure on
//! every step: a frame lookup, a function lookup, a block lookup, and a
//! bounds-checked instruction fetch. This module flattens a
//! [`Module`] once per run into a single [`Vec<Op>`] — functions laid
//! out back to back, blocks erased, every jump and call destination
//! pre-resolved to an absolute code index — so the dispatch loop in
//! [`crate::exec`] touches exactly one array per step.
//!
//! Lowering also performs **superinstruction fusion** for the hottest
//! adjacent pairs ("dyads") and triples in profiled runs:
//! compare-and-branch (every loop back edge), load-immediate-into-
//! binop or -compare, global reads, array-subscript loads, and the copy
//! before a jump. Each fused op runs at least 3.9% of the paper
//! programs' dispatches (DESIGN.md §12). Fused ops execute every slot in
//! one dispatch but still count one IL instruction per slot, check the
//! step limit between slots, and issue every simulated icache fetch, so
//! profiles and traps stay bit-identical to the interpreter's.

use impact_il::{BinOp, Callee, CmpOp, Inst, Module, Terminator, UnOp, Width};

use crate::memory::Memory;

/// Register sentinel meaning "no destination register".
pub(crate) const NO_REG: u32 = u32::MAX;

/// One pre-decoded bytecode operation.
///
/// Register operands are frame-relative indices (`u32`, not
/// [`impact_il::Reg`], so the executor never converts). Jump fields
/// (`to`, `then_to`, `else_to`) are absolute indices into
/// [`Program::ops`]; `flat`/`here` fields are flat block-counter
/// indices (`BcFunc::block_base + block`) for the dense profiling
/// arrays.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// `dst = value`. Also lowered from `AddrOfGlobal` (the global's
    /// address is resolved at lowering time) and `AddrOfFunc` (the
    /// encoded function pointer is a constant).
    Const { dst: u32, value: i64 },
    /// `dst = src`.
    Mov { dst: u32, src: u32 },
    /// `dst = op src`.
    Un { op: UnOp, dst: u32, src: u32 },
    /// `dst = lhs op rhs`.
    Bin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `dst = (lhs op rhs) as 0/1`.
    Cmp {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
    },
    /// `dst = sp + off` — address of a stack slot (offset pre-resolved).
    AddrOfSlot { dst: u32, off: u64 },
    /// `dst = extend(truncate(src))`.
    Ext {
        dst: u32,
        src: u32,
        width: Width,
        signed: bool,
    },
    /// `dst = *(width*)regs[addr]`.
    Load {
        dst: u32,
        addr: u32,
        width: Width,
        signed: bool,
    },
    /// `*(width*)regs[addr] = regs[src]`.
    Store { addr: u32, src: u32, width: Width },
    /// Direct call to a user function (`dst == NO_REG` for none).
    CallFunc {
        func: u32,
        site: u32,
        args: Box<[u32]>,
        dst: u32,
    },
    /// Call to an external builtin.
    CallExt {
        ext: u32,
        site: u32,
        args: Box<[u32]>,
        dst: u32,
    },
    /// Indirect call through a function pointer in a register.
    CallReg {
        reg: u32,
        site: u32,
        args: Box<[u32]>,
        dst: u32,
    },
    /// Unconditional jump to absolute index `to` (entering flat block
    /// `flat`).
    Jump { to: u32, flat: u32 },
    /// Conditional branch; `here` is the flat index of the block this
    /// terminator belongs to (for taken-direction counting).
    Branch {
        cond: u32,
        then_to: u32,
        else_to: u32,
        then_flat: u32,
        else_flat: u32,
        here: u32,
    },
    /// Return (`src == NO_REG` returns 0).
    Return { src: u32 },
    /// Stop the program with exit code 0.
    Halt,
    /// Superinstruction: `Cmp` whose result feeds the block's own
    /// `Branch` terminator. Still writes `dst` (a later block may read
    /// the flag register).
    CmpBranch {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        rhs: u32,
        then_to: u32,
        else_to: u32,
        then_flat: u32,
        else_flat: u32,
        here: u32,
    },
    /// Superinstruction: `Const tmp, imm` + `Bin dst, lhs, tmp`. The
    /// immediate is still materialized into `tmp` first, so register
    /// state (and an `lhs == tmp` read) matches the unfused pair.
    ConstBin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        imm: i64,
        tmp: u32,
    },
    /// Superinstruction: `Mov dst, src` + the block's own `Jump`
    /// (cfront-style code copies a value out right before every back
    /// edge and join).
    MovJump {
        dst: u32,
        src: u32,
        to: u32,
        flat: u32,
    },
    /// Superinstruction: `Const tmp, imm` + `Cmp dst, lhs, tmp` — in
    /// this IL dialect nearly every comparison is against an immediate.
    ConstCmp {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        imm: i64,
        tmp: u32,
    },
    /// Superinstruction: `Const tmp, addr` + `Load dst, [tmp]` — a load
    /// from an absolute address, i.e. every global-variable read
    /// (`AddrOfGlobal` lowers to `Const`).
    ConstLoad {
        dst: u32,
        value: i64,
        tmp: u32,
        width: Width,
        signed: bool,
    },
    /// Three-slot superinstruction: `Const tmp, imm` + `Cmp dst, lhs,
    /// tmp` + the block's own `Branch` on `dst` — the canonical loop
    /// exit test. Counts three IL slots with a step-limit check and an
    /// icache fetch per slot.
    ConstCmpBranch {
        op: CmpOp,
        dst: u32,
        lhs: u32,
        imm: i64,
        tmp: u32,
        then_to: u32,
        else_to: u32,
        then_flat: u32,
        else_flat: u32,
        here: u32,
    },
    /// Three-slot superinstruction: two consecutive const-producing
    /// instructions feeding a `Bin` through its rhs. Both immediates
    /// are still materialized, in order, so any alias between `tmp1`,
    /// `tmp2`, and `lhs` reads exactly what the unfused sequence would.
    ConstConstBin {
        op: BinOp,
        dst: u32,
        lhs: u32,
        imm1: i64,
        tmp1: u32,
        imm2: i64,
        tmp2: u32,
    },
    /// Superinstruction: `Bin tmp, lhs, rhs` + `Load dst, [tmp]` — the
    /// address arithmetic of every array subscript.
    BinLoad {
        op: BinOp,
        tmp: u32,
        lhs: u32,
        rhs: u32,
        dst: u32,
        width: Width,
        signed: bool,
    },
}

/// Per-function metadata the executor needs to enter a frame.
#[derive(Clone, Debug)]
pub(crate) struct BcFunc {
    /// Absolute index of the entry block's first op.
    pub entry: u32,
    /// Frame size in bytes, already rounded like the interpreter does.
    pub frame_size: u64,
    /// Virtual register count (frame width in the register file).
    pub num_regs: u32,
    /// Flat block-counter index of this function's block 0.
    pub block_base: u32,
}

/// A whole module lowered to bytecode.
pub(crate) struct Program {
    /// The flat code array, all functions back to back.
    pub ops: Vec<Op>,
    /// Synthetic code address of each op's first IL slot, matching the
    /// interpreter's icache layout exactly (4 bytes per IL slot,
    /// functions back to back in `FuncId` order, one slot per
    /// terminator). A fused op's second half lives at `addrs[pc] + 4`.
    pub addrs: Vec<u64>,
    /// Per-function metadata, indexed by `FuncId`.
    pub funcs: Vec<BcFunc>,
    /// Total flat block count (size of the dense per-block counters).
    pub total_blocks: u32,
}

/// Treats const-producing instructions uniformly for fusion: `Const`,
/// `AddrOfGlobal` (address known at lowering time), `AddrOfFunc`.
fn const_value(inst: &Inst, mem: &Memory) -> Option<(u32, i64)> {
    match inst {
        Inst::Const { dst, value } => Some((dst.0, *value)),
        Inst::AddrOfGlobal { dst, global } => Some((dst.0, mem.global_addr(*global) as i64)),
        Inst::AddrOfFunc { dst, func } => Some((dst.0, Memory::encode_func_ptr(*func))),
        _ => None,
    }
}

/// Lowers `module` into a flat [`Program`].
///
/// Global addresses are resolved against `mem`, which must be the
/// memory the program will run in.
pub(crate) fn lower(module: &Module, mem: &Memory) -> Program {
    let mut ops: Vec<Op> = Vec::new();
    let mut addrs: Vec<u64> = Vec::new();
    let mut funcs: Vec<BcFunc> = Vec::with_capacity(module.functions.len());
    let mut block_base = 0u32;
    // Same synthetic layout as the interpreter: one 4-byte slot per IL
    // instruction or terminator, functions back to back.
    let mut code_cursor = 0u64;

    for f in &module.functions {
        let entry = ops.len() as u32;
        let nblocks = f.blocks.len();
        let slot_offsets = f.slot_offsets();
        // Absolute op index of each block, filled in as blocks are
        // emitted; jumps forward are patched afterwards.
        let mut block_pc = vec![u32::MAX; nblocks];
        // Op indices whose block-id jump targets need patching.
        let mut fixups: Vec<usize> = Vec::new();
        let flat = |b: u32| block_base + b;

        for (bi, block) in f.blocks.iter().enumerate() {
            block_pc[bi] = ops.len() as u32;
            let mut slot_addr = code_cursor;
            let mut i = 0;
            let n = block.insts.len();
            let mut term_fused = false;
            while i < n {
                let inst = &block.insts[i];
                let next = block.insts.get(i + 1);
                // Three-slot fusion across the terminator boundary:
                // const + compare + branch.
                if let (
                    Some((t, imm)),
                    Some(Inst::Cmp { op, dst, lhs, rhs }),
                    Terminator::Branch {
                        cond,
                        then_to,
                        else_to,
                    },
                ) = (const_value(inst, mem), next, &block.term)
                {
                    if i + 2 == n && cond == dst && rhs.0 == t {
                        fixups.push(ops.len());
                        ops.push(Op::ConstCmpBranch {
                            op: *op,
                            dst: dst.0,
                            lhs: lhs.0,
                            imm,
                            tmp: t,
                            then_to: then_to.0,
                            else_to: else_to.0,
                            then_flat: flat(then_to.0),
                            else_flat: flat(else_to.0),
                            here: flat(bi as u32),
                        });
                        addrs.push(slot_addr);
                        slot_addr += 12;
                        i += 2;
                        term_fused = true;
                        continue;
                    }
                }
                // Three-slot fusion inside the block: two consts
                // feeding a Bin through its rhs.
                if let (Some((t1, imm1)), Some(n1), Some(Inst::Bin { op, dst, lhs, rhs })) =
                    (const_value(inst, mem), next, block.insts.get(i + 2))
                {
                    if let Some((t2, imm2)) = const_value(n1, mem) {
                        if rhs.0 == t2 {
                            ops.push(Op::ConstConstBin {
                                op: *op,
                                dst: dst.0,
                                lhs: lhs.0,
                                imm1,
                                tmp1: t1,
                                imm2,
                                tmp2: t2,
                            });
                            addrs.push(slot_addr);
                            slot_addr += 12;
                            i += 3;
                            continue;
                        }
                    }
                }
                // Fusion candidates, most specific first. Every fused
                // op consumes two IL slots.
                let fused: Option<Op> = match (inst, next) {
                    (inst, Some(Inst::Bin { op, dst, lhs, rhs })) => const_value(inst, mem)
                        .and_then(|(t, imm)| {
                            (rhs.0 == t).then_some(Op::ConstBin {
                                op: *op,
                                dst: dst.0,
                                lhs: lhs.0,
                                imm,
                                tmp: t,
                            })
                        }),
                    (inst, Some(Inst::Cmp { op, dst, lhs, rhs })) => const_value(inst, mem)
                        .and_then(|(t, imm)| {
                            (rhs.0 == t).then_some(Op::ConstCmp {
                                op: *op,
                                dst: dst.0,
                                lhs: lhs.0,
                                imm,
                                tmp: t,
                            })
                        }),
                    (
                        Inst::Bin {
                            op,
                            dst: t,
                            lhs,
                            rhs,
                        },
                        Some(Inst::Load {
                            dst,
                            addr,
                            width,
                            signed,
                        }),
                    ) if addr == t => Some(Op::BinLoad {
                        op: *op,
                        tmp: t.0,
                        lhs: lhs.0,
                        rhs: rhs.0,
                        dst: dst.0,
                        width: *width,
                        signed: *signed,
                    }),
                    (
                        inst,
                        Some(Inst::Load {
                            dst,
                            addr,
                            width,
                            signed,
                        }),
                    ) => const_value(inst, mem).and_then(|(t, value)| {
                        (addr.0 == t).then_some(Op::ConstLoad {
                            dst: dst.0,
                            value,
                            tmp: t,
                            width: *width,
                            signed: *signed,
                        })
                    }),
                    _ => None,
                };
                if let Some(op) = fused {
                    ops.push(op);
                    addrs.push(slot_addr);
                    slot_addr += 8;
                    i += 2;
                    continue;
                }
                // A final Mov or Cmp fuses across the
                // instruction/terminator boundary.
                if i + 1 == n {
                    if let (Inst::Mov { dst, src }, Terminator::Jump(b)) = (inst, &block.term) {
                        fixups.push(ops.len());
                        ops.push(Op::MovJump {
                            dst: dst.0,
                            src: src.0,
                            to: b.0,
                            flat: flat(b.0),
                        });
                        addrs.push(slot_addr);
                        slot_addr += 8;
                        i += 1;
                        term_fused = true;
                        continue;
                    }
                    if let (
                        Inst::Cmp { op, dst, lhs, rhs },
                        Terminator::Branch {
                            cond,
                            then_to,
                            else_to,
                        },
                    ) = (inst, &block.term)
                    {
                        if cond == dst {
                            fixups.push(ops.len());
                            ops.push(Op::CmpBranch {
                                op: *op,
                                dst: dst.0,
                                lhs: lhs.0,
                                rhs: rhs.0,
                                then_to: then_to.0,
                                else_to: else_to.0,
                                then_flat: flat(then_to.0),
                                else_flat: flat(else_to.0),
                                here: flat(bi as u32),
                            });
                            addrs.push(slot_addr);
                            slot_addr += 8;
                            i += 1;
                            term_fused = true;
                            continue;
                        }
                    }
                }
                let op = match inst {
                    Inst::Const { dst, value } => Op::Const {
                        dst: dst.0,
                        value: *value,
                    },
                    Inst::Mov { dst, src } => Op::Mov {
                        dst: dst.0,
                        src: src.0,
                    },
                    Inst::Un { op, dst, src } => Op::Un {
                        op: *op,
                        dst: dst.0,
                        src: src.0,
                    },
                    Inst::Bin { op, dst, lhs, rhs } => Op::Bin {
                        op: *op,
                        dst: dst.0,
                        lhs: lhs.0,
                        rhs: rhs.0,
                    },
                    Inst::Cmp { op, dst, lhs, rhs } => Op::Cmp {
                        op: *op,
                        dst: dst.0,
                        lhs: lhs.0,
                        rhs: rhs.0,
                    },
                    Inst::AddrOfGlobal { dst, global } => Op::Const {
                        dst: dst.0,
                        value: mem.global_addr(*global) as i64,
                    },
                    Inst::AddrOfSlot { dst, slot } => Op::AddrOfSlot {
                        dst: dst.0,
                        off: slot_offsets[slot.index()],
                    },
                    Inst::AddrOfFunc { dst, func } => Op::Const {
                        dst: dst.0,
                        value: Memory::encode_func_ptr(*func),
                    },
                    Inst::Ext {
                        dst,
                        src,
                        width,
                        signed,
                    } => Op::Ext {
                        dst: dst.0,
                        src: src.0,
                        width: *width,
                        signed: *signed,
                    },
                    Inst::Load {
                        dst,
                        addr,
                        width,
                        signed,
                    } => Op::Load {
                        dst: dst.0,
                        addr: addr.0,
                        width: *width,
                        signed: *signed,
                    },
                    Inst::Store { addr, src, width } => Op::Store {
                        addr: addr.0,
                        src: src.0,
                        width: *width,
                    },
                    Inst::Call {
                        site,
                        callee,
                        args,
                        dst,
                    } => {
                        let args: Box<[u32]> = args.iter().map(|r| r.0).collect();
                        let dst = dst.map_or(NO_REG, |r| r.0);
                        match callee {
                            Callee::Func(f) => Op::CallFunc {
                                func: f.0,
                                site: site.0,
                                args,
                                dst,
                            },
                            Callee::Ext(x) => Op::CallExt {
                                ext: x.0,
                                site: site.0,
                                args,
                                dst,
                            },
                            Callee::Reg(r) => Op::CallReg {
                                reg: r.0,
                                site: site.0,
                                args,
                                dst,
                            },
                        }
                    }
                };
                ops.push(op);
                addrs.push(slot_addr);
                slot_addr += 4;
                i += 1;
            }
            if !term_fused {
                let op = match &block.term {
                    Terminator::Jump(b) => {
                        fixups.push(ops.len());
                        Op::Jump {
                            to: b.0,
                            flat: flat(b.0),
                        }
                    }
                    Terminator::Branch {
                        cond,
                        then_to,
                        else_to,
                    } => {
                        fixups.push(ops.len());
                        Op::Branch {
                            cond: cond.0,
                            then_to: then_to.0,
                            else_to: else_to.0,
                            then_flat: flat(then_to.0),
                            else_flat: flat(else_to.0),
                            here: flat(bi as u32),
                        }
                    }
                    Terminator::Return(v) => Op::Return {
                        src: v.map_or(NO_REG, |r| r.0),
                    },
                    Terminator::Halt => Op::Halt,
                };
                ops.push(op);
                addrs.push(slot_addr);
            }
            code_cursor += 4 * (n as u64 + 1);
        }

        // Resolve this function's block-id jump targets to absolute
        // op indices.
        for idx in fixups {
            match &mut ops[idx] {
                Op::Jump { to, .. } | Op::MovJump { to, .. } => *to = block_pc[*to as usize],
                Op::Branch {
                    then_to, else_to, ..
                }
                | Op::CmpBranch {
                    then_to, else_to, ..
                }
                | Op::ConstCmpBranch {
                    then_to, else_to, ..
                } => {
                    *then_to = block_pc[*then_to as usize];
                    *else_to = block_pc[*else_to as usize];
                }
                _ => unreachable!("fixup recorded for a non-jump op"),
            }
        }

        funcs.push(BcFunc {
            entry,
            frame_size: f.frame_size().next_multiple_of(16),
            num_regs: f.num_regs,
            block_base,
        });
        block_base += nblocks as u32;
    }

    Program {
        ops,
        addrs,
        funcs,
        total_blocks: block_base,
    }
}
