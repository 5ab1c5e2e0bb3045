//! The register-bytecode execution engine (DESIGN.md §12).
//!
//! Executes a [`crate::bytecode::Program`] with a tight dispatch loop:
//! one `pc` into a flat op array, a contiguous register file shared by
//! all live frames (no per-call allocation), and profiling counters in
//! dense flat arrays indexed by function/block id. The counters are
//! folded back into the ordinary [`Profile`] when the run ends, so
//! everything downstream — flow residuals, size accounting, profile
//! files and their checksum footer — is untouched.
//!
//! Parity with [`crate::interp`] is bit-exact and enforced by
//! `tests/parity.rs`: same outputs, same profile records, same traps
//! with the same messages at the same step counts, and the same
//! simulated icache access stream.

use std::collections::HashMap;

use impact_il::{CallSiteId, Module};

use crate::bytecode::{lower, BcFunc, Op, Program, NO_REG};
use crate::error::VmError;
use crate::icache::IcacheSim;
use crate::interp::{eval_bin, RunOutcome, VmConfig};
use crate::memory::Memory;
use crate::os::{BuiltinOutcome, NamedFile, Os};
use crate::profile::{ProfTarget, Profile};

/// Dense profiling counters for one run. Scalars and flat arrays only —
/// nothing on the hot path hashes or chases nested vectors. Folded into
/// a [`Profile`] by [`Counters::fold_into`].
struct Counters {
    control_transfers: u64,
    calls: u64,
    returns: u64,
    max_stack_bytes: u64,
    /// Indexed by `FuncId`.
    func_entries: Vec<u64>,
    /// Indexed by raw `CallSiteId`.
    site_counts: Vec<u64>,
    /// Indexed by `BcFunc::block_base + block`.
    block_exec: Vec<u64>,
    /// Same indexing; then-edge counts of `Branch` terminators.
    branch_taken: Vec<u64>,
    /// Indirect-call target distribution (cold path: only
    /// call-through-pointer sites touch it).
    site_targets: HashMap<CallSiteId, HashMap<ProfTarget, u64>>,
}

impl Counters {
    fn new(module: &Module, prog: &Program) -> Self {
        Counters {
            control_transfers: 0,
            calls: 0,
            returns: 0,
            max_stack_bytes: 0,
            func_entries: vec![0; module.functions.len()],
            site_counts: vec![0; module.call_site_limit() as usize],
            block_exec: vec![0; prog.total_blocks as usize],
            branch_taken: vec![0; prog.total_blocks as usize],
            site_targets: HashMap::new(),
        }
    }

    /// Unflattens the dense arrays into the module-shaped [`Profile`].
    fn fold_into(self, profile: &mut Profile, prog: &Program, il_executed: u64) {
        profile.il_executed = il_executed;
        profile.control_transfers = self.control_transfers;
        profile.calls = self.calls;
        profile.returns = self.returns;
        profile.max_stack_bytes = self.max_stack_bytes;
        profile.func_entries = self.func_entries;
        profile.site_counts = self.site_counts;
        profile.site_targets = self.site_targets;
        for (f, meta) in prog.funcs.iter().enumerate() {
            let base = meta.block_base as usize;
            let nblocks = profile.block_counts[f].len();
            profile.block_counts[f].copy_from_slice(&self.block_exec[base..base + nblocks]);
            profile.branch_taken[f].copy_from_slice(&self.branch_taken[base..base + nblocks]);
        }
    }
}

/// A suspended caller, restored on return.
#[derive(Clone, Copy)]
struct SavedFrame {
    func: u32,
    ret_pc: u32,
    base: u32,
    sp: u64,
    /// Caller register receiving the return value (`NO_REG` for none).
    ret_dst: u32,
}

/// Runs `module` on the bytecode engine. Same contract as
/// [`crate::interp`]'s tree-walker — see [`crate::run`].
pub(crate) fn run(
    module: &Module,
    inputs: Vec<NamedFile>,
    args: Vec<String>,
    config: &VmConfig,
) -> Result<RunOutcome, VmError> {
    let _run_span = config.obs.span("vm:run");
    let main = module.main_id().ok_or(VmError::NoMain)?;
    if module.function(main).num_params != 0 {
        return Err(VmError::BadBuiltinCall {
            name: "main".into(),
            reason: "main must take no parameters".into(),
            func: "main".into(),
        });
    }
    // Externs resolve lazily, per call, exactly like the interpreter: a
    // declared-but-never-called unknown extern must not kill the run.
    let builtins: Vec<Result<crate::os::Builtin, VmError>> = module
        .externs
        .iter()
        .map(crate::os::Builtin::resolve)
        .collect();
    let mut mem = Memory::new(module, config.heap_size, config.stack_size);
    if let Some(limit) = config.mem_limit {
        mem.set_quota(limit);
    }
    let prog = {
        let _lower_span = config.obs.span("vm:lower");
        lower(module, &mem)
    };
    let mut os = Os::new(inputs, args).with_fault(config.fault.clone());
    let mut icache = config.icache.as_ref().map(IcacheSim::new);
    let mut counters = Counters::new(module, &prog);

    let fname = |f: u32| module.functions[f as usize].name.clone();

    // Machine state: absolute pc, current function, the contiguous
    // register file (current frame at `regs[base..]`), stack pointer.
    let mut frames: Vec<SavedFrame> = Vec::with_capacity(64);
    let mut regs: Vec<i64> = Vec::with_capacity(256);
    let mut argv: Vec<i64> = Vec::with_capacity(8);
    let mut cur = main.0;
    let mut base = 0usize;
    let stack_top = mem.stack_top();
    let stack_limit = mem.stack_limit();

    // Enter main.
    let mmeta = &prog.funcs[cur as usize];
    let mut sp = stack_top
        .checked_sub(mmeta.frame_size)
        .filter(|&sp| sp >= stack_limit)
        .ok_or_else(|| VmError::StackOverflow { func: fname(cur) })?;
    counters.func_entries[cur as usize] += 1;
    counters.block_exec[mmeta.block_base as usize] += 1;
    counters.max_stack_bytes = stack_top - sp;
    regs.resize(mmeta.num_regs as usize, 0);
    let mut pc = mmeta.entry as usize;

    let max_steps = config.max_steps;
    let mut steps: u64 = 0;

    macro_rules! step_limit_check {
        () => {
            if steps >= max_steps {
                return Err(VmError::StepLimitExceeded {
                    limit: max_steps,
                    func: fname(cur),
                });
            }
        };
    }
    // The next IL slot of a fused op (`off` bytes past the first):
    // count the slot just executed, re-check the limit, and fetch.
    macro_rules! fused_next_slot {
        (true, $off:expr) => {
            steps += 1;
            step_limit_check!();
            if let Some(sim) = icache.as_mut() {
                sim.access(prog.addrs[pc] + $off);
            }
        };
        (false, $off:expr) => {
            steps += 1;
            step_limit_check!();
        };
    }

    // The dispatch loop is instantiated twice — with and without the
    // icache simulator — so the common (un-simulated) path carries no
    // per-slot `Option` check or synthetic-address fetch. Both copies
    // come from the one macro body below; only the `$icache:literal`
    // differs.
    macro_rules! dispatch_loop {
        ($icache:tt) => {
            loop {
                step_limit_check!();
                if $icache {
                    if let Some(sim) = icache.as_mut() {
                        sim.access(prog.addrs[pc]);
                    }
                }
                match &prog.ops[pc] {
                    Op::Const { dst, value } => {
                        regs[base + *dst as usize] = *value;
                        pc += 1;
                        steps += 1;
                    }
                    Op::Mov { dst, src } => {
                        regs[base + *dst as usize] = regs[base + *src as usize];
                        pc += 1;
                        steps += 1;
                    }
                    Op::Un { op, dst, src } => {
                        regs[base + *dst as usize] = op.eval(regs[base + *src as usize]);
                        pc += 1;
                        steps += 1;
                    }
                    Op::Bin { op, dst, lhs, rhs } => {
                        let a = regs[base + *lhs as usize];
                        let b = regs[base + *rhs as usize];
                        regs[base + *dst as usize] =
                            eval_bin(*op, a, b, &module.functions[cur as usize].name)?;
                        pc += 1;
                        steps += 1;
                    }
                    Op::Cmp { op, dst, lhs, rhs } => {
                        let a = regs[base + *lhs as usize];
                        let b = regs[base + *rhs as usize];
                        regs[base + *dst as usize] = op.eval(a, b) as i64;
                        pc += 1;
                        steps += 1;
                    }
                    Op::AddrOfSlot { dst, off } => {
                        regs[base + *dst as usize] = (sp + off) as i64;
                        pc += 1;
                        steps += 1;
                    }
                    Op::Ext {
                        dst,
                        src,
                        width,
                        signed,
                    } => {
                        let v = regs[base + *src as usize];
                        regs[base + *dst as usize] = width.extend(v, *signed);
                        pc += 1;
                        steps += 1;
                    }
                    Op::Load {
                        dst,
                        addr,
                        width,
                        signed,
                    } => {
                        let a = regs[base + *addr as usize] as u64;
                        regs[base + *dst as usize] =
                            mem.load(a, *width, *signed, &module.functions[cur as usize].name)?;
                        pc += 1;
                        steps += 1;
                    }
                    Op::Store { addr, src, width } => {
                        let a = regs[base + *addr as usize] as u64;
                        let v = regs[base + *src as usize];
                        mem.store(a, v, *width, &module.functions[cur as usize].name)?;
                        pc += 1;
                        steps += 1;
                    }
                    Op::CallFunc {
                        func,
                        site,
                        args,
                        dst,
                    } => {
                        steps += 1;
                        counters.calls += 1;
                        counters.site_counts[*site as usize] += 1;
                        argv.clear();
                        argv.extend(args.iter().map(|&r| regs[base + r as usize]));
                        let callee = *func;
                        let meta = &prog.funcs[callee as usize];
                        let new_sp = sp
                            .checked_sub(meta.frame_size)
                            .filter(|&s| s >= stack_limit)
                            .ok_or_else(|| VmError::StackOverflow {
                                func: fname(callee),
                            })?;
                        enter(
                            &mut counters,
                            &mut frames,
                            &mut regs,
                            meta,
                            callee,
                            &argv,
                            SavedFrame {
                                func: cur,
                                ret_pc: (pc + 1) as u32,
                                base: base as u32,
                                sp,
                                ret_dst: *dst,
                            },
                            &mut base,
                            stack_top,
                            new_sp,
                        );
                        cur = callee;
                        sp = new_sp;
                        pc = meta.entry as usize;
                    }
                    Op::CallExt {
                        ext,
                        site,
                        args,
                        dst,
                    } => {
                        steps += 1;
                        counters.calls += 1;
                        counters.site_counts[*site as usize] += 1;
                        argv.clear();
                        argv.extend(args.iter().map(|&r| regs[base + r as usize]));
                        let f = &module.functions[cur as usize].name;
                        let b = match &builtins[*ext as usize] {
                            Ok(b) => *b,
                            Err(e) => return Err(e.clone().attributed_to(f)),
                        };
                        match os.call(b, &argv, &mut mem, f)? {
                            BuiltinOutcome::Value(v) => {
                                if *dst != NO_REG {
                                    regs[base + *dst as usize] = v.unwrap_or(0);
                                }
                                pc += 1;
                            }
                            BuiltinOutcome::Exit(code) => break code,
                        }
                    }
                    Op::CallReg {
                        reg,
                        site,
                        args,
                        dst,
                    } => {
                        steps += 1;
                        counters.calls += 1;
                        counters.site_counts[*site as usize] += 1;
                        argv.clear();
                        argv.extend(args.iter().map(|&r| regs[base + r as usize]));
                        let raw = regs[base + *reg as usize];
                        let target = Memory::decode_func_ptr(
                            raw,
                            module.functions.len(),
                            &module.functions[cur as usize].name,
                        )?;
                        let callee_fn = module.function(target);
                        if callee_fn.num_params as usize != argv.len() {
                            return Err(VmError::IndirectArityMismatch {
                                callee: callee_fn.name.clone(),
                                passed: argv.len(),
                                expected: callee_fn.num_params as usize,
                            });
                        }
                        counters
                            .site_targets
                            .entry(CallSiteId(*site))
                            .or_default()
                            .entry(ProfTarget::Func(target))
                            .and_modify(|n| *n += 1)
                            .or_insert(1);
                        let callee = target.0;
                        let meta = &prog.funcs[callee as usize];
                        let new_sp = sp
                            .checked_sub(meta.frame_size)
                            .filter(|&s| s >= stack_limit)
                            .ok_or_else(|| VmError::StackOverflow {
                                func: fname(callee),
                            })?;
                        enter(
                            &mut counters,
                            &mut frames,
                            &mut regs,
                            meta,
                            callee,
                            &argv,
                            SavedFrame {
                                func: cur,
                                ret_pc: (pc + 1) as u32,
                                base: base as u32,
                                sp,
                                ret_dst: *dst,
                            },
                            &mut base,
                            stack_top,
                            new_sp,
                        );
                        cur = callee;
                        sp = new_sp;
                        pc = meta.entry as usize;
                    }
                    Op::Jump { to, flat } => {
                        steps += 1;
                        counters.control_transfers += 1;
                        counters.block_exec[*flat as usize] += 1;
                        pc = *to as usize;
                    }
                    Op::Branch {
                        cond,
                        then_to,
                        else_to,
                        then_flat,
                        else_flat,
                        here,
                    } => {
                        steps += 1;
                        counters.control_transfers += 1;
                        if regs[base + *cond as usize] != 0 {
                            counters.branch_taken[*here as usize] += 1;
                            counters.block_exec[*then_flat as usize] += 1;
                            pc = *then_to as usize;
                        } else {
                            counters.block_exec[*else_flat as usize] += 1;
                            pc = *else_to as usize;
                        }
                    }
                    Op::Return { src } => {
                        steps += 1;
                        counters.returns += 1;
                        let value = if *src == NO_REG {
                            0
                        } else {
                            regs[base + *src as usize]
                        };
                        match frames.pop() {
                            Some(saved) => {
                                regs.truncate(base);
                                cur = saved.func;
                                base = saved.base as usize;
                                sp = saved.sp;
                                pc = saved.ret_pc as usize;
                                if saved.ret_dst != NO_REG {
                                    regs[base + saved.ret_dst as usize] = value;
                                }
                            }
                            None => break value,
                        }
                    }
                    Op::Halt => {
                        steps += 1;
                        break 0;
                    }
                    Op::CmpBranch {
                        op,
                        dst,
                        lhs,
                        rhs,
                        then_to,
                        else_to,
                        then_flat,
                        else_flat,
                        here,
                    } => {
                        let a = regs[base + *lhs as usize];
                        let b = regs[base + *rhs as usize];
                        let taken = op.eval(a, b);
                        regs[base + *dst as usize] = taken as i64;
                        fused_next_slot!($icache, 4);
                        steps += 1;
                        counters.control_transfers += 1;
                        if taken {
                            counters.branch_taken[*here as usize] += 1;
                            counters.block_exec[*then_flat as usize] += 1;
                            pc = *then_to as usize;
                        } else {
                            counters.block_exec[*else_flat as usize] += 1;
                            pc = *else_to as usize;
                        }
                    }
                    Op::ConstBin {
                        op,
                        dst,
                        lhs,
                        imm,
                        tmp,
                    } => {
                        regs[base + *tmp as usize] = *imm;
                        fused_next_slot!($icache, 4);
                        let a = regs[base + *lhs as usize];
                        regs[base + *dst as usize] =
                            eval_bin(*op, a, *imm, &module.functions[cur as usize].name)?;
                        pc += 1;
                        steps += 1;
                    }
                    Op::MovJump { dst, src, to, flat } => {
                        regs[base + *dst as usize] = regs[base + *src as usize];
                        fused_next_slot!($icache, 4);
                        steps += 1;
                        counters.control_transfers += 1;
                        counters.block_exec[*flat as usize] += 1;
                        pc = *to as usize;
                    }
                    Op::ConstCmp {
                        op,
                        dst,
                        lhs,
                        imm,
                        tmp,
                    } => {
                        regs[base + *tmp as usize] = *imm;
                        fused_next_slot!($icache, 4);
                        let a = regs[base + *lhs as usize];
                        regs[base + *dst as usize] = op.eval(a, *imm) as i64;
                        pc += 1;
                        steps += 1;
                    }
                    Op::ConstLoad {
                        dst,
                        value,
                        tmp,
                        width,
                        signed,
                    } => {
                        regs[base + *tmp as usize] = *value;
                        fused_next_slot!($icache, 4);
                        regs[base + *dst as usize] = mem.load(
                            *value as u64,
                            *width,
                            *signed,
                            &module.functions[cur as usize].name,
                        )?;
                        pc += 1;
                        steps += 1;
                    }
                    Op::ConstCmpBranch {
                        op,
                        dst,
                        lhs,
                        imm,
                        tmp,
                        then_to,
                        else_to,
                        then_flat,
                        else_flat,
                        here,
                    } => {
                        regs[base + *tmp as usize] = *imm;
                        fused_next_slot!($icache, 4);
                        let a = regs[base + *lhs as usize];
                        let taken = op.eval(a, *imm);
                        regs[base + *dst as usize] = taken as i64;
                        fused_next_slot!($icache, 8);
                        steps += 1;
                        counters.control_transfers += 1;
                        if taken {
                            counters.branch_taken[*here as usize] += 1;
                            counters.block_exec[*then_flat as usize] += 1;
                            pc = *then_to as usize;
                        } else {
                            counters.block_exec[*else_flat as usize] += 1;
                            pc = *else_to as usize;
                        }
                    }
                    Op::ConstConstBin {
                        op,
                        dst,
                        lhs,
                        imm1,
                        tmp1,
                        imm2,
                        tmp2,
                    } => {
                        regs[base + *tmp1 as usize] = *imm1;
                        fused_next_slot!($icache, 4);
                        regs[base + *tmp2 as usize] = *imm2;
                        fused_next_slot!($icache, 8);
                        let a = regs[base + *lhs as usize];
                        regs[base + *dst as usize] =
                            eval_bin(*op, a, *imm2, &module.functions[cur as usize].name)?;
                        pc += 1;
                        steps += 1;
                    }
                    Op::BinLoad {
                        op,
                        tmp,
                        lhs,
                        rhs,
                        dst,
                        width,
                        signed,
                    } => {
                        let a = regs[base + *lhs as usize];
                        let b = regs[base + *rhs as usize];
                        let addr = eval_bin(*op, a, b, &module.functions[cur as usize].name)?;
                        regs[base + *tmp as usize] = addr;
                        fused_next_slot!($icache, 4);
                        regs[base + *dst as usize] = mem.load(
                            addr as u64,
                            *width,
                            *signed,
                            &module.functions[cur as usize].name,
                        )?;
                        pc += 1;
                        steps += 1;
                    }
                }
            }
        };
    }
    let exit_code: i64 = if icache.is_some() {
        dispatch_loop!(true)
    } else {
        dispatch_loop!(false)
    };

    let (stdout, stderr, files) = os.into_outputs();
    let icache = icache.map(|sim| sim.stats());
    let mut profile = Profile::for_module(module);
    profile.runs = 1;
    counters.fold_into(&mut profile, &prog, steps);
    if config.obs.is_enabled() {
        config.obs.count("vm:il_executed", profile.il_executed);
        config
            .obs
            .count("vm:control_transfers", profile.control_transfers);
        config.obs.count("vm:calls", profile.calls);
        config.obs.count("vm:returns", profile.returns);
        if let Some(stats) = &icache {
            config.obs.count("vm:icache_accesses", stats.accesses);
            config.obs.count("vm:icache_misses", stats.misses);
        }
    }
    Ok(RunOutcome {
        exit_code,
        stdout,
        stderr,
        files,
        profile,
        icache,
    })
}

/// Pushes the caller's state and lays out the callee's frame at the end
/// of the shared register file (no allocation once the file is warm).
#[allow(clippy::too_many_arguments)]
fn enter(
    counters: &mut Counters,
    frames: &mut Vec<SavedFrame>,
    regs: &mut Vec<i64>,
    meta: &BcFunc,
    callee: u32,
    argv: &[i64],
    saved: SavedFrame,
    base: &mut usize,
    stack_top: u64,
    new_sp: u64,
) {
    counters.func_entries[callee as usize] += 1;
    counters.block_exec[meta.block_base as usize] += 1;
    let used = stack_top - new_sp;
    if used > counters.max_stack_bytes {
        counters.max_stack_bytes = used;
    }
    frames.push(saved);
    let new_base = regs.len();
    regs.resize(new_base + meta.num_regs as usize, 0);
    regs[new_base..new_base + argv.len()].copy_from_slice(argv);
    *base = new_base;
}
