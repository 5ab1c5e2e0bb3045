//! The IL interpreter with profiling instrumentation.
//!
//! Execution counts every instruction and terminator as one intermediate
//! instruction (the paper's `IL's`), every executed jump/branch as one
//! control transfer, and every call instruction as one dynamic call, while
//! recording node weights (function entries) and arc weights (call-site
//! counts) for the weighted call graph.

use impact_il::{BinOp, Callee, CmpOp, FuncId, Inst, Module, Reg, Terminator, Width};

use crate::error::VmError;
use crate::fault::FaultPlan;
use crate::icache::{IcacheConfig, IcacheSim, IcacheStats};
use crate::memory::Memory;
use crate::os::{BuiltinOutcome, NamedFile, Os};
use crate::profile::{ProfTarget, Profile};

/// Selects which execution engine runs the module.
///
/// Both engines implement identical semantics — same outputs, same
/// profile records, same traps with the same messages at the same step
/// counts, same simulated icache stream — enforced by the differential
/// parity suite (`tests/parity.rs`). The choice therefore never affects
/// results, only wall-clock, and is excluded from campaign fingerprints
/// and cache keys like the telemetry flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// The tree-walking interpreter over IL structure — the reference
    /// semantics, kept as the differential baseline.
    Interp,
    /// The flat register-bytecode engine (default): pre-lowered code
    /// with absolute jump targets, superinstructions, and dense
    /// profiling counters. See `DESIGN.md` §12.
    #[default]
    Bytecode,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "interp" => Ok(Engine::Interp),
            "bytecode" => Ok(Engine::Bytecode),
            other => Err(format!(
                "unknown engine `{other}`; expected `interp` or `bytecode`"
            )),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Interp => "interp",
            Engine::Bytecode => "bytecode",
        })
    }
}

/// Resource limits and sizes for one run.
#[derive(Clone, Debug)]
pub struct VmConfig {
    /// Maximum executed IL instructions before the run is aborted.
    pub max_steps: u64,
    /// Heap segment size in bytes.
    pub heap_size: u64,
    /// Stack segment size in bytes.
    pub stack_size: u64,
    /// Heap allocation quota in bytes (the `--mem-limit` governor knob):
    /// total `__malloc`'d bytes may not exceed this, independent of the
    /// segment size. `None` leaves only the segment bound.
    pub mem_limit: Option<u64>,
    /// When set, replay the dynamic instruction stream through a
    /// simulated instruction cache (see [`crate::IcacheSim`]); adds
    /// roughly 2x interpretation overhead.
    pub icache: Option<IcacheConfig>,
    /// Armed failpoints (`vm:oom`, ...); empty by default. Shared with
    /// the rest of the pipeline so hit counts are global (see
    /// [`FaultPlan`]).
    pub fault: FaultPlan,
    /// Pipeline telemetry sink. Disabled by default: the interpreter
    /// then records nothing and reads no clock.
    pub obs: impact_obs::Telemetry,
    /// Which execution engine to use. Defaults to [`Engine::Bytecode`];
    /// the choice cannot affect any observable result (see [`Engine`]).
    pub engine: Engine,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            max_steps: 2_000_000_000,
            heap_size: 32 << 20,
            stack_size: 4 << 20,
            mem_limit: None,
            icache: None,
            fault: FaultPlan::default(),
            obs: impact_obs::Telemetry::disabled(),
            engine: Engine::default(),
        }
    }
}

/// The result of a completed run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `main`'s return value, or the argument of `__exit`.
    pub exit_code: i64,
    /// Bytes written to stdout.
    pub stdout: Vec<u8>,
    /// Bytes written to stderr.
    pub stderr: Vec<u8>,
    /// Files created with `__creat`, with their contents.
    pub files: Vec<(String, Vec<u8>)>,
    /// The execution profile of this run (`runs == 1`).
    pub profile: Profile,
    /// Instruction-cache statistics, when [`VmConfig::icache`] was set.
    pub icache: Option<IcacheStats>,
}

struct Frame {
    func: FuncId,
    block: usize,
    inst: usize,
    regs: Vec<i64>,
    sp: u64,
    ret_dst: Option<Reg>,
}

struct FuncMeta {
    frame_size: u64,
    slot_offsets: Vec<u64>,
    /// Synthetic code address of the function's first instruction
    /// (functions laid out back to back, 4 bytes per IL instruction).
    code_base: u64,
    /// Instruction-slot offset of each block within the function.
    block_offsets: Vec<u64>,
}

/// Runs `module` from `main` to completion under `config`, with the given
/// input files and program arguments, on the engine selected by
/// [`VmConfig::engine`].
///
/// # Errors
///
/// Returns a [`VmError`] on any trap (wild memory access, division by
/// zero, stack overflow, step-limit exhaustion, unknown extern, abort).
pub fn run(
    module: &Module,
    inputs: Vec<NamedFile>,
    args: Vec<String>,
    config: &VmConfig,
) -> Result<RunOutcome, VmError> {
    match config.engine {
        Engine::Interp => run_interp(module, inputs, args, config),
        Engine::Bytecode => crate::exec::run(module, inputs, args, config),
    }
}

/// The tree-walking reference interpreter over the IL structure.
fn run_interp(
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
    // Externs resolve lazily, per call: a declared-but-never-called
    // unknown extern must not kill the run, and a failure that does fire
    // can then name the calling function.
    let builtins: Vec<Result<crate::os::Builtin, VmError>> = module
        .externs
        .iter()
        .map(crate::os::Builtin::resolve)
        .collect();
    let mut code_cursor = 0u64;
    let metas: Vec<FuncMeta> = module
        .functions
        .iter()
        .map(|f| {
            let mut block_offsets = Vec::with_capacity(f.blocks.len());
            let mut off = 0u64;
            for b in &f.blocks {
                block_offsets.push(off);
                off += b.insts.len() as u64 + 1;
            }
            let meta = FuncMeta {
                frame_size: f.frame_size().next_multiple_of(16),
                slot_offsets: f.slot_offsets(),
                code_base: code_cursor,
                block_offsets,
            };
            code_cursor += off * 4;
            meta
        })
        .collect();
    let mut icache = config.icache.as_ref().map(IcacheSim::new);
    let mut mem = Memory::new(module, config.heap_size, config.stack_size);
    if let Some(limit) = config.mem_limit {
        mem.set_quota(limit);
    }
    let mut os = Os::new(inputs, args).with_fault(config.fault.clone());
    let mut profile = Profile::for_module(module);
    profile.runs = 1;

    let mut frames: Vec<Frame> = Vec::with_capacity(64);
    let initial_sp = mem.stack_top();
    push_frame(
        module,
        &metas,
        &mut mem,
        &mut profile,
        &mut frames,
        main,
        &[],
        None,
        initial_sp,
    )?;

    let exit_code = loop {
        if profile.il_executed >= config.max_steps {
            return Err(VmError::StepLimitExceeded {
                limit: config.max_steps,
                func: frames
                    .last()
                    .map(|fr| module.function(fr.func).name.clone())
                    .unwrap_or_default(),
            });
        }
        let fr = frames.last_mut().expect("at least one frame");
        let func = module.function(fr.func);
        let fname = func.name.as_str();
        let block = &func.blocks[fr.block];

        if let Some(sim) = icache.as_mut() {
            let meta = &metas[fr.func.index()];
            sim.access(meta.code_base + 4 * (meta.block_offsets[fr.block] + fr.inst as u64));
        }
        if fr.inst < block.insts.len() {
            let inst = &block.insts[fr.inst];
            fr.inst += 1;
            profile.il_executed += 1;
            match inst {
                Inst::Const { dst, value } => fr.regs[dst.index()] = *value,
                Inst::Mov { dst, src } => fr.regs[dst.index()] = fr.regs[src.index()],
                Inst::Un { op, dst, src } => {
                    fr.regs[dst.index()] = op.eval(fr.regs[src.index()]);
                }
                Inst::Bin { op, dst, lhs, rhs } => {
                    let a = fr.regs[lhs.index()];
                    let b = fr.regs[rhs.index()];
                    fr.regs[dst.index()] = eval_bin_outlined(*op, a, b, fname)?;
                }
                Inst::Cmp { op, dst, lhs, rhs } => {
                    let a = fr.regs[lhs.index()];
                    let b = fr.regs[rhs.index()];
                    fr.regs[dst.index()] = eval_cmp_outlined(*op, a, b) as i64;
                }
                Inst::AddrOfGlobal { dst, global } => {
                    fr.regs[dst.index()] = mem.global_addr(*global) as i64;
                }
                Inst::AddrOfSlot { dst, slot } => {
                    fr.regs[dst.index()] =
                        (fr.sp + metas[fr.func.index()].slot_offsets[slot.index()]) as i64;
                }
                Inst::AddrOfFunc { dst, func } => {
                    fr.regs[dst.index()] = Memory::encode_func_ptr(*func);
                }
                Inst::Ext {
                    dst,
                    src,
                    width,
                    signed,
                } => {
                    let v = fr.regs[src.index()];
                    fr.regs[dst.index()] = ext_value_outlined(v, *width, *signed);
                }
                Inst::Load {
                    dst,
                    addr,
                    width,
                    signed,
                } => {
                    let a = fr.regs[addr.index()] as u64;
                    fr.regs[dst.index()] = mem.load(a, *width, *signed, fname)?;
                }
                Inst::Store { addr, src, width } => {
                    let a = fr.regs[addr.index()] as u64;
                    let v = fr.regs[src.index()];
                    mem.store(a, v, *width, fname)?;
                }
                Inst::Call {
                    site,
                    callee,
                    args,
                    dst,
                } => {
                    profile.calls += 1;
                    profile.site_counts[site.0 as usize] += 1;
                    let argv: Vec<i64> = args.iter().map(|r| fr.regs[r.index()]).collect();
                    let dst = *dst;
                    let site = *site;
                    match callee {
                        Callee::Func(f) => {
                            let f = *f;
                            let sp = fr.sp;
                            push_frame(
                                module,
                                &metas,
                                &mut mem,
                                &mut profile,
                                &mut frames,
                                f,
                                &argv,
                                dst,
                                sp,
                            )?;
                        }
                        Callee::Ext(x) => {
                            let b = match &builtins[x.index()] {
                                Ok(b) => *b,
                                Err(e) => return Err(e.clone().attributed_to(fname)),
                            };
                            match os.call(b, &argv, &mut mem, fname)? {
                                BuiltinOutcome::Value(v) => {
                                    if let Some(d) = dst {
                                        fr.regs[d.index()] = v.unwrap_or(0);
                                    }
                                }
                                BuiltinOutcome::Exit(code) => break code,
                            }
                        }
                        Callee::Reg(r) => {
                            let raw = fr.regs[r.index()];
                            let target =
                                Memory::decode_func_ptr(raw, module.functions.len(), fname)?;
                            let callee_fn = module.function(target);
                            if callee_fn.num_params as usize != argv.len() {
                                return Err(VmError::IndirectArityMismatch {
                                    callee: callee_fn.name.clone(),
                                    passed: argv.len(),
                                    expected: callee_fn.num_params as usize,
                                });
                            }
                            profile
                                .site_targets
                                .entry(site)
                                .or_default()
                                .entry(ProfTarget::Func(target))
                                .and_modify(|n| *n += 1)
                                .or_insert(1);
                            let sp = fr.sp;
                            push_frame(
                                module,
                                &metas,
                                &mut mem,
                                &mut profile,
                                &mut frames,
                                target,
                                &argv,
                                dst,
                                sp,
                            )?;
                        }
                    }
                }
            }
            continue;
        }

        // Terminator.
        profile.il_executed += 1;
        match &block.term {
            Terminator::Jump(b) => {
                profile.control_transfers += 1;
                fr.block = b.index();
                fr.inst = 0;
                profile.block_counts[fr.func.index()][fr.block] += 1;
            }
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => {
                profile.control_transfers += 1;
                let taken = if fr.regs[cond.index()] != 0 {
                    profile.branch_taken[fr.func.index()][fr.block] += 1;
                    then_to
                } else {
                    else_to
                };
                fr.block = taken.index();
                fr.inst = 0;
                profile.block_counts[fr.func.index()][fr.block] += 1;
            }
            Terminator::Return(v) => {
                profile.returns += 1;
                let value = v.map(|r| fr.regs[r.index()]).unwrap_or(0);
                let ret_dst = fr.ret_dst;
                frames.pop();
                match frames.last_mut() {
                    Some(caller) => {
                        if let Some(d) = ret_dst {
                            caller.regs[d.index()] = value;
                        }
                    }
                    None => break value,
                }
            }
            Terminator::Halt => break 0,
        }
    };

    let (stdout, stderr, files) = os.into_outputs();
    let icache = icache.map(|sim| sim.stats());
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

#[allow(clippy::too_many_arguments)]
fn push_frame(
    module: &Module,
    metas: &[FuncMeta],
    mem: &mut Memory,
    profile: &mut Profile,
    frames: &mut Vec<Frame>,
    func: FuncId,
    args: &[i64],
    ret_dst: Option<Reg>,
    caller_sp: u64,
) -> Result<(), VmError> {
    let f = module.function(func);
    debug_assert_eq!(f.num_params as usize, args.len());
    let meta = &metas[func.index()];
    let sp = caller_sp
        .checked_sub(meta.frame_size)
        .filter(|&sp| sp >= mem.stack_limit())
        .ok_or_else(|| VmError::StackOverflow {
            func: f.name.clone(),
        })?;
    profile.func_entries[func.index()] += 1;
    profile.block_counts[func.index()][0] += 1;
    let used = mem.stack_top() - sp;
    if used > profile.max_stack_bytes {
        profile.max_stack_bytes = used;
    }
    let mut regs = vec![0i64; f.num_regs as usize];
    regs[..args.len()].copy_from_slice(args);
    frames.push(Frame {
        func,
        block: 0,
        inst: 0,
        regs,
        sp,
        ret_dst,
    });
    Ok(())
}

/// Outlined wrappers for the tree-walker: its dispatch match is
/// register-starved, and measurably faster with the ALU helpers kept
/// out of line, while the bytecode loop in [`crate::exec`] wants them
/// inlined. Same functions either way — parity is unaffected.
#[inline(never)]
fn eval_bin_outlined(op: BinOp, a: i64, b: i64, func: &str) -> Result<i64, VmError> {
    eval_bin(op, a, b, func)
}

#[inline(never)]
fn eval_cmp_outlined(op: CmpOp, a: i64, b: i64) -> bool {
    op.eval(a, b)
}

#[inline(never)]
fn ext_value_outlined(v: i64, width: Width, signed: bool) -> i64 {
    width.extend(v, signed)
}

/// [`BinOp::eval`] for the engines (both call this): a division or
/// remainder by zero traps, naming the executing function.
#[inline(always)]
pub(crate) fn eval_bin(op: BinOp, a: i64, b: i64, func: &str) -> Result<i64, VmError> {
    op.eval(a, b).ok_or_else(|| VmError::DivisionByZero {
        func: func.to_owned(),
    })
}
