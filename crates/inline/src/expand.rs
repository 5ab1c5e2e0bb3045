//! Physical inline expansion (§2.4, §3.5): code duplication, variable
//! renaming, and symbol-table (slot) updates.
//!
//! Expansion proceeds caller-by-caller in the linear order, so every
//! callee is fully expanded before it is absorbed anywhere. At a call
//! site, the callee's body is cloned with renamed registers, slots, and
//! fresh call-site ids; actual parameters are buffered into the renamed
//! formal registers with `Mov`s (the paper's "new local temporary
//! variables ... buffer the results of the actual parameters"); the call
//! becomes an unconditional jump into the cloned entry, and every cloned
//! `return` becomes a jump back to the split-off continuation (§4.4:
//! "inlined call/return instructions were replaced with unconditional
//! jump instructions into/out of the inlined function bodies").

use std::collections::HashMap;

use impact_il::{
    Block, BlockId, CallSiteId, Callee, FuncId, Function, Inst, Module, Reg, Slot, Terminator,
};

/// Statistics from the simulated function-definition cache (§3.3).
///
/// The paper constrains expansion to a linear order partly so that
/// function definitions can be cached in memory "to reduce the number of
/// file reads", with write-back replacement. Bodies live in memory here,
/// so the cache is *simulated*: every expansion reads the callee's
/// definition and writes the caller's, through an LRU cache of
/// `capacity` definitions. High hit rates confirm the locality the
/// paper's ordering was designed to create.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DefCacheStats {
    /// Cache capacity in function definitions.
    pub capacity: usize,
    /// Definition accesses served from the cache.
    pub hits: u64,
    /// Definition accesses that had to "read the file".
    pub misses: u64,
    /// Dirty definitions written back on eviction or at the end.
    pub writebacks: u64,
}

impl DefCacheStats {
    /// Hit ratio in [0, 1] (0 for an unused cache).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// LRU cache simulation over function definitions.
pub(crate) struct DefCache {
    capacity: usize,
    /// Most recently used first; the flag marks dirty (modified) entries.
    entries: Vec<(FuncId, bool)>,
    stats: DefCacheStats,
}

impl DefCache {
    pub(crate) fn new(capacity: usize) -> Self {
        DefCache {
            capacity: capacity.max(1),
            entries: Vec::new(),
            stats: DefCacheStats {
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
                writebacks: 0,
            },
        }
    }

    pub(crate) fn touch(&mut self, f: FuncId, write: bool) {
        if let Some(pos) = self.entries.iter().position(|(g, _)| *g == f) {
            self.stats.hits += 1;
            let (_, dirty) = self.entries.remove(pos);
            self.entries.insert(0, (f, dirty || write));
            return;
        }
        self.stats.misses += 1;
        if self.entries.len() == self.capacity {
            let (_, dirty) = self.entries.pop().expect("nonempty at capacity");
            if dirty {
                self.stats.writebacks += 1;
            }
        }
        self.entries.insert(0, (f, write));
    }

    pub(crate) fn finish(mut self) -> DefCacheStats {
        self.stats.writebacks += self.entries.iter().filter(|(_, d)| *d).count() as u64;
        self.stats
    }
}

/// A record of one performed expansion, mapping the cloned call sites back
/// to their originals (so a re-profile can be compared arc-by-arc).
#[derive(Clone, Debug)]
pub struct ExpansionRecord {
    /// The expanded site (no longer present in the module).
    pub site: CallSiteId,
    /// The caller that absorbed the body.
    pub caller: FuncId,
    /// The callee that was duplicated.
    pub callee: FuncId,
    /// For every call site cloned into the caller: `(original, clone)`.
    pub cloned_sites: Vec<(CallSiteId, CallSiteId)>,
}

/// Expands a single direct call site: clones `callee`'s body into
/// `caller`.
pub fn expand_site(
    module: &mut Module,
    caller: FuncId,
    site: CallSiteId,
    callee: FuncId,
) -> ExpansionRecord {
    assert_ne!(caller, callee, "self-recursive sites are never planned");
    let callee_fn: Function = module.function(callee).clone();

    // Pre-allocate fresh call-site ids for the clones.
    let mut cloned_sites = Vec::new();
    let mut fresh_ids = HashMap::new();
    for (_, _, orig_site, _) in callee_fn.call_sites() {
        let fresh = module.fresh_call_site();
        fresh_ids.insert(orig_site, fresh);
        cloned_sites.push((orig_site, fresh));
    }

    let caller_fn = module.function_mut(caller);

    // Locate the call instruction.
    let (call_block, call_idx) = caller_fn
        .call_sites()
        .find(|(_, _, s, _)| *s == site)
        .map(|(b, i, _, _)| (b, i))
        .expect("planned site exists in caller");
    let call_inst = caller_fn.block(call_block).insts[call_idx].clone();
    let Inst::Call {
        callee: call_target,
        args,
        dst,
        ..
    } = call_inst
    else {
        unreachable!("call_sites returned a non-call");
    };
    debug_assert_eq!(call_target, Callee::Func(callee));

    let reg_off = caller_fn.num_regs;
    let slot_off = caller_fn.slots.len() as u32;
    // Block layout: [existing blocks][continuation][cloned callee blocks].
    let cont_block = BlockId::from_index(caller_fn.blocks.len());
    let clone_base = caller_fn.blocks.len() + 1;

    // Split the calling block.
    let (head, tail_insts, orig_term) = {
        let b = caller_fn.block_mut(call_block);
        let tail: Vec<Inst> = b.insts.split_off(call_idx + 1);
        b.insts.pop(); // the call itself
        let term = std::mem::replace(&mut b.term, Terminator::Jump(cont_block));
        (call_block, tail, term)
    };

    // Buffer actual parameters into the renamed formals.
    for (i, arg) in args.iter().enumerate() {
        let formal = Reg(reg_off + i as u32);
        caller_fn.block_mut(head).insts.push(Inst::Mov {
            dst: formal,
            src: *arg,
        });
    }
    caller_fn.block_mut(head).term = Terminator::Jump(BlockId::from_index(clone_base));

    // Continuation block receives the tail of the split block.
    caller_fn.blocks.push(Block {
        insts: tail_insts,
        term: orig_term,
    });
    debug_assert_eq!(caller_fn.blocks.len() - 1, cont_block.index());

    // Import the callee's slots with path-qualified names (§5).
    for slot in &callee_fn.slots {
        caller_fn.slots.push(Slot {
            name: format!("{}.{}", callee_fn.name, slot.name),
            size: slot.size,
            align: slot.align,
        });
    }
    caller_fn.num_regs += callee_fn.num_regs;

    // Clone the callee's blocks with renaming.
    for cb in &callee_fn.blocks {
        let mut insts: Vec<Inst> = Vec::with_capacity(cb.insts.len() + 1);
        for inst in &cb.insts {
            let mut inst = inst.clone();
            inst.for_each_use_mut(|r| r.0 += reg_off);
            if let Some(d) = inst.def_mut() {
                d.0 += reg_off;
            }
            match &mut inst {
                Inst::AddrOfSlot { slot, .. } => slot.0 += slot_off,
                Inst::Call { site, .. } => *site = fresh_ids[site],
                _ => {}
            }
            insts.push(inst);
        }
        let mut term = cb.term.clone();
        term.for_each_use_mut(|r| r.0 += reg_off);
        term.map_successors(|b| BlockId::from_index(clone_base + b.index()));
        if let Terminator::Return(v) = term {
            // A cloned return funnels its value into the call's
            // destination and jumps to the continuation.
            match (v, dst) {
                (Some(src), Some(d)) => insts.push(Inst::Mov { dst: d, src }),
                (None, Some(d)) => {
                    // The callee falls off its end but the caller reads
                    // a value: the VM defines this as 0.
                    insts.push(Inst::Const { dst: d, value: 0 });
                }
                _ => {}
            }
            term = Terminator::Jump(cont_block);
        }
        caller_fn.blocks.push(Block { insts, term });
    }

    ExpansionRecord {
        site,
        caller,
        callee,
        cloned_sites,
    }
}
