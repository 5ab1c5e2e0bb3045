//! Jump optimization: jump threading, trivial-branch collapsing,
//! unreachable-block removal, and straight-line block merging.
//!
//! The paper notes that inlined call/return instructions are "replaced
//! with unconditional jump instructions into/out of the inlined function
//! bodies" (§4.4); this pass is what removes that overhead when the
//! optimizer runs after expansion.

use impact_il::{Block, BlockId, Function, Terminator};

/// Runs all jump optimizations to a local fixpoint. Returns the number of
/// rewrites performed.
pub fn jump_optimization(func: &mut Function) -> usize {
    let mut total = 0;
    loop {
        let changed =
            thread_jumps(func) + remove_unreachable_blocks(func) + merge_straight_line(func);
        total += changed;
        if changed == 0 {
            return total;
        }
    }
}

/// Resolves chains of empty blocks that just jump onward: a terminator
/// targeting an empty `jump`-only block is redirected to its final
/// destination. Then `branch c, X, X` becomes `jump X`.
fn thread_jumps(func: &mut Function) -> usize {
    // forward[b] = target if block b is empty and ends in Jump(target).
    let forward: Vec<Option<BlockId>> = func
        .blocks
        .iter()
        .map(|b| match (&b.insts.is_empty(), &b.term) {
            (true, Terminator::Jump(t)) => Some(*t),
            _ => None,
        })
        .collect();
    let max_hops = func.blocks.len();
    let resolve = |mut b: BlockId| {
        // Follow the chain with a hop budget to survive empty jump cycles
        // (an empty infinite loop is valid IL).
        let mut hops = 0;
        while let Some(next) = forward[b.index()] {
            if next == b || hops > max_hops {
                break;
            }
            b = next;
            hops += 1;
        }
        b
    };
    let mut changed = 0;
    for b in &mut func.blocks {
        let before = b.term.clone();
        b.term.map_successors(resolve);
        changed += usize::from(b.term != before);
        if let Terminator::Branch {
            then_to, else_to, ..
        } = b.term
        {
            if then_to == else_to {
                b.term = Terminator::Jump(then_to);
                changed += 1;
            }
        }
    }
    changed
}

/// Deletes blocks unreachable from the entry and renumbers the rest.
fn remove_unreachable_blocks(func: &mut Function) -> usize {
    let n = func.blocks.len();
    let mut reachable = vec![false; n];
    let mut work = vec![0usize];
    reachable[0] = true;
    while let Some(v) = work.pop() {
        func.blocks[v].term.for_each_successor(|s| {
            if !reachable[s.index()] {
                reachable[s.index()] = true;
                work.push(s.index());
            }
        });
    }
    if reachable.iter().all(|&r| r) {
        return 0;
    }
    let mut remap = Vec::with_capacity(n);
    let mut kept = 0;
    for &r in &reachable {
        remap.push(BlockId::from_index(kept));
        kept += usize::from(r);
    }
    let mut keep = reachable.iter();
    func.blocks.retain(|_| keep.next() == Some(&true));
    for b in &mut func.blocks {
        b.term.map_successors(|t| remap[t.index()]);
    }
    n - kept
}

/// Merges every straight-line chain in one sweep: `A: ...; jump B` takes
/// in `B`, and then `B`'s terminator, when that jump is `B`'s only
/// incoming edge and `B` is neither `A` nor the entry. Each block taken
/// in is left an unreachable `halt`, and one renumbering drops them all.
fn merge_straight_line(func: &mut Function) -> usize {
    let mut incoming = vec![0u32; func.blocks.len()];
    for b in &func.blocks {
        b.term.for_each_successor(|s| incoming[s.index()] += 1);
    }
    let mut merged = 0;
    for a in 0..func.blocks.len() {
        while let Terminator::Jump(b) = func.blocks[a].term {
            let bi = b.index();
            if bi == a || bi == 0 || incoming[bi] != 1 {
                break;
            }
            let taken = std::mem::replace(&mut func.blocks[bi], Block::new(Terminator::Halt));
            func.blocks[a].insts.extend(taken.insts);
            func.blocks[a].term = taken.term;
            merged += 1;
        }
    }
    merged + remove_unreachable_blocks(func)
}

#[cfg(test)]
mod tests {
    use super::*;
    use impact_il::{BinOp, FunctionBuilder, Inst, Reg};

    #[test]
    fn threads_empty_jump_chain() {
        let mut fb = FunctionBuilder::new("t", 0);
        let hop1 = fb.new_block();
        let hop2 = fb.new_block();
        let dest = fb.new_block();
        fb.terminate(Terminator::Jump(hop1));
        fb.switch_to(hop1);
        fb.terminate(Terminator::Jump(hop2));
        fb.switch_to(hop2);
        fb.terminate(Terminator::Jump(dest));
        fb.switch_to(dest);
        let v = fb.const_(9);
        fb.terminate(Terminator::Return(Some(v)));
        let mut f = fb.finish();
        let changed = jump_optimization(&mut f);
        assert!(changed > 0);
        // Everything collapses into a single block.
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.blocks[0].term, Terminator::Return(Some(_))));
    }

    #[test]
    fn collapses_branch_with_equal_targets() {
        let mut fb = FunctionBuilder::new("t", 1);
        let t = fb.new_block();
        fb.terminate(Terminator::Branch {
            cond: Reg(0),
            then_to: t,
            else_to: t,
        });
        fb.switch_to(t);
        fb.terminate(Terminator::Return(None));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        assert!(f
            .blocks
            .iter()
            .all(|b| !matches!(b.term, Terminator::Branch { .. })));
    }

    #[test]
    fn removes_unreachable_blocks() {
        let mut fb = FunctionBuilder::new("t", 0);
        let dead = fb.new_block();
        fb.terminate(Terminator::Return(None));
        fb.switch_to(dead);
        let v = fb.const_(1);
        fb.terminate(Terminator::Return(Some(v)));
        let mut f = fb.finish();
        assert_eq!(f.blocks.len(), 2);
        jump_optimization(&mut f);
        assert_eq!(f.blocks.len(), 1);
    }

    #[test]
    fn merges_single_pred_chains_with_instructions() {
        let mut fb = FunctionBuilder::new("t", 0);
        let second = fb.new_block();
        let a = fb.const_(1);
        fb.terminate(Terminator::Jump(second));
        fb.switch_to(second);
        let b = fb.const_(2);
        fb.push(Inst::Bin {
            op: impact_il::BinOp::Add,
            dst: b,
            lhs: a,
            rhs: b,
        });
        fb.terminate(Terminator::Return(Some(b)));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(f.blocks[0].insts.len(), 3);
    }

    #[test]
    fn keeps_empty_infinite_loop_alive() {
        let mut fb = FunctionBuilder::new("t", 0);
        let spin = fb.new_block();
        fb.terminate(Terminator::Jump(spin));
        fb.switch_to(spin);
        fb.terminate(Terminator::Jump(spin));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        // Must not crash or delete the loop; the function still has a
        // block jumping to itself.
        assert!(f
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.term == Terminator::Jump(BlockId::from_index(i))));
    }

    #[test]
    fn does_not_merge_shared_successor() {
        // Two predecessors both jump to the same block: no merge.
        let mut fb = FunctionBuilder::new("t", 1);
        let left = fb.new_block();
        let right = fb.new_block();
        let join = fb.new_block();
        fb.terminate(Terminator::Branch {
            cond: Reg(0),
            then_to: left,
            else_to: right,
        });
        fb.switch_to(left);
        let a = fb.const_(1);
        fb.terminate(Terminator::Jump(join));
        fb.switch_to(right);
        let b = fb.const_(2);
        fb.terminate(Terminator::Jump(join));
        fb.switch_to(join);
        let c = fb.bin(impact_il::BinOp::Add, a, b);
        fb.terminate(Terminator::Return(Some(c)));
        let mut f = fb.finish();
        jump_optimization(&mut f);
        // join must still exist separately (4 blocks stay 4).
        assert_eq!(f.blocks.len(), 4);
    }

    #[test]
    fn never_takes_in_the_entry_block() {
        // b0: r1 = 1; r2 = r0 - r1; r0 = r2; branch r2, b1, b2
        // b1: r3 = 5; jump b0     (the entry's only incoming edge)
        // b2: return r2
        let mut fb = FunctionBuilder::new("t", 1);
        let body = fb.new_block();
        let exit = fb.new_block();
        let one = fb.const_(1);
        let next = fb.bin(BinOp::Sub, Reg(0), one);
        fb.mov(Reg(0), next);
        fb.terminate(Terminator::Branch {
            cond: next,
            then_to: body,
            else_to: exit,
        });
        fb.switch_to(body);
        fb.const_(5);
        fb.terminate(Terminator::Jump(BlockId(0)));
        fb.switch_to(exit);
        fb.terminate(Terminator::Return(Some(next)));
        let mut f = fb.finish();
        let before = f.clone();
        assert_eq!(jump_optimization(&mut f), 0);
        assert_eq!(f, before, "the loop through the entry is kept whole");
    }

    #[test]
    fn merges_a_fifty_block_chain_in_one_call() {
        // b0 -> b49 -> b48 -> ... -> b1, each block holding one constant.
        let mut fb = FunctionBuilder::new("t", 0);
        let blocks: Vec<BlockId> = (1..50).map(|_| fb.new_block()).collect();
        let mut last = fb.const_(0);
        for (i, &b) in blocks.iter().rev().enumerate() {
            fb.terminate(Terminator::Jump(b));
            fb.switch_to(b);
            last = fb.const_(i as i64 + 1);
        }
        fb.terminate(Terminator::Return(Some(last)));
        let mut f = fb.finish();
        assert_eq!(
            jump_optimization(&mut f),
            98,
            "49 merges, each a splice and a deleted block"
        );
        assert_eq!(f.blocks.len(), 1);
        let values: Vec<i64> = f.blocks[0]
            .insts
            .iter()
            .map(|inst| match *inst {
                Inst::Const { value, .. } => value,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(values, (0..50).collect::<Vec<i64>>(), "in chain order");
    }

    #[test]
    fn merged_chain_keeps_its_head_position() {
        // b0: branch r0, b3, b4; b1: 1, jump b2; b2: 2, return;
        // b3: 3, jump b1; b4: return. The chain b3 -> b1 -> b2 starts
        // after its members, and ends up where b3 was.
        let mut fb = FunctionBuilder::new("t", 1);
        let [b1, b2, b3, b4] = [(); 4].map(|_| fb.new_block());
        fb.terminate(Terminator::Branch {
            cond: Reg(0),
            then_to: b3,
            else_to: b4,
        });
        for (b, value, term) in [
            (b1, 1, Terminator::Jump(b2)),
            (b2, 2, Terminator::Return(None)),
            (b3, 3, Terminator::Jump(b1)),
        ] {
            fb.switch_to(b);
            fb.const_(value);
            fb.terminate(term);
        }
        fb.switch_to(b4);
        fb.terminate(Terminator::Return(None));
        let mut f = fb.finish();
        assert_eq!(jump_optimization(&mut f), 4);
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(
            f.blocks[0].term,
            Terminator::Branch {
                cond: Reg(0),
                then_to: BlockId(1),
                else_to: BlockId(2),
            }
        );
        assert!(matches!(
            f.blocks[1].insts[..],
            [
                Inst::Const { value: 3, .. },
                Inst::Const { value: 1, .. },
                Inst::Const { value: 2, .. }
            ]
        ));
        assert_eq!(f.blocks[1].term, Terminator::Return(None));
    }
}
