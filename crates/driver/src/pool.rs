//! Work-stealing compile pool for parallel campaigns.
//!
//! The pool runs a fixed set of tasks (identified by index) across `workers`
//! threads. Each worker owns a deque seeded round-robin with its share of
//! the tasks; an idle worker steals from the *back* of a victim's deque so
//! owners and thieves contend on opposite ends. The pool is deliberately
//! simple — a `Mutex<VecDeque>` per worker, not a lock-free deque — because
//! compile units run for milliseconds to seconds and queue operations are
//! noise by comparison.
//!
//! Robustness properties the rest of the driver relies on:
//!
//! - **Events are delivered on the caller's thread.** Workers send
//!   [`PoolEvent`]s over a channel and the caller's `on_event` closure runs
//!   them single-threaded. The batch supervisor uses this to keep the
//!   journal a single-writer structure: appends happen only inside
//!   `on_event`, so concurrent unit completion can never interleave torn
//!   records.
//! - **Per-task ordering.** An mpsc channel preserves per-sender order, so
//!   `Started(i)` always arrives before `Done(i, _)` for the same task.
//! - **Worker panics cannot take down the pool.** The task closure runs
//!   under `catch_unwind`; a panic becomes `Done(i, Err(message))` and the
//!   remaining tasks still run.
//! - **Every task produces exactly one `Done` event.** The caller can count
//!   completions to know the pool has drained.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;

/// Thread-name prefix for pool workers. It extends
/// [`crate::supervise::WORKER_THREAD`] so the shared panic hook silences
/// expected worker panics in pool runs too.
pub const POOL_THREAD: &str = "supervise-worker-pool";

/// Progress events delivered to the caller's `on_event` closure, on the
/// caller's thread.
#[derive(Debug)]
pub enum PoolEvent<R> {
    /// Task `i` was claimed by a worker and is about to run.
    Started(usize),
    /// Task `i` finished. `Err` carries the panic message if the task
    /// closure panicked; the pool itself keeps running.
    Done(usize, Result<R, String>),
}

/// Runs `tasks` (a list of task indices) across `workers` threads and
/// delivers a [`PoolEvent`] stream to `on_event` on the calling thread.
///
/// Returns the number of successful steals (tasks executed by a worker
/// other than the one whose deque they were seeded into).
///
/// If `on_event` returns an error, the remaining events are still drained
/// (workers are never left blocked on a full channel) and the first error
/// is returned after the pool joins.
///
/// # Errors
///
/// Returns the first error produced by `on_event`.
pub fn run<R, F, E>(tasks: &[usize], workers: usize, f: F, mut on_event: E) -> Result<u64, String>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    E: FnMut(PoolEvent<R>) -> Result<(), String>,
{
    let workers = workers.clamp(1, tasks.len().max(1));
    // Round-robin seeding: task k goes to deque k % workers. The steal
    // counter below counts tasks that ran elsewhere.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                tasks
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| k % workers == w)
                    .map(|(_, &t)| t)
                    .collect(),
            )
        })
        .collect();
    let steals = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<PoolEvent<R>>();
    let total = tasks.len();
    let mut first_err: Option<String> = None;

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let steals = &steals;
            let f = &f;
            let builder = std::thread::Builder::new().name(format!("{POOL_THREAD}{w}"));
            builder
                .spawn_scoped(scope, move || loop {
                    // Own deque first (front), then steal from victims
                    // (back). `unwrap_or_else(into_inner)` keeps the pool
                    // alive even if a panic poisoned a deque lock.
                    let mut claimed = lock(&deques[w]).pop_front();
                    if claimed.is_none() {
                        for v in 1..workers {
                            let victim = (w + v) % workers;
                            if let Some(t) = lock(&deques[victim]).pop_back() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                claimed = Some(t);
                                break;
                            }
                        }
                    }
                    let Some(task) = claimed else { break };
                    if tx.send(PoolEvent::Started(task)).is_err() {
                        break;
                    }
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(task)))
                        .map_err(|p| {
                            format!(
                                "pool worker panicked: {}",
                                crate::supervise::panic_message(p)
                            )
                        });
                    if tx.send(PoolEvent::Done(task, result)).is_err() {
                        break;
                    }
                })
                .expect("spawn pool worker");
        }
        drop(tx);
        let mut done = 0usize;
        while done < total {
            let Ok(ev) = rx.recv() else { break };
            if matches!(ev, PoolEvent::Done(..)) {
                done += 1;
            }
            if let Err(e) = on_event(ev) {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
    });

    match first_err {
        Some(e) => Err(e),
        None => Ok(steals.load(Ordering::Relaxed)),
    }
}

/// Locks a deque, recovering from poison: a worker panic inside `f` is
/// already contained by `catch_unwind`, and deque contents (plain indices)
/// cannot be left in a broken state.
fn lock(m: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_task_exactly_once() {
        let tasks: Vec<usize> = (0..40).collect();
        let ran = AtomicUsize::new(0);
        let mut started = [false; 40];
        let mut done = [false; 40];
        let steals = run(
            &tasks,
            4,
            |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                i * 2
            },
            |ev| {
                match ev {
                    PoolEvent::Started(i) => {
                        assert!(!started[i], "task {i} started twice");
                        started[i] = true;
                    }
                    PoolEvent::Done(i, r) => {
                        assert!(started[i], "task {i} done before started");
                        assert!(!done[i], "task {i} done twice");
                        assert_eq!(r.unwrap(), i * 2);
                        done[i] = true;
                    }
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(ran.load(Ordering::Relaxed), 40);
        assert!(done.iter().all(|&d| d), "all tasks completed");
        // With 4 workers over 40 fast tasks steals may or may not occur;
        // only the invariant that the count is bounded is checkable.
        assert!(steals <= 40);
    }

    #[test]
    fn single_worker_preserves_task_order() {
        let tasks: Vec<usize> = vec![3, 1, 4, 1, 5];
        let mut order = Vec::new();
        run(
            &tasks,
            1,
            |i| i,
            |ev| {
                if let PoolEvent::Done(_, Ok(v)) = ev {
                    order.push(v);
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(order, tasks);
    }

    #[test]
    fn panicking_task_yields_err_and_pool_survives() {
        let tasks: Vec<usize> = (0..8).collect();
        let mut results = vec![None; 8];
        run(
            &tasks,
            3,
            |i| {
                assert!(i != 5, "task five exploded");
                i
            },
            |ev| {
                if let PoolEvent::Done(i, r) = ev {
                    results[i] = Some(r);
                }
                Ok(())
            },
        )
        .unwrap();
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().expect("every task reports Done");
            if i == 5 {
                let msg = r.as_ref().unwrap_err();
                assert!(
                    msg.contains("task five exploded"),
                    "panic message propagated: {msg}"
                );
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn on_event_error_is_returned_after_drain() {
        let tasks: Vec<usize> = (0..6).collect();
        let mut seen = 0;
        let err = run(
            &tasks,
            2,
            |i| i,
            |ev| {
                if matches!(ev, PoolEvent::Done(..)) {
                    seen += 1;
                    if seen == 2 {
                        return Err("journal full".to_string());
                    }
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert_eq!(err, "journal full");
        // The pool drained every event even after the failure.
        assert_eq!(seen, 6);
    }

    #[test]
    fn oversized_worker_count_is_clamped() {
        let tasks: Vec<usize> = vec![0, 1];
        let mut done = 0;
        run(
            &tasks,
            64,
            |i| i,
            |ev| {
                if matches!(ev, PoolEvent::Done(..)) {
                    done += 1;
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(done, 2);
    }

    #[test]
    fn empty_task_list_is_a_no_op() {
        let steals = run(&[], 4, |i| i, |_ev| Ok(())).unwrap();
        assert_eq!(steals, 0);
    }
}
