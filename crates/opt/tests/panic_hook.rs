//! Optimizing on several threads at once must leave the process's panic
//! hook in place. This binary holds one test because the hook is
//! process-global: any other test's panic would reach it.

use std::sync::atomic::{AtomicUsize, Ordering};

use impact_cfront::{compile, Source};
use impact_opt::optimize_module_isolated;
use impact_vm::FaultPlan;

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn concurrent_optimization_keeps_the_installed_panic_hook() {
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));
    let module = compile(&[Source::new(
        "m.c",
        "int sq(int x) { return x * x; }\n\
         int twice(int x) { int y; y = x + 0; return y * 2; }\n\
         int pick(int x) { if (1) return sq(x); return twice(x); }\n\
         int main() { int i; int s; s = 0; for (i = 0; i < 4; i++) s += pick(i) + twice(i); return s; }",
    )])
    .unwrap();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..200 {
                    optimize_module_isolated(&mut module.clone(), &FaultPlan::new());
                }
            });
        }
    });
    let caught = std::panic::catch_unwind(|| panic!("probe"));
    assert!(caught.is_err());
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "the installed panic hook was replaced while optimizing"
    );
}
