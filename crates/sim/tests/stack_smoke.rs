//! Stack-scale smoke test: the jacobi_figures workload shape — many
//! `Simulation` lifetimes, ~1536 processes each — must map its process
//! stacks once and *reuse* them from the free list afterwards, and a
//! simulation dropped with a process still parked must unwind it. This is
//! the only test in the binary, so the size class's accounting is exact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rucx_sim::coro::stack_stats;
use rucx_sim::{RunOutcome, SimConfig, Simulation};

const PROCS: usize = 1536;
/// Keep 1536 concurrent stacks cheap: these bodies are shallow.
const STACK: usize = 128 * 1024;

/// Counts its own drops, to observe a parked body's unwind.
struct Unwound(Arc<AtomicUsize>);

impl Drop for Unwound {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn run_lifetime(unwound: &Arc<AtomicUsize>) {
    let cfg = SimConfig { stack_size: STACK };
    let mut sim = Simulation::with_config(0u64, cfg);
    for i in 0..PROCS {
        sim.spawn(format!("p{i}"), (i % 7) as u64, |ctx| {
            ctx.advance(3);
            ctx.with_world(|w, _| *w += 1);
        });
    }
    // One process the run starts and never resumes: dropping the
    // simulation must unwind it, running the destructors on its stack.
    let t = sim.scheduler().new_trigger();
    let guard = Unwound(unwound.clone());
    sim.spawn("never-resumed", 0, move |ctx| {
        let _on_stack = guard;
        ctx.wait(t);
        unreachable!("the trigger never fires");
    });
    match sim.run_until(100) {
        RunOutcome::Deadlock(blocked) => assert_eq!(blocked.len(), 1, "{blocked:?}"),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert_eq!(*sim.world(), PROCS as u64);
    let before = unwound.load(Ordering::SeqCst);
    drop(sim);
    assert_eq!(
        unwound.load(Ordering::SeqCst),
        before + 1,
        "parked body must be unwound exactly once at drop"
    );
}

#[test]
fn stacks_are_reused_across_simulation_lifetimes() {
    let start = Instant::now();
    let unwound = Arc::new(AtomicUsize::new(0));
    let all = PROCS + 1;

    run_lifetime(&unwound);
    // Every stack comes back once the first simulation is gone.
    let first = stack_stats(STACK);
    assert_eq!(first.mapped, all as u64, "{first:?}");
    assert_eq!(first.free, all, "{first:?}");

    // A second lifetime maps nothing: every process runs on a recycled
    // stack from the first round.
    run_lifetime(&unwound);
    assert_eq!(stack_stats(STACK), first, "second lifetime must reuse");

    assert!(
        start.elapsed() < Duration::from_secs(1),
        "stack smoke took {:?}, budget is 1s",
        start.elapsed()
    );
}
