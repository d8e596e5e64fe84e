//! What changes when simulated processes are coroutines on the caller's
//! thread rather than OS threads: the core survives every panic, teardown
//! unwinds parked bodies (quietly, exactly once, even mid-unwind), a
//! simulation can be advanced from any thread, and a stack overrun faults.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use rucx_sim::{RunOutcome, SimConfig, Simulation};

/// Counts its own drops.
struct DropCount(Arc<AtomicUsize>);

impl Drop for DropCount {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Marks the re-executed copy of this test binary.
const CHILD: &str = "RUCX_SIM_TEST_CHILD";

/// Run test `name` of this binary in a child process and return its
/// output; `None` when we *are* that child and should do the deed.
fn in_child(name: &str) -> Option<Output> {
    if std::env::var_os(CHILD).is_some() {
        return None;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", name, "--nocapture", "--test-threads", "1"])
        .env(CHILD, "1")
        .output()
        .expect("re-exec of the test binary");
    Some(out)
}

#[test]
fn event_panic_under_a_dispatching_process_keeps_the_simulation() {
    // "p" is mid-`advance`, dispatching inline on its own stack, when the
    // event closure at t=50 panics. The core must not unwind with it.
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new(Vec::<&'static str>::new());
    sim.scheduler()
        .schedule_at(50, |_, _| panic!("event blew up"));
    let guard = DropCount(drops.clone());
    sim.spawn("p", 0, move |ctx| {
        let _on_stack = guard;
        ctx.with_world(|w, _| w.push("before"));
        ctx.advance(100);
        ctx.with_world(|w, _| w.push("after"));
    });
    let never = sim.scheduler().new_trigger();
    sim.spawn("parked", 0, move |ctx| ctx.wait(never));

    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("the run must fail");
    assert_eq!(err.downcast_ref::<&str>(), Some(&"event blew up"));
    // The world is readable, and the run can even go on: "p" was merely
    // suspended and its wakeup is still queued.
    assert_eq!(sim.world(), &["before"]);
    assert!(matches!(sim.run(), RunOutcome::Deadlock(b) if b.len() == 1));
    assert_eq!(sim.world(), &["before", "after"]);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "p ran to its end");
    drop(sim); // unwinds "parked"
}

#[test]
fn parked_destructors_run_exactly_once_at_teardown() {
    let drops = Arc::new(AtomicUsize::new(0));
    let mut sim = Simulation::new(());
    let never = sim.scheduler().new_trigger();
    // Parked on a trigger, parked in a sleep past the limit, and never
    // started at all: each owns one guard.
    for (name, start) in [("on-trigger", 0), ("asleep", 0), ("unstarted", 500)] {
        let guard = DropCount(drops.clone());
        sim.spawn(name, start, move |ctx| {
            let _on_stack = guard;
            match ctx.name() {
                "on-trigger" => ctx.wait(never),
                _ => ctx.advance(1_000),
            }
        });
    }
    assert_eq!(sim.run_until(100), RunOutcome::TimeLimit);
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 3);
}

#[test]
fn teardown_works_while_the_dropping_thread_is_unwinding() {
    let drops = Arc::new(AtomicUsize::new(0));
    let seen = drops.clone();
    let err = catch_unwind(move || {
        let mut sim = Simulation::new(());
        let never = sim.scheduler().new_trigger();
        let guard = DropCount(drops);
        sim.spawn("parked", 0, move |ctx| {
            let _on_stack = guard;
            ctx.wait(never);
        });
        assert!(matches!(sim.run(), RunOutcome::Deadlock(_)));
        // `sim` is dropped by this unwind, and unwinds "parked" on its own
        // stack while it does.
        panic!("caller fails with the simulation alive");
    })
    .expect_err("the closure panics");
    assert_eq!(
        err.downcast_ref::<&str>(),
        Some(&"caller fails with the simulation alive")
    );
    assert_eq!(seen.load(Ordering::SeqCst), 1);
}

/// A simulation on its way to a worker, with the limit to run it to.
type Turn = (Simulation<Vec<(u64, u32)>>, u64);

/// Eight processes with co-prime periods logging `(time, id)`.
fn build_logger_sim() -> Simulation<Vec<(u64, u32)>> {
    let mut sim = Simulation::new(Vec::new());
    for i in 0..8u32 {
        sim.spawn(format!("p{i}"), u64::from(i % 3), move |ctx| {
            for k in 0..40u64 {
                ctx.advance((u64::from(i) * 7 + k * 13) % 17 + 1);
                // Heap and floating-point state on the coroutine's stack
                // across the move between threads.
                let label = format!("{:.1}", ctx.now() as f64 / 2.0);
                ctx.yield_now();
                let now = ctx.now();
                assert_eq!(label, format!("{:.1}", now as f64 / 2.0));
                ctx.with_world(move |w, _| w.push((now, i)));
            }
        });
    }
    sim
}

#[test]
fn run_until_from_alternating_threads_matches_a_single_thread() {
    let mut single = build_logger_sim();
    assert_eq!(single.run(), RunOutcome::Completed);

    // Built here, then passed back and forth by value between two worker
    // threads that each advance it by one 25-tick window.
    let sim = build_logger_sim();
    let (to_a, from_main_or_b) = mpsc::channel::<Turn>();
    let (to_b, from_a) = mpsc::channel::<Turn>();
    let (to_main, done) = mpsc::channel::<Turn>();
    let worker =
        |rx: mpsc::Receiver<Turn>, next: mpsc::Sender<Turn>, to_main: mpsc::Sender<Turn>| {
            move || {
                for (mut sim, limit) in rx {
                    match sim.run_until(limit) {
                        RunOutcome::TimeLimit => next.send((sim, limit + 25)).expect("peer alive"),
                        RunOutcome::Completed => {
                            to_main.send((sim, limit)).expect("main alive");
                            return;
                        }
                        other => panic!("unexpected outcome {other:?}"),
                    }
                }
            }
        };
    let moved = std::thread::scope(|s| {
        s.spawn(worker(from_main_or_b, to_b, to_main.clone()));
        s.spawn(worker(from_a, to_a.clone(), to_main));
        to_a.send((sim, 25)).expect("worker alive");
        let (sim, last_limit) = done.recv().expect("a worker finishes the run");
        // Unblock whichever worker is still waiting for its turn.
        drop(to_a);
        assert!(last_limit >= 100, "the run really was cut into windows");
        sim
    });
    assert_eq!(moved.world(), single.world());
    assert_eq!(moved.scheduler_ref().now(), single.scheduler_ref().now());
}

#[test]
fn stack_overrun_faults_on_the_guard_page() {
    #[inline(never)]
    fn recurse(depth: u64) -> u64 {
        let pad = std::hint::black_box([depth; 64]);
        if depth == 0 {
            return pad[0];
        }
        recurse(depth - 1) + std::hint::black_box(pad)[63]
    }
    let Some(out) = in_child("stack_overrun_faults_on_the_guard_page") else {
        let cfg = SimConfig {
            stack_size: 64 * 1024,
        };
        let mut sim = Simulation::with_config(0u64, cfg);
        // ~0.5 KiB a frame: far more than 64 KiB, far less than any OS
        // thread's stack, so only a guard page can stop it.
        sim.spawn("deep", 0, |ctx| {
            let v = recurse(100_000);
            ctx.with_world(move |w, _| *w = v);
        });
        sim.run();
        unreachable!("the overrun must not survive, world = {}", sim.world());
    };
    use std::os::unix::process::ExitStatusExt;
    let signal = out.status.signal();
    assert!(
        signal == Some(11) || signal == Some(7),
        "child must die of SIGSEGV/SIGBUS, got {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn dropping_parked_processes_is_silent() {
    let Some(out) = in_child("dropping_parked_processes_is_silent") else {
        let mut sim = Simulation::new(());
        let never = sim.scheduler().new_trigger();
        for i in 0..4 {
            sim.spawn(format!("parked{i}"), 0, move |ctx| ctx.wait(never));
        }
        assert!(matches!(sim.run(), RunOutcome::Deadlock(b) if b.len() == 4));
        drop(sim);
        return;
    };
    assert!(out.status.success(), "{:?}", out.status);
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "",
        "teardown must not reach the panic hook"
    );
}
