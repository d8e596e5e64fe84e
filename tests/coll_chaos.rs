//! Tier-1 gates for the topology-aware collective engine:
//!
//! 1. Cross-model conformance — AMPI, OpenMPI, and Charm4py route their
//!    allreduce through the same engine, so for every forced algorithm the
//!    three frontends must produce byte-identical results on every rank,
//!    including fractional values where floating-point combine order shows.
//! 2. A 64-case seeded chaos property — random drop/corrupt/dup/delay
//!    mixes against random (model, algorithm, size) collectives, under a
//!    virtual-time watchdog: a lost or corrupted reduction fragment is
//!    either retransmitted or surfaces as a typed error; the reduced sum is
//!    never silently wrong.

use std::sync::Arc;

use rucx::coll::{Algo, ReduceOp};
use rucx::fabric::Topology;
use rucx::fault::FaultSpec;
use rucx::gpu::MemRef;
use rucx::osu::coll::P2pComm;
use rucx::sim::time::us;
use rucx::sim::RunOutcome;
use rucx::ucp::{audit, build_sim, MSim, MachineConfig};

const ELEMS: usize = 24;

fn setup(machine: MachineConfig, elems: usize) -> (MSim, Vec<MemRef>, Vec<MemRef>) {
    let topo = Topology::summit(2);
    let mut sim = build_sim(topo.clone(), machine);
    let mut bufs = Vec::new();
    let mut scratch = Vec::new();
    for p in 0..topo.procs() {
        let m = sim.world_mut();
        bufs.push(
            m.gpu
                .pool
                .alloc_device(topo.device_of(p), (elems * 8) as u64, true)
                .unwrap(),
        );
        scratch.push(
            m.gpu
                .pool
                .alloc_device(topo.device_of(p), (elems * 8) as u64, true)
                .unwrap(),
        );
    }
    (sim, bufs, scratch)
}

fn fill(sim: &mut MSim, bufs: &[MemRef], value: impl Fn(usize, usize) -> f64) {
    for (r, b) in bufs.iter().enumerate() {
        let bytes: Vec<u8> = (0..ELEMS).flat_map(|i| value(r, i).to_le_bytes()).collect();
        sim.world_mut().gpu.pool.write(*b, &bytes).unwrap();
    }
}

fn read_all(sim: &MSim, bufs: &[MemRef]) -> Vec<Vec<u8>> {
    bufs.iter()
        .map(|b| sim.world().gpu.pool.read(*b).unwrap())
        .collect()
}

/// Fractional per-rank inputs: any divergence in schedule or combine order
/// across frontends shows up as a byte difference.
fn frac(r: usize, i: usize) -> f64 {
    (r as f64 + 0.25) * 1.7 + (i as f64) * 0.3125
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Frontend {
    Ampi,
    Ompi,
    Charm4py,
}

const FRONTENDS: [Frontend; 3] = [Frontend::Ampi, Frontend::Ompi, Frontend::Charm4py];

/// Run one allreduce on every rank through the given frontend; returns the
/// outcome of the watchdogged run.
fn run_allreduce(
    sim: &mut MSim,
    front: Frontend,
    bufs: &Arc<Vec<MemRef>>,
    scratch: &Arc<Vec<MemRef>>,
    algo: Algo,
) -> RunOutcome {
    let (b, s) = (bufs.clone(), scratch.clone());
    match front {
        Frontend::Ampi => rucx::ampi::launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let n = b.len();
            let c = &mut P2pComm::new(mpi, n);
            rucx::coll::allreduce(c, ctx, b[me], s[me], ReduceOp::Sum, Some(algo));
        }),
        Frontend::Ompi => rucx::ompi::launch(sim, move |mpi, ctx| {
            let me = mpi.rank();
            let n = b.len();
            let c = &mut P2pComm::new(mpi, n);
            rucx::coll::allreduce(c, ctx, b[me], s[me], ReduceOp::Sum, Some(algo));
        }),
        Frontend::Charm4py => rucx::charm4py::launch(sim, move |py, ctx| {
            let me = py.rank();
            py.allreduce(ctx, b[me], s[me], ReduceOp::Sum, Some(algo));
        }),
    }
    // 10 virtual seconds dwarfs any retry schedule; hitting the watchdog
    // means a hang, not slowness. A completed run leaves no protocol state.
    let outcome = sim.run_until(us(10_000_000.0));
    if outcome == RunOutcome::Completed {
        assert_eq!(audit(sim), Ok(()), "{front:?} {algo:?}");
    }
    outcome
}

#[test]
fn cross_model_allreduce_is_byte_identical() {
    for algo in [Algo::RecursiveDoubling, Algo::Ring, Algo::Hierarchical] {
        let mut reference: Option<Vec<Vec<u8>>> = None;
        for front in FRONTENDS {
            let (mut sim, bufs, scratch) = setup(MachineConfig::default(), ELEMS);
            fill(&mut sim, &bufs, frac);
            let (bufs, scratch) = (Arc::new(bufs), Arc::new(scratch));
            let outcome = run_allreduce(&mut sim, front, &bufs, &scratch, algo);
            assert_eq!(outcome, RunOutcome::Completed, "{front:?} {algo:?}");
            let got = read_all(&sim, &bufs);
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    assert_eq!(
                        &got, want,
                        "{front:?} diverges from AMPI under {algo:?}: the \
                         shared engine must yield byte-identical reductions"
                    );
                }
            }
        }
    }
}

#[test]
fn chaos_reduced_sum_never_silently_wrong() {
    rucx::compat::check::check_with("coll_chaos", 64, |g| {
        let mut spec = FaultSpec::default();
        spec.seed = g.any_u64();
        spec.drop_p = g.f64(0.0..0.25);
        spec.corrupt_p = g.f64(0.0..0.08);
        spec.dup_p = g.f64(0.0..0.08);
        spec.delay_p = g.f64(0.0..0.10);
        spec.delay = us(g.f64(1.0..40.0));
        let mut machine = MachineConfig::default();
        machine.fault = Some(spec);

        let front = g.pick(&FRONTENDS);
        let algo = g.pick(&[Algo::RecursiveDoubling, Algo::Ring, Algo::Hierarchical]);
        let (mut sim, bufs, scratch) = setup(machine, ELEMS);
        // Integer inputs: the expected sum is exact under any combine
        // order, so "wrong" is unambiguous.
        fill(&mut sim, &bufs, |r, i| (r * 100 + i) as f64);
        let (bufs, scratch) = (Arc::new(bufs), Arc::new(scratch));
        let outcome = run_allreduce(&mut sim, front, &bufs, &scratch, algo);

        let unreachable = sim.metrics().get("ucp.unreachable");
        match &outcome {
            RunOutcome::Completed => {}
            RunOutcome::Deadlock(_) if unreachable > 0 => {}
            other => panic!(
                "case seed {:#x}: {front:?}/{algo:?} outcome {other:?} with \
                 {unreachable} give-ups",
                g.case_seed
            ),
        }

        let drops = sim.metrics().get("fault.drop");
        let corrupt = sim.metrics().get("fault.corrupt");
        let dups = sim.metrics().get("fault.duplicate");
        let retries = sim.metrics().get("ucp.retry");
        let m = sim.world_mut();
        if drops + corrupt > 0 && dups == 0 {
            // Every non-duplicate lost fragment is either retransmitted or
            // gave up with a typed error — never silently swallowed.
            assert!(
                retries + unreachable > 0,
                "case seed {:#x}: fragments lost but never retried nor surfaced",
                g.case_seed
            );
        }
        if unreachable == 0 {
            // Clean completion: every rank must hold the exact sum (and
            // `run_allreduce` audited the machine).
            assert!(matches!(outcome, RunOutcome::Completed));
            let n = bufs.len();
            let expected: Vec<u8> = (0..ELEMS)
                .flat_map(|i| {
                    let s: f64 = (0..n).map(|r| (r * 100 + i) as f64).sum();
                    s.to_le_bytes()
                })
                .collect();
            for (r, b) in bufs.iter().enumerate() {
                assert_eq!(
                    m.gpu.pool.read(*b).unwrap(),
                    expected,
                    "case seed {:#x}: {front:?}/{algo:?} rank {r} \
                     completed with a silently wrong sum",
                    g.case_seed
                );
            }
        } else {
            // Give-ups must be observable as typed errors at some worker.
            let mut surfaced = 0;
            for p in 0..12 {
                while let Some(e) = m.ucp.take_worker_error(p) {
                    let msg = e.to_string();
                    assert!(msg.contains("gave up"), "unexpected error: {msg}");
                    surfaced += 1;
                }
            }
            assert_eq!(
                surfaced, unreachable,
                "case seed {:#x}: every give-up must queue exactly one typed error",
                g.case_seed
            );
        }
    });
}
