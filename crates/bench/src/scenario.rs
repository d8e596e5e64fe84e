//! Chaos scenario-matrix cells: every workload × fault-scenario pairing
//! the matrix runner (`examples/scenario_matrix.rs`) sweeps.
//!
//! Each cell runs one workload on its own freshly-seeded simulation with
//! one named fault scenario armed (see `rucx_fault`'s `scenario=` spec
//! shorthand) and the structured trace sink enabled, then reports three
//! things: the workload's headline number, the per-layer time attribution
//! rebuilt from the trace, and which recovery mechanism paid for the
//! degradation (retransmission, endpoint park+probe, pipeline-chunk
//! reroute, host-staged fallback, or service-layer resubmission). Cells
//! are fully independent simulations.

use rucx_fabric::Topology;
use rucx_fault::FaultSpec;
use rucx_gpu::{DeviceId, MemRef};
use rucx_sim::time::{as_us, us};
use rucx_sim::Counters;
use rucx_ucp::{build_sim, MSim, MachineConfig};

use crate::attr::Attribution;

/// Matrix axis 1: fault scenarios (`clean` plus every `scenario=` name).
pub const SCENARIOS: [&str; 6] = ["clean", "drop1", "drop5", "partition", "gpufail", "degrade"];

/// Matrix axis 2: workloads, one per programming model of the paper plus
/// the many-client service layer.
pub const WORKLOADS: [&str; 4] = ["osu_latency", "jacobi3d", "allreduce", "svc_load"];

/// Fault spec for a named scenario (`None` for `clean`). Scenario specs
/// pin their own chaos seed, so a cell is reproducible from its name.
pub fn spec_for(scenario: &str) -> Option<FaultSpec> {
    if scenario == "clean" {
        None
    } else {
        Some(
            FaultSpec::parse(&format!("scenario={scenario}"))
                .expect("scenario names come from SCENARIOS"),
        )
    }
}

/// Recovery-mechanism activity harvested from one cell's counters. Every
/// field is a count of *events*, not time — the time they cost shows up
/// in the cell's headline and per-layer attribution instead.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Reliability-layer retransmissions (`ucp.retry`).
    pub retry: u64,
    /// Envelopes parked on Suspect/Dead endpoints (`ucp.parked`).
    pub parked: u64,
    /// Endpoints brought back by keepalive probes (`ucp.ep.healed`).
    pub healed: u64,
    /// Pipeline chunks rerouted off a degraded rail (`ucp.reroute`).
    pub reroute: u64,
    /// Transfers demoted to host staging after a GPU copy-engine failure
    /// (`ucp.fallback.host_staged`).
    pub host_staged: u64,
    /// Endpoints declared unreachable for good (`ucp.giveup`).
    pub giveup: u64,
    /// Service-layer task resubmissions (`svc.resubmit`).
    pub resubmit: u64,
}

impl RecoveryCounts {
    /// Read the standard counter set out of a world's counter map.
    pub fn from_counters(c: &Counters) -> Self {
        RecoveryCounts {
            retry: c.get("ucp.retry"),
            parked: c.get("ucp.parked"),
            healed: c.get("ucp.ep.healed"),
            reroute: c.get("ucp.reroute"),
            host_staged: c.get("ucp.fallback.host_staged"),
            giveup: c.get("ucp.giveup"),
            resubmit: c.get("svc.resubmit"),
        }
    }

    /// The mechanism that paid for this cell's recovery, by semantic
    /// precedence (most structural first), or `"none"` on a clean path.
    /// Precedence rather than magnitude: a parked envelope is retried
    /// several times, so raw counts would always crown plain retry even
    /// when the endpoint state machine did the real work.
    pub fn dominant(&self) -> &'static str {
        if self.resubmit > 0 {
            "resubmit"
        } else if self.parked > 0 {
            "park+probe"
        } else if self.host_staged > 0 {
            "host-staged fallback"
        } else if self.reroute > 0 {
            "reroute"
        } else if self.retry > 0 {
            "retry"
        } else {
            "none"
        }
    }
}

/// One completed matrix cell.
#[derive(Debug, Clone)]
pub struct Cell {
    pub scenario: &'static str,
    pub workload: &'static str,
    /// Workload-native headline number (see `headline_unit`).
    pub headline: f64,
    pub headline_unit: &'static str,
    pub attr: Attribution,
    pub recovery: RecoveryCounts,
}

impl Cell {
    /// Stable machine-readable form; field order and float formatting are
    /// fixed so two runs of the same cell serialize byte-identically.
    pub fn to_json(&self) -> String {
        let r = &self.recovery;
        format!(
            "{{\"scenario\":\"{}\",\"workload\":\"{}\",\"headline\":{:.3},\
             \"unit\":\"{}\",\"dominant\":\"{}\",\
             \"recovery\":{{\"retry\":{},\"parked\":{},\"healed\":{},\
             \"reroute\":{},\"host_staged\":{},\"giveup\":{},\"resubmit\":{}}},\
             \"attr\":{}}}",
            self.scenario,
            self.workload,
            self.headline,
            self.headline_unit,
            r.dominant(),
            r.retry,
            r.parked,
            r.healed,
            r.reroute,
            r.host_staged,
            r.giveup,
            r.resubmit,
            rucx_compat::json::ToJson::to_json(&self.attr),
        )
    }

    /// The layer with the largest attributed span time (`"-"` if the
    /// trace was empty).
    pub fn top_layer(&self) -> &'static str {
        self.attr
            .layers
            .iter()
            .max_by(|a, b| (a.1.busy_ns, a.0).cmp(&(b.1.busy_ns, b.0)))
            .map(|(l, _)| *l)
            .unwrap_or("-")
    }
}

/// All `(scenario, workload)` pairs in canonical (output) order.
pub fn all_cells() -> Vec<(&'static str, &'static str)> {
    let mut v = Vec::new();
    for s in SCENARIOS {
        for w in WORKLOADS {
            v.push((s, w));
        }
    }
    v
}

/// Run one cell on its own simulation. `quick` shrinks iteration counts
/// (used by tests and `--quick`), not the fault timeline.
pub fn run_cell(scenario: &'static str, workload: &'static str, quick: bool) -> Cell {
    match workload {
        "osu_latency" => osu_cell(scenario, quick),
        "jacobi3d" => jacobi_cell(scenario, quick),
        "allreduce" => allreduce_cell(scenario, quick),
        "svc_load" => svc_cell(scenario, quick),
        other => panic!("unknown workload `{other}`"),
    }
}

/// The default machine with the scenario's faults armed.
fn machine(scenario: &str) -> MachineConfig {
    MachineConfig {
        fault: spec_for(scenario),
        ..MachineConfig::default()
    }
}

/// Two-node Summit slice of `machine` with the trace sink recording from
/// t=0.
fn traced_sim(machine: MachineConfig) -> MSim {
    let mut sim = build_sim(Topology::summit(2), machine);
    sim.scheduler().trace.enable(0);
    sim
}

/// A finished cell: its headline plus what the run's trace and counters
/// say about where the time went and which mechanism recovered.
fn cell(
    scenario: &'static str,
    workload: &'static str,
    headline: f64,
    headline_unit: &'static str,
    sim: &MSim,
) -> Cell {
    Cell {
        scenario,
        workload,
        headline,
        headline_unit,
        attr: Attribution::from_sink(&sim.scheduler_ref().trace),
        recovery: RecoveryCounts::from_counters(sim.metrics()),
    }
}

fn alloc_dev(sim: &mut MSim, dev: u32, size: u64) -> MemRef {
    sim.world_mut()
        .gpu
        .pool
        .alloc_device(DeviceId(dev), size, false)
        .expect("device alloc")
}

/// OSU-style inter-node device ping-pong (ranks 0 and 6 sit on different
/// nodes). The headline is the 4 KiB half-round-trip; a trailing 4 MiB
/// transfer exercises the pipelined rendezvous path so rail degradation
/// provably reroutes chunks and a failed copy engine provably demotes to
/// host staging.
fn osu_cell(scenario: &'static str, quick: bool) -> Cell {
    const PEER: usize = 6;
    let iters = if quick { 5u64 } else { 20 };
    let mut sim = traced_sim(machine(scenario));
    let a = alloc_dev(&mut sim, 0, 4 << 10);
    let b = alloc_dev(&mut sim, PEER as u32, 4 << 10);
    let big_a = alloc_dev(&mut sim, 0, 4 << 20);
    let big_b = alloc_dev(&mut sim, PEER as u32, 4 << 20);
    let headline = rucx_ucp::run(&mut sim, |sim, result| {
        rucx_ampi::launch(sim, move |mpi, ctx| match mpi.rank() {
            0 => {
                let t0 = ctx.now();
                for i in 0..iters {
                    mpi.send(ctx, a, PEER, i as i32);
                    mpi.recv(ctx, a, PEER as i32, i as i32);
                }
                *result.lock() = as_us(ctx.now() - t0) / iters as f64 / 2.0;
                // Sit out the early fault window (GPU copy-engine failure at
                // 250 µs, degrade/partition onset at 150 µs) so the post-fault
                // exchanges provably start on the degraded machine: the small
                // eager GDRCopy send demotes to host staging when the copy
                // engine is down, the pipelined bulk transfer reroutes its
                // chunks when a rail is degraded.
                ctx.advance(us(300.0));
                mpi.send(ctx, a, PEER, 10_000);
                mpi.recv(ctx, a, PEER as i32, 10_000);
                mpi.send(ctx, big_a, PEER, 9_999);
            }
            r if r == PEER => {
                for i in 0..iters {
                    mpi.recv(ctx, b, 0, i as i32);
                    mpi.send(ctx, b, 0, i as i32);
                }
                mpi.recv(ctx, b, 0, 10_000);
                mpi.send(ctx, b, 0, 10_000);
                mpi.recv(ctx, big_b, 0, 9_999);
            }
            _ => {}
        })
    })
    .unwrap_or_else(|e| panic!("osu_latency under `{scenario}`: {e}"));
    cell(scenario, "osu_latency", headline, "us/half-rt", &sim)
}

/// Jacobi3D on Charm++ chares, device halos, two nodes. Headline is the
/// per-iteration overall time (max over chares).
fn jacobi_cell(scenario: &'static str, quick: bool) -> Cell {
    use rucx_jacobi::charm_run::run_charm_on;
    use rucx_jacobi::{JacobiConfig, Mode};

    let mut cfg = JacobiConfig::weak(2, Mode::Device);
    cfg.domain = rucx_jacobi::Domain {
        nx: 192,
        ny: 192,
        nz: 192,
    };
    cfg.iters = if quick { 2 } else { 4 };
    cfg.warmup = 1;
    let mut sim = traced_sim(machine(scenario));
    let r = run_charm_on(&mut sim, &cfg, 1)
        .unwrap_or_else(|s| panic!("jacobi cell under {scenario}: {s}"));
    cell(
        scenario,
        "jacobi3d",
        r.overall_ms * 1_000.0,
        "us/iter",
        &sim,
    )
}

/// 64 KiB device allreduce over all 12 ranks (AMPI, engine-chosen
/// algorithm): the OSU collective benchmark's point, barrier-separated.
/// Headline is the per-iteration latency on rank 0.
fn allreduce_cell(scenario: &'static str, quick: bool) -> Cell {
    use rucx_osu::coll_bench::{coll_point, coll_setup, CollKind};
    use rucx_osu::{Model, OsuConfig};

    let cfg = OsuConfig {
        lat_iters: if quick { 2 } else { 4 },
        lat_warmup: 1,
        ..OsuConfig::quick()
    };
    let s = &mut coll_setup(&machine(scenario), 64 << 10);
    s.sim.scheduler().trace.enable(0);
    let headline = coll_point(s, &cfg, Model::Ampi, CollKind::Allreduce, None);
    cell(scenario, "allreduce", headline, "us/iter", &s.sim)
}

/// Many-client scatter/submit/gather load with the recovery layer armed
/// (2.5 ms task deadlines). Headline is the p99 task latency. Host-side
/// traffic only, so `gpufail` honestly leaves this cell untouched; under
/// `partition` the UCP park+probe layer heals the endpoints well inside
/// the task deadline, shielding the service layer from resubmissions.
fn svc_cell(scenario: &'static str, quick: bool) -> Cell {
    use rucx_svc::{machine_config, run_load_on, LoadCfg};

    let cfg = LoadCfg {
        clients: if quick { 12 } else { 24 },
        tasks_per_client: 4,
        data_size: 512,
        window: 8,
        seed: 5,
        fault: spec_for(scenario),
        deadline_us: 2_500.0,
        ..LoadCfg::default()
    };
    let mut machine = machine_config(&cfg);
    // RPC-style tight retransmission budget: a partitioned endpoint
    // exhausts it and engages park+probe instead of backing off for longer
    // than any task deadline.
    machine.ucp.max_retries = 3;
    let mut sim = traced_sim(machine);
    let r =
        run_load_on(&mut sim, &cfg).unwrap_or_else(|e| panic!("svc_load under `{scenario}`: {e}"));
    assert_eq!(
        r.tasks_failed, 0,
        "svc_load abandoned tasks under `{scenario}`"
    );
    cell(scenario, "svc_load", r.p99_us, "us p99", &sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_specs_parse_and_clean_is_none() {
        assert!(spec_for("clean").is_none());
        for s in SCENARIOS.iter().skip(1) {
            assert!(spec_for(s).is_some(), "{s}");
        }
    }

    #[test]
    fn dominant_mechanism_precedence() {
        let mut r = RecoveryCounts::default();
        assert_eq!(r.dominant(), "none");
        r.retry = 100;
        assert_eq!(r.dominant(), "retry");
        r.reroute = 1;
        assert_eq!(r.dominant(), "reroute");
        r.host_staged = 1;
        assert_eq!(r.dominant(), "host-staged fallback");
        r.parked = 1;
        assert_eq!(r.dominant(), "park+probe");
        r.resubmit = 1;
        assert_eq!(r.dominant(), "resubmit");
    }

    #[test]
    fn clean_osu_cell_has_zero_recovery_and_ucx_time() {
        let c = run_cell("clean", "osu_latency", true);
        assert_eq!(c.recovery, RecoveryCounts::default());
        assert_eq!(c.recovery.dominant(), "none");
        assert!(c.headline > 0.0);
        assert!(c.attr.layers.contains_key("UCX"), "{:?}", c.attr.layers);
        // Byte-identical replay: same cell, same serialized bytes.
        assert_eq!(
            c.to_json(),
            run_cell("clean", "osu_latency", true).to_json()
        );
    }

    #[test]
    fn drop5_osu_cell_pays_in_retries() {
        let c = run_cell("drop5", "osu_latency", true);
        assert!(c.recovery.retry > 0, "{:?}", c.recovery);
        assert_eq!(c.recovery.giveup, 0, "{:?}", c.recovery);
        let clean = run_cell("clean", "osu_latency", true);
        assert!(
            c.headline >= clean.headline,
            "5% drop cannot beat clean: {} vs {}",
            c.headline,
            clean.headline
        );
    }

    #[test]
    fn gpufail_osu_cell_falls_back_to_host_staging() {
        let c = run_cell("gpufail", "osu_latency", true);
        assert!(c.recovery.host_staged > 0, "{:?}", c.recovery);
        assert_eq!(c.recovery.giveup, 0, "{:?}", c.recovery);
    }

    #[test]
    fn degrade_osu_cell_reroutes_pipeline_chunks() {
        let c = run_cell("degrade", "osu_latency", true);
        assert!(c.recovery.reroute > 0, "{:?}", c.recovery);
        assert_eq!(c.recovery.dominant(), "reroute");
    }

    #[test]
    fn partition_svc_cell_recovers_below_the_service_layer() {
        let c = run_cell("partition", "svc_load", true);
        assert!(c.recovery.parked > 0, "{:?}", c.recovery);
        assert!(c.recovery.healed > 0, "{:?}", c.recovery);
        assert_eq!(c.recovery.dominant(), "park+probe");
        assert_eq!(c.recovery.giveup, 0, "{:?}", c.recovery);
    }
}
