//! # rucx-fault — seeded, deterministic fault injection
//!
//! The evaluation in the source paper assumes a perfect Summit fabric; the
//! real UCX machine layer it extends ships endpoint error handling,
//! keepalives, and transport failover. This crate supplies the adversary
//! those mechanisms exist for: a [`FaultSpec`] describes which faults to
//! inject (envelope drop / duplicate / delay / corrupt, link bandwidth
//! degradation and partition windows, GPU copy-engine failures), and a
//! [`FaultState`] turns the spec into per-event decisions driven by a
//! seeded [`Rng`].
//!
//! Every decision is a pure function of `(spec, seed, query sequence)`, and
//! the query sequence is itself a pure function of the deterministic
//! discrete-event schedule — so a faulty run replays byte-identically from
//! one seed, which is what makes chaos runs diffable and regressions in the
//! recovery protocol pinnable.
//!
//! The injection points live above this crate: `rucx-ucp` consults
//! [`FaultState::wire_fault`] when it transmits an envelope and
//! [`FaultState::gpudirect_lost`] when it selects a GPU-direct transport;
//! `rucx-fabric` applies [`LinkFaults::bw_factor`] to the wire bandwidth.

pub mod metrics;
pub mod spec;

pub use spec::{DegradeWindow, FaultSpec, GpuFail, HealEvent, LinkFilter, PartitionWindow};

use rucx_compat::rng::Rng;
use rucx_sim::time::Time;

/// Outcome of the per-envelope fault lottery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Deliver normally.
    None,
    /// The envelope is silently lost in the fabric.
    Drop,
    /// The envelope is delivered twice (switch retransmission artifact).
    Duplicate,
    /// The envelope is delivered after an extra delay (congested queue,
    /// adaptive-routing detour).
    Delay(rucx_sim::time::Duration),
    /// The envelope arrives with a payload that fails its checksum; the
    /// receiver detects and discards it (observable, unlike a drop).
    Corrupt,
}

/// Link-level fault schedule handed to the fabric: bandwidth degradation
/// windows, filtered to the links the spec targets. Partition windows are
/// handled at the envelope layer (a partitioned link drops everything).
#[derive(Debug, Clone, Default)]
pub struct LinkFaults {
    filter: LinkFilter,
    degrade: Vec<DegradeWindow>,
    heal: Vec<HealEvent>,
}

impl LinkFaults {
    /// Bandwidth multiplier (in `(0, 1]`) for the `(a, b)` node link at
    /// virtual time `now`. Overlapping windows compound; a heal event on
    /// the link ends every window for it.
    pub fn bw_factor(&self, a: usize, b: usize, now: Time) -> f64 {
        if !self.filter.matches(a, b) {
            return 1.0;
        }
        if self
            .heal
            .iter()
            .any(|h| h.at <= now && ((h.a, h.b) == (a, b) || (h.b, h.a) == (a, b)))
        {
            return 1.0;
        }
        let mut f = 1.0;
        for w in &self.degrade {
            if w.from <= now && now < w.until {
                f *= w.factor;
            }
        }
        f
    }

    /// True when any degradation window can ever apply (lets the fabric
    /// skip the scan entirely for clean runs).
    pub fn is_empty(&self) -> bool {
        self.degrade.is_empty()
    }
}

/// Live fault-injection state: the spec plus the seeded decision RNG and
/// injection accounting. Embedded in the simulated world; a disabled state
/// costs one boolean check on the hot path.
#[derive(Debug)]
pub struct FaultState {
    spec: Option<FaultSpec>,
    rng: Rng,
    injected: u64,
}

impl Default for FaultState {
    fn default() -> Self {
        FaultState::disabled()
    }
}

impl FaultState {
    /// No fault injection: every query answers "no fault" without touching
    /// the RNG.
    pub fn disabled() -> Self {
        FaultState {
            spec: None,
            rng: Rng::new(0),
            injected: 0,
        }
    }

    /// Activate injection under `spec`.
    pub fn from_spec(spec: FaultSpec) -> Self {
        let rng = Rng::new(spec.seed);
        FaultState {
            spec: Some(spec),
            rng,
            injected: 0,
        }
    }

    /// Whether a fault spec is loaded. This is the single branch the
    /// no-fault send path pays.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.spec.is_some()
    }

    /// The loaded spec, if any.
    pub fn spec(&self) -> Option<&FaultSpec> {
        self.spec.as_ref()
    }

    /// Total faults injected so far (drops + duplicates + delays +
    /// corruptions; degradation windows and GPU failures are schedules, not
    /// counted events).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The degradation schedule for the fabric, when one exists.
    pub fn link_faults(&self) -> Option<LinkFaults> {
        let spec = self.spec.as_ref()?;
        if spec.degrade.is_empty() {
            return None;
        }
        Some(LinkFaults {
            filter: spec.links.clone(),
            degrade: spec.degrade.clone(),
            heal: spec.heal.clone(),
        })
    }

    /// Per-envelope fault lottery for a transmission on the `(src_node,
    /// dst_node)` link at time `now`. At most one fault applies per
    /// envelope; a partition window turns every envelope on the link into a
    /// drop. Deterministic: the RNG is consulted only for envelopes on
    /// links the spec targets, in event order.
    pub fn wire_fault(&mut self, src_node: usize, dst_node: usize, now: Time) -> WireFault {
        let Some(spec) = self.spec.as_ref() else {
            return WireFault::None;
        };
        if !spec.links.matches(src_node, dst_node) {
            return WireFault::None;
        }
        if !spec.healed(src_node, dst_node, now) {
            for w in &spec.partitions {
                if w.from <= now && now < w.until {
                    self.injected += 1;
                    return WireFault::Drop;
                }
            }
        }
        if self.injected >= spec.max_faults {
            return WireFault::None;
        }
        let lottery = spec.drop_p + spec.dup_p + spec.delay_p + spec.corrupt_p;
        if lottery <= 0.0 {
            return WireFault::None;
        }
        let r = self.rng.gen_f64();
        let fault = if r < spec.drop_p {
            WireFault::Drop
        } else if r < spec.drop_p + spec.dup_p {
            WireFault::Duplicate
        } else if r < spec.drop_p + spec.dup_p + spec.delay_p {
            // Extra delay uniform in (half, full] of the configured bound,
            // so delayed envelopes spread instead of synchronizing.
            let frac = 0.5 + self.rng.gen_f64() * 0.5;
            WireFault::Delay((spec.delay as f64 * frac) as rucx_sim::time::Duration)
        } else if r < lottery {
            WireFault::Corrupt
        } else {
            WireFault::None
        };
        if fault != WireFault::None {
            self.injected += 1;
        }
        fault
    }

    /// Whether device `dev`'s GPU-direct capability (GDRCopy mapping, CUDA
    /// IPC, GPUDirect RDMA — the copy-engine-driven peer paths) has failed
    /// by time `now`. The UCP layer degrades affected transfers onto the
    /// host-staged pipeline instead of failing them.
    pub fn gpudirect_lost(&self, dev: u32, now: Time) -> bool {
        match self.spec.as_ref() {
            None => false,
            Some(spec) => spec.gpu_fail.iter().any(|g| g.device == dev && g.at <= now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rucx_sim::time::us;

    fn lossy(drop: f64) -> FaultSpec {
        let mut s = FaultSpec::default();
        s.seed = 42;
        s.drop_p = drop;
        s
    }

    #[test]
    fn disabled_state_never_faults() {
        let mut f = FaultState::disabled();
        assert!(!f.enabled());
        for _ in 0..100 {
            assert_eq!(f.wire_fault(0, 1, 0), WireFault::None);
        }
        assert!(!f.gpudirect_lost(0, u64::MAX));
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn lottery_is_deterministic_for_seed() {
        let draw = || {
            let mut f = FaultState::from_spec(lossy(0.3));
            (0..256)
                .map(|i| f.wire_fault(0, 1, i as Time))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn drop_rate_roughly_matches_probability() {
        let mut f = FaultState::from_spec(lossy(0.25));
        let n = 10_000;
        let drops = (0..n)
            .filter(|_| f.wire_fault(0, 1, 0) == WireFault::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate={rate}");
        assert_eq!(f.injected(), drops as u64);
    }

    #[test]
    fn link_filter_shields_other_links() {
        let mut s = lossy(1.0);
        s.links = LinkFilter::Pairs(vec![(0, 1)]);
        let mut f = FaultState::from_spec(s);
        assert_eq!(f.wire_fault(0, 2, 0), WireFault::None);
        assert_eq!(f.wire_fault(2, 1, 0), WireFault::None);
        // Both directions of the targeted pair fault.
        assert_eq!(f.wire_fault(0, 1, 0), WireFault::Drop);
        assert_eq!(f.wire_fault(1, 0, 0), WireFault::Drop);
    }

    #[test]
    fn partition_window_drops_everything_inside_it() {
        let mut s = FaultSpec::default();
        s.partitions.push(PartitionWindow {
            from: us(100.0),
            until: us(200.0),
        });
        let mut f = FaultState::from_spec(s);
        assert_eq!(f.wire_fault(0, 1, us(50.0)), WireFault::None);
        assert_eq!(f.wire_fault(0, 1, us(150.0)), WireFault::Drop);
        assert_eq!(f.wire_fault(0, 1, us(250.0)), WireFault::None);
    }

    #[test]
    fn max_faults_bounds_injection() {
        let mut s = lossy(1.0);
        s.max_faults = 3;
        let mut f = FaultState::from_spec(s);
        let drops = (0..100)
            .filter(|_| f.wire_fault(0, 1, 0) == WireFault::Drop)
            .count();
        assert_eq!(drops, 3);
    }

    #[test]
    fn delay_amount_is_bounded_and_nonzero() {
        let mut s = FaultSpec::default();
        s.delay_p = 1.0;
        s.delay = us(20.0);
        let mut f = FaultState::from_spec(s);
        for _ in 0..64 {
            match f.wire_fault(0, 1, 0) {
                WireFault::Delay(d) => {
                    assert!(d > us(9.9) && d <= us(20.0), "d={d}");
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn gpu_failure_is_permanent_from_its_onset() {
        let mut s = FaultSpec::default();
        s.gpu_fail.push(GpuFail {
            device: 3,
            at: us(250.0),
        });
        let f = FaultState::from_spec(s);
        assert!(!f.gpudirect_lost(3, us(100.0)));
        assert!(f.gpudirect_lost(3, us(250.0)));
        assert!(f.gpudirect_lost(3, us(9_999.0)));
        assert!(!f.gpudirect_lost(2, us(9_999.0)));
    }

    #[test]
    fn heal_ends_partition_for_the_named_link_only() {
        let mut s = FaultSpec::default();
        s.partitions.push(PartitionWindow {
            from: us(100.0),
            until: us(1_000.0),
        });
        s.heal.push(spec::HealEvent {
            a: 0,
            b: 1,
            at: us(400.0),
        });
        let mut f = FaultState::from_spec(s);
        // Inside the window before the heal: both links drop.
        assert_eq!(f.wire_fault(0, 1, us(200.0)), WireFault::Drop);
        assert_eq!(f.wire_fault(0, 2, us(200.0)), WireFault::Drop);
        // After the heal: 0-1 (either direction) delivers, 0-2 still drops.
        assert_eq!(f.wire_fault(0, 1, us(500.0)), WireFault::None);
        assert_eq!(f.wire_fault(1, 0, us(500.0)), WireFault::None);
        assert_eq!(f.wire_fault(0, 2, us(500.0)), WireFault::Drop);
        // Window end recovers everyone.
        assert_eq!(f.wire_fault(0, 2, us(1_500.0)), WireFault::None);
    }

    #[test]
    fn heal_ends_degrade_windows() {
        let mut s = FaultSpec::default();
        s.degrade.push(DegradeWindow {
            from: 0,
            until: us(1_000.0),
            factor: 0.5,
        });
        s.heal.push(spec::HealEvent {
            a: 0,
            b: 1,
            at: us(300.0),
        });
        let f = FaultState::from_spec(s);
        let lf = f.link_faults().expect("degrade schedule present");
        assert_eq!(lf.bw_factor(0, 1, us(100.0)), 0.5);
        assert_eq!(lf.bw_factor(0, 1, us(300.0)), 1.0);
        assert_eq!(lf.bw_factor(0, 2, us(300.0)), 0.5);
    }

    #[test]
    fn degrade_windows_compound_and_filter() {
        let mut s = FaultSpec::default();
        s.links = LinkFilter::Pairs(vec![(0, 1)]);
        s.degrade.push(DegradeWindow {
            from: 0,
            until: us(100.0),
            factor: 0.5,
        });
        s.degrade.push(DegradeWindow {
            from: us(50.0),
            until: us(100.0),
            factor: 0.5,
        });
        let f = FaultState::from_spec(s);
        let lf = f.link_faults().expect("degrade schedule present");
        assert_eq!(lf.bw_factor(0, 1, us(10.0)), 0.5);
        assert_eq!(lf.bw_factor(0, 1, us(75.0)), 0.25);
        assert_eq!(lf.bw_factor(0, 1, us(150.0)), 1.0);
        assert_eq!(lf.bw_factor(0, 2, us(10.0)), 1.0);
    }
}
