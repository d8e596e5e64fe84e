//! Virtual time for the discrete-event simulation.
//!
//! Simulated time is an integer number of **nanoseconds** since simulation
//! start. All latency/bandwidth results reported by the benchmark harness are
//! derived from this clock, never from wall-clock time.

/// Virtual time in nanoseconds since simulation start.
pub type Time = u64;

/// Duration in virtual nanoseconds.
pub type Duration = u64;

/// One nanosecond.
pub const NANO: Duration = 1;
/// One microsecond in nanoseconds.
pub const MICRO: Duration = 1_000;
/// One millisecond in nanoseconds.
pub const MILLI: Duration = 1_000_000;
/// One second in nanoseconds.
pub const SEC: Duration = 1_000_000_000;

/// Convert a duration in (possibly fractional) microseconds to virtual time.
#[inline]
pub const fn us(v: f64) -> Duration {
    (v * MICRO as f64).round() as Duration
}

/// Convert a duration in (possibly fractional) milliseconds to virtual time.
#[inline]
pub const fn ms(v: f64) -> Duration {
    (v * MILLI as f64).round() as Duration
}

/// Express a virtual duration in fractional microseconds.
#[inline]
pub fn as_us(t: Duration) -> f64 {
    t as f64 / MICRO as f64
}

/// Express a virtual duration in fractional milliseconds.
#[inline]
pub fn as_ms(t: Duration) -> f64 {
    t as f64 / MILLI as f64
}

/// Express a virtual duration in fractional seconds.
#[inline]
pub fn as_secs(t: Duration) -> f64 {
    t as f64 / SEC as f64
}

/// Time needed to move `bytes` over a link of `gbps` gigabytes per second
/// (base-10 GB, matching how network/GPU link bandwidths are quoted).
///
/// Returns zero for zero-byte transfers; callers add per-message latency
/// separately (α-β model: `alpha + beta * size`).
#[inline]
pub fn transfer_time(bytes: u64, gbps: f64) -> Duration {
    if bytes == 0 || gbps <= 0.0 {
        return 0;
    }
    // gbps GB/s == gbps bytes/ns.
    (bytes as f64 / gbps).round() as Duration
}

/// Achieved bandwidth in MB/s (base-10) for `bytes` moved in `elapsed` time.
#[inline]
pub fn bandwidth_mbps(bytes: u64, elapsed: Duration) -> f64 {
    if elapsed == 0 {
        return f64::INFINITY;
    }
    // bytes/ns * 1e9 = bytes/s; / 1e6 = MB/s.
    bytes as f64 / elapsed as f64 * 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        assert_eq!(us(1.0), 1_000);
        assert_eq!(ms(1.0), 1_000_000);
        assert_eq!(us(0.5), 500);
        assert!((as_us(1_500) - 1.5).abs() < 1e-12);
        assert!((as_ms(2_500_000) - 2.5).abs() < 1e-12);
        assert!((as_secs(3 * SEC) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_time_alpha_beta() {
        // 50 GB/s moves 50 bytes per ns.
        assert_eq!(transfer_time(50, 50.0), 1);
        assert_eq!(transfer_time(5_000_000, 50.0), 100_000); // 5 MB in 100 us
        assert_eq!(transfer_time(0, 50.0), 0);
        assert_eq!(transfer_time(123, 0.0), 0);
    }

    #[test]
    fn bandwidth_of_transfer_is_consistent() {
        let bytes = 4 << 20;
        let t = transfer_time(bytes, 12.5);
        let bw = bandwidth_mbps(bytes, t);
        // 12.5 GB/s == 12_500 MB/s.
        assert!((bw - 12_500.0).abs() / 12_500.0 < 0.01, "bw={bw}");
    }

    #[test]
    fn zero_elapsed_bandwidth_is_infinite() {
        assert!(bandwidth_mbps(10, 0).is_infinite());
    }
}
