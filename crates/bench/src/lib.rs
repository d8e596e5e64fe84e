//! Shared harness utilities: table printing, JSON result emission, and
//! environment-based scaling knobs.

use std::fs;
use std::path::PathBuf;

use rucx_compat::json::ToJson;

pub mod attr;
pub mod scenario;

/// Directory benchmark results are written to (JSON, one file per figure).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("RUCX_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            // Anchor at the workspace target dir regardless of the bench
            // binary's working directory.
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../target/rucx-results"
            ))
        });
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Write a machine-readable copy of a figure's data.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let path = out_dir().join(format!("{name}.json"));
    fs::write(&path, value.to_json()).expect("write results");
    println!("  [results written to {}]", path.display());
}

/// Write an already-serialized document (e.g. a Chrome trace from
/// [`rucx_sim::trace::TraceSink::to_chrome_json`]) under the results dir.
pub fn write_text(name: &str, contents: &str) {
    let path = out_dir().join(name);
    fs::write(&path, contents).expect("write results");
    println!("  [results written to {}]", path.display());
}

/// The chaos knob shared by every driver: `RUCX_FAULT_SPEC` holds a fault
/// specification (see [`rucx_fault::FaultSpec::parse`] for the grammar,
/// e.g. `seed=7,drop=0.01,delay=0.05:20`), parsed once per run into
/// [`rucx_ucp::MachineConfig::fault`]. Unset means a clean machine; an
/// unparseable spec aborts the run rather than silently benchmarking the
/// wrong configuration.
pub fn fault_spec_from_env() -> Option<rucx_fault::FaultSpec> {
    let raw = std::env::var("RUCX_FAULT_SPEC").ok()?;
    match rucx_fault::FaultSpec::parse(&raw) {
        Ok(spec) => {
            // Announce once, not per sweep point.
            static ANNOUNCED: std::sync::Once = std::sync::Once::new();
            ANNOUNCED.call_once(|| println!("  [fault injection active: RUCX_FAULT_SPEC={raw}]"));
            Some(spec)
        }
        Err(e) => panic!("invalid RUCX_FAULT_SPEC {raw:?}: {e}"),
    }
}

/// Largest node count for the Jacobi3D scaling sweeps (paper: 256).
/// Override with `RUCX_MAX_NODES` to trade fidelity for wall-clock time.
pub fn max_nodes() -> usize {
    std::env::var("RUCX_MAX_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(256)
}

/// Weak-scaling node counts: 1, 2, 4, … up to [`max_nodes`].
pub fn weak_nodes() -> Vec<usize> {
    let mut v = vec![];
    let mut n = 1;
    while n <= max_nodes() {
        v.push(n);
        n *= 2;
    }
    v
}

/// Strong-scaling node counts: 8, 16, … up to [`max_nodes`] (paper: 8–256).
pub fn strong_nodes() -> Vec<usize> {
    let mut v = vec![];
    let mut n = 8;
    while n <= max_nodes() {
        v.push(n);
        n *= 2;
    }
    if v.is_empty() {
        v.push(max_nodes().max(1));
    }
    v
}

/// Pretty-print one table: a header row plus formatted data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(header.iter().map(|s| s.to_string()).collect())
    );
    for r in rows {
        println!("{}", fmt_row(r.clone()));
    }
}

/// Format a byte size like the OSU tables (1K, 4M, …).
pub fn fmt_size(s: u64) -> String {
    if s >= 1 << 20 {
        format!("{}M", s >> 20)
    } else if s >= 1 << 10 {
        format!("{}K", s >> 10)
    } else {
        format!("{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_formatting() {
        assert_eq!(fmt_size(1), "1");
        assert_eq!(fmt_size(512), "512");
        assert_eq!(fmt_size(1024), "1K");
        assert_eq!(fmt_size(4 << 20), "4M");
    }

    #[test]
    fn node_sweeps_are_powers_of_two() {
        for n in weak_nodes() {
            assert!(n.is_power_of_two());
        }
        for n in strong_nodes() {
            assert!(n >= 8 || strong_nodes().len() == 1);
        }
    }
}
