//! Shared harness utilities: table printing, JSON result emission, the
//! paper's node sweeps and the scorecard.

use std::fs;
use std::path::PathBuf;

use rucx_compat::json::ToJson;

pub mod attr;
pub mod scenario;
pub mod scorecard;

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

/// Weak-scaling node counts, as in the paper: 1, 2, 4, … 256.
pub const WEAK_NODES: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Strong-scaling node counts, as in the paper: 8, 16, … 256.
pub const STRONG_NODES: [usize; 6] = [8, 16, 32, 64, 128, 256];

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
}
