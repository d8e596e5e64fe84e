//! The rucx benchmark: six host-time workloads, a layer ladder and a
//! traced run. See `README.md` beside this package for what every
//! workload and metric means; `BENCHMARK.json` at the repository root is
//! the contract the numbers are judged by.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S | --passes N] [--trace 0|1]
//! benchmark [--workload all] [--trace] [--json PATH]
//! benchmark --layers | --selfcheck
//! ```
//!
//! One workload runs in this process (so `setup_s` and `peak_rss_mb` are
//! its own) and ends with one JSON line: the end-to-end metrics with
//! tracing off, every per-layer metric with `--trace 1`. `all` starts one
//! fresh process per workload.

mod layers;
mod measure;
mod paper_ref;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use rucx::compat::json::ToJson;

use measure::{cpu_seconds, digest, peak_rss_mb, run_pass, Case, Metric, Pass};
use trace::Spans;
use workloads::Workload;

/// Allowed worsening per end-to-end metric, as in `BENCHMARK.json`.
const BOUNDS: [(&str, f64); 4] = [
    ("ops_per_s", 0.25),
    ("cpu_s_per_kop", 0.25),
    ("peak_rss_mb", 0.25),
    ("setup_s", 0.25),
];
/// Extra fresh processes that repeat the set-up, so `setup_s` is a median.
const SETUP_PROBES: usize = 4;
/// Fewest timed passes of a run.
const MIN_PASSES: usize = 3;
const OUT_DIR: &str = "target/benchmark";

struct Opts {
    /// `all` unless `--workload` names one.
    workload: String,
    seed: u64,
    seconds: f64,
    passes: Option<usize>,
    trace: bool,
    layers: bool,
    selfcheck: bool,
    setup_probe: bool,
    json: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--passes N] \
         [--trace [0|1]] [--json PATH] | --layers | --selfcheck\n\
         workloads: {}",
        workloads::NAMES.join(", ")
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut o = Opts {
        workload: "all".into(),
        seed: 1,
        seconds: 10.0,
        passes: None,
        trace: false,
        layers: false,
        selfcheck: false,
        setup_probe: false,
        json: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => o.workload = value(&mut i),
            "--seed" => {
                // Any integer is a seed; a negative one keeps its bits.
                let v = value(&mut i);
                o.seed = v
                    .parse()
                    .or_else(|_| v.parse::<i64>().map(|s| s as u64))
                    .unwrap_or_else(|_| usage())
            }
            "--seconds" => o.seconds = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--passes" => o.passes = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--json" => o.json = Some(value(&mut i)),
            "--layers" => o.layers = true,
            "--selfcheck" => o.selfcheck = true,
            "--setup-probe" => o.setup_probe = true,
            // A bare `--trace` means on; the driver passes `--trace 0|1`.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    o.trace = false;
                    i += 1;
                }
                Some("1") => {
                    o.trace = true;
                    i += 1;
                }
                _ => o.trace = true,
            },
            _ => usage(),
        }
        i += 1;
    }
    if o.workload != "all" && !workloads::NAMES.contains(&o.workload.as_str()) {
        usage();
    }
    if o.passes.is_some_and(|p| p < MIN_PASSES) || o.seconds.is_nan() || o.seconds <= 0.0 {
        eprintln!("need --passes >= {MIN_PASSES} and --seconds > 0");
        std::process::exit(2);
    }
    o
}

/// Two entries of one name must never be measured under different
/// configurations: refuse to run when a knob that changes what the crates
/// do is set in the environment.
fn hygiene() {
    let bad: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| {
            matches!(
                k.as_str(),
                "RUCX_SCHED_BACKEND" | "RUCX_AUTOTUNE" | "RUCX_FAULT_SPEC" | "RUCX_MAX_NODES"
            ) || k.starts_with("RUCX_BENCH_")
        })
        .collect();
    if !bad.is_empty() {
        eprintln!("benchmark: unset {} and run again", bad.join(", "));
        std::process::exit(2);
    }
}

/// The configuration every output records.
fn stamp(o: &Opts, config: &str, passes: usize) -> String {
    let commit = if std::path::Path::new(".git").exists() {
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    } else {
        None
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "commit={} nproc={nproc} backend={:?} seed={} passes={passes} trace={} | {config}",
        commit.as_deref().unwrap_or("unknown"),
        rucx::sim::Backend::from_env(),
        o.seed,
        o.trace as u8,
    )
}

fn write_out(name: &str, contents: &str) {
    std::fs::create_dir_all(OUT_DIR).expect("create target/benchmark");
    std::fs::write(format!("{OUT_DIR}/{name}"), contents).expect("write benchmark output");
}

/// What a run reports; `result_line` turns it into the final JSON line.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value.to_json(),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics)
    )
}

/// `"name": {"value": X` out of a result line this program printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let at = line.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &line[at + name.len() + 14..];
    rest[..rest.find(',')?].parse().ok()
}

/// Checks shared by timed and traced runs: every case completed, the
/// digest repeats, and the workload's own check holds. Returns the ops
/// that count as failed and the first pass's `virt_digest`.
fn failed_ops(w: &Workload, passes: &[Pass], reference: Option<&Pass>) -> (u64, u64) {
    let clean = reference.and_then(Pass::complete_outs);
    let first = digest(&passes[0].outs);
    if reference.is_some() && clean.is_none() {
        println!("  FAILED: a clean reference case did not complete");
        return (w.ops_per_pass() * passes.len() as u64, first);
    }
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate() {
        let verdict = match p.complete_outs() {
            None => Err(format!(
                "{} ops in cases that did not complete",
                p.failed_ops(&w.cases)
            )),
            Some(_) if digest(&p.outs) != first => Err("virt_digest differs from pass 0".into()),
            Some(outs) => (w.check)(&outs, clean.as_deref()),
        };
        if let Err(why) = verdict {
            println!("  FAILED pass {i}: {why}");
            // A pass that fails its check fails all its ops.
            failed += w.ops_per_pass();
        }
    }
    (failed, first)
}

fn print_metrics(metrics: &[Metric]) {
    metrics.iter().for_each(Metric::print);
}

// ------------------------------------------------------------- timed run

/// This process's set-up: input build plus the warm-up pass, measured from
/// process start (`start`) to the moment timed passes could begin.
fn setup(o: &Opts, start: Instant) -> (Workload, f64) {
    let w = workloads::build(&o.workload, o.seed).expect("workload name was checked");
    let warm = run_pass(&w.warm, None);
    assert_eq!(
        warm.failed_ops(&w.warm),
        0,
        "warm-up pass of {} failed",
        w.name
    );
    (w, start.elapsed().as_secs_f64())
}

/// Set up in `SETUP_PROBES` fresh processes and collect their `setup_s`.
fn probe_setups(o: &Opts) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", &o.workload])
                .args(["--seed", &o.seed.to_string()])
                .output()
                .expect("start set-up probe");
            assert!(out.status.success(), "set-up probe failed");
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse()
                .expect("set-up probe prints its setup_s")
        })
        .collect()
}

fn timed_run(o: &Opts, start: Instant) -> Report {
    let (w, own_setup) = setup(o, start);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let enough = |passes: &[Pass]| match o.passes {
        Some(n) => passes.len() >= n,
        // Stop at the pass count whose total is nearest `--seconds`.
        None => {
            let half_pass = 0.5 * passes.last().map_or(0.0, |p| p.wall_s);
            passes.len() >= MIN_PASSES && t0.elapsed().as_secs_f64() + half_pass >= o.seconds
        }
    };
    while !enough(&passes) {
        passes.push(run_pass(&w.cases, None));
    }
    let cpu = cpu_seconds() - cpu0;
    let rss = peak_rss_mb();
    let n = passes.len();
    let stamp = stamp(o, &w.config, n);
    println!("== {} [{stamp}]", w.name);

    let reference = (!w.reference.is_empty()).then(|| run_pass(&w.reference, None));
    let (failed, virt_digest) = failed_ops(&w, &passes, reference.as_ref());
    let attempted = w.ops_per_pass() * n as u64;

    let mut setups = vec![own_setup];
    setups.extend(probe_setups(o));

    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let ops = w.ops_per_pass() as f64;
    let rates: Vec<f64> = walls.iter().map(|s| ops / s).collect();
    let metrics = vec![
        Metric::from_samples("ops_per_s", "ops/s", &rates),
        Metric::exact("cpu_s_per_kop", "s/kop", cpu / (attempted as f64 / 1e3)),
        Metric::exact("peak_rss_mb", "MB", rss),
        Metric::from_samples("setup_s", "s", &setups),
    ];
    println!(
        "  op = {}; {} ops/pass, {n} timed passes",
        w.op,
        w.ops_per_pass()
    );
    print_metrics(&metrics);
    match w.paper_err_pct.as_ref().zip(passes[0].complete_outs()) {
        Some((f, outs)) => Metric::exact("paper_err_pct", "%", f(&outs)).print(),
        None => {
            println!("  paper_err_pct: model unvalidated (EXPERIMENTS.md holds no paper value)")
        }
    }
    println!("  ops_attempted {attempted}  ops_failed {failed}  virt_digest {virt_digest:016x}");

    let case_keys: Vec<&str> = w.cases.iter().map(|c| c.key.as_str()).collect();
    let case_ns: Vec<&Vec<f64>> = passes.iter().map(|p| &p.case_ns).collect();
    let raw = [
        format!("\"workload\": \"{}\"", w.name),
        format!("\"stamp\": {}", stamp.to_json()),
        format!("\"attempted\": {attempted}, \"failed\": {failed}"),
        format!("\"virt_digest\": \"{virt_digest:016x}\""),
        format!("\"metrics\": {}", metrics_json(&metrics)),
        format!("\"pass_wall_s\": {}", walls.to_json()),
        format!("\"setup_samples_s\": {}", setups.to_json()),
        format!("\"case_keys\": {}", case_keys.to_json()),
        format!("\"case_ns\": {}", case_ns.to_json()),
    ];
    let raw = format!("{{{}}}\n", raw.join(", "));
    write_out(&format!("{}.json", w.name), &raw);
    if let Some(path) = &o.json {
        std::fs::write(path, &raw).expect("write --json output");
    }
    Report {
        attempted,
        failed,
        metrics,
    }
}

// ------------------------------------------------------------ traced run

/// One warmed, untraced pass of `w` (plus the clean reference pass where
/// the workload has one) and the per-case splits it yields.
fn split_pass(w: &Workload) -> (Pass, Option<Pass>, Vec<Metric>) {
    let pass = run_pass(&w.cases, None);
    let reference = (!w.reference.is_empty()).then(|| run_pass(&w.reference, None));
    let mut m = Vec::new();
    if let Some(outs) = pass.complete_outs() {
        m = (w.splits)(&w.cases, &pass.case_ns, &outs);
        if let Some(f) = &w.paper_err_pct {
            let layer = w
                .name
                .split('_')
                .next()
                .expect("workload names have a stem");
            m.push(Metric::exact(
                format!("{layer}.paper_err_pct"),
                "%",
                f(&outs),
            ));
        }
        if let Some(r) = &reference {
            m.extend(workloads::chaos_slowdowns(w, &pass.case_ns, &r.case_ns));
        }
    }
    (pass, reference, m)
}

/// Jacobi3D host cost at the two other scales the roadmap quotes.
fn jacobi_scale_rungs() -> (Vec<Case>, Vec<Metric>, Pass) {
    use rucx::jacobi::JacobiModel;
    use rucx::osu::Mode;
    let cases: Vec<Case> = [2usize, 32]
        .into_iter()
        .map(|n| {
            workloads::jacobi_case(
                JacobiModel::Charm,
                format!("{n}n"),
                n,
                Mode::Device,
                2,
                None,
            )
        })
        .collect();
    let pass = run_pass(&cases, None);
    let metrics = cases
        .iter()
        .zip(&pass.case_ns)
        .map(|(c, ns)| {
            Metric::exact(
                format!("jacobi.host_ms_per_rank_iter_{}.charm", c.key),
                "ms",
                ns / c.ops as f64 / 1e6,
            )
        })
        .collect();
    (cases, metrics, pass)
}

/// The traced run of one workload. It is never used for end-to-end
/// numbers: it runs one untraced and one traced pass of the workload (the
/// difference is the tracing overhead), one pass of every other workload
/// for its per-case splits, and the whole ladder.
fn traced_run(o: &Opts, start: Instant) -> Report {
    let (w, _) = setup(o, start);
    println!("== {} traced [{}]", w.name, stamp(o, &w.config, 1));
    let mut metrics = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut account = |w: &Workload, pass: Pass, reference: Option<Pass>| {
        attempted += w.ops_per_pass();
        failed += failed_ops(w, &[pass], reference.as_ref()).0;
    };

    // The workload itself: untraced, then traced.
    let (untraced, reference, own_splits) = split_pass(&w);
    let mut spans = Spans::new(w.name);
    let traced = run_pass(&w.cases, Some(&mut spans));
    metrics.push(Metric::exact(
        "trace.overhead_pct",
        "%",
        100.0 * (traced.wall_s / untraced.wall_s - 1.0),
    ));
    println!("  host self time by span, traced pass of {}:", w.name);
    for (name, ns) in spans.self_by_name() {
        println!("    {name:<20} {:>10.3} ms", ns as f64 / 1e6);
    }
    let untraced_wall = untraced.wall_s;
    account(&w, untraced, reference);
    account(&w, traced, None);

    // Every workload's splits, in a fixed order.
    for name in workloads::NAMES {
        if name == w.name {
            metrics.extend(own_splits.iter().cloned());
            continue;
        }
        let other = workloads::build(name, o.seed).expect("known workload");
        assert_eq!(run_pass(&other.warm, None).failed_ops(&other.warm), 0);
        let (pass, reference, splits) = split_pass(&other);
        metrics.extend(splits);
        account(&other, pass, reference);
    }
    let (cases, scale, pass) = jacobi_scale_rungs();
    attempted += cases.iter().map(|c| c.ops).sum::<u64>();
    failed += pass.failed_ops(&cases);
    metrics.extend(scale);

    // The ladder, then the traced model rungs.
    metrics.extend(layers::run());
    spans.set_workload("ladder");
    let (virt, gaps) = layers::traced_model_rungs(&mut spans);
    metrics.extend(virt);
    for (rung, gap) in gaps {
        println!("  [{rung}.rung: phases' self times are within {gap:.3}% of the rung's span]");
    }
    write_out(&format!("trace_{}.json", w.name), &spans.to_chrome_json());
    println!(
        "  [{} spans written to {OUT_DIR}/trace_{}.json; untraced pass {untraced_wall:.3} s]",
        spans.spans.len(),
        w.name
    );
    print_metrics(&metrics);
    Report {
        attempted,
        failed,
        metrics,
    }
}

// ------------------------------------------------------- all, selfcheck

/// What a workload process printed: its result line, and the lines that
/// carry simulated values (`virt_digest`, `paper_err_pct`), which must
/// repeat exactly between runs of the same code.
struct ChildOut {
    result: String,
    virt: String,
}

impl ChildOut {
    fn correct(&self) -> bool {
        self.result.contains("\"correct\": true")
    }
}

/// Run one workload in a fresh process and echo its output.
fn child(o: &Opts, workload: &str, trace: bool) -> ChildOut {
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    match o.passes {
        Some(p) => cmd.args(["--passes", &p.to_string()]),
        None => cmd.args(["--seconds", &o.seconds.to_string()]),
    };
    let mut proc = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("start workload process");
    let mut out = ChildOut {
        result: String::new(),
        virt: String::new(),
    };
    for line in BufReader::new(proc.stdout.take().expect("piped stdout")).lines() {
        let line = line.expect("read workload output");
        if !line.starts_with("{\"correct\"") {
            println!("{line}");
        }
        if line.contains("virt_digest") || line.contains("paper_err_pct") {
            out.virt.push_str(&line);
        }
        out.result = line;
    }
    let status = proc.wait().expect("wait for workload process");
    assert!(status.success(), "workload process for {workload} failed");
    out
}

fn run_all(o: &Opts) -> bool {
    let mut ok = true;
    let mut lines = Vec::new();
    for name in workloads::NAMES {
        let out = child(o, name, false);
        ok &= out.correct();
        lines.push(format!("\"{name}\": {}", out.result));
        if o.trace {
            ok &= child(o, name, true).correct();
        }
    }
    let all = format!("{{{}}}\n", lines.join(",\n"));
    write_out("all.json", &all);
    if let Some(path) = &o.json {
        std::fs::write(path, &all).expect("write --json output");
    }
    ok
}

/// A/A: every workload twice; fails if any end-to-end metric differs by
/// more than its bound or a simulated value differs at all.
fn selfcheck(o: &Opts) -> bool {
    let mut ok = true;
    println!("== selfcheck: two runs of the same code per workload");
    for name in workloads::NAMES {
        let (a, b) = (child(o, name, false), child(o, name, false));
        ok &= a.correct() && b.correct();
        let same = a.virt == b.virt;
        ok &= same;
        println!(
            "  {name:<12} virt_digest and paper_err_pct {}",
            if same { "identical" } else { "DIFFER" }
        );
        for (metric, bound) in BOUNDS {
            let (x, y) = (
                metric_in(&a.result, metric).expect("metric in result line"),
                metric_in(&b.result, metric).expect("metric in result line"),
            );
            let gap = (x - y).abs() / x.min(y);
            let verdict = if gap <= bound { "ok" } else { "EXCEEDS BOUND" };
            ok &= gap <= bound;
            println!(
                "  {name:<12} {metric:<14} A={x:<14.5} B={y:<14.5} gap={:>6.2}% bound={:.0}% {verdict}",
                100.0 * gap,
                100.0 * bound
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let start = Instant::now();
    let o = parse_args();
    hygiene();
    if o.setup_probe {
        println!("{}", setup(&o, start).1);
        return ExitCode::SUCCESS;
    }
    if o.selfcheck {
        return if selfcheck(&o) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if o.layers {
        println!(
            "== layer ladder [{}]",
            stamp(&o, "median of 11 samples per rung", 0)
        );
        print_metrics(&layers::run());
        return ExitCode::SUCCESS;
    }
    if o.workload == "all" {
        return if run_all(&o) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let report = if o.trace {
        traced_run(&o, start)
    } else {
        timed_run(&o, start)
    };
    // The contract's result line: the last line of standard output.
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", result_line(&report)).expect("write result line");
    out.flush().expect("flush result line");
    // A failed run still reports; `correct` carries the verdict.
    ExitCode::SUCCESS
}
