//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the two-clock benchmark and prints a report:
//! a context header, every metric by name and unit, and as the last
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer split. Exits nonzero when any output is wrong.

use perfbench::account::quantile;
use perfbench::clock;
use perfbench::inputs::WORKLOADS;
use perfbench::probe::chrome_trace;
use perfbench::run::{cpu_eval_us, run, Options, Outcome};
use std::process::ExitCode;

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Options {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Online CPUs of the machine (`nproc` ignores affinity masks here,
/// unlike `available_parallelism`).
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The commit under test: `git rev-parse HEAD` where the working
/// directory is itself a git checkout, else a hash of the library
/// sources (`src/`, `crates/`, the root manifest and lock file).
fn commit() -> String {
    if std::path::Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(o) = git {
            if o.status.success() {
                return String::from_utf8_lossy(&o.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    for root in ["src", "crates", "Cargo.toml", "Cargo.lock"] {
        collect(std::path::Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over every path and its contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("no git checkout; source hash {h:016x}")
}

fn collect(path: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if path.ends_with("target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for e in entries.flatten() {
                collect(&e.path(), out);
            }
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

type Metric = (&'static str, f64, &'static str);

/// The gated end-to-end metrics: set-up time (on the set-up clock of
/// `perfbench::clock`), the modeled clock, memory.
fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let mut setup = out.setup.clone();
    let mut modeled = out.modeled.clone();
    vec![
        ("setup_s", quantile(&mut setup, 0.5), "s"),
        (
            "modeled_ops_per_s",
            out.modeled_ops as f64 / out.modeled_seconds,
            "op/s",
        ),
        (
            "modeled_req_p50_ms",
            quantile(&mut modeled, 0.5) * 1e3,
            "ms",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// End-to-end figures on the host clock: ops per host second and the
/// median request. Two runs of one seed on a shared two-core machine
/// differed by up to a third here, more than a regression bound can
/// hold, so they are not gated: every run prints them, and traced runs
/// report them with the per-layer metrics.
fn host_clock(out: &Outcome) -> Vec<Metric> {
    let mut host = out.host.clone();
    let total: f64 = out.host.iter().sum();
    vec![
        ("host.ops_per_s", out.ops as f64 / total, "op/s"),
        ("host.req_p50_ms", quantile(&mut host, 0.5) * 1e3, "ms"),
    ]
}

/// p90 lines, stated only where at least 100 samples back them.
fn tails(out: &Outcome) -> Vec<String> {
    let line = |name: &str, xs: &[f64]| {
        let mut xs = xs.to_vec();
        if xs.len() >= 100 {
            format!(
                "{name:<32} {:>14.6} ms   ({} samples)",
                quantile(&mut xs, 0.9) * 1e3,
                xs.len()
            )
        } else {
            format!(
                "{name:<32} {:>14} ms   (not reported: {} samples < 100)",
                "-",
                xs.len()
            )
        }
    };
    vec![
        line("host_req_p90_ms", &out.host),
        line("modeled_req_p90_ms", &out.modeled),
    ]
}

fn json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            // Non-finite values are not JSON numbers; report them as 0.
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# perfbench {} seed {} seconds {} trace {}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "# nproc {} | available_parallelism {parallelism} (the rayon shim's thread count) | profile {} | commit {}",
        nproc(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit()
    );
    println!("# client: one thread, closed loop (next request after the previous returns)");
    let out = run(&opts).expect("the workload name was validated");
    for note in &out.notes {
        println!("# {note}");
    }
    for error in &out.errors {
        println!("# FAIL: {error}");
    }
    let mut host = out.host.clone();
    println!(
        "# {} timed requests (host ms min {:.3} / p50 {:.3} / max {:.3}), {} set-up repetitions, modeled sample {} requests",
        out.host.len(),
        quantile(&mut host, 0.0) * 1e3,
        quantile(&mut host, 0.5) * 1e3,
        quantile(&mut host, 1.0) * 1e3,
        out.setup.len(),
        out.modeled.len()
    );
    let (mut cpu, mut reference) = (out.setup_cpu.clone(), out.reference.clone());
    println!(
        "# set-up clock: p50 {:.6} s process CPU per set-up; reference kernel p50 {:.1} us here, {:.1} us on the reference core; setup_s = CPU x reference core / here",
        quantile(&mut cpu, 0.5),
        quantile(&mut reference, 0.5) * 1e6,
        clock::REFERENCE_SECONDS * 1e6
    );
    let metrics = if opts.trace {
        let mut m = out.model.metrics();
        m.extend(out.host_layers.metrics(cpu_eval_us(opts.seed)));
        m.extend(host_clock(&out));
        let dir = std::path::Path::new("perfbench/out");
        let file = dir.join(format!("{}-seed{}.trace.json", opts.workload, opts.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&file, chrome_trace(&out.spans)))
        {
            Ok(()) => println!(
                "# {} host spans written to {}",
                out.spans.len(),
                file.display()
            ),
            Err(e) => println!("# host spans not written: {e}"),
        }
        m
    } else {
        for (name, value, unit) in host_clock(&out) {
            println!("{name:<32} {value:>14.6} {unit}   (not gated)");
        }
        for line in tails(&out) {
            println!("{line}");
        }
        end_to_end(&out)
    };
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>14.6} {unit}");
    }
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{:<32} {fail_frac:>14.6} ratio   ({} of {} ops)",
        "fail_frac", out.failed, out.attempted
    );
    println!("{}", json(&out, &metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
