//! Writes the frozen pool of solver inputs, `src/pool.rs`, to stdout:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml \
//!     --example freeze > perfbench/src/pool.rs
//! ```
//!
//! Candidates come from fixed sub-seeds. A candidate is kept when it
//! passes the structural screens, when the CPU reference converges on
//! every start path kept, and when its corrector work falls in a band
//! around the typical request: path work varies severalfold between
//! random targets, and a run affords few requests, so alike requests
//! are what lets a run's sample stand for the rest.
//!
//! The screen runs the solver, so a pool written at another commit
//! would hold other inputs. The committed pool is the benchmark's
//! baseline: regenerate it only to re-baseline every solver workload.

use perfbench::inputs::{
    cpu_solver, dense_request, dim32_request, mix, serve_request, sparse_request, DIM32_PATHS,
    SERVE_PATHS, SMALL_PATHS,
};
use polygpu::homotopy::solve::{PrecisionPolicy, SolveReport, SolveRequest, StartSelection};
use polygpu::homotopy::{QueueStats, UsedPrecision};
use std::ops::RangeInclusive;

/// Entries per list. A run draws up to half of each `solve-small` list
/// (dense n, sparse n), two `solve-dim32` entries and about thirty
/// `serve-mix` targets.
const DENSE_ENTRIES: usize = 24;
const SPARSE_ENTRIES: usize = 12;
const DIM32_ENTRIES: usize = 12;
const SERVE_ENTRIES: usize = 64;

/// Candidates tried per entry wanted before a list gives up.
const ATTEMPTS_PER_ENTRY: usize = 60;

/// Corrector work (predictor-corrector steps plus Newton iterations,
/// both precision passes) of a whole `solve-small` request on the CPU
/// reference, for dense and for sparse targets.
const SMALL_DENSE_WORK: RangeInclusive<usize> = 500..=800;
const SMALL_SPARSE_WORK: RangeInclusive<usize> = 100..=160;
/// Corrector work of every `solve-dim32` path.
const DIM32_WORK: RangeInclusive<usize> = 345..=375;
/// Scheduler rounds of a `serve-mix` job: its modeled time is about its
/// rounds times a launch-bound round trip, so rounds are banded here.
const SERVE_ROUNDS: RangeInclusive<usize> = 265..=300;

/// Start paths tried per candidate target.
const CANDIDATES: u128 = 16;
/// Step cap of the double-double pass of screening solves. A path that
/// converges within it converges identically without it; a diverging
/// candidate stops early instead of running the default 10,000 steps.
const SCREEN_STEPS: usize = 120;

/// Corrector work of a solve, both passes.
fn solve_work(report: &SolveReport) -> usize {
    let work = |s: &QueueStats| s.steps_accepted + s.steps_rejected + s.corrector_iterations;
    work(&report.stats) + report.escalation.as_ref().map_or(0, |e| work(&e.stats))
}

/// `request` restricted to the start paths `keep`, with its uncapped
/// CPU reference solve, when every one of them converges there.
fn confirm(request: &SolveRequest, keep: Vec<u128>) -> Option<(Vec<u128>, SolveReport)> {
    let request = request
        .clone()
        .with_starts(StartSelection::Indices(keep.clone()));
    let report = cpu_solver().solve(&request).ok()?;
    report
        .paths
        .iter()
        .all(|p| p.success())
        .then_some((keep, report))
}

/// The first `want` of the first [`CANDIDATES`] start paths of `request`
/// that converge on the CPU reference, confirmed uncapped.
fn screen(request: &SolveRequest, want: usize) -> Option<(Vec<u128>, SolveReport)> {
    let cpu = cpu_solver();
    let mut probe = request
        .clone()
        .with_starts(StartSelection::FirstN(CANDIDATES));
    if let PrecisionPolicy::Escalating { dd_params } = &mut probe.precision {
        dd_params.max_steps = SCREEN_STEPS;
    }
    let probed = cpu.solve(&probe).ok()?;
    let keep: Vec<u128> = (0..probed.paths.len())
        .filter(|&i| probed.paths[i].success())
        .take(want)
        .map(|i| i as u128)
        .collect();
    (keep.len() == want).then_some(())?;
    confirm(request, keep)
}

/// Dim-32 paths are screened one by one in hardware doubles, where the
/// step control takes the same steps as in double-double at a tenth of
/// the cost; the double-double reference solve confirms the pick.
fn screen_dim32(request: &SolveRequest) -> Option<(Vec<u128>, SolveReport)> {
    let cpu = cpu_solver();
    let keep: Vec<u128> = (0..CANDIDATES)
        .filter(|&j| {
            let mut one = request
                .clone()
                .with_starts(StartSelection::Indices(vec![j]));
            one.precision = PrecisionPolicy::Fixed(UsedPrecision::Double);
            cpu.solve(&one)
                .is_ok_and(|r| r.paths[0].success() && DIM32_WORK.contains(&solve_work(&r)))
        })
        .take(DIM32_PATHS)
        .collect();
    (keep.len() == DIM32_PATHS).then_some(())?;
    confirm(request, keep)
}

/// `count` entries from the sub-seeds `mix(0, tag, 0..)`, each kept by
/// `keep`. Panics when the attempts run out.
fn list(
    name: &str,
    tag: u64,
    count: usize,
    keep: impl Fn(u64) -> Option<Vec<u128>>,
) -> Vec<(u64, Vec<u128>)> {
    let mut out = Vec::new();
    for attempt in 0..(count * ATTEMPTS_PER_ENTRY) as u64 {
        let s = mix(0, tag, attempt);
        if let Some(starts) = keep(s) {
            out.push((s, starts));
            eprintln!(
                "{name}: {}/{count} after {} attempts",
                out.len(),
                attempt + 1
            );
            if out.len() == count {
                return out;
            }
        }
    }
    panic!(
        "{name}: only {} of {count} entries within {} attempts",
        out.len(),
        count * ATTEMPTS_PER_ENTRY
    );
}

fn render(entries: &[(u64, Vec<u128>)], indent: &str) -> String {
    let mut s = String::from("&[\n");
    for (seed, starts) in entries {
        let starts: Vec<String> = starts.iter().map(u128::to_string).collect();
        s += &format!(
            "{indent}    Pick {{ seed: {seed:#018x}, starts: &[{}] }},\n",
            starts.join(", ")
        );
    }
    s + indent + "]"
}

fn main() {
    let banded = |band: &RangeInclusive<usize>, found: Option<(Vec<u128>, SolveReport)>| {
        found.and_then(|(starts, report)| band.contains(&solve_work(&report)).then_some(starts))
    };
    let dense: Vec<String> = (3..=6)
        .map(|n| {
            let entries = list(&format!("dense n={n}"), 10 + n as u64, DENSE_ENTRIES, |s| {
                banded(&SMALL_DENSE_WORK, screen(&dense_request(n, s), SMALL_PATHS))
            });
            format!("    // n = {n}\n    {}", render(&entries, "    "))
        })
        .collect();
    let sparse: Vec<String> = (2..=5)
        .map(|n| {
            let entries = list(
                &format!("sparse n={n}"),
                20 + n as u64,
                SPARSE_ENTRIES,
                |s| {
                    let request = sparse_request(n, s)?;
                    banded(&SMALL_SPARSE_WORK, screen(&request, SMALL_PATHS))
                },
            );
            format!("    // n = {n}\n    {}", render(&entries, "    "))
        })
        .collect();
    let dim32 = list("dim32", 30, DIM32_ENTRIES, |s| {
        screen_dim32(&dim32_request(32, s)).map(|(starts, _)| starts)
    });
    let serve = list("serve", 40, SERVE_ENTRIES, |s| {
        let (starts, report) = screen(&serve_request(s), SERVE_PATHS)?;
        SERVE_ROUNDS
            .contains(&report.stats.rounds)
            .then_some(starts)
    });

    println!("//! The frozen pool of solver inputs, written by `examples/freeze.rs`");
    println!("//! (see there for how entries were screened). Each run draws its");
    println!("//! requests from these lists by seed.");
    println!();
    println!("use crate::inputs::Pick;");
    println!();
    println!("/// `solve-small` dense targets, by n = 3..=6.");
    println!(
        "pub const DENSE: [&[Pick]; 4] = [\n{}\n];",
        dense.join(",\n")
    );
    println!();
    println!("/// `solve-small` sparse mixed-cell targets, by n = 2..=5.");
    println!(
        "pub const SPARSE: [&[Pick]; 4] = [\n{}\n];",
        sparse.join(",\n")
    );
    println!();
    println!("/// `solve-dim32` targets.");
    println!("pub const DIM32: &[Pick] = {};", render(&dim32, ""));
    println!();
    println!("/// `serve-mix` targets.");
    println!("pub const SERVE: &[Pick] = {};", render(&serve, ""));
}
