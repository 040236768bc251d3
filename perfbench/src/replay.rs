//! The traced replay of [`Solver::solve`]: the same steps the solver
//! takes — `resolve_groups`, then per start group `homotopy_any` and the
//! scheduler's `run` — with the engine in `h.f` wrapped in the timing
//! decorator, plus the double-double retry under escalation. The replay
//! must reproduce the untraced report bit for bit; [`Replay::matches`]
//! checks that.

use crate::probe::{span, Timed};
use polygpu::complex::{Complex, Real};
use polygpu::core::pipeline::PipelineStats;
use polygpu::engine::{AnyEvaluator, ClusterProvider};
use polygpu::homotopy::lockstep::{BatchHomotopy, LockstepPath};
use polygpu::homotopy::solve::{
    PathEndpoint, PrecisionPolicy, SolveError, SolveReport, SolveRequest, Solver, StartGroup,
    StartKind,
};
use polygpu::homotopy::{QueueStats, TrackParams, UsedPrecision};
use polygpu::obs::TraceSink;
use polygpu::polysys::System;
use polygpu::qd::Dd;

/// Host-clock layer names of the replay.
pub const CELLS: &str = "polyhedral.cells";
pub const BUILD: &str = "core.build";
pub const RUN: &str = "homotopy.run";

/// One precision pass, merged over its start groups exactly as the
/// solver merges them.
#[derive(Debug, Clone)]
struct PassOut<R> {
    paths: Vec<LockstepPath<R>>,
    stats: QueueStats,
    engine: PipelineStats,
}

/// Everything the replay produced.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Final endpoints in path order (dd retries replacing failures).
    pub endpoints: Vec<PathEndpoint>,
    pub outcomes: Vec<bool>,
    pub primary_stats: QueueStats,
    pub primary_engine: PipelineStats,
    /// The dd pass of an escalating solve, when one ran.
    pub escalation: Option<(usize, QueueStats, PipelineStats)>,
}

impl Replay {
    /// Whether the replay reproduced `report` bit for bit: endpoints,
    /// verdicts, and the modeled scheduler and engine statistics of both
    /// passes (compared through their exact `Debug` renderings).
    pub fn matches(&self, report: &SolveReport) -> bool {
        let endpoints_equal = report.paths.len() == self.endpoints.len()
            && report
                .paths
                .iter()
                .zip(&self.endpoints)
                .zip(&self.outcomes)
                .all(|((p, e), &ok)| &p.endpoint == e && p.success() == ok);
        let same =
            |a: &dyn std::fmt::Debug, b: &dyn std::fmt::Debug| format!("{a:?}") == format!("{b:?}");
        let escalation_equal = match (&report.escalation, &self.escalation) {
            (None, None) => true,
            (Some(e), Some((retried, stats, engine))) => {
                e.retried == *retried && same(&e.stats, stats) && same(&e.engine, engine)
            }
            _ => false,
        };
        endpoints_equal
            && same(&report.stats, &self.primary_stats)
            && same(&report.engine, &self.primary_engine)
            && escalation_equal
    }
}

/// Replay `req` on `solver`'s spec with every engine call timed.
pub fn solve_traced<P: ClusterProvider>(
    solver: &Solver<P>,
    req: &SolveRequest,
) -> Result<Replay, SolveError> {
    let resolve = || req.resolve_groups();
    let groups = match req.start_kind {
        StartKind::MixedCells { .. } => span(CELLS, resolve)?,
        StartKind::TotalDegree => resolve()?,
    };
    let replay = match req.precision {
        PrecisionPolicy::Fixed(UsedPrecision::Double) => {
            let pass = run_groups(solver, req, &req.target, &groups, req.params)?;
            finish(pass, None)
        }
        PrecisionPolicy::Fixed(UsedPrecision::DoubleDouble) => {
            let target = req.target.convert::<Dd>();
            let pass = run_groups(solver, req, &target, &widen_groups(&groups), req.params)?;
            finish_dd(pass)
        }
        PrecisionPolicy::Escalating { dd_params } => {
            let pass = run_groups(solver, req, &req.target, &groups, req.params)?;
            let failed: Vec<usize> = (0..pass.paths.len())
                .filter(|&i| !pass.paths[i].success())
                .collect();
            if failed.is_empty() {
                finish(pass, None)
            } else {
                let target = req.target.convert::<Dd>();
                let retry = retry_groups(&groups, &failed);
                let dd = run_groups(solver, req, &target, &retry, dd_params)?;
                finish(pass, Some((failed, dd)))
            }
        }
    };
    Ok(replay)
}

fn finish(primary: PassOut<f64>, dd: Option<(Vec<usize>, PassOut<Dd>)>) -> Replay {
    let mut endpoints: Vec<PathEndpoint> = primary
        .paths
        .iter()
        .map(|p| PathEndpoint::Double(p.x.clone()))
        .collect();
    let mut outcomes: Vec<bool> = primary.paths.iter().map(LockstepPath::success).collect();
    let escalation = dd.map(|(failed, dd)| {
        for (&i, p) in failed.iter().zip(&dd.paths) {
            endpoints[i] = PathEndpoint::DoubleDouble(p.x.clone());
            outcomes[i] = p.success();
        }
        (failed.len(), dd.stats, dd.engine)
    });
    Replay {
        endpoints,
        outcomes,
        primary_stats: primary.stats,
        primary_engine: primary.engine,
        escalation,
    }
}

fn finish_dd(pass: PassOut<Dd>) -> Replay {
    Replay {
        endpoints: pass
            .paths
            .iter()
            .map(|p| PathEndpoint::DoubleDouble(p.x.clone()))
            .collect(),
        outcomes: pass.paths.iter().map(LockstepPath::success).collect(),
        primary_stats: pass.stats,
        primary_engine: pass.engine,
        escalation: None,
    }
}

fn run_groups<P: ClusterProvider, R: Real>(
    solver: &Solver<P>,
    req: &SolveRequest,
    target: &System<R>,
    groups: &[StartGroup<R>],
    params: TrackParams,
) -> Result<PassOut<R>, SolveError> {
    let mut acc: Option<PassOut<R>> = None;
    for (start, starts) in groups {
        let h = span(BUILD, || solver.homotopy_any(target, start, req.gamma_seed))?;
        let engine: Box<dyn AnyEvaluator<R>> = Box::new(Timed::new(h.f));
        let mut h = BatchHomotopy::new(h.g, engine, h.gamma);
        let caps = h.f.caps();
        let mut scheduler = req.scheduler.instantiate::<R>();
        let run = span(RUN, || {
            scheduler.run(
                &mut h,
                starts,
                &params,
                &caps,
                &req.recovery,
                &TraceSink::noop(),
            )
        })?;
        let pass = PassOut {
            paths: run.paths,
            stats: run.stats,
            engine: h.f.engine_stats(),
        };
        acc = Some(match acc {
            None => pass,
            Some(mut merged) => {
                merge(&mut merged, pass);
                merged
            }
        });
    }
    Ok(acc.expect("resolve_groups yields at least one group"))
}

/// The solver's group merge: paths concatenate, counters sum, the slot
/// count is the largest.
fn merge<R>(acc: &mut PassOut<R>, other: PassOut<R>) {
    acc.paths.extend(other.paths);
    let (s, o) = (&mut acc.stats, other.stats);
    s.rounds += o.rounds;
    s.batch_rounds += o.batch_rounds;
    s.refills += o.refills;
    s.point_rounds += o.point_rounds;
    s.slots = s.slots.max(o.slots);
    s.steps_accepted += o.steps_accepted;
    s.steps_rejected += o.steps_rejected;
    s.corrector_iterations += o.corrector_iterations;
    let (e, o) = (&mut acc.engine, other.engine);
    e.evaluations += o.evaluations;
    e.batches += o.batches;
    e.counters += o.counters;
    e.kernel_seconds += o.kernel_seconds;
    e.overhead_seconds += o.overhead_seconds;
    e.transfer_seconds += o.transfer_seconds;
    e.h2d_bytes += o.h2d_bytes;
    e.d2h_bytes += o.d2h_bytes;
    e.factor_seconds += o.factor_seconds;
    e.backsub_seconds += o.backsub_seconds;
    e.corrections += o.corrections;
    e.corrector_iterations += o.corrector_iterations;
    e.wall_seconds += o.wall_seconds;
    e.fault.merge(&o.fault);
}

fn widen(starts: &[Vec<Complex<f64>>]) -> Vec<Vec<Complex<Dd>>> {
    starts
        .iter()
        .map(|x| x.iter().map(|z| z.convert()).collect())
        .collect()
}

fn widen_groups(groups: &[StartGroup<f64>]) -> Vec<StartGroup<Dd>> {
    groups
        .iter()
        .map(|(start, starts)| (start.clone(), widen(starts)))
        .collect()
}

/// The failed paths' start points, widened and regrouped under their own
/// start systems (`failed` is increasing, so retry order is path order).
fn retry_groups(groups: &[StartGroup<f64>], failed: &[usize]) -> Vec<StartGroup<Dd>> {
    let mut retry = Vec::new();
    let mut offset = 0;
    for (start, starts) in groups {
        let end = offset + starts.len();
        let picked: Vec<Vec<Complex<f64>>> = failed
            .iter()
            .filter(|&&i| (offset..end).contains(&i))
            .map(|&i| starts[i - offset].clone())
            .collect();
        if !picked.is_empty() {
            retry.push((start.clone(), widen(&picked)));
        }
        offset = end;
    }
    retry
}
