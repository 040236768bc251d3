//! Fault-aware batched evaluation for the path queue.
//!
//! The path queue ([`crate::queue::track_queue`]) was written against
//! [`BatchSystemEvaluator`], whose `evaluate_batch` cannot fail — an
//! engine with fault injection armed
//! ([`polygpu_core::engine::EngineBuilder::fault_plan`]) would have to
//! panic inside it. This module adds the typed-failure surface:
//!
//! * [`TryBatchEvaluator`] — a batch evaluator whose batches may fail
//!   with a [`BatchError`] (injected faults, degraded fleets), plus the
//!   fused corrector [`TryBatchEvaluator::try_correct_fused`]. Every
//!   workspace evaluator implements it; pure-CPU evaluators are
//!   infallible and use the default methods.
//! * [`FaultReport`] — what a recovering scheduler saw and did:
//!   faults, retried and recovered rounds, modeled backoff, plus the
//!   engine's own [`FaultStats`].
//! * [`retry_round`] — the shared scheduler-level retry loop: a failed
//!   round backs off (modeled seconds, not host time) and re-runs;
//!   slot state is only committed after a round's evaluations arrive,
//!   so the live slots *are* the checkpoint and a retry replays only
//!   the affected round, bit for bit.
//!
//! The recovering driver itself is
//! [`crate::queue::track_queue_recovering`].

use crate::lockstep::BatchHomotopy;
use crate::start::StartSystem;
use polygpu_complex::{Complex, Real};
use polygpu_core::engine::{AnyEvaluator, CpuReferenceEngine};
use polygpu_core::{
    host_correct, BatchError, BatchGpuEvaluator, CombineMap, CorrectParams, CorrectStatus,
    FaultStats, GpuEvaluator, RecoveryPolicy,
};
use polygpu_obs::MetricsRegistry;
use polygpu_polysys::{
    AdEvaluator, BatchSystemEvaluator, NaiveEvaluator, SystemEval, SystemEvaluator,
};
use std::fmt;

/// A batch evaluator whose batches may fail with a typed
/// [`BatchError`] instead of panicking — the evaluation surface the
/// recovering schedulers drive. Infallible evaluators take the default
/// method; fault-injecting engines override it with their typed path,
/// so an injected fault is *always* a value at this layer, never a
/// panic and never a silently wrong result.
pub trait TryBatchEvaluator<R: Real>: BatchSystemEvaluator<R> {
    /// Evaluate a batch, surfacing faults as values. The default
    /// wraps the infallible [`BatchSystemEvaluator::evaluate_batch`].
    fn try_batch(&mut self, points: &[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError> {
        Ok(self.evaluate_batch(points))
    }

    /// The evaluator's cumulative modeled wall clock, in seconds —
    /// the timestamp source for scheduler-level trace spans. Pure-CPU
    /// evaluators have no modeled clock and report `0.0` (the default),
    /// which keeps their spans degenerate but still ordered.
    fn modeled_wall_seconds(&self) -> f64 {
        0.0
    }

    /// Fused Newton correction of `points` in place, each point's
    /// evaluation combined through `combine` (see
    /// [`polygpu_core::correct`]). The default is the **host** corrector
    /// [`host_correct`] — the default of
    /// [`AnyEvaluator::try_correct_batch`] too — over
    /// [`TryBatchEvaluator::try_batch`], chunked by
    /// [`BatchSystemEvaluator::max_batch`]. Engines with a
    /// device-resident corrector forward to it; endpoints are
    /// bit-identical either way, since both run
    /// [`polygpu_core::drive_correct`].
    ///
    /// On `Err` the contents of `points` are unspecified (the host loop
    /// may have applied updates) — retry from the caller's own copy, as
    /// [`crate::resident::correct_resident`] does.
    fn try_correct_fused(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        let capacity = self.max_batch();
        host_correct(
            |chunk| self.try_batch(chunk),
            capacity,
            combine,
            points,
            params,
        )
    }
}

impl<R: Real> TryBatchEvaluator<R> for StartSystem {}
impl<R: Real> TryBatchEvaluator<R> for crate::start::AnyStart {}
impl<R: Real> TryBatchEvaluator<R> for AdEvaluator<R> {}
impl<R: Real> TryBatchEvaluator<R> for NaiveEvaluator<R> {}

impl<R: Real> TryBatchEvaluator<R> for CpuReferenceEngine<R> {
    fn try_batch(&mut self, points: &[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError> {
        self.try_evaluate_batch(points)
    }

    fn modeled_wall_seconds(&self) -> f64 {
        self.engine_stats().wall_seconds
    }
}

impl<R: Real> TryBatchEvaluator<R> for GpuEvaluator<R> {
    fn try_batch(&mut self, points: &[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError> {
        points.iter().map(|x| self.try_evaluate(x)).collect()
    }

    fn modeled_wall_seconds(&self) -> f64 {
        self.stats().wall_seconds
    }
}

impl<R: Real> TryBatchEvaluator<R> for BatchGpuEvaluator<R> {
    fn try_batch(&mut self, points: &[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError> {
        BatchGpuEvaluator::try_evaluate_batch(self, points)
    }

    fn modeled_wall_seconds(&self) -> f64 {
        self.stats().wall_seconds
    }

    fn try_correct_fused(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        BatchGpuEvaluator::try_correct_batch(self, points, combine, params)
    }
}

impl<R: Real> TryBatchEvaluator<R> for Box<dyn AnyEvaluator<R>> {
    fn try_batch(&mut self, points: &[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError> {
        (**self).try_evaluate_batch(points)
    }

    fn modeled_wall_seconds(&self) -> f64 {
        self.engine_stats().wall_seconds
    }

    fn try_correct_fused(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        (**self).try_correct_batch(points, combine, params)
    }
}

/// Borrowed engines are fallible too — how a serving layer drives the
/// recovering schedulers over an evaluator that stays resident in a
/// `Session`/`ClusterSession` (a `Box<dyn AnyEvaluator>` would demand
/// ownership and a `'static` engine).
impl<R: Real> TryBatchEvaluator<R> for &mut dyn AnyEvaluator<R> {
    fn try_batch(&mut self, points: &[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError> {
        (**self).try_evaluate_batch(points)
    }

    fn modeled_wall_seconds(&self) -> f64 {
        self.engine_stats().wall_seconds
    }

    fn try_correct_fused(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        (**self).try_correct_batch(points, combine, params)
    }
}

/// Adapter giving any [`BatchSystemEvaluator`] the
/// [`TryBatchEvaluator`] surface via the default (`Ok`-wrapping)
/// methods — how the infallible [`crate::queue::track_queue`]
/// delegates to the recovering driver. An engine with fault injection
/// armed must not be wrapped in this (its `evaluate_batch` panics on a
/// fault); hand it to [`crate::queue::track_queue_recovering`]
/// directly.
pub struct Infallible<E>(pub E);

impl<R: Real, E: BatchSystemEvaluator<R>> SystemEvaluator<R> for Infallible<E> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        self.0.evaluate(x)
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

impl<R: Real, E: BatchSystemEvaluator<R>> BatchSystemEvaluator<R> for Infallible<E> {
    fn max_batch(&self) -> usize {
        self.0.max_batch()
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        self.0.evaluate_batch(points)
    }
}

impl<R: Real, E: BatchSystemEvaluator<R>> TryBatchEvaluator<R> for Infallible<E> {}

/// What a recovering scheduler observed and spent on faults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultReport {
    /// Fault errors that reached the scheduler (the engine's own
    /// [`FaultStats`] additionally counts faults its internal recovery
    /// absorbed before they got here).
    pub faults: u64,
    /// Rounds re-run after a fault.
    pub retried_rounds: u64,
    /// Rounds that eventually succeeded after one or more retries.
    pub recovered_rounds: u64,
    /// Modeled backoff seconds charged before retries.
    pub backoff_seconds: f64,
    /// The engine's own fault accounting (injection counts, detection
    /// latency, failovers), copied off the engine after the run.
    pub engine: FaultStats,
}

impl FaultReport {
    /// Did any fault reach this scheduler or its engine?
    pub fn any(&self) -> bool {
        self.faults > 0 || self.engine.faults > 0
    }

    /// Fold this report into a [`MetricsRegistry`] under `prefix`.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.faults"), self.faults);
        reg.counter(&format!("{prefix}.retried_rounds"), self.retried_rounds);
        reg.counter(&format!("{prefix}.recovered_rounds"), self.recovered_rounds);
        reg.gauge(&format!("{prefix}.backoff_seconds"), self.backoff_seconds);
        self.engine.record_metrics(reg, &format!("{prefix}.engine"));
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  faults                {:>12}", self.faults)?;
        writeln!(f, "  retried rounds        {:>12}", self.retried_rounds)?;
        writeln!(f, "  recovered rounds      {:>12}", self.recovered_rounds)?;
        writeln!(f, "  backoff seconds       {:>12.3e}", self.backoff_seconds)?;
        write!(f, "{}", self.engine)
    }
}

/// Run `round` until it succeeds or recovery is exhausted, charging
/// modeled backoff between attempts, as
/// [`RecoveryPolicy::retry_backoff`] decides. `DeviceLost` is
/// never retried at this level — a lost device stays lost, so the
/// retry could only fail identically; it surfaces immediately (an
/// engine with its own failover, e.g. a sharded cluster, handles
/// device loss internally and never returns it here).
/// Non-fault errors (contract violations, degraded fleets) are not
/// retryable and pass straight through.
pub fn retry_round<T>(
    recovery: &RecoveryPolicy,
    report: &mut FaultReport,
    mut round: impl FnMut() -> Result<T, BatchError>,
) -> Result<T, BatchError> {
    let mut attempt = 0u32;
    loop {
        match round() {
            Ok(v) => {
                if attempt > 0 {
                    report.recovered_rounds += 1;
                }
                return Ok(v);
            }
            Err(BatchError::Fault(fe)) => {
                report.faults += 1;
                let Some(backoff) = recovery.retry_backoff(fe.kind, attempt) else {
                    return Err(BatchError::Fault(fe));
                };
                report.backoff_seconds += backoff;
                report.retried_rounds += 1;
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One homotopy evaluation per point: the combined system/Jacobian
/// values and the `∂h/∂t` column the predictors consume.
pub type HomotopyEval<R> = (SystemEval<R>, Vec<Complex<R>>);

impl<R: Real, EG: TryBatchEvaluator<R>, EF: TryBatchEvaluator<R>> BatchHomotopy<R, EG, EF> {
    /// Fallible sibling of [`BatchHomotopy::eval_batch_at_each`]: the
    /// same two endpoint batches and the same per-point combination
    /// arithmetic, but an endpoint fault comes back as a value.
    pub fn try_eval_batch_at_each(
        &mut self,
        points: &[Vec<Complex<R>>],
        ts: &[R],
    ) -> Result<Vec<HomotopyEval<R>>, BatchError> {
        assert_eq!(points.len(), ts.len(), "one t per point");
        let ges = self.g.try_batch(points)?;
        let fes = self.f.try_batch(points)?;
        Ok(self.combine(ges, fes, ts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_core::{FaultError, FaultKind};

    // Compile-time proof which types carry the fallible surface.
    fn assert_try_batch<R: Real, E: TryBatchEvaluator<R>>() {}

    #[test]
    fn the_workspace_evaluators_are_try_batch() {
        assert_try_batch::<f64, AdEvaluator<f64>>();
        assert_try_batch::<f64, NaiveEvaluator<f64>>();
        assert_try_batch::<f64, StartSystem>();
        assert_try_batch::<f64, GpuEvaluator<f64>>();
        assert_try_batch::<f64, BatchGpuEvaluator<f64>>();
        assert_try_batch::<f64, Box<dyn AnyEvaluator<f64>>>();
        assert_try_batch::<f64, &mut dyn AnyEvaluator<f64>>();
        assert_try_batch::<f64, CpuReferenceEngine<f64>>();
    }

    #[test]
    fn retry_round_backs_off_then_recovers() {
        let recovery = RecoveryPolicy::default();
        let mut report = FaultReport::default();
        let mut calls = 0u32;
        let out = retry_round(&recovery, &mut report, || {
            calls += 1;
            if calls == 1 {
                Err(BatchError::Fault(FaultError {
                    device: 0,
                    op_index: 0,
                    kind: FaultKind::LaunchFailed,
                    detection_seconds: 1e-6,
                }))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(out, 42);
        assert_eq!(calls, 2);
        assert_eq!(report.faults, 1);
        assert_eq!(report.retried_rounds, 1);
        assert_eq!(report.recovered_rounds, 1);
        assert!(report.backoff_seconds > 0.0);
        assert!(report.any());
    }

    #[test]
    fn device_loss_and_exhaustion_surface_typed() {
        let fault = || {
            Err::<(), _>(BatchError::Fault(FaultError {
                device: 0,
                op_index: 3,
                kind: FaultKind::DeviceLost,
                detection_seconds: 1e-6,
            }))
        };
        let mut report = FaultReport::default();
        // Device loss is terminal at this level even with retries left.
        let err = retry_round(&RecoveryPolicy::default(), &mut report, fault).unwrap_err();
        assert!(matches!(
            err,
            BatchError::Fault(FaultError {
                kind: FaultKind::DeviceLost,
                ..
            })
        ));
        assert_eq!(report.retried_rounds, 0);

        // Exhausted retries surface the last fault.
        let mut report = FaultReport::default();
        let err = retry_round(&RecoveryPolicy::default(), &mut report, || {
            Err::<(), _>(BatchError::Fault(FaultError {
                device: 1,
                op_index: 9,
                kind: FaultKind::TransferCorrupt,
                detection_seconds: 1e-6,
            }))
        })
        .unwrap_err();
        assert!(matches!(err, BatchError::Fault(_)));
        assert_eq!(
            report.retried_rounds,
            RecoveryPolicy::default().max_retries as u64
        );
        assert_eq!(report.recovered_rounds, 0);
    }
}
