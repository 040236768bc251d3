//! The path queue: the one multi-path tracker.
//!
//! A fixed number of slots (sized to the evaluator's batch capacity)
//! each track one path with its *own* `t` and adaptive step size;
//! whenever a slot finishes — success or failure — it immediately
//! **refills** from the pending queue, so every batched round trip
//! stays at full occupancy until the queue drains. One slot is
//! per-path tracking: the solve layer's `SchedulerKind::PerPath` is
//! this tracker with a front of one.
//!
//! [`TrackParams::corrector_mode`] picks the corrector:
//!
//! * [`CorrectorMode::Host`] — each round performs exactly one
//!   evaluation per occupied slot (a path's first predictor, one Newton
//!   iteration, or the corrector's final residual check), all gathered
//!   into one batched evaluation, and solves on the host;
//! * [`CorrectorMode::DeviceResident`] — each round runs one batched
//!   predictor evaluation over the slots at their first step, then
//!   **one** [`correct_resident`] call over every slot that has
//!   predicted, each at its own `t`: the whole Newton corrector runs on
//!   the engine.
//!
//! A slot keeps `H`'s evaluation (Jacobian and `∂H/∂t`) at its
//! accepted point `(x, t)`: the predictor's own, which a rejection
//! leaves valid since it changes only `dt`, or the corrector's
//! converging evaluation, which is at the point the step accepts —
//! under the host corrector the round's, under the fused one what
//! [`correct_resident`] hands back from its final download. The next
//! prediction runs on it on the host, so the device is asked for a
//! predictor evaluation only at a path's first step. Under either
//! corrector every attempt costs `iterations + 1` evaluations, and
//! every path one predictor evaluation more.
//!
//! Scheduling is a performance transformation only: each slot replays
//! the *exact* control flow and arithmetic of the single-path tracker
//! ([`crate::tracker::track`] with [`crate::newton::newton`] as
//! corrector), so every path's trajectory — and endpoint — is
//! **bit-for-bit** the trajectory the single-path tracker produces,
//! independent of the slot count, the corrector mode, the batch
//! composition, or how many devices the evaluator shards over.

use crate::fallible::{retry_round, FaultReport, HomotopyEval, Infallible, TryBatchEvaluator};
use crate::lockstep::{BatchHomotopy, LockstepPath};
use crate::lu::lu_decompose;
use crate::newton::NewtonParams;
use crate::resident::correct_resident;
use crate::tracker::{TrackOutcome, TrackParams};
use polygpu_complex::{Complex, Real};
use polygpu_core::correct::max_norm;
use polygpu_core::{BatchError, CorrectorMode, RecoveryPolicy};
use polygpu_obs::{MetaValue, MetricsRegistry, SpanKind, TraceSink};
use polygpu_polysys::{BatchSystemEvaluator, SystemEval};
use std::collections::VecDeque;
use std::fmt;

/// Pending paths waiting for a slot: start points in submission order.
#[derive(Debug, Clone, Default)]
pub struct PathQueue<R> {
    pending: VecDeque<(usize, Vec<Complex<R>>)>,
}

impl<R: Real> PathQueue<R> {
    /// Queue `starts` in order; indices identify paths in the result.
    pub fn from_starts(starts: &[Vec<Complex<R>>]) -> Self {
        PathQueue {
            pending: starts.iter().cloned().enumerate().collect(),
        }
    }

    /// Next `(path index, start point)`, if any.
    pub fn pop(&mut self) -> Option<(usize, Vec<Complex<R>>)> {
        self.pending.pop_front()
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// How a multi-path scheduler sizes its slot front.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SlotPolicy {
    /// Size the front to the whole fleet. Schedulers with engine
    /// capabilities at hand (the `solve` layer) resolve this to
    /// `devices × per-device capacity`, clamped to the engine's batch
    /// capacity (which a row-sharded cluster caps at one device's
    /// worth — every device there sees every point), via
    /// [`polygpu_core::engine::EngineCaps::auto_slots`]; the raw
    /// [`track_queue`] driver, which only sees a batch evaluator, falls
    /// back to the evaluator's batch capacity.
    #[default]
    Auto,
    /// Exactly this many slots (clamped to the path count).
    Fixed(usize),
}

impl From<usize> for SlotPolicy {
    /// The legacy `slots: usize` encoding: `0` means [`SlotPolicy::Auto`],
    /// anything else a fixed front.
    fn from(slots: usize) -> Self {
        if slots == 0 {
            SlotPolicy::Auto
        } else {
            SlotPolicy::Fixed(slots)
        }
    }
}

impl SlotPolicy {
    /// The slot count this policy yields against a fallback capacity
    /// (`Auto`) and a path count (both arms clamp to it — more slots
    /// than paths can never be occupied).
    pub fn resolve(self, auto_capacity: usize, n_paths: usize) -> usize {
        match self {
            SlotPolicy::Auto => auto_capacity,
            SlotPolicy::Fixed(slots) => slots,
        }
        .max(1)
        .min(n_paths.max(1))
    }
}

/// Aggregate scheduling statistics of a path-queue run — what every
/// scheduler behind `solve()` reports (per-path runs are one-slot
/// queues).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Scheduler rounds. Under [`CorrectorMode::Host`] each is one
    /// batched evaluation of all occupied slots; under
    /// [`CorrectorMode::DeviceResident`] one batched predictor
    /// evaluation of the slots at their first step (skipped when there
    /// are none), then one fused corrector call.
    pub rounds: usize,
    /// Batched device calls issued: evaluations, plus fused corrector
    /// calls in device-resident mode (`>= rounds`; more when the slot
    /// count exceeds the evaluator capacity and rounds chunk). A
    /// device-resident round in which no slot is at its first step
    /// issues only its fused call.
    pub batch_rounds: usize,
    /// Slots refilled from the queue after a path finished.
    pub refills: usize,
    /// Sum over rounds of occupied slots — the numerator of
    /// [`QueueStats::occupancy`]. A slot that predicts from a held
    /// evaluation counts in the round of its next device work.
    pub point_rounds: usize,
    /// Slots the scheduler ran with.
    pub slots: usize,
    pub steps_accepted: usize,
    pub steps_rejected: usize,
    /// Total corrector iterations summed over paths (identical to the
    /// sum over single-path [`crate::tracker::track`] runs).
    pub corrector_iterations: usize,
}

impl QueueStats {
    /// Mean slot occupancy over the run: `1.0` means every round ran a
    /// full batch. The queue stays near `1.0` until it drains; only the
    /// drain tail, with slots finishing at different times, runs below.
    pub fn occupancy(&self) -> f64 {
        if self.rounds == 0 || self.slots == 0 {
            0.0
        } else {
            self.point_rounds as f64 / (self.rounds * self.slots) as f64
        }
    }

    /// Fold this struct into a [`MetricsRegistry`] under `prefix`.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.rounds"), self.rounds as u64);
        reg.counter(&format!("{prefix}.batch_rounds"), self.batch_rounds as u64);
        reg.counter(&format!("{prefix}.refills"), self.refills as u64);
        reg.counter(
            &format!("{prefix}.steps_accepted"),
            self.steps_accepted as u64,
        );
        reg.counter(
            &format!("{prefix}.steps_rejected"),
            self.steps_rejected as u64,
        );
        reg.counter(
            &format!("{prefix}.corrector_iterations"),
            self.corrector_iterations as u64,
        );
        reg.gauge(&format!("{prefix}.occupancy"), self.occupancy());
    }
}

impl fmt::Display for QueueStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  rounds                {:>12}", self.rounds)?;
        writeln!(f, "  batch rounds          {:>12}", self.batch_rounds)?;
        writeln!(f, "  slots                 {:>12}", self.slots)?;
        writeln!(f, "  refills               {:>12}", self.refills)?;
        writeln!(f, "  steps accepted        {:>12}", self.steps_accepted)?;
        writeln!(f, "  steps rejected        {:>12}", self.steps_rejected)?;
        writeln!(
            f,
            "  corrector iterations  {:>12}",
            self.corrector_iterations
        )?;
        write!(f, "  occupancy             {:>12.3}", self.occupancy())
    }
}

/// Result of a path-queue run.
#[derive(Debug, Clone)]
pub struct QueueResult<R> {
    /// Per-path endpoints, in start order.
    pub paths: Vec<LockstepPath<R>>,
    /// Aggregate scheduling statistics.
    pub stats: QueueStats,
}

impl<R: Real> QueueResult<R> {
    pub fn successes(&self) -> usize {
        self.paths.iter().filter(|p| p.success()).count()
    }

    /// Mean slot occupancy over the run (see [`QueueStats::occupancy`]).
    pub fn occupancy(&self) -> f64 {
        self.stats.occupancy()
    }
}

/// What a slot does with its next evaluation.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    /// Euler predictor at `(x, t)`, waiting for the device only because
    /// the slot holds no evaluation there: a path's first step. A slot
    /// that holds one predicts as soon as its previous attempt
    /// concludes and never waits in this phase.
    Predict,
    /// Newton corrector iteration `iter` at `(y, t_new)`.
    Correct { iter: usize },
    /// The corrector's final residual check after a step-tolerance
    /// stop (mirrors `newton`'s extra evaluation), with the iteration
    /// count it will report.
    FinalCheck { iterations: usize },
    /// The corrector ran out of iterations with the last update
    /// applied; one more evaluation (no update) so the attempt's
    /// residual describes the final iterate, as `newton` does on its
    /// MaxIters exit.
    MaxItersCheck,
}

struct Slot<R> {
    path: usize,
    /// Last accepted point.
    x: Vec<Complex<R>>,
    /// `H`'s evaluation at `(x, t)`, once a round has downloaded it.
    held: Option<HomotopyEval<R>>,
    /// Corrector iterate (valid outside `Predict`).
    y: Vec<Complex<R>>,
    t: f64,
    dt: f64,
    t_new: f64,
    dt_clamped: f64,
    /// Completed predictor-corrector attempts.
    attempts: usize,
    phase: Phase,
}

impl<R: Real> Slot<R> {
    fn start(path: usize, x0: Vec<Complex<R>>, params: &TrackParams) -> Self {
        Slot {
            path,
            x: x0,
            held: None,
            y: Vec::new(),
            t: 0.0,
            dt: params.initial_dt,
            t_new: 0.0,
            dt_clamped: 0.0,
            attempts: 0,
            phase: Phase::Predict,
        }
    }

    /// The point and `t` of this slot's next evaluation.
    fn request(&self) -> (&Vec<Complex<R>>, f64) {
        match self.phase {
            Phase::Predict => (&self.x, self.t),
            Phase::Correct { .. } | Phase::FinalCheck { .. } | Phase::MaxItersCheck => {
                (&self.y, self.t_new)
            }
        }
    }

    /// Euler predictor on the held evaluation: `J_H dx = -dH/dt` at
    /// `(x, t)`, then on to the corrector at `t_new` — or, on a
    /// singular Jacobian, the outcome that retires the path, as in
    /// `track`. The evaluation stays held for a rejected attempt's
    /// retry.
    fn predict(&mut self, p: &NewtonParams) -> Option<TrackOutcome> {
        let (eval, dt_vec) = self
            .held
            .as_ref()
            .expect("predicting slots hold H at (x, t)");
        self.dt_clamped = self.dt.min(1.0 - self.t);
        self.t_new = self.t + self.dt_clamped;
        let rhs: Vec<Complex<R>> = dt_vec.iter().map(|v| -*v).collect();
        match lu_decompose(eval.jacobian.clone()).and_then(|lu| lu.solve(&rhs)) {
            Ok(dxdt) => {
                self.y = self
                    .x
                    .iter()
                    .zip(&dxdt)
                    .map(|(xi, di)| *xi + di.scale(R::from_f64(self.dt_clamped)))
                    .collect();
                // With no iteration budget `newton` goes straight to
                // its MaxIters evaluation.
                self.phase = if p.max_iters == 0 {
                    Phase::MaxItersCheck
                } else {
                    Phase::Correct { iter: 0 }
                };
                None
            }
            Err(_) => Some(TrackOutcome::SingularJacobian {
                at_t: format!("{:.6}", self.t),
            }),
        }
    }

    /// One step of `newton` on the evaluation at `(y, t_new)`: the
    /// corrector's verdict `(converged, iterations)` once it ends.
    fn newton_step(&mut self, eval: &SystemEval<R>, p: &NewtonParams) -> Option<(bool, usize)> {
        match self.phase {
            Phase::Predict => unreachable!("predicting slots do not correct"),
            Phase::Correct { iter } => {
                if max_norm(&eval.values) < p.residual_tol {
                    return Some((true, iter));
                }
                let rhs: Vec<Complex<R>> = eval.values.iter().map(|v| -*v).collect();
                let Ok(dx) = lu_decompose(eval.jacobian.clone()).and_then(|lu| lu.solve(&rhs))
                else {
                    return Some((false, iter));
                };
                for (yi, di) in self.y.iter_mut().zip(&dx) {
                    *yi += *di;
                }
                self.phase = if max_norm(&dx) < p.step_tol {
                    Phase::FinalCheck {
                        iterations: iter + 1,
                    }
                } else if iter + 1 >= p.max_iters {
                    Phase::MaxItersCheck
                } else {
                    Phase::Correct { iter: iter + 1 }
                };
                None
            }
            // `newton`'s post-step-tolerance residual check.
            Phase::FinalCheck { iterations } => Some((
                max_norm(&eval.values) < p.residual_tol * p.step_tol_relax,
                iterations,
            )),
            // `newton`'s final evaluation on a MaxIters exit: the
            // residual is recorded but never rescues the attempt.
            Phase::MaxItersCheck => Some((false, p.max_iters)),
        }
    }

    /// `track`'s step control after the corrector's verdict: accept
    /// (moving to `y`, growing the step after an easy correction) or
    /// halve the step, then the outcome that retires the path, if any.
    /// `at_y` is `H` at `(y, t_new)` when the corrector converged, as
    /// both correctors hand it back; an acceptance holds it, a
    /// rejection keeps the held evaluation at `(x, t)`. A path that
    /// goes on predicts at once when it holds an evaluation.
    fn conclude(
        &mut self,
        converged: bool,
        iterations: usize,
        at_y: Option<HomotopyEval<R>>,
        params: &TrackParams,
        stats: &mut QueueStats,
    ) -> Option<TrackOutcome> {
        stats.corrector_iterations += iterations;
        if converged {
            std::mem::swap(&mut self.x, &mut self.y);
            self.t = self.t_new;
            self.held = at_y;
            stats.steps_accepted += 1;
            if iterations <= params.easy_iters {
                self.dt = (self.dt * params.grow).min(params.max_dt);
            }
        } else {
            stats.steps_rejected += 1;
            self.dt *= 0.5;
        }
        self.attempts += 1;
        // `track`'s loop structure: step-underflow retires the path;
        // otherwise the success check runs at the top of the next
        // iteration — which exists only while the attempt budget lasts.
        if !converged && self.dt < params.min_dt {
            Some(TrackOutcome::StepUnderflow {
                at_t: format!("{:.6}", self.t),
            })
        } else if self.t >= 1.0 {
            Some(if self.attempts < params.max_steps {
                TrackOutcome::Success
            } else {
                TrackOutcome::StepLimit
            })
        } else if self.attempts >= params.max_steps {
            Some(TrackOutcome::StepLimit)
        } else if self.held.is_some() {
            self.predict(&params.corrector)
        } else {
            self.phase = Phase::Predict;
            None
        }
    }
}

/// Record slot `s`'s path as finished with `outcome` and free the slot.
fn retire<R>(
    front: &mut [Option<Slot<R>>],
    results: &mut [Option<LockstepPath<R>>],
    s: usize,
    outcome: TrackOutcome,
) {
    let slot = front[s].take().expect("occupied");
    results[slot.path] = Some(LockstepPath {
        outcome,
        x: slot.x,
        t: slot.t,
    });
}

/// Track every start through `h` with a queue-fed slot front sized by
/// `slots` — a [`SlotPolicy`] or, for compatibility with the original
/// signature, a `usize` (`0` converts to [`SlotPolicy::Auto`], which
/// at this layer sizes the front to the evaluator capacity; the
/// engine-aware `solve()` layer resolves `Auto` to
/// `devices × per-device capacity` instead). The front is always
/// clamped to the number of starts.
///
/// Per path, control flow and arithmetic replicate
/// [`crate::tracker::track`] exactly — in host mode each scheduler
/// round performs precisely one evaluation per occupied slot, all
/// gathered into one batched evaluation, and a prediction at a point
/// the slot has already evaluated runs on that evaluation — so with a
/// bit-exact batch evaluator the endpoints equal the single-path
/// tracker's bit for bit, for **any** slot count and **any** device
/// sharding underneath.
pub fn track_queue<R: Real, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: impl Into<SlotPolicy>,
) -> QueueResult<R>
where
    EG: BatchSystemEvaluator<R>,
    EF: BatchSystemEvaluator<R>,
{
    let mut fh = BatchHomotopy {
        g: Infallible(&mut h.g),
        f: Infallible(&mut h.f),
        gamma: h.gamma,
    };
    let (r, _) = track_queue_recovering(&mut fh, starts, params, slots, &RecoveryPolicy::none())
        .expect("infallible evaluators cannot fault; fault-injecting engines go through track_queue_recovering");
    r
}

/// [`track_queue`] over fallible evaluators: each scheduler round's
/// engine calls retry under `recovery` with modeled backoff. Slot
/// state — each slot's `(t, dt, x)`, phase and held evaluation — is
/// committed only after the round's results return (predictions from
/// held evaluations run then, before the next round's device call), so
/// the front *is* the checkpoint:
/// a retry replays only the faulted call (same chunk boundaries, same
/// arithmetic), and a recovered run's endpoints are **bit-identical**
/// to the fault-free run; only the engine's modeled wall clock pays for
/// the recovery. An unrecoverable fault surfaces as a typed
/// [`BatchError`] — never a panic, never a wrong endpoint.
pub fn track_queue_recovering<R: Real, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: impl Into<SlotPolicy>,
    recovery: &RecoveryPolicy,
) -> Result<(QueueResult<R>, FaultReport), BatchError>
where
    EG: TryBatchEvaluator<R>,
    EF: TryBatchEvaluator<R>,
{
    track_queue_recovering_traced(h, starts, params, slots, recovery, &TraceSink::noop())
}

/// [`track_queue_recovering`] with scheduler-round spans: each round
/// emits a [`SpanKind::Round`] on the sink's track, timestamped by the
/// target evaluator's modeled wall clock plus the accumulated backoff
/// (the scheduler's own modeled timeline), with retry/backoff spans
/// when a round recovered from a fault. A no-op sink makes this exactly
/// [`track_queue_recovering`].
pub fn track_queue_recovering_traced<R: Real, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    starts: &[Vec<Complex<R>>],
    params: TrackParams,
    slots: impl Into<SlotPolicy>,
    recovery: &RecoveryPolicy,
    trace: &TraceSink,
) -> Result<(QueueResult<R>, FaultReport), BatchError>
where
    EG: TryBatchEvaluator<R>,
    EF: TryBatchEvaluator<R>,
{
    let resident = params.corrector_mode == CorrectorMode::DeviceResident;
    let mut fault = FaultReport::default();
    let n_paths = starts.len();
    let cap = h.max_batch().max(1);
    let slots = slots.into().resolve(cap, n_paths);
    if params.max_steps == 0 {
        // `track`'s attempt loop never runs: every path stops at its
        // start before its first evaluation.
        let paths = starts
            .iter()
            .map(|x0| LockstepPath {
                outcome: TrackOutcome::StepLimit,
                x: x0.clone(),
                t: 0.0,
            })
            .collect();
        let stats = QueueStats {
            slots,
            ..Default::default()
        };
        return Ok((QueueResult { paths, stats }, fault));
    }
    let mut queue = PathQueue::from_starts(starts);
    let mut front: Vec<Option<Slot<R>>> = (0..slots)
        .map(|_| queue.pop().map(|(i, x0)| Slot::start(i, x0, &params)))
        .collect();
    let mut results: Vec<Option<LockstepPath<R>>> = (0..n_paths).map(|_| None).collect();
    let mut stats = QueueStats {
        slots,
        ..Default::default()
    };

    loop {
        let occupied: Vec<usize> = (0..slots).filter(|&s| front[s].is_some()).collect();
        if occupied.is_empty() {
            break;
        }
        stats.rounds += 1;
        stats.point_rounds += occupied.len();

        // One evaluation per slot that needs a new point, at that
        // slot's own point and t, batched (and chunked by the evaluator
        // capacity): every occupied slot under the host corrector; only
        // the slots at their first step under the fused one.
        let evaluating: Vec<usize> = occupied
            .iter()
            .copied()
            .filter(|&s| !resident || front[s].as_ref().expect("occupied").phase == Phase::Predict)
            .collect();
        let mut points: Vec<Vec<Complex<R>>> = Vec::with_capacity(evaluating.len());
        let mut ts: Vec<R> = Vec::with_capacity(evaluating.len());
        for &s in &evaluating {
            let (x, t) = front[s].as_ref().expect("occupied").request();
            points.push(x.clone());
            ts.push(R::from_f64(t));
        }
        // The scheduler's modeled clock: the target engine's wall plus
        // every backoff second charged so far.
        let wall0 = h.f.modeled_wall_seconds() + fault.backoff_seconds;
        let retried0 = fault.retried_rounds;
        let backoff0 = fault.backoff_seconds;
        let evals = retry_round(recovery, &mut fault, || {
            let mut evals = Vec::with_capacity(points.len());
            let mut base = 0usize;
            while base < points.len() {
                let end = (base + cap).min(points.len());
                stats.batch_rounds += 1;
                evals.extend(h.try_eval_batch_at_each(&points[base..end], &ts[base..end])?);
                base = end;
            }
            Ok(evals)
        })?;

        for (&s, eval) in evaluating.iter().zip(evals) {
            let slot = front[s].as_mut().expect("occupied");
            let outcome = if slot.phase == Phase::Predict {
                slot.held = Some(eval);
                slot.predict(&params.corrector)
            } else {
                slot.newton_step(&eval.0, &params.corrector)
                    .and_then(|(ok, iters)| {
                        slot.conclude(ok, iters, ok.then_some(eval), &params, &mut stats)
                    })
            };
            if let Some(outcome) = outcome {
                retire(&mut front, &mut results, s, outcome);
            }
        }

        if resident {
            // The whole corrector of every slot that has predicted, in
            // one fused call, each point at its own t_new. The call
            // hands back `H` at each converged point, so an accepted
            // slot predicts from it at once and joins the next round's
            // fused call without a device evaluation.
            let correcting: Vec<usize> = occupied
                .iter()
                .copied()
                .filter(|&s| {
                    front[s]
                        .as_ref()
                        .is_some_and(|slot| slot.phase != Phase::Predict)
                })
                .collect();
            let mut preds: Vec<Vec<Complex<R>>> = Vec::with_capacity(correcting.len());
            let mut ts_new: Vec<R> = Vec::with_capacity(correcting.len());
            for &s in &correcting {
                let slot = front[s].as_mut().expect("occupied");
                preds.push(std::mem::take(&mut slot.y));
                ts_new.push(R::from_f64(slot.t_new));
            }
            let corrected = correct_resident(
                h,
                &mut preds,
                &ts_new,
                &params.corrector,
                &mut stats.batch_rounds,
                recovery,
                &mut fault,
            )?;
            for ((s, y), (status, at_y)) in correcting.into_iter().zip(preds).zip(corrected) {
                let slot = front[s].as_mut().expect("occupied");
                slot.y = y;
                let outcome = slot.conclude(
                    status.converged,
                    status.iterations,
                    at_y,
                    &params,
                    &mut stats,
                );
                if let Some(outcome) = outcome {
                    retire(&mut front, &mut results, s, outcome);
                }
            }
        }

        if trace.enabled() {
            let retried = fault.retried_rounds - retried0;
            let backoff = fault.backoff_seconds - backoff0;
            if retried > 0 {
                trace.emit(
                    SpanKind::Retry,
                    wall0,
                    0.0,
                    3,
                    &[("attempts", MetaValue::U64(retried))],
                );
            }
            if backoff > 0.0 {
                trace.emit(SpanKind::Backoff, wall0, backoff, 3, &[]);
            }
            let wall1 = h.f.modeled_wall_seconds() + fault.backoff_seconds;
            trace.emit(
                SpanKind::Round,
                wall0,
                wall1 - wall0,
                2,
                &[
                    ("round", MetaValue::U64(stats.rounds as u64 - 1)),
                    ("slots", MetaValue::U64(occupied.len() as u64)),
                ],
            );
        }

        // Refill freed slots immediately, so the next round runs at
        // full occupancy again.
        for slot in front.iter_mut() {
            if slot.is_none() {
                if let Some((i, x0)) = queue.pop() {
                    *slot = Some(Slot::start(i, x0, &params));
                    stats.refills += 1;
                }
            }
        }
    }

    Ok((
        QueueResult {
            paths: results
                .into_iter()
                .map(|p| p.expect("every queued path finishes"))
                .collect(),
            stats,
        },
        fault,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homotopy::Homotopy;
    use crate::start::StartSystem;
    use crate::tracker::{track, TrackParams};
    use polygpu_complex::C64;
    use polygpu_polysys::{random_system, AdEvaluator, BenchmarkParams, SystemEvaluator};

    fn fixture(
        seed: u64,
        n_paths: u128,
    ) -> (polygpu_polysys::System<f64>, StartSystem, Vec<Vec<C64>>) {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed,
        };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(2, 2);
        let starts: Vec<Vec<C64>> = (0..n_paths).map(|i| start.solution_by_index(i)).collect();
        (sys, start, starts)
    }

    /// A target evaluator that counts the points it evaluates.
    struct Counting {
        inner: AdEvaluator<f64>,
        points: usize,
    }

    impl SystemEvaluator<f64> for Counting {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn evaluate(&mut self, x: &[C64]) -> SystemEval<f64> {
            self.points += 1;
            self.inner.evaluate(x)
        }
    }

    impl BatchSystemEvaluator<f64> for Counting {
        fn max_batch(&self) -> usize {
            self.inner.max_batch()
        }

        fn evaluate_batch(&mut self, points: &[Vec<C64>]) -> Vec<SystemEval<f64>> {
            self.points += points.len();
            self.inner.evaluate_batch(points)
        }
    }

    /// The defining property: for every slot count and either
    /// corrector, each path's endpoint, outcome and final t are
    /// **bit-for-bit** what the single-path tracker produces, and the
    /// aggregate step counts are the sums over the single-path runs —
    /// also at the edges of the budgets: no corrector iterations (every
    /// attempt is `newton`'s MaxIters evaluation alone) and no attempts
    /// (every path stops at its start).
    #[test]
    fn queue_is_bitwise_identical_to_per_path_tracking() {
        let (sys, start, starts) = fixture(3, 4);
        let defaults = TrackParams::default();
        let no_iters = TrackParams {
            corrector: NewtonParams {
                residual_tol: 1e-1,
                max_iters: 0,
                ..defaults.corrector
            },
            max_steps: 200,
            ..defaults
        };
        let no_steps = TrackParams {
            max_steps: 0,
            ..defaults
        };

        for params in [defaults, no_iters, no_steps] {
            // Reference: one `track` run per path.
            let mut want = Vec::new();
            let (mut sum_acc, mut sum_rej, mut sum_corr) = (0usize, 0usize, 0usize);
            for x0 in &starts {
                let f = AdEvaluator::new(sys.clone()).unwrap();
                let mut h = Homotopy::with_random_gamma(start.clone(), f, 7);
                let r = track(&mut h, x0, params);
                sum_acc += r.steps_accepted;
                sum_rej += r.steps_rejected;
                sum_corr += r.corrector_iterations;
                want.push(r);
            }

            for mode in [CorrectorMode::Host, CorrectorMode::DeviceResident] {
                let params = TrackParams {
                    corrector_mode: mode,
                    ..params
                };
                for slots in [1usize, 2, 3, 4, 7] {
                    let mut h = BatchHomotopy::with_random_gamma(
                        start.clone(),
                        AdEvaluator::new(sys.clone()).unwrap(),
                        7,
                    );
                    let r = track_queue(&mut h, &starts, params, slots);
                    let case = format!(
                        "{mode:?}, slots {slots}, max_iters {}, max_steps {}",
                        params.corrector.max_iters, params.max_steps
                    );
                    assert_eq!(r.paths.len(), starts.len());
                    for (i, (got, w)) in r.paths.iter().zip(&want).enumerate() {
                        assert_eq!(got.outcome, w.outcome, "outcome, path {i}, {case}");
                        assert_eq!(got.x, w.end().x, "endpoint, path {i}, {case}");
                        assert_eq!(got.t, w.end().t, "final t, path {i}, {case}");
                    }
                    assert_eq!(r.stats.steps_accepted, sum_acc, "{case}");
                    assert_eq!(r.stats.steps_rejected, sum_rej, "{case}");
                    assert_eq!(r.stats.corrector_iterations, sum_corr, "{case}");
                }
            }
        }
    }

    /// The evaluation budget. A slot predicts from the evaluation it
    /// holds at its accepted point — the predictor's own after a
    /// rejection, the corrector's converging one after an acceptance,
    /// which the fused corrector hands back too — so under either
    /// corrector a path pays one predictor evaluation and every attempt
    /// its `iterations + 1` corrector evaluations, whatever the
    /// outcome.
    #[test]
    fn predictor_reuses_held_evaluations() {
        for seed in [3, 11, 19] {
            let (sys, start, starts) = fixture(seed, 4);
            for mode in [CorrectorMode::Host, CorrectorMode::DeviceResident] {
                let params = TrackParams {
                    corrector_mode: mode,
                    ..TrackParams::default()
                };
                for slots in [1usize, 4] {
                    let f = Counting {
                        inner: AdEvaluator::new(sys.clone()).unwrap(),
                        points: 0,
                    };
                    let mut h = BatchHomotopy::with_random_gamma(start.clone(), f, 7);
                    let r = track_queue(&mut h, &starts, params, slots);
                    let s = r.stats;
                    let attempts = s.steps_accepted + s.steps_rejected;
                    assert_eq!(
                        h.f.points,
                        starts.len() + s.corrector_iterations + attempts,
                        "seed {seed}, {mode:?}, slots {slots}"
                    );
                }
            }
        }
    }

    /// Refilling keeps the front full: with more paths than slots, the
    /// queue refills every freed slot and mean occupancy stays high.
    #[test]
    fn queue_refills_and_stays_occupied() {
        let (sys, start, starts) = fixture(3, 8);
        let slots = 2;
        let mut h =
            BatchHomotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys).unwrap(), 7);
        let r = track_queue(&mut h, &starts, TrackParams::default(), slots);
        assert_eq!(r.stats.slots, slots);
        assert_eq!(
            r.stats.refills,
            starts.len() - slots,
            "every path beyond the initial front is a refill"
        );
        // Only the drain tail (queue empty, slots finishing at
        // different times) runs below full occupancy.
        assert!(
            r.occupancy() > 0.8,
            "queue scheduling must keep slots busy: occupancy {:.3}",
            r.occupancy()
        );
        assert_eq!(r.successes() + (r.paths.len() - r.successes()), 8);
        assert!(r.stats.batch_rounds >= r.stats.rounds);
    }

    /// `slots = 0` sizes the front to the evaluator capacity; capacity
    /// smaller than the front chunks the round into several device
    /// trips without changing any result.
    #[test]
    fn default_slots_and_chunking_match() {
        let (sys, start, starts) = fixture(11, 4);
        let params = TrackParams::default();
        let mut h_all = BatchHomotopy::with_random_gamma(
            start.clone(),
            AdEvaluator::new(sys.clone()).unwrap(),
            5,
        );
        let all = track_queue(&mut h_all, &starts, params, SlotPolicy::Auto);
        assert_eq!(
            all.stats.slots,
            starts.len(),
            "capacity-sized front clamps to paths"
        );

        let mut h_small =
            BatchHomotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys).unwrap(), 5);
        let small = track_queue(&mut h_small, &starts, params, 3);
        for (a, b) in all.paths.iter().zip(&small.paths) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.outcome, b.outcome);
        }
    }

    /// Impossible tolerances underflow the step and retire every path,
    /// mirroring the single-path tracker's outcome.
    #[test]
    fn impossible_tolerance_underflows() {
        let (sys, start, starts) = fixture(3, 2);
        let params = TrackParams {
            corrector: crate::newton::NewtonParams {
                residual_tol: 1e-300,
                step_tol: 1e-300,
                max_iters: 2,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut h = BatchHomotopy::with_random_gamma(
            start.clone(),
            AdEvaluator::new(sys.clone()).unwrap(),
            11,
        );
        let r = track_queue(&mut h, &starts, params, 2);
        assert_eq!(r.successes(), 0);
        assert!(r.stats.steps_rejected > 0);
        for (i, (p, x0)) in r.paths.iter().zip(&starts).enumerate() {
            let f = AdEvaluator::new(sys.clone()).unwrap();
            let mut h1 = Homotopy::with_random_gamma(start.clone(), f, 11);
            let w = track(&mut h1, x0, params);
            assert_eq!(p.outcome, w.outcome, "path {i}");
        }
    }

    /// Satellite: ratio helpers must be total on empty runs.
    #[test]
    fn empty_queue_stats_ratios_are_total() {
        let s = QueueStats::default();
        assert_eq!(s.occupancy(), 0.0);
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn empty_queue_is_a_no_op() {
        let (sys, start, _) = fixture(3, 2);
        let mut h = BatchHomotopy::with_random_gamma(start, AdEvaluator::new(sys).unwrap(), 7);
        let r = track_queue(&mut h, &[], TrackParams::default(), 4);
        assert!(r.paths.is_empty());
        assert_eq!(r.stats.rounds, 0);
        assert_eq!(r.occupancy(), 0.0);
    }
}
