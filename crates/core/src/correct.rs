//! The fused **correct** operation: evaluate → factor → solve → update,
//! with the iterates resident on the (simulated) device.
//!
//! The host corrector pays a full value + Jacobian download and a
//! point upload every Newton iteration — PCIe latency, not compute,
//! dominates the inner loop. Verschelde–Yu run the entire Newton step
//! on the device; this module models that regime: one upload of the
//! iterates at the start, one download of the endpoints at the end,
//! and per iteration only an `O(P)` convergence-flag/residual-norm
//! vector crosses the bus ([`FLAG_BYTES`] per point).
//!
//! The numeric core is [`drive_correct`]: a batched Newton driver with
//! **exactly** the per-point semantics of `newton()` in
//! `polygpu-homotopy` (same [`polygpu_complex::lu`] factorization,
//! same pivoting order, same stop conditions), shared by the host and
//! device-resident paths so endpoints are bit-identical by
//! construction. What differs between the modes is only *where the
//! cost model charges the work*: the host path charges full round
//! trips through `try_evaluate_batch`; the device-resident path
//! (`BatchGpuEvaluator::try_correct_batch`, for uniform and ragged
//! systems alike) uploads the iterates once and charges per
//! Newton iteration two evaluation launches, **one** fused
//! factor-and-solve launch (`polygpu_gpusim::linalg::factor_solve_cost`)
//! and one flag download.

use crate::batch::BatchError;
use crate::engine::validate_batch;
use crate::pipeline::{inject, PipelineStats};
use polygpu_complex::lu::lu_decompose;
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::{
    factor_solve_cost, transfer_seconds, DeviceSpec, DeviceValue, FaultInjector, OpClass,
};
use polygpu_obs::{Lane, MetaValue, SpanKind, TraceSink};
use polygpu_polysys::{BatchSystemEvaluator, SystemEval};

/// Where the corrector's linear solves run — and, since the device is
/// simulated, where their cost is charged.
///
/// Endpoints are **bit-identical** between the modes: both execute the
/// same arithmetic in the same order through [`drive_correct`]. What
/// changes is the modeled traffic: `Host` pays a full value/Jacobian
/// round trip per Newton iteration, `DeviceResident` downloads only
/// the `O(P)` convergence-flag vector per iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CorrectorMode {
    /// Classic loop: download values + Jacobians, LU-solve on the
    /// host, upload the corrected points.
    #[default]
    Host,
    /// Fused on-device loop: evaluate, factor, back-substitute and
    /// update without leaving the device; per iteration only the
    /// convergence flags cross the bus.
    DeviceResident,
}

/// Modeled device→host bytes per point of one convergence-flag
/// download: a residual norm (`f64`) plus a packed
/// converged/step-size flag word.
pub const FLAG_BYTES: usize = 16;

/// Tolerances and limits of one fused corrector call — the corrector
/// slice of `NewtonParams`, with the `StepTol` relaxation explicit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrectParams {
    /// Converged when the residual max-norm drops below this.
    pub residual_tol: f64,
    /// Stop when the Newton update's max-norm drops below this.
    pub step_tol: f64,
    /// On a `StepTol` stop, `converged` is declared against
    /// `residual_tol * step_tol_relax` — a stalled step near the root
    /// still counts. `1.0` disables the relaxation.
    pub step_tol_relax: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for CorrectParams {
    fn default() -> Self {
        CorrectParams {
            residual_tol: 1e-12,
            step_tol: 1e-14,
            step_tol_relax: 1e3,
            max_iters: 20,
        }
    }
}

/// Why one point's correction stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectStop {
    /// Residual max-norm under `residual_tol`.
    ResidualTol,
    /// Newton update max-norm under `step_tol`.
    StepTol,
    /// Iteration cap reached.
    MaxIters,
    /// The Jacobian factorization failed (typed singular, including
    /// NaN-poisoned pivots).
    Singular,
}

/// Per-point outcome of a fused corrector call.
///
/// Invariant: `residuals` holds one entry per evaluation of this
/// point — `residuals.len() == iterations + 1` on **every** stop
/// reason, and `residuals.last()` is the residual of the returned
/// iterate.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrectStatus {
    /// Did the point converge under the declared tolerance?
    pub converged: bool,
    /// Newton updates applied.
    pub iterations: usize,
    /// Residual max-norm after each evaluation.
    pub residuals: Vec<f64>,
    /// Max-norm of the last Newton update (0 if none was applied).
    pub last_step: f64,
    /// Why the iteration stopped.
    pub stop: CorrectStop,
}

/// Post-evaluation hook: rewrite a raw system evaluation into the
/// function the corrector actually iterates on. The homotopy layer
/// uses this to combine `γ(1−t)·g(x) + t·f(x)` from the engine's
/// `f`-evaluation; plain root-finding uses [`IdentityCombine`].
///
/// `index` is the point's position in the original batch (stable
/// across rounds, so per-point state like each path's `t` can be
/// looked up), `x` the *current* iterate.
pub trait CombineMap<R: Real> {
    fn apply(&mut self, index: usize, x: &[Complex<R>], eval: &mut SystemEval<R>);
}

/// Correct against the evaluated system itself.
pub struct IdentityCombine;

impl<R: Real> CombineMap<R> for IdentityCombine {
    fn apply(&mut self, _index: usize, _x: &[Complex<R>], _eval: &mut SystemEval<R>) {}
}

/// Re-bases the indices seen by an inner [`CombineMap`] — how a
/// sub-batch dispatched to one device of a cluster (or a
/// point-at-a-time forwarding engine) keeps reporting original batch
/// positions.
pub struct OffsetCombine<'a, R: Real> {
    pub inner: &'a mut dyn CombineMap<R>,
    pub offset: usize,
}

impl<R: Real> CombineMap<R> for OffsetCombine<'_, R> {
    fn apply(&mut self, index: usize, x: &[Complex<R>], eval: &mut SystemEval<R>) {
        self.inner.apply(index + self.offset, x, eval);
    }
}

/// One modeled device operation of the fused loop, reported by
/// [`drive_correct`] to its [`CorrectOps`] for cost charging. The
/// driver's numeric results never depend on what `charge` does — only
/// the cost model and fault schedule do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectCharge {
    /// One fused factor-and-solve launch over `count` live Jacobians:
    /// LU factorization, back-substitution and the update.
    FactorSolve { count: usize },
    /// Download of `count` convergence-flag words
    /// ([`FLAG_BYTES`] each).
    Flags { count: usize },
}

/// What [`drive_correct`] needs from an engine: batched evaluation of
/// the live iterates, plus a cost hook for the factor/solve and
/// flag-download steps. One trait object (rather than two closures)
/// so a single `&mut` engine can serve both roles.
pub trait CorrectOps<R: Real> {
    /// Evaluate the live points (`indices[i]` is `points[i]`'s
    /// position in the original batch).
    fn eval(
        &mut self,
        points: &[Vec<Complex<R>>],
        indices: &[usize],
    ) -> Result<Vec<SystemEval<R>>, BatchError>;

    /// Charge one modeled device operation. The host path's default
    /// charges nothing (its evaluation round trips already carry the
    /// full cost).
    fn charge(&mut self, _ev: CorrectCharge) -> Result<(), BatchError> {
        Ok(())
    }
}

/// The parts of a batched engine the fused corrector charges: its
/// device, stats, fault schedule and trace.
pub(crate) struct Charges<'a> {
    pub device: &'a DeviceSpec,
    pub stats: &'a mut PipelineStats,
    pub injector: &'a mut Option<FaultInjector>,
    pub trace: &'a TraceSink,
}

impl Charges<'_> {
    /// One PCIe transfer of `bytes` in the direction of `class`
    /// (`HostToDevice` or `DeviceToHost`).
    fn transfer(&mut self, class: OpClass, bytes: usize) -> Result<(), BatchError> {
        let secs = transfer_seconds(self.device, bytes);
        inject(
            self.injector,
            self.stats,
            self.device,
            class,
            secs,
            0.0,
            self.trace,
        )?;
        let t0 = self.stats.wall_seconds;
        self.stats.transfer_seconds += secs;
        let (lane, kind) = if class == OpClass::HostToDevice {
            self.stats.h2d_bytes += bytes as u64;
            (Lane::H2D, SpanKind::Upload)
        } else {
            self.stats.d2h_bytes += bytes as u64;
            (Lane::D2H, SpanKind::Download)
        };
        self.stats.wall_seconds += secs;
        if self.trace.enabled() {
            self.trace.lane(lane).emit(kind, t0, secs, 4, &[]);
        }
        Ok(())
    }
}

/// A batched engine that runs the fused corrector: evaluation rounds
/// against device-resident iterates, plus the parts the corrector
/// charges. `BatchGpuEvaluator` implements it, and its
/// `try_correct_batch` is [`correct_resident`].
pub(crate) trait FusedEngine<R: Real>: BatchSystemEvaluator<R> {
    /// One evaluation round (two launches) against the resident live
    /// iterates; no PCIe traffic.
    fn eval_resident(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError>;
    /// The parts the corrector charges.
    fn charges(&mut self) -> Charges<'_>;
}

/// Charge one modeled operation of the fused corrector loop: the one
/// fused factor-and-solve launch ([`factor_solve_cost`]) whose kernel
/// time splits into the `factor_seconds` and `backsub_seconds` phases,
/// or the round's flag download. On the trace the launch is a `launch`
/// span tiled by a `factor` and a `backsub` span, the launch overhead
/// counted in the `factor` span. A system whose pivot panel does not
/// fit one SM's shared memory fails here with [`BatchError::Launch`]
/// before anything is charged.
fn charge_correct<R: Real>(
    c: &mut Charges<'_>,
    n: usize,
    ev: CorrectCharge,
) -> Result<(), BatchError> {
    match ev {
        CorrectCharge::FactorSolve { count } => {
            let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
            let cost = factor_solve_cost(c.device, n, count, elem)?;
            let timing = cost.launch.timing;
            let total = timing.total_seconds();
            inject(
                c.injector,
                c.stats,
                c.device,
                OpClass::Kernel,
                total,
                0.0,
                c.trace,
            )?;
            let t0 = c.stats.wall_seconds;
            c.stats.counters += cost.launch.counters;
            c.stats.kernel_seconds += timing.kernel_seconds;
            c.stats.overhead_seconds += timing.overhead_seconds;
            c.stats.factor_seconds += cost.factor_seconds;
            c.stats.backsub_seconds += cost.backsub_seconds;
            c.stats.wall_seconds += total;
            if c.trace.enabled() {
                let lane = c.trace.lane(Lane::Compute);
                let factor = timing.overhead_seconds + cost.factor_seconds;
                lane.emit(
                    SpanKind::Launch,
                    t0,
                    total,
                    4,
                    &[("staging", MetaValue::Str(cost.staging.name()))],
                );
                lane.emit(SpanKind::Factor, t0, factor, 5, &[]);
                lane.emit(SpanKind::Backsub, t0 + factor, total - factor, 5, &[]);
            }
            Ok(())
        }
        CorrectCharge::Flags { count } => c.transfer(OpClass::DeviceToHost, count * FLAG_BYTES),
    }
}

/// The [`CorrectOps`] view of a [`FusedEngine`] during a fused
/// correction.
struct ResidentOps<'a, R: Real>(&'a mut dyn FusedEngine<R>);

impl<R: Real> CorrectOps<R> for ResidentOps<'_, R> {
    fn eval(
        &mut self,
        points: &[Vec<Complex<R>>],
        _indices: &[usize],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        self.0.eval_resident(points)
    }

    fn charge(&mut self, ev: CorrectCharge) -> Result<(), BatchError> {
        let n = self.0.dim();
        charge_correct::<R>(&mut self.0.charges(), n, ev)
    }
}

/// Fused device-resident Newton correction on one batched engine: upload
/// the iterates once, run [`drive_correct`] against the resident state
/// (per iteration two evaluation launches, one factor-and-solve
/// launch and one flag download), download the endpoints once.
///
/// The driver mutates scratch; the caller's points are committed only
/// on full success, so a fault or a [`BatchError::Launch`] leaves them
/// untouched and a retried call replays bit-identically.
pub(crate) fn correct_resident<R: Real>(
    engine: &mut dyn FusedEngine<R>,
    points: &mut [Vec<Complex<R>>],
    combine: &mut dyn CombineMap<R>,
    params: &CorrectParams,
) -> Result<Vec<CorrectStatus>, BatchError> {
    let n = engine.dim();
    let p = points.len();
    validate_batch(n, engine.max_batch(), points)?;
    let bytes = p * n * <Complex<R> as DeviceValue>::DEVICE_BYTES;
    let wall0 = engine.charges().stats.wall_seconds;
    engine.charges().transfer(OpClass::HostToDevice, bytes)?;
    let mut scratch: Vec<Vec<Complex<R>>> = points.to_vec();
    let statuses = drive_correct(&mut ResidentOps(engine), combine, &mut scratch, params)?;
    let mut c = engine.charges();
    c.transfer(OpClass::DeviceToHost, bytes)?;

    for (dst, src) in points.iter_mut().zip(scratch) {
        *dst = src;
    }
    c.stats.corrections += p as u64;
    c.stats.corrector_iterations += statuses.iter().map(|s| s.iterations as u64).sum::<u64>();
    c.trace.emit(
        SpanKind::Correct,
        wall0,
        c.stats.wall_seconds - wall0,
        3,
        &[("points", MetaValue::U64(p as u64))],
    );
    Ok(statuses)
}

/// Residual / step-size norm: `max_i |v_i|`, measured in `f64` like
/// every tolerance in the workspace.
pub fn max_norm<R: Real>(v: &[Complex<R>]) -> f64 {
    v.iter().map(|z| z.abs().to_f64()).fold(0.0, f64::max)
}

#[derive(Clone, Copy)]
enum Phase {
    Iterating,
    /// A sub-`step_tol` update was applied at `iterations`; evaluate
    /// the updated iterate next round, then stop on `StepTol`.
    FinalCheck {
        iterations: usize,
    },
    /// The iteration cap was hit with the point still live; evaluate
    /// the final iterate next round, then stop on `MaxIters` — the
    /// returned residual always describes the returned point.
    MaxItersCheck,
    Done,
}

struct PointState {
    phase: Phase,
    iterations: usize,
    residuals: Vec<f64>,
    last_step: f64,
    done: Option<(bool, CorrectStop)>,
}

impl PointState {
    fn finish(&mut self, converged: bool, iterations: usize, stop: CorrectStop) {
        self.phase = Phase::Done;
        self.iterations = iterations;
        self.done = Some((converged, stop));
    }
}

/// Batched Newton correction of `points` in place, with per-point
/// semantics exactly matching the scalar `newton()` of
/// `polygpu-homotopy` (same LU, same pivoting, same stop logic — the
/// basis of the workspace-wide bit-identity guarantee).
///
/// Each round: evaluate every live point (one batched call), report a
/// [`CorrectCharge::FactorSolve`] for the still-unconverged subset,
/// factor/solve/update them host-side, then report a
/// [`CorrectCharge::Flags`] download for the round's convergence
/// flags. Any error from `ops` aborts the whole call; `points` may
/// hold partially-updated scratch in that case, so callers that can
/// retry must call on a scratch copy and commit on success (as the
/// engine wrappers do).
pub fn drive_correct<R: Real>(
    ops: &mut dyn CorrectOps<R>,
    combine: &mut dyn CombineMap<R>,
    points: &mut [Vec<Complex<R>>],
    params: &CorrectParams,
) -> Result<Vec<CorrectStatus>, BatchError> {
    let mut states: Vec<PointState> = points
        .iter()
        .map(|_| PointState {
            phase: Phase::Iterating,
            iterations: 0,
            residuals: Vec::new(),
            last_step: 0.0,
            done: None,
        })
        .collect();
    let mut live_idx: Vec<usize> = Vec::with_capacity(points.len());
    let mut live_pts: Vec<Vec<Complex<R>>> = Vec::with_capacity(points.len());
    let mut factor_idx: Vec<usize> = Vec::with_capacity(points.len());

    for iter in 0..=params.max_iters {
        live_idx.clear();
        live_pts.clear();
        for (i, st) in states.iter_mut().enumerate() {
            if matches!(st.phase, Phase::Iterating) && iter == params.max_iters {
                // Out of iterations: one more evaluation so the
                // reported residual describes the returned iterate.
                st.phase = Phase::MaxItersCheck;
            }
            if !matches!(st.phase, Phase::Done) {
                live_idx.push(i);
                live_pts.push(points[i].clone());
            }
        }
        if live_idx.is_empty() {
            break;
        }

        let mut evals = ops.eval(&live_pts, &live_idx)?;

        // Pass A: residuals and stop checks on the fresh evaluations.
        factor_idx.clear();
        for (k, &i) in live_idx.iter().enumerate() {
            combine.apply(i, &points[i], &mut evals[k]);
            let resid = max_norm(&evals[k].values);
            let st = &mut states[i];
            st.residuals.push(resid);
            match st.phase {
                Phase::FinalCheck { iterations } => {
                    let ok = resid < params.residual_tol * params.step_tol_relax;
                    st.finish(ok, iterations, CorrectStop::StepTol);
                }
                Phase::MaxItersCheck => {
                    st.finish(false, params.max_iters, CorrectStop::MaxIters);
                }
                Phase::Iterating => {
                    if resid < params.residual_tol {
                        st.finish(true, iter, CorrectStop::ResidualTol);
                    } else {
                        factor_idx.push(k);
                    }
                }
                Phase::Done => unreachable!("done points are not evaluated"),
            }
        }

        // Batched factor + solve of the still-live Jacobians.
        if !factor_idx.is_empty() {
            ops.charge(CorrectCharge::FactorSolve {
                count: factor_idx.len(),
            })?;
            for &k in &factor_idx {
                let i = live_idx[k];
                let ev = &evals[k];
                let rhs: Vec<Complex<R>> = ev.values.iter().map(|v| -*v).collect();
                let st = &mut states[i];
                match lu_decompose(ev.jacobian.clone()).and_then(|f| f.solve(&rhs)) {
                    Err(_) => st.finish(false, iter, CorrectStop::Singular),
                    Ok(dx) => {
                        for (xi, di) in points[i].iter_mut().zip(&dx) {
                            *xi += *di;
                        }
                        st.iterations = iter + 1;
                        st.last_step = max_norm(&dx);
                        if st.last_step < params.step_tol {
                            st.phase = Phase::FinalCheck {
                                iterations: iter + 1,
                            };
                        }
                    }
                }
            }
        }

        // This round's convergence flags come back to the host.
        ops.charge(CorrectCharge::Flags {
            count: live_idx.len(),
        })?;
    }

    Ok(states
        .into_iter()
        .map(|st| {
            let (converged, stop) = st.done.expect("every point reaches a stop by max_iters");
            CorrectStatus {
                converged,
                iterations: st.iterations,
                residuals: st.residuals,
                last_step: st.last_step,
                stop,
            }
        })
        .collect())
}

/// [`drive_correct`] over plain batched evaluation: the **host**
/// corrector. Every round evaluates the live points through `eval`, in
/// chunks of at most `capacity` points, and factors and solves on the
/// host; nothing beyond those round trips is charged. The default of
/// `AnyEvaluator::try_correct_batch` and of the homotopy layer's
/// `TryBatchEvaluator::try_correct_fused`.
pub fn host_correct<R: Real, F>(
    eval: F,
    capacity: usize,
    combine: &mut dyn CombineMap<R>,
    points: &mut [Vec<Complex<R>>],
    params: &CorrectParams,
) -> Result<Vec<CorrectStatus>, BatchError>
where
    F: FnMut(&[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError>,
{
    struct HostOps<F> {
        eval: F,
        capacity: usize,
    }
    impl<R: Real, F> CorrectOps<R> for HostOps<F>
    where
        F: FnMut(&[Vec<Complex<R>>]) -> Result<Vec<SystemEval<R>>, BatchError>,
    {
        fn eval(
            &mut self,
            points: &[Vec<Complex<R>>],
            _indices: &[usize],
        ) -> Result<Vec<SystemEval<R>>, BatchError> {
            let mut out = Vec::with_capacity(points.len());
            for chunk in points.chunks(self.capacity.max(1)) {
                out.extend((self.eval)(chunk)?);
            }
            Ok(out)
        }
    }
    drive_correct(&mut HostOps { eval, capacity }, combine, points, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;
    use polygpu_polysys::SystemEval;

    /// `f(x, y) = (x² − 1, y² − 4)` — roots at (±1, ±2).
    struct Quad;

    impl Quad {
        fn eval(&self, x: &[C64]) -> SystemEval<f64> {
            let mut ev = SystemEval::zeros(2);
            ev.values[0] = x[0] * x[0] - Complex::from_f64(1.0, 0.0);
            ev.values[1] = x[1] * x[1] - Complex::from_f64(4.0, 0.0);
            ev.jacobian[(0, 0)] = x[0].scale(2.0);
            ev.jacobian[(1, 1)] = x[1].scale(2.0);
            ev
        }
    }

    struct QuadOps {
        sys: Quad,
        rounds: usize,
        charges: Vec<CorrectCharge>,
    }

    impl CorrectOps<f64> for QuadOps {
        fn eval(
            &mut self,
            points: &[Vec<C64>],
            _indices: &[usize],
        ) -> Result<Vec<SystemEval<f64>>, BatchError> {
            self.rounds += 1;
            Ok(points.iter().map(|x| self.sys.eval(x)).collect())
        }

        fn charge(&mut self, ev: CorrectCharge) -> Result<(), BatchError> {
            self.charges.push(ev);
            Ok(())
        }
    }

    /// The scalar reference: `newton()`'s exact control flow (with the
    /// `MaxIters` final evaluation) against one point.
    fn scalar_newton(sys: &Quad, x0: &[C64], p: &CorrectParams) -> (Vec<C64>, CorrectStatus) {
        let mut x = x0.to_vec();
        let mut residuals = Vec::new();
        let mut last_step = 0.0;
        for iter in 0..p.max_iters {
            let ev = sys.eval(&x);
            let resid = max_norm(&ev.values);
            residuals.push(resid);
            if resid < p.residual_tol {
                return (
                    x,
                    CorrectStatus {
                        converged: true,
                        iterations: iter,
                        residuals,
                        last_step,
                        stop: CorrectStop::ResidualTol,
                    },
                );
            }
            let rhs: Vec<C64> = ev.values.iter().map(|v| -*v).collect();
            let dx = match lu_decompose(ev.jacobian.clone()).and_then(|f| f.solve(&rhs)) {
                Ok(dx) => dx,
                Err(_) => {
                    return (
                        x,
                        CorrectStatus {
                            converged: false,
                            iterations: iter,
                            residuals,
                            last_step,
                            stop: CorrectStop::Singular,
                        },
                    )
                }
            };
            for (xi, di) in x.iter_mut().zip(&dx) {
                *xi += *di;
            }
            last_step = max_norm(&dx);
            if last_step < p.step_tol {
                let resid = max_norm(&sys.eval(&x).values);
                residuals.push(resid);
                return (
                    x,
                    CorrectStatus {
                        converged: resid < p.residual_tol * p.step_tol_relax,
                        iterations: iter + 1,
                        residuals,
                        last_step,
                        stop: CorrectStop::StepTol,
                    },
                );
            }
        }
        let resid = max_norm(&sys.eval(&x).values);
        residuals.push(resid);
        (
            x,
            CorrectStatus {
                converged: false,
                iterations: p.max_iters,
                residuals,
                last_step,
                stop: CorrectStop::MaxIters,
            },
        )
    }

    fn params(max_iters: usize) -> CorrectParams {
        CorrectParams {
            residual_tol: 1e-12,
            step_tol: 1e-14,
            step_tol_relax: 1e3,
            max_iters,
        }
    }

    #[test]
    fn matches_scalar_newton_bit_for_bit() {
        // Mixed batch: fast converger, slow converger, and one that
        // exhausts the cap — exercising every phase transition.
        let starts: Vec<Vec<C64>> = vec![
            vec![C64::from_f64(1.1, 0.1), C64::from_f64(2.2, -0.1)],
            vec![C64::from_f64(5.0, 3.0), C64::from_f64(-7.0, 1.0)],
            vec![C64::from_f64(100.0, 50.0), C64::from_f64(-80.0, 60.0)],
        ];
        for max_iters in [0usize, 1, 3, 25] {
            let p = params(max_iters);
            let mut pts = starts.clone();
            let mut ops = QuadOps {
                sys: Quad,
                rounds: 0,
                charges: Vec::new(),
            };
            let stats = drive_correct(&mut ops, &mut IdentityCombine, &mut pts, &p).unwrap();
            for (i, s) in starts.iter().enumerate() {
                let (rx, rs) = scalar_newton(&Quad, s, &p);
                assert_eq!(pts[i], rx, "endpoint point {i}, max_iters {max_iters}");
                assert_eq!(stats[i], rs, "status point {i}, max_iters {max_iters}");
            }
        }
    }

    #[test]
    fn residual_invariant_on_every_stop_reason() {
        // Singular start: x = 0 zeroes the first Jacobian row.
        let starts: Vec<Vec<C64>> = vec![
            vec![C64::from_f64(1.0, 0.0), C64::from_f64(2.0, 0.0)], // instant ResidualTol
            vec![C64::from_f64(1.5, 0.0), C64::from_f64(2.5, 0.0)], // converges
            vec![C64::from_f64(0.0, 0.0), C64::from_f64(2.0, 0.0)], // Singular
            vec![C64::from_f64(1e8, 1e8), C64::from_f64(1e8, -1e8)], // MaxIters
        ];
        let p = params(4);
        let mut pts = starts.clone();
        let mut ops = QuadOps {
            sys: Quad,
            rounds: 0,
            charges: Vec::new(),
        };
        let stats = drive_correct(&mut ops, &mut IdentityCombine, &mut pts, &p).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for (i, st) in stats.iter().enumerate() {
            seen.insert(format!("{:?}", st.stop));
            assert_eq!(
                st.residuals.len(),
                st.iterations + 1,
                "point {i}: one residual per evaluation ({:?})",
                st.stop
            );
            let last = *st.residuals.last().unwrap();
            let fresh = max_norm(&Quad.eval(&pts[i]).values);
            assert!(
                last == fresh || (last.is_nan() && fresh.is_nan()),
                "point {i}: last residual describes the returned point"
            );
        }
        assert!(seen.contains("ResidualTol"));
        assert!(seen.contains("Singular"));
        assert!(seen.contains("MaxIters"));
    }

    #[test]
    fn charges_shrink_with_the_live_set() {
        let mut pts = vec![
            vec![C64::from_f64(1.0, 0.0), C64::from_f64(2.0, 0.0)], // done at round 0
            vec![C64::from_f64(1.2, 0.3), C64::from_f64(2.4, -0.2)],
        ];
        let p = params(30);
        let mut ops = QuadOps {
            sys: Quad,
            rounds: 0,
            charges: Vec::new(),
        };
        drive_correct(&mut ops, &mut IdentityCombine, &mut pts, &p).unwrap();
        // Round 0 factors only the unconverged point.
        assert_eq!(
            ops.charges[0],
            CorrectCharge::FactorSolve { count: 1 },
            "{:?}",
            ops.charges
        );
        assert_eq!(ops.charges[1], CorrectCharge::Flags { count: 2 });
        // Later rounds only carry the live point.
        assert!(ops.charges[2..].iter().all(|c| matches!(
            c,
            CorrectCharge::FactorSolve { count: 1 } | CorrectCharge::Flags { count: 1 }
        )));
    }

    #[test]
    fn offset_combine_rebases_indices() {
        struct Recorder(Vec<usize>);
        impl CombineMap<f64> for Recorder {
            fn apply(&mut self, index: usize, _x: &[C64], _eval: &mut SystemEval<f64>) {
                self.0.push(index);
            }
        }
        let mut rec = Recorder(Vec::new());
        let mut off = OffsetCombine {
            inner: &mut rec,
            offset: 7,
        };
        let mut ev = SystemEval::zeros(1);
        off.apply(0, &[C64::one()], &mut ev);
        off.apply(2, &[C64::one()], &mut ev);
        assert_eq!(rec.0, vec![7, 9]);
    }
}
