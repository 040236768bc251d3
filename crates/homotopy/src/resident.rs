//! The device-resident corrector: the Newton loop without the
//! per-iteration round trip.
//!
//! The host corrector downloads every iteration's values and
//! Jacobians, solves on the host, and uploads the updated iterates —
//! O(P·n²) modeled traffic per iteration. [`correct_resident`] instead
//! hands the whole corrector to the engine's fused
//! [`try_correct_fused`](TryBatchEvaluator::try_correct_fused)
//! (evaluate → factor → solve → update, all resident), so the
//! per-iteration download shrinks to the O(P) convergence-flag/residual
//! vector. The path queue ([`crate::queue`]) calls it once per round
//! under [`CorrectorMode::DeviceResident`](polygpu_core::CorrectorMode).
//!
//! The homotopy combination `H(x, t) = γ(1−t)·G(x) + t·F(x)` is folded
//! into the fused loop through a [`HomotopyCombine`]: the engine
//! evaluates the target `F` (the expensive, modeled part), and the
//! analytic start system `G` is combined in with arithmetic identical
//! to [`BatchHomotopy::eval_batch_at`](crate::lockstep::BatchHomotopy) —
//! so endpoints are **bit-identical** to the host-mode corrector; only
//! the modeled transfer traffic differs.
//!
//! The fused loop evaluates a point it declares converged last at the
//! point it returns, and the engine's final download carries that
//! evaluation. [`HomotopyCombine`] keeps the `(H, ∂H/∂t)` it formed
//! there, and [`correct_resident`] hands it back with the point's
//! status, so the path queue predicts the next step from it on the
//! host instead of asking the device again.

use crate::fallible::{retry_round, FaultReport, HomotopyEval, TryBatchEvaluator};
use crate::homotopy::combine_at;
use crate::lockstep::BatchHomotopy;
use crate::newton::NewtonParams;
use polygpu_complex::{Complex, Real};
use polygpu_core::{BatchError, CombineMap, CorrectParams, CorrectStatus, RecoveryPolicy};
use polygpu_polysys::{SystemEval, SystemEvaluator};

/// Folds the analytic start system into the engine's fused corrector:
/// the engine evaluates `F` resident; this map turns each raw
/// `F`-evaluation into the homotopy evaluation `H(·, t)` at that
/// point's `t`, with per-element arithmetic identical to
/// [`BatchHomotopy::combine`](crate::lockstep::BatchHomotopy) — the
/// basis of the host/device bit-identity contract. It keeps the last
/// `(H, ∂H/∂t)` it formed at each point ([`HomotopyCombine::take_last`]).
pub struct HomotopyCombine<'a, R: Real, G: SystemEvaluator<R>> {
    /// The start system `G`, evaluated analytically on the host (free
    /// in the cost model, exactly as in the host corrector).
    g: &'a mut G,
    gamma: Complex<R>,
    /// One `t` per point of the fused call, indexed by batch position.
    ts: &'a [R],
    /// The last `(H, ∂H/∂t)` formed at each point, one slot per `t`.
    last: Vec<Option<HomotopyEval<R>>>,
}

impl<'a, R: Real, G: SystemEvaluator<R>> HomotopyCombine<'a, R, G> {
    /// The map for a fused call over `ts.len()` points.
    pub fn new(g: &'a mut G, gamma: Complex<R>, ts: &'a [R]) -> Self {
        HomotopyCombine {
            g,
            gamma,
            ts,
            last: (0..ts.len()).map(|_| None).collect(),
        }
    }

    /// The last `(H, ∂H/∂t)` this map formed at point `index`, if any.
    /// For a point the fused corrector declared converged, that is
    /// `H`'s evaluation at the returned point and its `t`.
    pub fn take_last(&mut self, index: usize) -> Option<HomotopyEval<R>> {
        self.last[index].take()
    }
}

impl<R: Real, G: SystemEvaluator<R>> CombineMap<R> for HomotopyCombine<'_, R, G> {
    fn apply(&mut self, index: usize, x: &[Complex<R>], eval: &mut SystemEval<R>) {
        let ge = self.g.evaluate(x);
        let fe = std::mem::replace(eval, SystemEval::zeros(0));
        let h = combine_at(self.gamma, self.ts[index], &ge, fe);
        *eval = h.eval.clone();
        self.last[index] = Some((h.eval, h.dt));
    }
}

/// The corrector tolerances in the engine's shape.
pub fn correct_params(p: &NewtonParams) -> CorrectParams {
    CorrectParams {
        residual_tol: p.residual_tol,
        step_tol: p.step_tol,
        step_tol_relax: p.step_tol_relax,
        max_iters: p.max_iters,
    }
}

/// One point's outcome of [`correct_resident`]: the corrector's status
/// and, when the point converged, `H`'s evaluation at the corrected
/// point and its `t`.
pub type Corrected<R> = (CorrectStatus, Option<HomotopyEval<R>>);

/// Run the engine's fused corrector over `points` at per-point `ts`,
/// chunked by the engine's batch capacity
/// ([`max_batch`](polygpu_polysys::BatchSystemEvaluator::max_batch)),
/// with round-level fault retry. Each chunk corrects a scratch copy and
/// commits it only on success, so a retry replays the faulted chunk bit
/// for bit; chunks already committed are never re-run. `batch_rounds`
/// counts fused calls issued (including retried attempts, matching the
/// host corrector's convention).
///
/// Each point comes back with its status and, when it converged, `H`'s
/// evaluation (values, Jacobian and `∂H/∂t`) at the corrected point and
/// its `t`: bit for bit what
/// [`BatchHomotopy::try_eval_batch_at_each`] returns there.
pub fn correct_resident<R, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    points: &mut [Vec<Complex<R>>],
    ts: &[R],
    corrector: &NewtonParams,
    batch_rounds: &mut usize,
    recovery: &RecoveryPolicy,
    fault: &mut FaultReport,
) -> Result<Vec<Corrected<R>>, BatchError>
where
    R: Real,
    EG: TryBatchEvaluator<R>,
    EF: TryBatchEvaluator<R>,
{
    assert_eq!(points.len(), ts.len(), "one t per point");
    let cparams = correct_params(corrector);
    let cap = h.f.max_batch().max(1);
    let gamma = h.gamma;
    let mut out = Vec::with_capacity(points.len());
    let mut base = 0usize;
    while base < points.len() {
        let end = (base + cap).min(points.len());
        let f = &mut h.f;
        let mut combine = HomotopyCombine::new(&mut h.g, gamma, &ts[base..end]);
        let chunk = &mut points[base..end];
        let (corrected, statuses) = retry_round(recovery, fault, || {
            *batch_rounds += 1;
            let mut scratch = chunk.to_vec();
            let statuses = f.try_correct_fused(&mut scratch, &mut combine, &cparams)?;
            Ok((scratch, statuses))
        })?;
        for (dst, src) in chunk.iter_mut().zip(corrected) {
            *dst = src;
        }
        // A faulted attempt, here or inside a fleet, applied a point
        // before the attempt that delivered it, so the map's last
        // evaluation of each point is the delivering attempt's.
        out.extend(statuses.into_iter().enumerate().map(|(i, status)| {
            let held = if status.converged {
                combine.take_last(i)
            } else {
                None
            };
            (status, held)
        }));
        base = end;
    }
    Ok(out)
}
