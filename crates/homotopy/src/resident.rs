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

use crate::fallible::{retry_round, FaultReport, TryBatchEvaluator};
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
/// basis of the host/device bit-identity contract.
pub struct HomotopyCombine<'a, R: Real, G: SystemEvaluator<R>> {
    /// The start system `G`, evaluated analytically on the host (free
    /// in the cost model, exactly as in the host corrector).
    pub g: &'a mut G,
    pub gamma: Complex<R>,
    /// One `t` per point of the fused call, indexed by batch position.
    pub ts: &'a [R],
}

impl<R: Real, G: SystemEvaluator<R>> CombineMap<R> for HomotopyCombine<'_, R, G> {
    fn apply(&mut self, index: usize, x: &[Complex<R>], eval: &mut SystemEval<R>) {
        let t = self.ts[index];
        let ge = self.g.evaluate(x);
        let one_minus_t = R::one() - t;
        let gscale = self.gamma.scale(one_minus_t);
        let n = eval.values.len();
        for i in 0..n {
            eval.values[i] = gscale * ge.values[i] + eval.values[i].scale(t);
        }
        for i in 0..n {
            for j in 0..n {
                eval.jacobian[(i, j)] =
                    gscale * ge.jacobian[(i, j)] + eval.jacobian[(i, j)].scale(t);
            }
        }
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

/// Run the engine's fused corrector over `points` at per-point `ts`,
/// chunked by the engine's batch capacity
/// ([`max_batch`](polygpu_polysys::BatchSystemEvaluator::max_batch)),
/// with round-level fault retry. Each chunk corrects a scratch copy and
/// commits it only on success, so a retry replays the faulted chunk bit
/// for bit; chunks already committed are never re-run. `batch_rounds`
/// counts fused calls issued (including retried attempts, matching the
/// host corrector's convention).
pub fn correct_resident<R, EG, EF>(
    h: &mut BatchHomotopy<R, EG, EF>,
    points: &mut [Vec<Complex<R>>],
    ts: &[R],
    corrector: &NewtonParams,
    batch_rounds: &mut usize,
    recovery: &RecoveryPolicy,
    fault: &mut FaultReport,
) -> Result<Vec<CorrectStatus>, BatchError>
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
        let g = &mut h.g;
        let f = &mut h.f;
        let mut combine = HomotopyCombine {
            g,
            gamma,
            ts: &ts[base..end],
        };
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
        out.extend(statuses);
        base = end;
    }
    Ok(out)
}
