//! The batched homotopy the path queue drives, and its per-path
//! endpoint.
//!
//! [`BatchHomotopy`] evaluates `H(x, t) = γ(1−t)·G(x) + t·F(x)` at a
//! whole batch of points with **one** batched evaluation of each
//! endpoint system, so a batched engine (e.g.
//! `polygpu_core::BatchGpuEvaluator`) amortizes its fixed costs across
//! every path of the front; [`LockstepPath`] is one tracked path's
//! verdict. The tracker that drives them is [`crate::queue`]. The
//! module keeps its name from the shared-front lockstep tracker it once
//! held.
//!
//! Batching is a performance transformation only: the per-point
//! combination arithmetic is identical to
//! [`crate::homotopy::Homotopy::eval_at`], so with a bit-exact batch
//! evaluator every point's evaluation is **bit-for-bit** the
//! single-point one.

use crate::homotopy::{combine_at, random_gamma};
use crate::tracker::TrackOutcome;
use polygpu_complex::{Complex, Real};
use polygpu_polysys::{BatchSystemEvaluator, SystemEval};

/// A homotopy whose endpoints are batch evaluators, for multi-path
/// tracking.
pub struct BatchHomotopy<R: Real, EG, EF> {
    /// Start system `G` (solutions known at `t = 0`).
    pub g: EG,
    /// Target system `F` (sought at `t = 1`).
    pub f: EF,
    /// The gamma constant.
    pub gamma: Complex<R>,
}

impl<R: Real, EG: BatchSystemEvaluator<R>, EF: BatchSystemEvaluator<R>> BatchHomotopy<R, EG, EF> {
    pub fn new(g: EG, f: EF, gamma: Complex<R>) -> Self {
        assert_eq!(
            g.dim(),
            f.dim(),
            "homotopy endpoints must agree in dimension"
        );
        BatchHomotopy { g, f, gamma }
    }

    /// Gamma from an angle seed; the same seed yields the same paths as
    /// [`crate::homotopy::Homotopy::with_random_gamma`].
    pub fn with_random_gamma(g: EG, f: EF, seed: u64) -> Self {
        Self::new(g, f, random_gamma(seed))
    }

    pub fn dim(&self) -> usize {
        self.g.dim()
    }

    /// Largest batch the underlying evaluators accept together.
    pub fn max_batch(&self) -> usize {
        self.g.max_batch().min(self.f.max_batch())
    }

    /// `H(·, t)` values and Jacobians at every point, plus `∂H/∂t`,
    /// from **one** batched evaluation of `G` and one of `F`. The
    /// per-point combination arithmetic is identical to
    /// [`crate::homotopy::Homotopy::eval_at`].
    pub fn eval_batch_at(
        &mut self,
        points: &[Vec<Complex<R>>],
        t: R,
    ) -> Vec<(SystemEval<R>, Vec<Complex<R>>)> {
        self.eval_batch_at_each(points, &vec![t; points.len()])
    }

    /// Like [`BatchHomotopy::eval_batch_at`], but with a **per-point**
    /// `t` — the evaluation the path queue needs, where every
    /// slot tracks its own front position. The device part (`G` and `F`
    /// evaluations) is `t`-independent, so mixed-`t` batches still cost
    /// one batched round trip per endpoint; only the host-side
    /// combination differs per point, with arithmetic identical to
    /// [`crate::homotopy::Homotopy::eval_at`] at that point's `t`.
    pub fn eval_batch_at_each(
        &mut self,
        points: &[Vec<Complex<R>>],
        ts: &[R],
    ) -> Vec<(SystemEval<R>, Vec<Complex<R>>)> {
        assert_eq!(points.len(), ts.len(), "one t per point");
        let ges = self.g.evaluate_batch(points);
        let fes = self.f.evaluate_batch(points);
        self.combine(ges, fes, ts)
    }

    /// The per-point combination of endpoint evaluations into
    /// `H(·, t)` values, Jacobians and `∂H/∂t` — shared by the
    /// infallible and fallible evaluation paths so they are identical
    /// arithmetic by construction.
    pub(crate) fn combine(
        &self,
        ges: Vec<SystemEval<R>>,
        fes: Vec<SystemEval<R>>,
        ts: &[R],
    ) -> Vec<(SystemEval<R>, Vec<Complex<R>>)> {
        ges.iter()
            .zip(fes)
            .zip(ts)
            .map(|((ge, fe), &t)| {
                let h = combine_at(self.gamma, t, ge, fe);
                (h.eval, h.dt)
            })
            .collect()
    }
}

/// Endpoint of one tracked path.
#[derive(Debug, Clone)]
pub struct LockstepPath<R> {
    pub outcome: TrackOutcome,
    /// Last accepted point.
    pub x: Vec<Complex<R>>,
    /// `t` of the last accepted point (1.0 on success).
    pub t: f64,
}

impl<R> LockstepPath<R> {
    pub fn success(&self) -> bool {
        self.outcome == TrackOutcome::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::homotopy::Homotopy;
    use crate::start::StartSystem;
    use polygpu_polysys::{random_points, random_system, AdEvaluator, BenchmarkParams};

    #[test]
    fn batch_homotopy_matches_single_homotopy_pointwise() {
        let params = BenchmarkParams {
            n: 3,
            m: 2,
            k: 2,
            d: 2,
            seed: 19,
        };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(3, 3);
        let points = random_points::<f64>(3, 4, 9);
        let mut hb = BatchHomotopy::with_random_gamma(
            start.clone(),
            AdEvaluator::new(sys.clone()).unwrap(),
            42,
        );
        let mut h1 = Homotopy::with_random_gamma(start, AdEvaluator::new(sys).unwrap(), 42);
        assert_eq!(hb.gamma, h1.gamma, "same seed, same gamma, same paths");
        let t = 0.37;
        let batch = hb.eval_batch_at(&points, t);
        for (x, (got, got_dt)) in points.iter().zip(batch) {
            let want = h1.eval_at(x, t);
            assert_eq!(got.values, want.eval.values);
            assert_eq!(got.jacobian.as_slice(), want.eval.jacobian.as_slice());
            assert_eq!(got_dt, want.dt);
        }
    }
}
