//! Newton's method over any [`SystemEvaluator`].
//!
//! "The evaluation of a polynomial system and its Jacobian matrix is a
//! computationally intensive stage in Newton's method to approximate an
//! isolated solution" (§1). This module is deliberately evaluator-
//! agnostic so the same corrector runs against the CPU reference or the
//! simulated-GPU pipeline.

use crate::lu::lu_decompose;
use polygpu_complex::{Complex, Real};
use polygpu_core::correct::max_norm;
use polygpu_polysys::{SystemEval, SystemEvaluator};

/// Convergence controls.
#[derive(Debug, Clone, Copy)]
pub struct NewtonParams {
    /// Stop when the residual max-norm drops below this.
    pub residual_tol: f64,
    /// Stop when the update max-norm drops below this.
    pub step_tol: f64,
    /// On a [`StopReason::StepTol`] exit, `converged` is declared
    /// against `residual_tol * step_tol_relax` rather than
    /// `residual_tol` itself: a stalled update near the root means the
    /// iterate has stopped improving, so demanding the full tolerance
    /// would misreport an essentially-converged point. The factor is
    /// explicit so callers choose the relaxation (set `1.0` to disable
    /// it); the default keeps the historical `1e3`.
    pub step_tol_relax: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for NewtonParams {
    fn default() -> Self {
        NewtonParams {
            residual_tol: 1e-12,
            step_tol: 1e-14,
            step_tol_relax: 1e3,
            max_iters: 20,
        }
    }
}

/// Outcome of a Newton run.
#[derive(Debug, Clone)]
pub struct NewtonResult<R> {
    /// Final iterate.
    pub x: Vec<Complex<R>>,
    pub converged: bool,
    pub iterations: usize,
    /// Residual max-norm after each evaluation (including the initial
    /// point).
    pub residuals: Vec<f64>,
    /// Max-norm of the last Newton update.
    pub last_step: f64,
    /// Why the run stopped.
    pub stop: StopReason,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    ResidualTol,
    StepTol,
    MaxIters,
    SingularJacobian,
}

/// Run Newton's method from `x0`.
pub fn newton<R: Real, E: SystemEvaluator<R> + ?Sized>(
    eval: &mut E,
    x0: &[Complex<R>],
    params: NewtonParams,
) -> NewtonResult<R> {
    let mut x = x0.to_vec();
    let mut residuals = Vec::with_capacity(params.max_iters + 1);
    let mut last_step = f64::INFINITY;
    for iter in 0..params.max_iters {
        let SystemEval { values, jacobian } = eval.evaluate(&x);
        let resid = max_norm(&values);
        residuals.push(resid);
        if resid < params.residual_tol {
            return NewtonResult {
                x,
                converged: true,
                iterations: iter,
                residuals,
                last_step,
                stop: StopReason::ResidualTol,
            };
        }
        let rhs: Vec<Complex<R>> = values.iter().map(|v| -*v).collect();
        let dx = match lu_decompose(jacobian).and_then(|lu| lu.solve(&rhs)) {
            Ok(dx) => dx,
            Err(_) => {
                return NewtonResult {
                    x,
                    converged: false,
                    iterations: iter,
                    residuals,
                    last_step,
                    stop: StopReason::SingularJacobian,
                }
            }
        };
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += *di;
        }
        last_step = max_norm(&dx);
        if last_step < params.step_tol {
            let final_resid = max_norm(&eval.evaluate(&x).values);
            residuals.push(final_resid);
            return NewtonResult {
                converged: final_resid < params.residual_tol * params.step_tol_relax,
                x,
                iterations: iter + 1,
                residuals,
                last_step,
                stop: StopReason::StepTol,
            };
        }
    }
    // Out of iterations with the last update applied: evaluate the
    // final iterate so the reported residual describes the returned
    // `x` (and `residuals` keeps one entry per evaluation on every
    // stop reason).
    let final_resid = max_norm(&eval.evaluate(&x).values);
    residuals.push(final_resid);
    NewtonResult {
        x,
        converged: false,
        iterations: params.max_iters,
        residuals,
        last_step,
        stop: StopReason::MaxIters,
    }
}

/// An evaluator shifted by a constant: `G(x) = F(x) − c` with the same
/// Jacobian. `shifted(F, F(s))` has an exact root at `s` — the standard
/// trick for building test problems with known solutions.
pub struct ShiftedEvaluator<R, E> {
    pub inner: E,
    pub shift: Vec<Complex<R>>,
}

impl<R: Real, E: SystemEvaluator<R>> ShiftedEvaluator<R, E> {
    /// Shift `inner` so that `root` becomes an exact solution.
    pub fn with_root(mut inner: E, root: &[Complex<R>]) -> Self {
        let shift = inner.evaluate(root).values;
        ShiftedEvaluator { inner, shift }
    }
}

impl<R: Real, E: SystemEvaluator<R>> SystemEvaluator<R> for ShiftedEvaluator<R, E> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        let mut e = self.inner.evaluate(x);
        for (v, s) in e.values.iter_mut().zip(&self.shift) {
            *v -= *s;
        }
        e
    }

    fn name(&self) -> &str {
        "shifted"
    }
}

impl<R: Real, E: polygpu_polysys::BatchSystemEvaluator<R>> polygpu_polysys::BatchSystemEvaluator<R>
    for ShiftedEvaluator<R, E>
{
    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    /// One inner batch, each result shifted — so a batched engine's
    /// amortization carries through the shift.
    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        let mut evals = self.inner.evaluate_batch(points);
        for e in evals.iter_mut() {
            for (v, s) in e.values.iter_mut().zip(&self.shift) {
                *v -= *s;
            }
        }
        evals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;
    use polygpu_polysys::{random_point, random_system, AdEvaluator, BenchmarkParams};

    fn perturbed(x: &[C64], eps: f64) -> Vec<C64> {
        x.iter()
            .enumerate()
            .map(|(i, z)| *z + C64::from_f64(eps * (i as f64 + 1.0), -eps))
            .collect()
    }

    #[test]
    fn converges_quadratically_to_known_root() {
        let params = BenchmarkParams {
            n: 6,
            m: 4,
            k: 3,
            d: 3,
            seed: 77,
        };
        let sys = random_system::<f64>(&params);
        let root = random_point::<f64>(6, 5);
        let mut f = ShiftedEvaluator::with_root(AdEvaluator::new(sys).unwrap(), &root);
        let x0 = perturbed(&root, 1e-3);
        let r = newton(&mut f, &x0, NewtonParams::default());
        assert!(
            r.converged,
            "stopped with {:?} after {:?}",
            r.stop, r.residuals
        );
        let err: f64 =
            r.x.iter()
                .zip(&root)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
        assert!(err < 1e-10, "distance to root {err:e}");
        // Quadratic convergence: few iterations from 1e-3 away.
        assert!(r.iterations <= 6, "{} iterations", r.iterations);
    }

    #[test]
    fn reports_nonconvergence_from_far_away() {
        let params = BenchmarkParams {
            n: 4,
            m: 3,
            k: 2,
            d: 4,
            seed: 3,
        };
        let sys = random_system::<f64>(&params);
        let root = random_point::<f64>(4, 9);
        let mut f = ShiftedEvaluator::with_root(AdEvaluator::new(sys).unwrap(), &root);
        let x0 = vec![C64::from_f64(50.0, 50.0); 4];
        let r = newton(
            &mut f,
            &x0,
            NewtonParams {
                max_iters: 3,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        assert_eq!(r.stop, StopReason::MaxIters);
    }

    #[test]
    fn residual_history_is_recorded() {
        let params = BenchmarkParams {
            n: 4,
            m: 2,
            k: 2,
            d: 2,
            seed: 13,
        };
        let sys = random_system::<f64>(&params);
        let root = random_point::<f64>(4, 21);
        let mut f = ShiftedEvaluator::with_root(AdEvaluator::new(sys).unwrap(), &root);
        let r = newton(&mut f, &perturbed(&root, 1e-4), NewtonParams::default());
        assert!(r.residuals.len() >= 2);
        // Residuals should be (weakly) decreasing for this easy case.
        for w in r.residuals.windows(2) {
            assert!(w[1] <= w[0] * 1.01, "{:?}", r.residuals);
        }
    }

    #[test]
    fn shifted_evaluator_has_exact_root() {
        let params = BenchmarkParams {
            n: 5,
            m: 3,
            k: 2,
            d: 3,
            seed: 1,
        };
        let sys = random_system::<f64>(&params);
        let root = random_point::<f64>(5, 2);
        let mut f = ShiftedEvaluator::with_root(AdEvaluator::new(sys).unwrap(), &root);
        let e = f.evaluate(&root);
        assert_eq!(e.residual_norm(), 0.0, "root must be exact by construction");
    }

    /// On every stop reason the residual history must describe the
    /// returned iterate: one entry per evaluation (`iterations + 1`)
    /// and the last entry equal to the residual of the returned `x`.
    /// MaxIters used to return the updated iterate without evaluating
    /// it, leaving `residuals.last()` describing the *previous* point.
    #[test]
    fn residual_history_matches_returned_point_on_every_stop() {
        struct Diag {
            singular_after: Option<usize>,
            calls: usize,
        }
        impl SystemEvaluator<f64> for Diag {
            fn dim(&self) -> usize {
                2
            }
            fn evaluate(&mut self, x: &[C64]) -> SystemEval<f64> {
                self.calls += 1;
                let poison = self.singular_after.is_some_and(|k| self.calls > k);
                // F_i = x_i^2 - i^2, diagonal Jacobian 2 x_i (zeroed
                // out after `singular_after` calls to force Singular).
                let values: Vec<C64> = x
                    .iter()
                    .enumerate()
                    .map(|(i, z)| *z * *z - C64::from_f64(((i + 1) * (i + 1)) as f64, 0.0))
                    .collect();
                let mut jacobian = polygpu_complex::CMat::zeros(2, 2);
                for (i, z) in x.iter().enumerate() {
                    jacobian[(i, i)] = if poison {
                        C64::from_f64(0.0, 0.0)
                    } else {
                        z.scale(2.0)
                    };
                }
                SystemEval { values, jacobian }
            }
            fn name(&self) -> &str {
                "diag"
            }
        }

        let check = |r: &NewtonResult<f64>, f: &mut Diag, stop: StopReason| {
            assert_eq!(r.stop, stop);
            assert_eq!(
                r.residuals.len(),
                r.iterations + 1,
                "{stop:?}: one residual per evaluation"
            );
            let actual = max_norm(&f.evaluate(&r.x).values);
            let last = *r.residuals.last().unwrap();
            assert!(
                (last - actual).abs() <= 1e-15 * actual.max(1.0),
                "{stop:?}: residuals.last() = {last:e} but returned x has residual {actual:e}"
            );
        };

        let x0 = vec![C64::from_f64(5.0, 0.1), C64::from_f64(-7.0, 0.2)];

        // ResidualTol: generous budget, easy basin.
        let mut f = Diag {
            singular_after: None,
            calls: 0,
        };
        let r = newton(&mut f, &x0, NewtonParams::default());
        assert!(r.converged);
        check(&r, &mut f, StopReason::ResidualTol);

        // MaxIters: cut the budget before convergence.
        let mut f = Diag {
            singular_after: None,
            calls: 0,
        };
        let r = newton(
            &mut f,
            &x0,
            NewtonParams {
                max_iters: 2,
                ..Default::default()
            },
        );
        assert!(!r.converged);
        check(&r, &mut f, StopReason::MaxIters);

        // StepTol: an update below step_tol triggers the final
        // evaluation; a huge step_tol fires it on the first update.
        let mut f = Diag {
            singular_after: None,
            calls: 0,
        };
        let r = newton(
            &mut f,
            &x0,
            NewtonParams {
                residual_tol: 0.0,
                step_tol: 1e9,
                ..Default::default()
            },
        );
        check(&r, &mut f, StopReason::StepTol);

        // SingularJacobian: poison the Jacobian after the first call.
        let mut f = Diag {
            singular_after: Some(1),
            calls: 0,
        };
        let r = newton(&mut f, &x0, NewtonParams::default());
        assert!(!r.converged);
        // Reset poisoning so `check` re-evaluates the genuine residual.
        f.singular_after = None;
        check(&r, &mut f, StopReason::SingularJacobian);
    }

    #[test]
    fn double_double_newton_reaches_dd_accuracy() {
        use polygpu_qd::Dd;
        let params = BenchmarkParams {
            n: 4,
            m: 3,
            k: 2,
            d: 2,
            seed: 55,
        };
        let sys = random_system::<f64>(&params).convert::<Dd>();
        let root = random_point::<Dd>(4, 8);
        let mut f = ShiftedEvaluator::with_root(AdEvaluator::new(sys).unwrap(), &root);
        let x0: Vec<Complex<Dd>> = root
            .iter()
            .map(|z| *z + Complex::from_f64(1e-5, 1e-5))
            .collect();
        let r = newton(
            &mut f,
            &x0,
            NewtonParams {
                residual_tol: 1e-28,
                step_tol: 1e-30,
                max_iters: 30,
                ..Default::default()
            },
        );
        assert!(r.converged, "{:?}", r.residuals);
        assert!(
            *r.residuals.last().unwrap() < 1e-28,
            "dd Newton should reach ~1e-28, got {:e}",
            r.residuals.last().unwrap()
        );
    }
}
