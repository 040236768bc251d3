//! The convex-combination homotopy `H(x, t) = γ(1−t)·G(x) + t·F(x)`.
//!
//! `γ` is a random complex constant on the unit circle: with
//! probability one the homotopy paths are free of singularities for
//! `t ∈ [0, 1)` (the classical "gamma trick" of homotopy continuation).

use polygpu_complex::{Complex, Real};
use polygpu_polysys::{SystemEval, SystemEvaluator};

/// The deterministic random gamma used by `with_random_gamma` (shared
/// with the batch homotopy so the same seed describes the same
/// paths): any angle bounded away from 0 mod tau works; derive one from
/// the seed with a splitmix step.
pub fn random_gamma<R: Real>(seed: u64) -> Complex<R> {
    let z = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0x2545F4914F6CDD1D);
    let angle = 0.3 + (z >> 11) as f64 / (1u64 << 53) as f64 * 5.5;
    Complex::unit_from_angle(angle)
}

/// A homotopy between two evaluators of the same dimension.
pub struct Homotopy<R: Real, EG, EF> {
    /// Start system `G` (solutions known at `t = 0`).
    pub g: EG,
    /// Target system `F` (sought at `t = 1`).
    pub f: EF,
    /// The gamma constant.
    pub gamma: Complex<R>,
}

/// `H` and `∂H/∂t` at one `(x, t)`.
pub struct HomotopyEval<R> {
    /// Values and Jacobian of `H(·, t)` at `x`.
    pub eval: SystemEval<R>,
    /// `∂H/∂t = F(x) − γ·G(x)`.
    pub dt: Vec<Complex<R>>,
}

/// `H(·, t)` and `∂H/∂t` at one point from the endpoint evaluations
/// there, `ge = G(x)` and `fe = F(x)`. Every evaluation of `H` in this
/// crate — scalar, batched, and inside the fused corrector — is formed
/// here, so all of them agree bit for bit.
pub(crate) fn combine_at<R: Real>(
    gamma: Complex<R>,
    t: R,
    ge: &SystemEval<R>,
    fe: SystemEval<R>,
) -> HomotopyEval<R> {
    let n = fe.values.len();
    let one_minus_t = R::one() - t;
    let gscale = gamma.scale(one_minus_t);
    let mut values = Vec::with_capacity(n);
    let mut dt = Vec::with_capacity(n);
    for i in 0..n {
        values.push(gscale * ge.values[i] + fe.values[i].scale(t));
        dt.push(fe.values[i] - gamma * ge.values[i]);
    }
    let mut jacobian = fe.jacobian;
    for i in 0..n {
        for j in 0..n {
            jacobian[(i, j)] = gscale * ge.jacobian[(i, j)] + jacobian[(i, j)].scale(t);
        }
    }
    HomotopyEval {
        eval: SystemEval { values, jacobian },
        dt,
    }
}

impl<R: Real, EG: SystemEvaluator<R>, EF: SystemEvaluator<R>> Homotopy<R, EG, EF> {
    /// Build with an explicit gamma (pass a random unit complex; see
    /// [`Homotopy::with_random_gamma`]).
    pub fn new(g: EG, f: EF, gamma: Complex<R>) -> Self {
        assert_eq!(
            g.dim(),
            f.dim(),
            "homotopy endpoints must agree in dimension"
        );
        Homotopy { g, f, gamma }
    }

    /// Gamma from an angle seed (deterministic).
    pub fn with_random_gamma(g: EG, f: EF, seed: u64) -> Self {
        Self::new(g, f, random_gamma(seed))
    }

    pub fn dim(&self) -> usize {
        self.g.dim()
    }

    /// Evaluate `H`, its Jacobian, and `∂H/∂t` at `(x, t)`.
    pub fn eval_at(&mut self, x: &[Complex<R>], t: R) -> HomotopyEval<R> {
        let ge = self.g.evaluate(x);
        let fe = self.f.evaluate(x);
        combine_at(self.gamma, t, &ge, fe)
    }

    /// View the homotopy at fixed `t` as a [`SystemEvaluator`] (for the
    /// Newton corrector).
    pub fn at(&mut self, t: R) -> HomotopyAt<'_, R, EG, EF> {
        HomotopyAt { h: self, t }
    }
}

/// [`SystemEvaluator`] adapter for `H(·, t)` at fixed `t`.
pub struct HomotopyAt<'h, R: Real, EG, EF> {
    h: &'h mut Homotopy<R, EG, EF>,
    t: R,
}

impl<'h, R: Real, EG: SystemEvaluator<R>, EF: SystemEvaluator<R>> SystemEvaluator<R>
    for HomotopyAt<'h, R, EG, EF>
{
    fn dim(&self) -> usize {
        self.h.dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        self.h.eval_at(x, self.t).eval
    }

    fn name(&self) -> &str {
        "homotopy-at-t"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start::StartSystem;
    use polygpu_complex::C64;
    use polygpu_polysys::{random_point, random_system, AdEvaluator, BenchmarkParams};

    fn target() -> AdEvaluator<f64> {
        let params = BenchmarkParams {
            n: 3,
            m: 2,
            k: 2,
            d: 2,
            seed: 19,
        };
        AdEvaluator::new(random_system::<f64>(&params)).unwrap()
    }

    #[test]
    fn endpoints_match_g_and_f() {
        let g = StartSystem::uniform(3, 3);
        let f = target();
        let mut h = Homotopy::with_random_gamma(g, f, 42);
        let x = random_point::<f64>(3, 7);
        // t = 0: H = gamma * G.
        let he = h.eval_at(&x, 0.0);
        let ge = h.g.evaluate(&x);
        for i in 0..3 {
            let want = h.gamma * ge.values[i];
            assert!((he.eval.values[i] - want).abs() < 1e-14);
        }
        // t = 1: H = F.
        let he = h.eval_at(&x, 1.0);
        let fe = h.f.evaluate(&x);
        for i in 0..3 {
            assert!((he.eval.values[i] - fe.values[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn dt_is_finite_difference_of_t() {
        let g = StartSystem::uniform(3, 3);
        let f = target();
        let mut h = Homotopy::with_random_gamma(g, f, 1);
        let x = random_point::<f64>(3, 3);
        let t = 0.4;
        let eps = 1e-7;
        let a = h.eval_at(&x, t - eps);
        let b = h.eval_at(&x, t + eps);
        let mid = h.eval_at(&x, t);
        for i in 0..3 {
            let fd = (b.eval.values[i] - a.eval.values[i]).scale(1.0 / (2.0 * eps));
            assert!(
                (fd - mid.dt[i]).abs() < 1e-6,
                "dH/dt mismatch at {i}: {fd} vs {}",
                mid.dt[i]
            );
        }
    }

    #[test]
    fn jacobian_blends_linearly() {
        let g = StartSystem::uniform(3, 2);
        let f = target();
        let mut h = Homotopy::new(g, f, C64::unit_from_angle(1.234));
        let x = random_point::<f64>(3, 11);
        let t = 0.6;
        let he = h.eval_at(&x, t);
        let ge = h.g.evaluate(&x);
        let fe = h.f.evaluate(&x);
        for i in 0..3 {
            for j in 0..3 {
                let want =
                    h.gamma.scale(1.0 - t) * ge.jacobian[(i, j)] + fe.jacobian[(i, j)].scale(t);
                assert!((he.eval.jacobian[(i, j)] - want).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn at_adapter_matches_eval_at() {
        let g = StartSystem::uniform(3, 2);
        let f = target();
        let mut h = Homotopy::with_random_gamma(g, f, 5);
        let x = random_point::<f64>(3, 2);
        let direct = h.eval_at(&x, 0.3).eval;
        let via_adapter = h.at(0.3).evaluate(&x);
        assert_eq!(direct.values, via_adapter.values);
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn dimension_mismatch_panics() {
        let g = StartSystem::uniform(2, 2);
        let f = target(); // dim 3
        let _ = Homotopy::new(g, f, C64::one());
    }
}
