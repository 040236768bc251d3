//! Adaptive predictor–corrector path tracking.
//!
//! Tracks one solution path of `H(x, t) = 0` from `t = 0` to `t = 1`:
//! an Euler predictor along `dx/dt = −J_H⁻¹ ∂H/∂t`, a Newton corrector
//! at the new `t`, and step-size control that halves on rejection and
//! grows on easy acceptances — the classical scheme the paper's
//! evaluation engine is built to accelerate.
//!
//! [`track`] is the scalar reference and evaluates `H` at every
//! predictor, even at an `(x, t)` it has already evaluated: after a
//! rejection, which changes only `dt`, and after an acceptance, whose
//! corrector converged on an evaluation at that very point. The path
//! queue ([`crate::queue`]) skips those redundant evaluations (under
//! the fused corrector only the ones after a rejection) and runs the
//! same arithmetic on the evaluations it holds, so its trajectories
//! stay bit-identical to this function's.

use crate::homotopy::Homotopy;
use crate::lu::lu_decompose;
use crate::newton::{newton, NewtonParams, NewtonResult};
use polygpu_complex::{Complex, Real};
use polygpu_core::CorrectorMode;
use polygpu_polysys::SystemEvaluator;

/// Step-size and corrector controls.
#[derive(Debug, Clone, Copy)]
pub struct TrackParams {
    pub initial_dt: f64,
    pub min_dt: f64,
    pub max_dt: f64,
    /// Grow factor applied after an easy acceptance (corrector needed
    /// at most [`TrackParams::easy_iters`] iterations).
    pub grow: f64,
    pub easy_iters: usize,
    pub corrector: NewtonParams,
    /// Which corrector the path queue ([`crate::queue`]) runs.
    /// [`CorrectorMode::Host`] takes one Newton iteration per slot per
    /// round, downloading values and Jacobians and solving on the
    /// host; [`CorrectorMode::DeviceResident`] runs each round's whole
    /// corrector as one fused evaluate → factor → solve → update call
    /// on the engine ([`crate::resident::correct_resident`]),
    /// downloading only a per-point flag/residual vector per iteration.
    /// Endpoints are bit-identical either way; only the round structure
    /// and the modeled traffic differ. The scalar [`track`] ignores it.
    pub corrector_mode: CorrectorMode,
    /// Overall cap on predictor-corrector steps (accepted + rejected).
    pub max_steps: usize,
}

impl Default for TrackParams {
    fn default() -> Self {
        TrackParams {
            initial_dt: 0.05,
            min_dt: 1e-8,
            max_dt: 0.2,
            grow: 1.5,
            easy_iters: 3,
            corrector: NewtonParams {
                residual_tol: 1e-10,
                step_tol: 1e-12,
                max_iters: 6,
                ..NewtonParams::default()
            },
            corrector_mode: CorrectorMode::Host,
            max_steps: 10_000,
        }
    }
}

/// One accepted point on the path.
#[derive(Debug, Clone)]
pub struct PathPoint<R> {
    pub t: f64,
    pub x: Vec<Complex<R>>,
}

/// Why tracking stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrackOutcome {
    /// Reached `t = 1`.
    Success,
    /// Step size underflowed `min_dt`.
    StepUnderflow { at_t: String },
    /// Predictor hit a singular Jacobian.
    SingularJacobian { at_t: String },
    /// `max_steps` exhausted.
    StepLimit,
}

/// Full tracking record.
#[derive(Debug, Clone)]
pub struct TrackResult<R> {
    pub outcome: TrackOutcome,
    /// Accepted points, starting with the start solution at `t = 0`.
    pub points: Vec<PathPoint<R>>,
    pub steps_accepted: usize,
    pub steps_rejected: usize,
    /// Total corrector iterations (each costs one evaluation of `H`
    /// and one linear solve — the quantities the paper accelerates).
    pub corrector_iterations: usize,
}

impl<R: Real> TrackResult<R> {
    pub fn success(&self) -> bool {
        self.outcome == TrackOutcome::Success
    }

    /// Final point (the approximate solution of `F` on success).
    pub fn end(&self) -> &PathPoint<R> {
        self.points.last().expect("tracker records the start point")
    }
}

/// Track one path of `h` starting from the start-system solution `x0`.
pub fn track<R: Real, EG, EF>(
    h: &mut Homotopy<R, EG, EF>,
    x0: &[Complex<R>],
    params: TrackParams,
) -> TrackResult<R>
where
    EG: SystemEvaluator<R>,
    EF: SystemEvaluator<R>,
{
    let mut points = vec![PathPoint {
        t: 0.0,
        x: x0.to_vec(),
    }];
    let mut x = x0.to_vec();
    let mut t = 0.0f64;
    let mut dt = params.initial_dt;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut corrector_iters = 0usize;

    for _ in 0..params.max_steps {
        if t >= 1.0 {
            return TrackResult {
                outcome: TrackOutcome::Success,
                points,
                steps_accepted: accepted,
                steps_rejected: rejected,
                corrector_iterations: corrector_iters,
            };
        }
        let dt_clamped = dt.min(1.0 - t);
        // Euler predictor: J_H dx = -dH/dt, x_pred = x + dx * dt.
        let he = h.eval_at(&x, R::from_f64(t));
        let rhs: Vec<Complex<R>> = he.dt.iter().map(|v| -*v).collect();
        let dxdt = match lu_decompose(he.eval.jacobian).and_then(|lu| lu.solve(&rhs)) {
            Ok(d) => d,
            Err(_) => {
                return TrackResult {
                    outcome: TrackOutcome::SingularJacobian {
                        at_t: format!("{t:.6}"),
                    },
                    points,
                    steps_accepted: accepted,
                    steps_rejected: rejected,
                    corrector_iterations: corrector_iters,
                }
            }
        };
        let x_pred: Vec<Complex<R>> = x
            .iter()
            .zip(&dxdt)
            .map(|(xi, di)| *xi + di.scale(R::from_f64(dt_clamped)))
            .collect();
        // Newton corrector at t + dt.
        let t_new = t + dt_clamped;
        let result: NewtonResult<R> = {
            let mut at = h.at(R::from_f64(t_new));
            newton(&mut at, &x_pred, params.corrector)
        };
        corrector_iters += result.iterations;
        if result.converged {
            x = result.x;
            t = t_new;
            points.push(PathPoint { t, x: x.clone() });
            accepted += 1;
            if result.iterations <= params.easy_iters {
                dt = (dt * params.grow).min(params.max_dt);
            }
        } else {
            rejected += 1;
            dt *= 0.5;
            if dt < params.min_dt {
                return TrackResult {
                    outcome: TrackOutcome::StepUnderflow {
                        at_t: format!("{t:.6}"),
                    },
                    points,
                    steps_accepted: accepted,
                    steps_rejected: rejected,
                    corrector_iterations: corrector_iters,
                };
            }
        }
    }
    TrackResult {
        outcome: TrackOutcome::StepLimit,
        points,
        steps_accepted: accepted,
        steps_rejected: rejected,
        corrector_iterations: corrector_iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::start::StartSystem;
    use polygpu_complex::C64;
    use polygpu_polysys::{random_system, AdEvaluator, BenchmarkParams, SystemEvaluator};

    /// Track all paths of a small random target from its total-degree
    /// start system and verify the endpoints satisfy F ~ 0.
    #[test]
    fn tracks_small_random_system_to_roots() {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed: 101,
        };
        let sys = random_system::<f64>(&params);
        let degrees: Vec<u32> = sys.polys().iter().map(|p| p.total_degree()).collect();
        let start = StartSystem::new(degrees);
        let mut successes = 0;
        let total = start.solution_count().min(8) as u128;
        for idx in 0..total {
            let x0: Vec<C64> = start.solution_by_index(idx);
            let f = AdEvaluator::new(sys.clone()).unwrap();
            let mut h = Homotopy::with_random_gamma(start.clone(), f, 2024);
            let r = track(&mut h, &x0, TrackParams::default());
            if r.success() {
                successes += 1;
                // Verify the endpoint on the target system.
                let mut check = AdEvaluator::new(sys.clone()).unwrap();
                let resid = check.evaluate(&r.end().x).residual_norm();
                assert!(resid < 1e-8, "path {idx}: endpoint residual {resid:e}");
                assert!((r.end().t - 1.0).abs() < 1e-12);
            }
        }
        // Random dense-coefficient targets: expect most paths to finish.
        assert!(
            successes >= total / 2,
            "only {successes}/{total} paths finished"
        );
    }

    #[test]
    fn start_point_recorded_and_monotone_t() {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 1,
            d: 2,
            seed: 8,
        };
        let sys = random_system::<f64>(&params);
        let degrees: Vec<u32> = sys.polys().iter().map(|p| p.total_degree()).collect();
        let start = StartSystem::new(degrees);
        let x0: Vec<C64> = start.solution_by_index(0);
        let f = AdEvaluator::new(sys).unwrap();
        let mut h = Homotopy::with_random_gamma(start, f, 7);
        let r = track(&mut h, &x0, TrackParams::default());
        assert_eq!(r.points[0].t, 0.0);
        for w in r.points.windows(2) {
            assert!(w[1].t > w[0].t, "t must increase along the path");
        }
    }

    #[test]
    fn impossible_corrector_tolerance_underflows_step() {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed: 3,
        };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(2, 2);
        let x0: Vec<C64> = start.solution_by_index(1);
        let f = AdEvaluator::new(sys).unwrap();
        let mut h = Homotopy::with_random_gamma(start, f, 11);
        let r = track(
            &mut h,
            &x0,
            TrackParams {
                corrector: NewtonParams {
                    residual_tol: 1e-300, // unreachable
                    step_tol: 1e-300,
                    max_iters: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        assert!(matches!(r.outcome, TrackOutcome::StepUnderflow { .. }));
        assert!(r.steps_rejected > 0);
    }

    #[test]
    fn counts_evaluations_via_corrector_iterations() {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed: 29,
        };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(2, 3);
        let x0: Vec<C64> = start.solution_by_index(2);
        let f = AdEvaluator::new(sys).unwrap();
        let mut h = Homotopy::with_random_gamma(start, f, 5);
        let r = track(&mut h, &x0, TrackParams::default());
        if r.success() {
            assert!(
                r.corrector_iterations >= r.steps_accepted,
                "each accepted step needs at least one corrector evaluation"
            );
        }
    }
}
