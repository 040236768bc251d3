//! Precision escalation: track in hardware doubles, fall back to
//! double-double when the path demands more accuracy.
//!
//! This is the operational form of the paper's motivation: "When
//! running many path tracking jobs, a couple or perhaps just one
//! solution path may require extended multiprecision arithmetic" (§1).
//! Most paths finish in fast double precision; the rare hard path is
//! retried in double-double, whose ~8x cost is exactly what the
//! parallel evaluator is meant to absorb.
//!
//! For multi-path runs, prefer
//! [`PrecisionPolicy::Escalating`](crate::solve::PrecisionPolicy):
//! `solve()` applies the same retry as a *policy* over either scheduler
//! (per-path or queue) and replays [`track_escalating_engine`] bit for
//! bit.

use crate::homotopy::Homotopy;
use crate::start::StartSystem;
use crate::tracker::{track, TrackParams, TrackResult};
use polygpu_complex::Complex;
use polygpu_core::engine::{BuildError, ClusterProvider, EngineBuilder};
use polygpu_polysys::{System, SystemEvaluator};
use polygpu_qd::Dd;

/// Which precision completed the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UsedPrecision {
    Double,
    DoubleDouble,
}

impl UsedPrecision {
    pub fn name(self) -> &'static str {
        match self {
            UsedPrecision::Double => "double",
            UsedPrecision::DoubleDouble => "double-double",
        }
    }
}

/// Outcome of an escalating track.
#[derive(Debug, Clone)]
pub enum EscalatedTrack {
    /// Finished in hardware doubles.
    Double(TrackResult<f64>),
    /// Needed (and got) double-double; the double attempt's failure is
    /// kept for diagnostics.
    DoubleDouble {
        double_attempt: TrackResult<f64>,
        result: TrackResult<Dd>,
    },
}

impl EscalatedTrack {
    pub fn success(&self) -> bool {
        match self {
            EscalatedTrack::Double(r) => r.success(),
            EscalatedTrack::DoubleDouble { result, .. } => result.success(),
        }
    }

    pub fn precision(&self) -> UsedPrecision {
        match self {
            EscalatedTrack::Double(_) => UsedPrecision::Double,
            EscalatedTrack::DoubleDouble { .. } => UsedPrecision::DoubleDouble,
        }
    }

    /// Endpoint in double-double (exact promotion when the double run
    /// sufficed).
    pub fn end_dd(&self) -> Vec<Complex<Dd>> {
        match self {
            EscalatedTrack::Double(r) => r.end().x.iter().map(|z| z.convert()).collect(),
            EscalatedTrack::DoubleDouble { result, .. } => result.end().x.clone(),
        }
    }
}

/// Track a path in doubles; on any failure, retrack the whole path in
/// double-double with `dd_params` (typically tighter tolerances).
///
/// The two homotopies must describe the same path (same systems and
/// gamma, different scalar precision); keeping them as separate
/// arguments lets callers pair any two evaluator stacks (CPU/CPU,
/// GPU/CPU, …).
pub fn track_escalating<EG64, EF64, EGDD, EFDD>(
    h64: &mut Homotopy<f64, EG64, EF64>,
    hdd: &mut Homotopy<Dd, EGDD, EFDD>,
    x0: &[Complex<f64>],
    params_f64: TrackParams,
    params_dd: TrackParams,
) -> EscalatedTrack
where
    EG64: SystemEvaluator<f64>,
    EF64: SystemEvaluator<f64>,
    EGDD: SystemEvaluator<Dd>,
    EFDD: SystemEvaluator<Dd>,
{
    let attempt = track(h64, x0, params_f64);
    if attempt.success() {
        return EscalatedTrack::Double(attempt);
    }
    let x0_dd: Vec<Complex<Dd>> = x0.iter().map(|z| z.convert()).collect();
    let result = track(hdd, &x0_dd, params_dd);
    EscalatedTrack::DoubleDouble {
        double_attempt: attempt,
        result,
    }
}

/// Track a path with engines built from **one** [`EngineBuilder`] spec:
/// the double-precision attempt and — on failure — the double-double
/// retry each request their engine from the same builder, so precision
/// escalation re-provisions the *same* backend (CPU, GPU, batch or
/// cluster) at higher precision instead of rebuilding options by hand.
///
/// Both precisions share the gamma derived from `gamma_seed` (the
/// double-double homotopy uses the exactly-widened `f64` gamma), so
/// they describe the same path.
///
/// ```
/// use polygpu_core::engine::{Backend, Engine};
/// use polygpu_homotopy::escalate::track_escalating_engine;
/// use polygpu_homotopy::start::StartSystem;
/// use polygpu_homotopy::tracker::TrackParams;
/// use polygpu_polysys::{random_system, BenchmarkParams};
///
/// let sys = random_system::<f64>(&BenchmarkParams { n: 2, m: 2, k: 2, d: 2, seed: 7 });
/// let start = StartSystem::uniform(2, 2);
/// let x0 = start.solution_by_index(0);
/// let builder = Engine::builder().backend(Backend::CpuReference);
/// let r = track_escalating_engine(
///     &builder, &sys, &start, 33, &x0,
///     TrackParams::default(), TrackParams::default(),
/// )
/// .unwrap();
/// assert!(r.success() || !r.success()); // tracked to a typed outcome
/// ```
pub fn track_escalating_engine<P: ClusterProvider>(
    builder: &EngineBuilder<P>,
    target: &System<f64>,
    start: &StartSystem,
    gamma_seed: u64,
    x0: &[Complex<f64>],
    params_f64: TrackParams,
    params_dd: TrackParams,
) -> Result<EscalatedTrack, BuildError> {
    let engine64 = builder.build(target)?;
    let mut h64 = Homotopy::with_random_gamma(start.clone(), engine64, gamma_seed);
    let attempt = track(&mut h64, x0, params_f64);
    if attempt.success() {
        return Ok(EscalatedTrack::Double(attempt));
    }
    // Same spec, higher precision: the builder re-provisions the
    // backend for the converted system.
    let engine_dd = builder.build(&target.convert::<Dd>())?;
    let mut hdd = Homotopy::new(start.clone(), engine_dd, h64.gamma.convert());
    let x0_dd: Vec<Complex<Dd>> = x0.iter().map(|z| z.convert()).collect();
    let result = track(&mut hdd, &x0_dd, params_dd);
    Ok(EscalatedTrack::DoubleDouble {
        double_attempt: attempt,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::newton::NewtonParams;
    use crate::start::StartSystem;
    use polygpu_complex::C64;
    use polygpu_polysys::{random_system, AdEvaluator, BenchmarkParams, System};

    fn setup(seed: u64) -> (System<f64>, StartSystem, Vec<C64>) {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed,
        };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(2, 2);
        let x0: Vec<C64> = start.solution_by_index(1);
        (sys, start, x0)
    }

    #[allow(clippy::type_complexity)] // test fixture returns both precisions
    fn homotopies(
        sys: &System<f64>,
        start: &StartSystem,
    ) -> (
        Homotopy<f64, StartSystem, AdEvaluator<f64>>,
        Homotopy<Dd, StartSystem, AdEvaluator<Dd>>,
    ) {
        let h64 =
            Homotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys.clone()).unwrap(), 33);
        let hdd = Homotopy::new(
            start.clone(),
            AdEvaluator::new(sys.convert::<Dd>()).unwrap(),
            h64.gamma.convert(), // identical gamma: same path
        );
        (h64, hdd)
    }

    #[test]
    fn easy_path_stays_in_double() {
        // Seed chosen so the double-precision track of this random
        // system succeeds under the workspace's deterministic RNG.
        let (sys, start, x0) = setup(7);
        let (mut h64, mut hdd) = homotopies(&sys, &start);
        let r = track_escalating(
            &mut h64,
            &mut hdd,
            &x0,
            TrackParams::default(),
            TrackParams::default(),
        );
        assert!(r.success());
        assert_eq!(r.precision(), UsedPrecision::Double);
        assert_eq!(r.end_dd().len(), 2);
    }

    /// The engine-spec escalation with the CPU backend replays the
    /// hand-built escalation bit for bit (same gamma seed, same
    /// arithmetic), so the new entry point is a pure API refactor.
    #[test]
    fn engine_escalation_matches_manual_escalation() {
        use polygpu_core::engine::{Backend, Engine};
        let (sys, start, x0) = setup(7);
        let (mut h64, mut hdd) = homotopies(&sys, &start);
        let manual = track_escalating(
            &mut h64,
            &mut hdd,
            &x0,
            TrackParams::default(),
            TrackParams::default(),
        );
        let builder = Engine::builder().backend(Backend::CpuReference);
        let via_engine = track_escalating_engine(
            &builder,
            &sys,
            &start,
            33, // the same gamma seed `homotopies` uses
            &x0,
            TrackParams::default(),
            TrackParams::default(),
        )
        .unwrap();
        assert_eq!(manual.precision(), via_engine.precision());
        assert_eq!(manual.success(), via_engine.success());
        assert_eq!(
            manual.end_dd(),
            via_engine.end_dd(),
            "bit-identical endpoint"
        );
    }

    /// An impossible double tolerance forces the builder to re-request
    /// the engine in double-double — through a *GPU* backend spec, so
    /// the escalation provisions simulated-device engines in both
    /// precisions from one spec.
    #[test]
    fn engine_escalation_reprovisions_gpu_backend_in_dd() {
        use polygpu_core::engine::{Backend, Engine};
        let (sys, start, x0) = setup(7);
        let brutal = NewtonParams {
            residual_tol: 1e-19, // below f64 round-off
            step_tol: 1e-21,
            max_iters: 8,
            ..Default::default()
        };
        let params = TrackParams {
            corrector: brutal,
            ..Default::default()
        };
        let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
        let r = track_escalating_engine(&builder, &sys, &start, 33, &x0, params, params).unwrap();
        assert_eq!(r.precision(), UsedPrecision::DoubleDouble);
    }

    #[test]
    fn unreachable_f64_tolerance_escalates_and_succeeds() {
        // A concrete target with four isolated nonsingular finite roots
        // ((±1, ±2), (±2, ±1)): every total-degree path ends at one.
        use polygpu_polysys::{parse_system, NaiveEvaluator};
        let sys = parse_system::<f64>("x0^2 + x1^2 - 5; x0*x1 - 2").unwrap();
        let sys_dd = sys.convert::<Dd>();
        let start = StartSystem::uniform(2, 2);
        // Corrector tolerance below f64 round-off: every double run
        // must fail; double-double reaches it at the finite roots.
        let brutal = NewtonParams {
            residual_tol: 1e-19,
            step_tol: 1e-21,
            max_iters: 10,
            ..Default::default()
        };
        let params = TrackParams {
            corrector: brutal,
            max_steps: 2_000,
            ..Default::default()
        };
        let mut rescued = 0;
        for idx in 0..4u128 {
            let x0: Vec<C64> = start.solution_by_index(idx);
            let mut h64 =
                Homotopy::with_random_gamma(start.clone(), NaiveEvaluator::new(sys.clone()), 33);
            let mut hdd = Homotopy::new(
                start.clone(),
                NaiveEvaluator::new(sys_dd.clone()),
                h64.gamma.convert(), // identical gamma: same path
            );
            let r = track_escalating(&mut h64, &mut hdd, &x0, params, params);
            // The double attempt can never meet a 1e-19 tolerance.
            assert_eq!(r.precision(), UsedPrecision::DoubleDouble, "path {idx}");
            if r.success() {
                rescued += 1;
                // The endpoint satisfies the target far beyond f64.
                let mut check = NaiveEvaluator::new(sys_dd.clone());
                let resid = check.evaluate(&r.end_dd()).residual_norm().to_f64();
                assert!(resid < 1e-18, "dd endpoint residual {resid:e}");
            }
        }
        assert!(
            rescued >= 2,
            "too few paths rescued by double-double: {rescued}"
        );
    }
}
