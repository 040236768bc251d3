//! Object safety of the unified engine surface: every homotopy driver
//! (`newton`, `track`, `track_queue`) accepts
//! `&mut dyn AnyEvaluator<R>` / `Box<dyn AnyEvaluator<R>>` built by
//! `Engine::builder()`, and the trajectories are **bit-identical** to
//! the concrete-type runs the drivers were originally written against.

use polygpu_complex::C64;
use polygpu_core::engine::{AnyEvaluator, Backend, Engine};
use polygpu_homotopy::lockstep::BatchHomotopy;
use polygpu_homotopy::newton::{newton, NewtonParams};
use polygpu_homotopy::queue::track_queue;
use polygpu_homotopy::start::StartSystem;
use polygpu_homotopy::tracker::{track, TrackParams};
use polygpu_homotopy::Homotopy;
use polygpu_polysys::{random_point, random_system, AdEvaluator, BenchmarkParams, System};

fn fixture() -> (System<f64>, StartSystem, Vec<Vec<C64>>) {
    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 3,
    };
    let sys = random_system::<f64>(&params);
    let start = StartSystem::uniform(2, 2);
    let starts: Vec<Vec<C64>> = (0..4u128).map(|i| start.solution_by_index(i)).collect();
    (sys, start, starts)
}

/// `newton` over `&mut dyn AnyEvaluator<f64>`: identical iterates to
/// the concrete CPU evaluator.
#[test]
fn newton_accepts_dyn_any_evaluator() {
    let params = BenchmarkParams {
        n: 8,
        m: 4,
        k: 3,
        d: 2,
        seed: 11,
    };
    let sys = random_system::<f64>(&params);
    let x0 = random_point::<f64>(8, 5);
    let np = NewtonParams {
        max_iters: 4,
        ..Default::default()
    };
    let mut want_eval = AdEvaluator::new(sys.clone()).unwrap();
    let want = newton(&mut want_eval, &x0, np);
    for backend in [
        Backend::CpuReference,
        Backend::Gpu,
        Backend::GpuBatch { capacity: 4 },
    ] {
        let mut engine = Engine::builder().backend(backend).build(&sys).unwrap();
        let dyn_ref: &mut dyn AnyEvaluator<f64> = &mut *engine;
        let got = newton(dyn_ref, &x0, np);
        let name = engine.caps().backend;
        assert_eq!(got.x, want.x, "iterates, backend {name}");
        assert_eq!(got.residuals, want.residuals, "residuals, backend {name}");
        assert_eq!(got.stop, want.stop, "stop, backend {name}");
    }
}

/// `track` with a boxed engine as the homotopy target endpoint.
#[test]
fn track_accepts_boxed_engines() {
    let (sys, start, starts) = fixture();
    let params = TrackParams::default();
    let mut want_h =
        Homotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys.clone()).unwrap(), 7);
    let want = track(&mut want_h, &starts[0], params);
    for backend in [
        Backend::CpuReference,
        Backend::Gpu,
        Backend::GpuBatch { capacity: 4 },
    ] {
        let engine: Box<dyn AnyEvaluator<f64>> =
            Engine::builder().backend(backend).build(&sys).unwrap();
        let mut h = Homotopy::with_random_gamma(start.clone(), engine, 7);
        let got = track(&mut h, &starts[0], params);
        assert_eq!(got.outcome, want.outcome);
        assert_eq!(got.end().x, want.end().x, "bit-identical endpoint");
        assert_eq!(got.corrector_iterations, want.corrector_iterations);
    }
}

/// `track_queue` with `&mut dyn AnyEvaluator` endpoints in the batch
/// homotopy — through the batched GPU backend, bit-identical to the
/// CPU reference run.
#[test]
fn multi_path_drivers_accept_dyn_endpoints() {
    let (sys, start, starts) = fixture();
    let params = TrackParams::default();

    let mut cpu_h =
        BatchHomotopy::with_random_gamma(start.clone(), AdEvaluator::new(sys.clone()).unwrap(), 7);
    let want_queue = track_queue(&mut cpu_h, &starts, params, 3);

    for backend in [Backend::CpuReference, Backend::GpuBatch { capacity: 8 }] {
        let mut engine = Engine::builder()
            .backend(backend.clone())
            .build(&sys)
            .unwrap();
        {
            let dyn_f: &mut dyn AnyEvaluator<f64> = &mut *engine;
            let mut h = BatchHomotopy::with_random_gamma(start.clone(), dyn_f, 7);
            let got = track_queue(&mut h, &starts, params, 3);
            for (i, (g, w)) in got.paths.iter().zip(&want_queue.paths).enumerate() {
                assert_eq!(g.outcome, w.outcome, "queue path {i}");
                assert_eq!(g.x, w.x, "queue endpoint {i}");
                assert_eq!(g.t, w.t, "queue final t {i}");
            }
            assert_eq!(got.stats.steps_accepted, want_queue.stats.steps_accepted);
            assert_eq!(
                got.stats.corrector_iterations,
                want_queue.stats.corrector_iterations
            );
        }
        // The engine really did the work through the trait object.
        assert!(engine.engine_stats().evaluations > 0);
    }
}
