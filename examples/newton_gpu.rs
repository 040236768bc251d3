//! Newton's method with the simulated-GPU evaluator in the inner loop —
//! the paper's motivating use ("the evaluation of a polynomial system
//! and its Jacobian matrix is a computationally intensive stage in
//! Newton's method").
//!
//! Builds a system with a known root, runs Newton from a perturbed
//! start on both the GPU pipeline and the CPU reference, and reports
//! the modeled device cost of the correction. Then the second act:
//! the same corrector arithmetic with `CorrectorMode::DeviceResident`,
//! where the Newton loop runs fused on the engine — iterates stay
//! device-resident and each iteration downloads only the O(P)
//! convergence-flag vector instead of every value and Jacobian —
//! with bit-identical endpoints and the telemetry delta to prove both.
//!
//! ```text
//! cargo run --release --example newton_gpu
//! ```

use polygpu::prelude::*;

fn main() {
    let params = BenchmarkParams {
        n: 32,
        m: 22,
        k: 9,
        d: 2,
        seed: 99,
    };
    let system = random_system::<f64>(&params);

    // Plant an exact root at a random point by shifting:
    // F(x) := system(x) − system(root).
    let root = random_point::<f64>(32, 4);
    let gpu = GpuEvaluator::new(&system, GpuOptions::default()).expect("fits the device");
    let mut f_gpu = ShiftedEvaluator::with_root(gpu, &root);

    // Start 1e-2 away from the root.
    let x0: Vec<C64> = root
        .iter()
        .enumerate()
        .map(|(i, z)| *z + C64::from_f64(1e-2 * (1.0 + i as f64 * 0.1), -1e-2))
        .collect();

    let result = newton(&mut f_gpu, &x0, NewtonParams::default());
    println!("Newton on the simulated GPU evaluator:");
    println!(
        "  converged: {} in {} iterations",
        result.converged, result.iterations
    );
    println!("  residual history:");
    for (i, r) in result.residuals.iter().enumerate() {
        println!("    iter {i}: {r:.3e}");
    }
    let dist: f64 = result
        .x
        .iter()
        .zip(&root)
        .map(|(a, b)| (*a - *b).abs())
        .fold(0.0, f64::max);
    println!("  distance to planted root: {dist:.3e}");
    assert!(result.converged, "Newton must converge from 1e-2 away");

    // Same run on the CPU reference: identical arithmetic, identical
    // iterates.
    let cpu = AdEvaluator::new(system).unwrap();
    let mut f_cpu = ShiftedEvaluator::with_root(cpu, &root);
    let result_cpu = newton(&mut f_cpu, &x0, NewtonParams::default());
    assert_eq!(
        result.x, result_cpu.x,
        "GPU and CPU Newton iterates are bit-identical"
    );
    println!("\nGPU and CPU Newton runs produced bit-identical iterates.");

    // The device-side bill for this correction.
    let stats = f_gpu.inner.stats();
    println!("\nmodeled device cost of the whole Newton run:");
    println!(
        "  {} evaluations of the system + Jacobian",
        stats.evaluations
    );
    println!(
        "  {:.1} us modeled GPU time total",
        stats.total_seconds() * 1e6
    );
    println!(
        "  {:.2} us per evaluation ({} kernel launches)",
        stats.seconds_per_eval() * 1e6,
        3 * stats.evaluations
    );

    // ------------------------------------------------------------------
    // Act two: the device-resident corrector. Same Newton arithmetic,
    // but the whole iterate → factor → solve → update loop runs fused
    // on the engine: one upload, per iteration only the O(P)
    // convergence-flag vector, and one final download of the endpoints
    // plus each converged point's evaluation, which the tracker's next
    // prediction runs on.
    // ------------------------------------------------------------------
    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 3,
    };
    let target = random_system::<f64>(&params);
    let req = SolveRequest::new(target)
        .with_start(StartSystem::uniform(2, 3)) // 9 paths
        .with_gamma_seed(7);
    let solver =
        || Solver::from_builder(Engine::builder().backend(Backend::GpuBatch { capacity: 8 }));

    let host = solver()
        .solve(&req.clone().with_corrector(CorrectorMode::Host))
        .expect("host-corrector solve");
    let resident = solver()
        .solve(&req.with_corrector(CorrectorMode::DeviceResident))
        .expect("device-resident solve");

    // Switching corrector modes changes the modeled traffic, never the
    // numbers: every path endpoint is bit-identical.
    let host_endpoints: Vec<_> = host.paths.iter().map(|p| p.endpoint.clone()).collect();
    let resident_endpoints: Vec<_> = resident.paths.iter().map(|p| p.endpoint.clone()).collect();
    assert_eq!(
        host_endpoints, resident_endpoints,
        "corrector modes must agree bit for bit"
    );

    println!("\ndevice-resident corrector vs host loop (9 paths, dim-2 target):");
    println!("  endpoints: bit-identical ({} tracked)", host.paths.len());
    for (label, report) in [("host", &host), ("resident", &resident)] {
        let e = &report.engine;
        println!(
            "  {label:>8}: {:>8} B up, {:>8} B down, {} fused Newton iters, \
             {:.1} us factor+backsub",
            e.h2d_bytes,
            e.d2h_bytes,
            e.corrector_iterations,
            (e.factor_seconds + e.backsub_seconds) * 1e6
        );
    }
    let saved = host.engine.d2h_bytes - resident.engine.d2h_bytes;
    assert!(
        resident.engine.d2h_bytes < host.engine.d2h_bytes,
        "the fused loop must download less"
    );
    println!(
        "  the fused loop kept {saved} B of per-iteration value/Jacobian \
         downloads on the device\n  (each iteration downloads one 16-byte \
         convergence flag per live point instead)."
    );
}
