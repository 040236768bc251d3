//! The batched multi-point engine: evaluate a Table-1-shaped system
//! and its Jacobian at 64 points with one two-launch round trip,
//! then track four homotopy paths through it with the path queue.
//!
//! ```bash
//! cargo run --release --example batch_evaluation
//! ```

use polygpu::prelude::*;

fn main() {
    // A Table-1-shaped system: n = 32, 704 monomials, k = 9, d <= 2.
    let params = BenchmarkParams {
        n: 32,
        m: 22,
        k: 9,
        d: 2,
        seed: 1,
    };
    let system = random_system::<f64>(&params);
    let points = random_points::<f64>(32, 64, 7);

    // Single-point pipeline: 64 round trips.
    let mut single = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
    for x in &points {
        let _ = single.evaluate(x);
    }

    // Batched engine: one round trip for all 64 points.
    let mut batch = BatchGpuEvaluator::new(&system, 64, GpuOptions::default()).unwrap();
    let results = batch.evaluate_batch(&points);

    let (ss, bs) = (single.stats(), batch.stats());
    println!(
        "single-point pipeline: {} evaluations in {} round trips",
        ss.evaluations, ss.batches
    );
    println!(
        "batched engine:        {} evaluations in {} round trip(s)",
        bs.evaluations, bs.batches
    );

    // Same math, bit for bit.
    let check = single.evaluate(&points[0]);
    assert_eq!(
        results[0].values, check.values,
        "batching never changes results"
    );
    println!();
    println!("modeled cost per evaluation   single      batch P=64");
    println!(
        "  launch overhead + PCIe      {:>8.2} us {:>8.2} us",
        ss.overhead_transfer_per_eval() * 1e6,
        bs.overhead_transfer_per_eval() * 1e6
    );
    println!(
        "  total                       {:>8.2} us {:>8.2} us",
        ss.seconds_per_eval() * 1e6,
        bs.seconds_per_eval() * 1e6
    );
    println!(
        "  throughput                  {:>8.0} /s {:>8.0} /s",
        ss.throughput_evals_per_sec(),
        bs.throughput_evals_per_sec()
    );

    // Path-queue tracking: each round, one evaluation of every path
    // (a predictor or a corrector iteration) rides one batch.
    let small = random_system::<f64>(&BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 3,
    });
    let start = StartSystem::uniform(2, 2);
    let starts: Vec<Vec<C64>> = (0..4u128).map(|i| start.solution_by_index(i)).collect();
    let gpu = BatchGpuEvaluator::new(&small, starts.len(), GpuOptions::default()).unwrap();
    let mut h = BatchHomotopy::with_random_gamma(start, gpu, 7);
    let r = track_queue(&mut h, &starts, TrackParams::default(), SlotPolicy::Auto);
    println!();
    println!(
        "queue tracking: {}/{} paths reached t = 1 in {} accepted steps, {} batched round trips",
        r.successes(),
        r.paths.len(),
        r.stats.steps_accepted,
        r.stats.batch_rounds
    );
}
