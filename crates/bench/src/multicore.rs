//! The multicore companion experiment (paper §1, citing the authors'
//! PASCO 2010 work): "the cost of tracking one solution path in double
//! double arithmetic can be compensated in a parallel multicore
//! implementation, thus achieving quality up."
//!
//! We batch-evaluate a Table-1-shaped system over many points on all
//! host cores with rayon (each worker owns its own evaluator scratch)
//! in double and double-double, and check whether the multicore
//! double-double run beats the sequential double run — the literal
//! quality-up criterion.

use polygpu_complex::{Complex, Real, C64};
use polygpu_polysys::{
    random_points, random_system, AdEvaluator, BenchmarkParams, System, SystemEvaluator,
};
use rayon::prelude::*;
use std::time::Instant;

/// Timings of the four quadrants of the quality-up comparison.
#[derive(Debug, Clone, Copy)]
pub struct MulticoreReport {
    pub threads: usize,
    pub evals: usize,
    pub f64_seq_s: f64,
    pub f64_par_s: f64,
    pub dd_seq_s: f64,
    pub dd_par_s: f64,
}

impl MulticoreReport {
    /// Parallel speedup in double precision.
    pub fn f64_speedup(&self) -> f64 {
        self.f64_seq_s / self.f64_par_s
    }

    /// The measured double-double cost factor (sequential).
    pub fn dd_cost_factor(&self) -> f64 {
        self.dd_seq_s / self.f64_seq_s
    }

    /// The quality-up ratio: multicore double-double time relative to
    /// sequential double time. `<= 1` means extended precision came for
    /// free, the paper's criterion.
    pub fn quality_up_ratio(&self) -> f64 {
        self.dd_par_s / self.f64_seq_s
    }
}

fn batch_seq<R: Real>(system: &System<R>, points: &[Vec<Complex<R>>]) -> f64 {
    let mut ev = AdEvaluator::new(system.clone()).expect("uniform");
    let mut sink = 0.0;
    let t0 = Instant::now();
    for p in points {
        sink += ev.evaluate(p).residual_norm().to_f64();
    }
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64()
}

fn batch_par<R: Real>(system: &System<R>, points: &[Vec<Complex<R>>]) -> f64 {
    let t0 = Instant::now();
    let sink: f64 = points
        .par_iter()
        .map_init(
            || AdEvaluator::new(system.clone()).expect("uniform"),
            |ev, p| ev.evaluate(p).residual_norm().to_f64(),
        )
        .sum();
    std::hint::black_box(sink);
    t0.elapsed().as_secs_f64()
}

/// Run the experiment on a Table-1-shaped system with `evals` points.
pub fn multicore_quality_up(evals: usize) -> MulticoreReport {
    let params = BenchmarkParams {
        n: 32,
        m: 32,
        k: 9,
        d: 2,
        seed: 0x040C_05E5,
    };
    let system = random_system::<f64>(&params);
    let system_dd = system.convert::<polygpu_qd::Dd>();
    let points: Vec<Vec<C64>> = random_points::<f64>(32, evals, 17);
    let points_dd: Vec<Vec<Complex<polygpu_qd::Dd>>> = points
        .iter()
        .map(|p| p.iter().map(|z| z.convert()).collect())
        .collect();

    MulticoreReport {
        threads: rayon::current_num_threads(),
        evals,
        f64_seq_s: batch_seq(&system, &points),
        f64_par_s: batch_par(&system, &points),
        dd_seq_s: batch_seq(&system_dd, &points_dd),
        dd_par_s: batch_par(&system_dd, &points_dd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_sequential_batches_agree_numerically() {
        // Correctness of the rayon batch path: same residual checksum.
        let params = BenchmarkParams {
            n: 8,
            m: 4,
            k: 3,
            d: 2,
            seed: 2,
        };
        let system = random_system::<f64>(&params);
        let points = random_points::<f64>(8, 32, 5);
        let mut ev = AdEvaluator::new(system.clone()).unwrap();
        let seq: Vec<f64> = points
            .iter()
            .map(|p| ev.evaluate(p).residual_norm())
            .collect();
        let par: Vec<f64> = points
            .par_iter()
            .map_init(
                || AdEvaluator::new(system.clone()).unwrap(),
                |e, p| e.evaluate(p).residual_norm(),
            )
            .collect();
        assert_eq!(seq, par, "rayon batch must be bit-identical per point");
    }

    #[test]
    fn report_arithmetic() {
        let r = MulticoreReport {
            threads: 8,
            evals: 100,
            f64_seq_s: 1.0,
            f64_par_s: 0.2,
            dd_seq_s: 6.0,
            dd_par_s: 0.9,
        };
        assert!((r.f64_speedup() - 5.0).abs() < 1e-12);
        assert!((r.dd_cost_factor() - 6.0).abs() < 1e-12);
        assert!(r.quality_up_ratio() < 1.0, "quality up achieved");
    }
}
