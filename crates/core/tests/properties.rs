//! Property-based test: the simulated GPU pipeline is bit-identical to
//! the sequential CPU algorithm on arbitrary uniform systems.

use polygpu_core::pipeline::{GpuEvaluator, GpuOptions};
use polygpu_core::EncodingKind;
use polygpu_polysys::{
    cost, random_point, random_system, AdEvaluator, BenchmarkParams, SystemEvaluator,
};
use proptest::prelude::*;

fn shapes() -> impl Strategy<Value = BenchmarkParams> {
    (2usize..16, 1usize..5, 1u16..6, 0u64..1_000_000).prop_flat_map(|(n, m, d, seed)| {
        (1usize..=n).prop_map(move |k| BenchmarkParams { n, m, k, d, seed })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gpu_pipeline_bitwise_equals_cpu_ad(params in shapes()) {
        let system = random_system::<f64>(&params);
        let mut gpu = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
        let mut cpu = AdEvaluator::new(system).unwrap();
        let x = random_point::<f64>(params.n, params.seed ^ 0xD00D);
        let a = gpu.evaluate(&x);
        let b = cpu.evaluate(&x);
        prop_assert_eq!(&a.values, &b.values, "values for {:?}", params);
        prop_assert_eq!(a.jacobian.as_slice(), b.jacobian.as_slice(),
            "jacobian for {:?}", params);
    }

    #[test]
    fn encodings_agree_bitwise(params in shapes()) {
        prop_assume!(params.d <= 16); // compact encoding limit
        let system = random_system::<f64>(&params);
        let mut direct = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
        let mut compact = GpuEvaluator::new(&system, GpuOptions {
            encoding: EncodingKind::Compact,
            ..Default::default()
        }).unwrap();
        let x = random_point::<f64>(params.n, params.seed);
        prop_assert_eq!(direct.evaluate(&x).values, compact.evaluate(&x).values);
    }

    #[test]
    fn kernel2_flops_follow_5k_minus_4(params in shapes()) {
        let system = random_system::<f64>(&params);
        let d = system.uniform_shape().unwrap().d as usize;
        let mut gpu = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
        let x = random_point::<f64>(params.n, 1);
        let _ = gpu.evaluate(&x);
        // Kernel 2 runs fused after kernel 1's stages: (k − 1) + (5k − 4)
        // multiplications per monomial, plus the power table per block.
        let report = gpu.last_reports().iter()
            .find(|r| r.kernel_name == "monomial")
            .expect("every evaluation launches the monomial kernel");
        let monomials = (params.n * params.m) as u64;
        let blocks = report.config.grid_dim as u64;
        let expect = (monomials * (cost::common_factor_muls(params.k) + cost::kernel2_muls(params.k))
            + blocks * cost::power_stage_muls_per_block(params.n, d)) * 6;
        prop_assert_eq!(report.counters.flops, expect,
            "kernel2 flops for {:?}", params);
    }

    #[test]
    fn modeled_time_positive_and_deterministic(params in shapes()) {
        let system = random_system::<f64>(&params);
        let x = random_point::<f64>(params.n, 3);
        let mut g1 = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
        let mut g2 = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
        let _ = g1.evaluate(&x);
        let _ = g2.evaluate(&x);
        prop_assert!(g1.stats().total_seconds() > 0.0);
        prop_assert_eq!(g1.stats().total_seconds(), g2.stats().total_seconds());
    }
}
