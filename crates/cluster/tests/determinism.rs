//! Property test: sharding over heterogeneous devices is invisible in
//! the results. For arbitrary uniform systems, shard policies, device
//! fleets and batch sizes (including sizes that divide nothing), the
//! cluster's output is **bit-for-bit** the output of the looping
//! CPU reference — which the single-device GPU engine is already proven
//! bitwise-equal to — in double and in double-double. The same holds
//! for **row sharding**: partitioning the system's equations across
//! the fleet (any `SystemShardPolicy`, any `D`) never changes a bit.

use polygpu_cluster::{
    ClusterOptions, RowClusterOptions, RowShardedEvaluator, ShardPolicy, ShardedBatchEvaluator,
    SystemShardPolicy,
};
use polygpu_gpusim::prelude::DeviceSpec;
use polygpu_polysys::{
    random_points, random_system, AdEvaluator, BatchSystemEvaluator, BenchmarkParams,
};
use proptest::prelude::*;

fn shapes() -> impl Strategy<Value = BenchmarkParams> {
    (2usize..10, 1usize..4, 1u16..4, 0u64..1_000_000).prop_flat_map(|(n, m, d, seed)| {
        (1usize..=n.min(4)).prop_map(move |k| BenchmarkParams { n, m, k, d, seed })
    })
}

fn policies() -> impl Strategy<Value = ShardPolicy> {
    prop_oneof![
        Just(ShardPolicy::RoundRobin),
        Just(ShardPolicy::CapacityProportional),
        (1usize..5).prop_map(|chunk| ShardPolicy::WorkStealing { chunk }),
    ]
}

/// 1–4 devices with deterministic heterogeneity: every other device is
/// derated in clock and PCIe bandwidth (timing-model-only differences).
fn fleets() -> impl Strategy<Value = Vec<DeviceSpec>> {
    (1usize..=4).prop_map(|d| {
        (0..d)
            .map(|i| {
                let mut s = DeviceSpec::tesla_c2050();
                if i % 2 == 1 {
                    s.clock_hz *= 0.5 + 0.1 * i as f64;
                    s.pcie_bandwidth *= 0.7;
                    s.launch_overhead *= 1.5;
                }
                s
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cluster_bitwise_equals_single_batch_in_double(
        params in shapes(),
        policy in policies(),
        specs in fleets(),
        p in 1usize..23,
        cap in 2usize..9,
    ) {
        prop_assume!(p <= cap * specs.len()); // within cluster capacity
        let sys = random_system::<f64>(&params);
        let points = random_points::<f64>(params.n, p, params.seed ^ 0xC1u64);
        let mut cluster = ShardedBatchEvaluator::new(
            &sys,
            &specs,
            cap,
            ClusterOptions { policy, ..Default::default() },
        )
        .unwrap();
        let mut reference = AdEvaluator::new(sys).unwrap();
        let got = cluster.evaluate_batch(&points);
        let want = reference.evaluate_batch(&points);
        for i in 0..p {
            prop_assert_eq!(&got[i].values, &want[i].values,
                "values, point {} of {:?} on {} devices ({:?})",
                i, params, specs.len(), policy);
            prop_assert_eq!(got[i].jacobian.as_slice(), want[i].jacobian.as_slice(),
                "jacobian, point {} of {:?} on {} devices ({:?})",
                i, params, specs.len(), policy);
        }
    }

    #[test]
    fn cluster_bitwise_equals_single_batch_in_double_double(
        params in shapes(),
        policy in policies(),
        specs in fleets(),
        p in 1usize..13,
    ) {
        use polygpu_qd::Dd;
        use polygpu_complex::Complex;
        prop_assume!(p <= 4 * specs.len());
        let sys = random_system::<f64>(&params).convert::<Dd>();
        let points: Vec<Vec<Complex<Dd>>> =
            random_points::<f64>(params.n, p, params.seed ^ 0xDDu64)
                .into_iter()
                .map(|x| x.into_iter().map(|z| z.convert()).collect())
                .collect();
        let mut cluster = ShardedBatchEvaluator::new(
            &sys,
            &specs,
            4,
            ClusterOptions { policy, ..Default::default() },
        )
        .unwrap();
        let mut reference = AdEvaluator::new(sys).unwrap();
        let got = cluster.evaluate_batch(&points);
        let want = reference.evaluate_batch(&points);
        for i in 0..p {
            prop_assert_eq!(&got[i].values, &want[i].values,
                "dd values, point {} of {:?}", i, params);
            prop_assert_eq!(got[i].jacobian.as_slice(), want[i].jacobian.as_slice(),
                "dd jacobian, point {} of {:?}", i, params);
        }
    }

    /// Row-shard determinism: endpoints and Jacobians are bit-identical
    /// to the CPU reference across shard policies, heterogeneous
    /// fleets and D ∈ {1, 2, 4} — splitting the *system*
    /// is as invisible numerically as splitting the points.
    #[test]
    fn row_sharding_bitwise_equals_cpu_reference_in_double(
        params in shapes(),
        row_policy in prop_oneof![
            Just(SystemShardPolicy::Contiguous),
            Just(SystemShardPolicy::RoundRobin),
        ],
        hetero in prop_oneof![Just(true), Just(false)],
        p in 1usize..8,
    ) {
        let sys = random_system::<f64>(&params);
        let points = random_points::<f64>(params.n, p, params.seed ^ 0x50u64);
        let mut reference = AdEvaluator::new(sys.clone()).unwrap();
        let want = reference.evaluate_batch(&points);
        for d in [1usize, 2, 4] {
            let specs: Vec<DeviceSpec> = if hetero {
                (0..d).map(|i| {
                    let mut s = DeviceSpec::tesla_c2050();
                    if i % 2 == 1 {
                        s.clock_hz *= 0.5 + 0.1 * i as f64;
                        s.pcie_bandwidth *= 0.7;
                    }
                    s
                }).collect()
            } else {
                vec![DeviceSpec::tesla_c2050(); d]
            };
            let mut cluster = RowShardedEvaluator::new(
                &sys,
                &specs,
                8,
                RowClusterOptions { policy: row_policy, ..Default::default() },
            )
            .unwrap();
            let got = cluster.evaluate_batch(&points);
            for i in 0..p {
                prop_assert_eq!(&got[i].values, &want[i].values,
                    "values, point {} of {:?}, D = {} ({:?})",
                    i, params, d, row_policy);
                prop_assert_eq!(got[i].jacobian.as_slice(), want[i].jacobian.as_slice(),
                    "jacobian, point {} of {:?}, D = {} ({:?})",
                    i, params, d, row_policy);
            }
        }
    }

    /// Row-shard determinism in double-double: the widened arithmetic
    /// partitions just as invisibly.
    #[test]
    fn row_sharding_bitwise_equals_cpu_reference_in_double_double(
        params in shapes(),
        row_policy in prop_oneof![
            Just(SystemShardPolicy::Contiguous),
            Just(SystemShardPolicy::RoundRobin),
        ],
        d in 1usize..5,
        p in 1usize..6,
    ) {
        use polygpu_qd::Dd;
        use polygpu_complex::Complex;
        let sys = random_system::<f64>(&params).convert::<Dd>();
        let points: Vec<Vec<Complex<Dd>>> =
            random_points::<f64>(params.n, p, params.seed ^ 0x51u64)
                .into_iter()
                .map(|x| x.into_iter().map(|z| z.convert()).collect())
                .collect();
        let mut cluster = RowShardedEvaluator::new(
            &sys,
            &vec![DeviceSpec::tesla_c2050(); d],
            8,
            RowClusterOptions { policy: row_policy, ..Default::default() },
        )
        .unwrap();
        let mut reference = AdEvaluator::new(sys).unwrap();
        let got = cluster.evaluate_batch(&points);
        let want = reference.evaluate_batch(&points);
        for i in 0..p {
            prop_assert_eq!(&got[i].values, &want[i].values,
                "dd values, point {} of {:?}, D = {}", i, params, d);
            prop_assert_eq!(got[i].jacobian.as_slice(), want[i].jacobian.as_slice(),
                "dd jacobian, point {} of {:?}, D = {}", i, params, d);
        }
    }
}
