//! Property-based trace determinism: for arbitrary requests — any
//! scheduler, any backend, chaos included — running the same
//! `SolveRequest` twice with a fresh [`CollectingTracer`] each time
//! yields **byte-identical** exported Chrome traces, because spans are
//! timestamped by the simulated clock, never the host's. And tracing
//! is free: a [`NoopTracer`] leaves endpoints, modeled timings, and
//! the telemetry snapshot bit-identical to the untraced solve.

use polygpu::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn backend(ix: usize) -> Backend {
    match ix {
        0 => Backend::GpuBatch { capacity: 4 },
        1 => Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); 2],
            shard: ClusterPolicy::default().into(),
        },
        _ => Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); 2],
            shard: SystemShardPolicy::Contiguous.into(),
        },
    }
}

fn solver(backend_ix: usize, chaos_seed: Option<u64>) -> Solver {
    let mut b = Engine::builder()
        .backend(backend(backend_ix))
        .per_device_capacity(2);
    if let Some(seed) = chaos_seed {
        b = b.fault_plan(FaultPlan::new(seed, 300));
    }
    Solver::from_builder(b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn traces_replay_byte_for_byte_and_noop_tracing_is_free(
        seed in 0u64..1_000,
        gamma_seed in 1u64..1_000,
        sched_ix in 0usize..3,
        backend_ix in 0usize..3,
        chaos_seed in prop_oneof![Just(None::<u64>), (0u64..4).prop_map(Some)],
    ) {
        let sys = random_system::<f64>(&BenchmarkParams { n: 2, m: 2, k: 2, d: 2, seed });
        let scheduler = [
            SchedulerKind::PerPath,
            SchedulerKind::Queue { slots: SlotPolicy::Fixed(2) },
            SchedulerKind::Queue { slots: SlotPolicy::Auto },
        ][sched_ix];
        let req = SolveRequest::new(sys)
            .with_start(StartSystem::uniform(2, 2))
            .with_gamma_seed(gamma_seed)
            .with_scheduler(scheduler);

        // Two traced runs: the exported trace must replay byte for
        // byte — a surfaced chaos fault is a legal outcome, but it
        // must surface identically, with an identical partial trace.
        let run = || {
            let tracer = Arc::new(CollectingTracer::new());
            let res = solver(backend_ix, chaos_seed)
                .solve(&req.clone().with_tracer(tracer.clone()));
            (res, chrome_trace_json(&tracer.spans()))
        };
        let (res1, json1) = run();
        let (res2, json2) = run();
        prop_assert_eq!(&json1, &json2, "same seed must replay the same trace");
        match (&res1, &res2) {
            (Ok(a), Ok(b)) => {
                for (i, (x, y)) in a.paths.iter().zip(&b.paths).enumerate() {
                    prop_assert_eq!(&x.endpoint, &y.endpoint, "rerun endpoint, path {}", i);
                    prop_assert_eq!(&x.outcome, &y.outcome, "rerun outcome, path {}", i);
                }
                prop_assert_eq!(&a.telemetry, &b.telemetry);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "reruns must share their outcome"),
        }
        if res1.is_ok() {
            prop_assert!(!json1.is_empty());
        }

        // No-op tracer bit-identity: observation must change nothing.
        let plain = solver(backend_ix, chaos_seed).solve(&req);
        let noop = solver(backend_ix, chaos_seed)
            .solve(&req.clone().with_tracer(Arc::new(NoopTracer)));
        match (plain, noop) {
            (Ok(a), Ok(b)) => {
                for (i, (x, y)) in a.paths.iter().zip(&b.paths).enumerate() {
                    prop_assert_eq!(&x.endpoint, &y.endpoint, "noop endpoint, path {}", i);
                    prop_assert_eq!(&x.outcome, &y.outcome, "noop outcome, path {}", i);
                }
                prop_assert_eq!(a.modeled_wall_seconds(), b.modeled_wall_seconds());
                prop_assert_eq!(a.engine.wall_seconds, b.engine.wall_seconds);
                prop_assert_eq!(&a.telemetry, &b.telemetry);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "a no-op tracer must not change the outcome"),
        }
    }
}
