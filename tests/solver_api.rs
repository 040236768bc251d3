//! The solver-API acceptance: one `SolveRequest`, every scheduler ×
//! corrector × backend combination, identical answers.
//!
//! * [`PerPath`](SchedulerKind::PerPath) and
//!   [`Queue`](SchedulerKind::Queue) (any slot policy) are bit-identical
//!   to each other — and across the CPU-reference, batched-GPU and
//!   cluster backends, under both correctors — for arbitrary requests.
//!   Both run the one path queue, so a front whose size does not depend
//!   on the backend also reports the same scheduler statistics
//!   everywhere. Under either corrector every backend's engine
//!   evaluates exactly `paths + corrector iterations + attempts`
//!   points.
//! * `SlotPolicy::Auto` sizes the queue front to `D ×` per-device
//!   capacity through `EngineCaps` and keeps it > 0.8 occupied at
//!   D ∈ {2, 4}.

use polygpu::prelude::*;
use proptest::prelude::*;

fn backends(devices: usize, capacity: usize) -> Vec<Backend> {
    vec![
        Backend::CpuReference,
        Backend::GpuBatch { capacity },
        Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); devices],
            shard: ClusterPolicy::default().into(),
        },
    ]
}

fn solver_for(backend: Backend, per_device_capacity: usize) -> Solver {
    Solver::from_builder(
        Engine::builder()
            .backend(backend)
            .per_device_capacity(per_device_capacity),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One request, every scheduler, every corrector, every backend:
    /// the per-path and queue schedulers agree bit for bit everywhere,
    /// and a front sized independently of the backend (one slot, or a
    /// fixed count within every backend's capacity) reports identical
    /// scheduler statistics on every backend.
    #[test]
    fn solve_endpoints_identical_across_schedulers_and_backends(
        seed in 0u64..1_000,
        gamma_seed in 1u64..1_000,
        devices in 2usize..4,
        d in 2u32..4,
    ) {
        let params = BenchmarkParams { n: 2, m: 2, k: 2, d: d as u16, seed };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(2, d);
        let req = SolveRequest::new(sys)
            .with_start(start)
            .with_gamma_seed(gamma_seed);

        // Reference: the default queue on the CPU reference.
        let want = solver_for(Backend::CpuReference, 4).solve(&req).unwrap();
        prop_assert_eq!(want.paths.len(), (d * d) as usize);

        let schedulers = [
            SchedulerKind::PerPath,
            SchedulerKind::Queue { slots: SlotPolicy::Auto },
            SchedulerKind::Queue { slots: SlotPolicy::Fixed(3) },
        ];
        for mode in [CorrectorMode::Host, CorrectorMode::DeviceResident] {
            for scheduler in schedulers {
                let mut stats: Option<QueueStats> = None;
                for backend in backends(devices, 4) {
                    let report = solver_for(backend.clone(), 2)
                        .solve(&req.clone().with_scheduler(scheduler).with_corrector(mode))
                        .unwrap();
                    for (i, (got, w)) in report.paths.iter().zip(&want.paths).enumerate() {
                        prop_assert_eq!(&got.outcome, &w.outcome,
                            "outcome: {:?} / {:?} on {:?}, path {}", scheduler, mode, backend, i);
                        prop_assert_eq!(&got.endpoint, &w.endpoint,
                            "endpoint: {:?} / {:?} on {:?}, path {}", scheduler, mode, backend, i);
                        prop_assert_eq!(got.t, w.t,
                            "final t: {:?} / {:?} on {:?}, path {}", scheduler, mode, backend, i);
                    }
                    // The auto front follows each backend's capacity;
                    // the others are the same run everywhere.
                    if scheduler != SchedulerKind::default() {
                        let want_stats = *stats.get_or_insert(report.stats);
                        prop_assert_eq!(report.stats, want_stats,
                            "stats: {:?} / {:?} on {:?}", scheduler, mode, backend);
                    }
                    // The evaluation budget under either corrector: one
                    // predictor evaluation per path, `iterations + 1`
                    // per attempt, counted by every engine, the fused
                    // corrector's evaluations included.
                    let mut passes =
                        vec![(report.paths.len(), report.stats, report.engine.evaluations)];
                    passes.extend(report.escalation.as_ref()
                        .map(|e| (e.retried, e.stats, e.engine.evaluations)));
                    for (paths, s, evaluations) in passes {
                        let attempts = s.steps_accepted + s.steps_rejected;
                        prop_assert_eq!(evaluations,
                            (paths + s.corrector_iterations + attempts) as u64,
                            "evaluations: {:?} / {:?} on {:?}", scheduler, mode, backend);
                    }
                }
            }
        }
    }
}

/// The ROADMAP's "cluster-aware `track_queue`" lever: `SlotPolicy::Auto`
/// sizes the front to `D × per-device capacity` read off `EngineCaps`,
/// and the front stays > 0.8 occupied at D ∈ {2, 4}.
#[test]
fn auto_slots_scale_with_device_count_and_stay_occupied() {
    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 5,
    };
    let sys = random_system::<f64>(&params);
    let start = StartSystem::uniform(2, 6); // 36 paths: a real queue depth
    let req = SolveRequest::new(sys)
        .with_start(start)
        .with_gamma_seed(11)
        .with_scheduler(SchedulerKind::Queue {
            slots: SlotPolicy::Auto,
        });
    let per_device = 2usize;
    let mut endpoints: Vec<Vec<PathEndpoint>> = Vec::new();
    for d in [2usize, 4] {
        let solver = solver_for(
            Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); d],
                shard: ClusterPolicy::default().into(),
            },
            per_device,
        );
        let report = solver.solve(&req).unwrap();
        assert_eq!(report.caps.devices, d);
        assert_eq!(report.caps.per_device_capacity, per_device);
        assert_eq!(
            report.caps.auto_slots(),
            d * per_device,
            "auto front = D x per-device capacity"
        );
        assert_eq!(report.stats.slots, d * per_device, "D = {d}");
        assert!(
            report.occupancy() > 0.8,
            "D = {d}: occupancy {:.3} with {} slots over {} paths",
            report.occupancy(),
            report.stats.slots,
            report.paths.len()
        );
        assert_eq!(report.paths.len(), 36);
        endpoints.push(report.paths.iter().map(|p| p.endpoint.clone()).collect());
    }
    // Front size is a performance knob only: D = 2 and D = 4 agree.
    assert_eq!(endpoints[0], endpoints[1]);
}

/// The acceptance headline: a system whose encoding exceeds one
/// device's constant memory — every single-device backend rejects it at
/// build — **solves** through `Backend::Cluster { shard: Rows }` at
/// D ∈ {2, 4}, with endpoints bit-identical to the single-device
/// CPU-reference run.
#[test]
fn over_budget_system_solves_row_sharded_at_d2_and_d4() {
    // 2,048 monomials at k = 16: the paper's constant-memory wall
    // (65,536 bytes of supports against a 65,280-byte budget). The
    // multilinear d = 1 family keeps coefficient magnitudes tractable
    // for tracking while hitting the identical encoding size.
    let params = BenchmarkParams {
        n: 32,
        m: 64,
        k: 16,
        d: 1,
        seed: 3,
    };
    let sys = random_system::<f64>(&params);
    // One path with an eager step schedule and a corrector tolerance
    // matched to the system's conditioning: simulating the
    // 2,048-monomial kernels is the expensive part of the test, and one
    // tracked path is enough to pin the whole solve pipeline bitwise.
    let eager = TrackParams {
        initial_dt: 0.1,
        max_dt: 0.4,
        grow: 2.0,
        corrector: NewtonParams {
            residual_tol: 1e-4,
            step_tol: 1e-8,
            max_iters: 6,
            ..Default::default()
        },
        ..Default::default()
    };
    let req = SolveRequest::new(sys.clone())
        .with_starts(StartSelection::FirstN(1))
        .with_params(eager)
        .with_gamma_seed(7);

    // The wall: the single-device backends refuse the system…
    for backend in [Backend::Gpu, Backend::GpuBatch { capacity: 2 }] {
        assert!(
            matches!(
                solver_for(backend, 2).solve(&req),
                Err(SolveError::Build(_))
            ),
            "a 65,536-byte encoding must not fit one device"
        );
    }
    // …and so does a D = 1 "cluster" in row mode (one device, one arena).
    let one = Backend::Cluster {
        devices: vec![DeviceSpec::tesla_c2050()],
        shard: SystemShardPolicy::Contiguous.into(),
    };
    assert!(matches!(
        solver_for(one, 2).solve(&req),
        Err(SolveError::Build(_))
    ));

    // The reference: the CPU solves it (no constant memory involved).
    let want = solver_for(Backend::CpuReference, 2).solve(&req).unwrap();
    assert_eq!(want.paths.len(), 1);
    assert_eq!(want.successes(), 1, "the reference path must converge");

    for d in [2usize, 4] {
        let backend = Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); d],
            shard: SystemShardPolicy::Contiguous.into(),
        };
        let report = solver_for(backend, 2)
            .solve(&req)
            .unwrap_or_else(|e| panic!("row-sharded solve must build at D = {d}: {e}"));
        assert_eq!(report.backend, "cluster-rows");
        assert_eq!(report.caps.devices, d);
        // The whole 65,536-byte encoding is resident — spread over D
        // arenas of 65,280 usable bytes each.
        assert_eq!(report.caps.constant_bytes, 65_536);
        for (i, (got, w)) in report.paths.iter().zip(&want.paths).enumerate() {
            assert_eq!(got.outcome, w.outcome, "outcome, D = {d}, path {i}");
            assert_eq!(got.endpoint, w.endpoint, "endpoint, D = {d}, path {i}");
            assert_eq!(got.t, w.t, "t, D = {d}, path {i}");
        }
        // Each device's own round trip is charged: the engine's
        // transfer time is visible.
        assert!(report.engine.transfer_seconds > 0.0);
        assert!(report.engine.wall_clock_seconds() > 0.0);
    }
}

/// Row-sharded caps-aware slot sizing: `SlotPolicy::Auto` must resolve
/// to the *per-device* capacity (not `D ×` it), because every device of
/// a row-sharded cluster absorbs the whole batch.
#[test]
fn auto_slots_stay_per_device_under_row_sharding() {
    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 5,
    };
    let sys = random_system::<f64>(&params);
    let req = SolveRequest::new(sys)
        .with_start(StartSystem::uniform(2, 6)) // 36 paths
        .with_gamma_seed(11)
        .with_scheduler(SchedulerKind::Queue {
            slots: SlotPolicy::Auto,
        });
    let per_device = 4usize;
    let mut endpoints: Vec<Vec<PathEndpoint>> = Vec::new();
    for d in [2usize, 4] {
        let backend = Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); d],
            shard: SystemShardPolicy::Contiguous.into(),
        };
        let report = solver_for(backend, per_device).solve(&req).unwrap();
        assert_eq!(report.caps.devices, 2.min(d), "2 rows cap the fleet");
        assert_eq!(report.caps.capacity, per_device);
        assert_eq!(
            report.caps.auto_slots(),
            per_device,
            "auto front clamps to the row-sharded batch capacity"
        );
        assert_eq!(report.stats.slots, per_device);
        assert!(
            report.occupancy() > 0.8,
            "D = {d}: occupancy {:.3}",
            report.occupancy()
        );
        endpoints.push(report.paths.iter().map(|p| p.endpoint.clone()).collect());
    }
    assert_eq!(endpoints[0], endpoints[1]);
}

/// The report carries the telemetry the old drivers scattered:
/// occupancy, escalation counts, engine stats and caps — no consumer
/// needs to recompute them from internals.
#[test]
fn report_surfaces_scheduler_engine_and_escalation_telemetry() {
    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 7,
    };
    let sys = random_system::<f64>(&params);
    let brutal = TrackParams {
        corrector: NewtonParams {
            residual_tol: 1e-19, // unreachable in f64: every path escalates
            step_tol: 1e-21,
            max_iters: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let req = SolveRequest::new(sys)
        .with_start(StartSystem::uniform(2, 2))
        .with_gamma_seed(33)
        .with_params(brutal)
        .with_precision(PrecisionPolicy::Escalating { dd_params: brutal });
    let report = solver_for(Backend::GpuBatch { capacity: 4 }, 4)
        .solve(&req)
        .unwrap();
    assert_eq!(report.backend, "gpu-batch");
    assert_eq!(report.scheduler, SchedulerKind::default());
    assert!(report.occupancy() > 0.0);
    assert_eq!(report.escalated(), 4);
    assert_eq!(report.escalation_rate(), 1.0);
    let esc = report.escalation.as_ref().unwrap();
    assert_eq!(esc.retried, 4);
    assert!(esc.stats.occupancy() > 0.0);
    // Both passes ran on modeled engines from the same spec.
    assert!(report.engine.evaluations > 0);
    assert!(esc.engine.evaluations > 0);
    assert!(report.paths_per_second() > 0.0);
    for p in &report.paths {
        assert_eq!(p.precision(), UsedPrecision::DoubleDouble);
    }
}
