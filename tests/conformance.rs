//! Backend conformance harness: every [`AnyEvaluator`] backend
//! reachable from the facade's `Engine::builder()` — `CpuReference`,
//! `Gpu`, `GpuBatch`, `Cluster { Points }` and `Cluster { Rows }` —
//! runs through **one** shared contract suite, in `f64` and in
//! double-double:
//!
//! * single ↔ batch bit-identity (`evaluate_batch(pts)[i]` equals
//!   `evaluate(&pts[i])` bit for bit, and `try_evaluate` agrees);
//! * cross-backend bit-identity against the CPU reference;
//! * `try_evaluate_batch` typed-error contracts (empty batch, capacity
//!   overflow, dimension mismatch) — rejected calls cost nothing and
//!   leave the engine usable;
//! * statistics monotonicity and `reset_engine_stats`;
//! * `caps()` consistency (`capacity == max_batch()`,
//!   `per_device_capacity`, `auto_slots`, device counts, constant
//!   bytes).
//!
//! A new backend added to the builder gets the whole contract for the
//! price of one entry in [`backend_cases`].

use polygpu::core::pipeline::FaultConfig;
use polygpu::core::CorrectCharge;
use polygpu::prelude::*;
use polygpu::qd::Dd;

/// The per-device point capacity every cluster case uses.
const PER_DEVICE: usize = 4;
/// The single-device batch engine's capacity.
const BATCH_CAP: usize = 8;
/// Devices in the cluster cases.
const DEVICES: usize = 3;
/// Points per conformance batch — within every backend's capacity
/// (the row-sharded cluster's is `PER_DEVICE`).
const POINTS: usize = 4;

/// Every backend the builder reaches, by name.
fn backend_cases() -> Vec<(&'static str, Backend)> {
    let fleet = vec![DeviceSpec::tesla_c2050(); DEVICES];
    vec![
        ("cpu-reference", Backend::CpuReference),
        ("gpu", Backend::Gpu),
        (
            "gpu-batch",
            Backend::GpuBatch {
                capacity: BATCH_CAP,
            },
        ),
        (
            "cluster",
            Backend::Cluster {
                devices: fleet.clone(),
                shard: ClusterPolicy::default().into(),
            },
        ),
        (
            "cluster-rows",
            Backend::Cluster {
                devices: fleet,
                shard: SystemShardPolicy::Contiguous.into(),
            },
        ),
    ]
}

fn build<R: Real>(
    backend: &Backend,
    sys: &polygpu::polysys::System<R>,
) -> Box<dyn AnyEvaluator<R>> {
    Engine::builder()
        .backend(backend.clone())
        .per_device_capacity(PER_DEVICE)
        .build(sys)
        .expect("conformance system fits every backend")
}

fn test_system<R: Real>() -> polygpu::polysys::System<R> {
    random_system::<R>(&BenchmarkParams {
        n: 8,
        m: 3,
        k: 2,
        d: 2,
        seed: 23,
    })
}

fn test_points<R: Real>(p: usize) -> Vec<Vec<Complex<R>>> {
    random_points::<f64>(8, p, 31)
        .into_iter()
        .map(|x| x.into_iter().map(|z| z.convert()).collect())
        .collect()
}

/// Contract 1: batched evaluation is bit-identical to the single-point
/// path of the same engine, through both the panicking and the typed
/// interfaces.
fn contract_single_batch_identity<R: Real>(name: &str, engine: &mut dyn AnyEvaluator<R>) {
    let points = test_points::<R>(POINTS);
    let batch = engine
        .try_evaluate_batch(&points)
        .unwrap_or_else(|e| panic!("{name}: conformance batch must pass: {e}"));
    assert_eq!(batch.len(), POINTS, "{name}");
    for (i, x) in points.iter().enumerate() {
        let single = engine.evaluate(x);
        assert_eq!(single.values, batch[i].values, "{name}, point {i}");
        assert_eq!(
            single.jacobian.as_slice(),
            batch[i].jacobian.as_slice(),
            "{name}, point {i}"
        );
        let typed = engine.try_evaluate(x).unwrap();
        assert_eq!(typed.values, batch[i].values, "{name}, try point {i}");
    }
}

/// Contract 2: contract violations return typed errors, cost nothing,
/// and leave the engine usable.
fn contract_typed_errors<R: Real>(name: &str, engine: &mut dyn AnyEvaluator<R>) {
    engine.reset_engine_stats();
    assert!(
        matches!(engine.try_evaluate_batch(&[]), Err(BatchError::Empty)),
        "{name}: empty batch"
    );
    let short = vec![vec![Complex::<R>::one(); 3]];
    assert!(
        matches!(
            engine.try_evaluate_batch(&short),
            Err(BatchError::DimensionMismatch {
                point: 0,
                got: 3,
                expected: 8
            })
        ),
        "{name}: dimension mismatch"
    );
    let caps = engine.caps();
    if caps.capacity < usize::MAX {
        let too_many = test_points::<R>(caps.capacity + 1);
        match engine.try_evaluate_batch(&too_many) {
            Err(BatchError::CapacityExceeded { points, capacity }) => {
                assert_eq!(points, caps.capacity + 1, "{name}");
                assert_eq!(capacity, caps.capacity, "{name}");
            }
            other => panic!("{name}: expected CapacityExceeded, got {other:?}"),
        }
    }
    assert_eq!(
        engine.engine_stats().evaluations,
        0,
        "{name}: rejected calls must cost nothing"
    );
    let ok = engine.try_evaluate_batch(&test_points::<R>(1)).unwrap();
    assert_eq!(ok.len(), 1, "{name}: engine usable after rejections");
}

/// Contract 3: statistics count evaluations and batches monotonically
/// and reset to zero.
fn contract_stats<R: Real>(name: &str, engine: &mut dyn AnyEvaluator<R>) {
    engine.reset_engine_stats();
    let points = test_points::<R>(POINTS);
    let _ = engine.try_evaluate_batch(&points).unwrap();
    let after_batch = engine.engine_stats();
    assert_eq!(after_batch.evaluations, POINTS as u64, "{name}");
    assert!(after_batch.batches >= 1, "{name}");
    let _ = engine.evaluate(&points[0]);
    let after_single = engine.engine_stats();
    assert_eq!(
        after_single.evaluations,
        POINTS as u64 + 1,
        "{name}: single-point evaluations accumulate"
    );
    assert!(
        after_single.batches >= after_batch.batches,
        "{name}: batches monotone"
    );
    assert!(
        after_single.wall_seconds >= after_batch.wall_seconds,
        "{name}: wall clock monotone"
    );
    engine.reset_engine_stats();
    let zeroed = engine.engine_stats();
    assert_eq!(zeroed.evaluations, 0, "{name}");
    assert_eq!(zeroed.batches, 0, "{name}");
    assert_eq!(zeroed.wall_seconds, 0.0, "{name}");
}

/// Contract 4: the capability report is consistent with the engine's
/// actual behavior and with the scheduler sizing rules.
fn contract_caps<R: Real>(name: &str, engine: &mut dyn AnyEvaluator<R>) {
    let caps = engine.caps();
    assert_eq!(caps.backend, name, "caps name the backend");
    assert_eq!(
        caps.capacity,
        engine.max_batch(),
        "{name}: caps.capacity is the batch contract"
    );
    assert!(
        caps.per_device_capacity <= caps.capacity,
        "{name}: one device cannot absorb more than the whole engine"
    );
    assert!(
        caps.auto_slots() <= caps.capacity,
        "{name}: the auto front must fit one batch"
    );
    assert!(
        caps.auto_slots() >= caps.per_device_capacity.min(caps.capacity),
        "{name}: the auto front fills at least one device"
    );
    match name {
        "cpu-reference" => {
            assert_eq!(caps.devices, 0, "{name}");
            assert!(!caps.batched, "{name}");
            assert_eq!(caps.constant_bytes, 0, "{name}");
        }
        "gpu" => {
            assert_eq!(caps.devices, 1, "{name}");
            assert!(!caps.batched, "{name}");
            assert!(caps.constant_bytes > 0, "{name}");
        }
        "gpu-batch" => {
            assert_eq!(caps.devices, 1, "{name}");
            assert_eq!(caps.capacity, BATCH_CAP, "{name}");
            assert!(caps.batched, "{name}");
        }
        "cluster" => {
            assert_eq!(caps.devices, DEVICES, "{name}");
            // Point sharding: capacity scales with the fleet.
            assert_eq!(caps.capacity, DEVICES * PER_DEVICE, "{name}");
            assert_eq!(caps.per_device_capacity, PER_DEVICE, "{name}");
            assert_eq!(caps.auto_slots(), DEVICES * PER_DEVICE, "{name}");
        }
        "cluster-rows" => {
            assert_eq!(caps.devices, DEVICES, "{name}");
            // Row sharding: every device sees every point, so the
            // capacity — and the auto slot front — stay per-device.
            assert_eq!(caps.capacity, PER_DEVICE, "{name}");
            assert_eq!(caps.per_device_capacity, PER_DEVICE, "{name}");
            assert_eq!(caps.auto_slots(), PER_DEVICE, "{name}");
        }
        other => panic!("unknown backend case {other}"),
    }
}

/// Run the whole contract suite over every backend in precision `R`,
/// checking cross-backend bit-identity along the way.
fn run_suite<R: Real>() {
    let sys = test_system::<R>();
    let points = test_points::<R>(POINTS);
    let mut reference: Option<Vec<SystemEval<R>>> = None;
    for (name, backend) in backend_cases() {
        let mut engine = build::<R>(&backend, &sys);
        let got = engine.try_evaluate_batch(&points).unwrap();
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                for (i, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(g.values, w.values, "{name} vs cpu, point {i}");
                    assert_eq!(
                        g.jacobian.as_slice(),
                        w.jacobian.as_slice(),
                        "{name} vs cpu, point {i}"
                    );
                }
            }
        }
        contract_single_batch_identity(name, engine.as_mut());
        contract_typed_errors(name, engine.as_mut());
        contract_stats(name, engine.as_mut());
        contract_caps(name, engine.as_mut());
    }
}

#[test]
fn all_backends_honor_the_contract_in_double() {
    run_suite::<f64>();
}

#[test]
fn all_backends_honor_the_contract_in_double_double() {
    run_suite::<Dd>();
}

/// The sparse conformance system: ragged supports — every monomial its
/// own variable count, constants included — which the paper's Direct
/// layout cannot express at any degree bound.
fn sparse_test_system<R: Real>() -> polygpu::polysys::System<R> {
    random_sparse_system::<R>(&SparseBenchmarkParams {
        n: 8,
        m_min: 2,
        m_max: 5,
        k_min: 0,
        k_max: 4,
        d: 3,
        seed: 29,
    })
}

/// Sparse contract: the ragged system rejects **typed** under the
/// Direct encoding on every device backend, builds everywhere under
/// [`EncodingKind::Packed`], and then honors the same single↔batch,
/// cross-backend bit-identity, typed-error, stats and caps contracts
/// as the uniform suite — in the same precision `R`.
fn run_sparse_suite<R: Real>() {
    let sys = sparse_test_system::<R>();
    let points = test_points::<R>(POINTS);
    let mut reference: Option<Vec<SystemEval<R>>> = None;
    for (name, backend) in backend_cases() {
        let direct = Engine::builder()
            .backend(backend.clone())
            .per_device_capacity(PER_DEVICE)
            .build(&sys);
        if name == "cpu-reference" {
            assert!(direct.is_ok(), "{name}: the reference runs any shape");
        } else {
            let err = match direct {
                Err(e) => e,
                Ok(_) => panic!("{name}: ragged supports must not encode Direct"),
            };
            assert!(err.to_string().contains("expected k"), "{name}: {err}");
        }
        let mut engine = Engine::builder()
            .backend(backend.clone())
            .per_device_capacity(PER_DEVICE)
            .encoding(EncodingKind::Packed)
            .build(&sys)
            .unwrap_or_else(|e| panic!("{name}: packed build must pass: {e}"));
        let got = engine.try_evaluate_batch(&points).unwrap();
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                for (i, (g, w)) in got.iter().zip(want).enumerate() {
                    assert_eq!(g.values, w.values, "sparse {name} vs cpu, point {i}");
                    assert_eq!(
                        g.jacobian.as_slice(),
                        w.jacobian.as_slice(),
                        "sparse {name} vs cpu, point {i}"
                    );
                }
            }
        }
        contract_single_batch_identity(name, engine.as_mut());
        contract_typed_errors(name, engine.as_mut());
        contract_stats(name, engine.as_mut());
        contract_caps(name, engine.as_mut());
    }
}

#[test]
fn sparse_packed_backends_honor_the_contract_in_double() {
    run_sparse_suite::<f64>();
}

#[test]
fn sparse_packed_backends_honor_the_contract_in_double_double() {
    run_sparse_suite::<Dd>();
}

/// Chaos contract over the sparse path: fault injection on packed
/// engines either recovers bit-identically to the fault-free run or
/// surfaces typed — same rules as the uniform sweep.
#[test]
fn sparse_packed_backends_survive_fault_injection() {
    let sys = sparse_test_system::<f64>();
    let points = test_points::<f64>(POINTS);
    let clean = Engine::builder()
        .backend(Backend::CpuReference)
        .build(&sys)
        .unwrap()
        .try_evaluate_batch(&points)
        .unwrap();

    let mut injected_total = 0u64;
    for (name, backend) in backend_cases() {
        for seed in 0..6u64 {
            let mut engine = Engine::builder()
                .backend(backend.clone())
                .per_device_capacity(PER_DEVICE)
                .encoding(EncodingKind::Packed)
                .fault_plan(FaultPlan::new(seed, 30_000))
                .recovery(RecoveryPolicy::default())
                .build(&sys)
                .expect("arming fault injection must not break the packed build");
            let mut recovered = None;
            for _ in 0..4 {
                match engine.try_evaluate_batch(&points) {
                    Ok(evals) => {
                        recovered = Some(evals);
                        break;
                    }
                    Err(BatchError::Fault(e)) => {
                        if e.kind == FaultKind::DeviceLost {
                            break;
                        }
                    }
                    Err(BatchError::DegradedFleet { .. }) => break,
                    Err(e) => panic!("sparse {name} seed {seed}: non-fault error {e}"),
                }
            }
            if let Some(evals) = recovered {
                for (i, (g, w)) in evals.iter().zip(&clean).enumerate() {
                    assert_eq!(
                        g.values, w.values,
                        "sparse {name} seed {seed} point {i}: recovery must be bit-identical"
                    );
                    assert_eq!(
                        g.jacobian.as_slice(),
                        w.jacobian.as_slice(),
                        "sparse {name} seed {seed} point {i}: recovery must be bit-identical"
                    );
                }
            }
            injected_total += engine.engine_stats().fault.faults;
        }
    }
    assert!(
        injected_total > 0,
        "the sparse chaos sweep never injected a fault — the contract went untested"
    );
}

/// Chaos contract: with a seeded fault plan armed, every backend
/// either recovers (internally for cluster fleets, via caller-level
/// round retries for single devices) — in which case its results are
/// **bit-identical** to the fault-free run — or surfaces a typed
/// `Fault`/`DegradedFleet` error. No backend panics, and none returns
/// silently wrong values. The sweep must observe real injections, or
/// the contract went untested.
#[test]
fn all_backends_survive_fault_injection() {
    let sys = test_system::<f64>();
    let points = test_points::<f64>(POINTS);
    let clean = build::<f64>(&Backend::CpuReference, &sys)
        .try_evaluate_batch(&points)
        .unwrap();

    let mut injected_total = 0u64;
    for (name, backend) in backend_cases() {
        for seed in 0..6u64 {
            let mut engine = Engine::builder()
                .backend(backend.clone())
                .per_device_capacity(PER_DEVICE)
                .fault_plan(FaultPlan::new(seed, 30_000))
                .recovery(RecoveryPolicy::default())
                .build(&sys)
                .expect("arming fault injection must not break provisioning");
            // Caller-level round retry, exactly what the schedulers do:
            // a faulted batch is re-issued; sticky device loss and
            // degraded fleets end the attempt with their typed error.
            let mut recovered = None;
            for _ in 0..4 {
                match engine.try_evaluate_batch(&points) {
                    Ok(evals) => {
                        recovered = Some(evals);
                        break;
                    }
                    Err(BatchError::Fault(e)) => {
                        if e.kind == FaultKind::DeviceLost {
                            break;
                        }
                    }
                    Err(BatchError::DegradedFleet { .. }) => break,
                    Err(e) => panic!("{name} seed {seed}: non-fault error {e}"),
                }
            }
            if let Some(evals) = recovered {
                for (i, (g, w)) in evals.iter().zip(&clean).enumerate() {
                    assert_eq!(
                        g.values, w.values,
                        "{name} seed {seed} point {i}: recovery must be bit-identical"
                    );
                    assert_eq!(
                        g.jacobian.as_slice(),
                        w.jacobian.as_slice(),
                        "{name} seed {seed} point {i}: recovery must be bit-identical"
                    );
                }
            }
            injected_total += engine.engine_stats().fault.faults;
        }
    }
    assert!(
        injected_total > 0,
        "the chaos sweep never injected a fault — the contract went untested"
    );
}

/// Tracing contract: installing a tracer — no-op or collecting — on
/// any backend changes *nothing* about the computation: values,
/// Jacobians, and every modeled stat stay bit-identical to the
/// untraced engine. Observation is free by construction, because spans
/// only read the modeled clocks the stats already advance.
#[test]
fn tracing_never_perturbs_any_backend() {
    use std::sync::Arc;

    let sys = test_system::<f64>();
    let points = test_points::<f64>(POINTS);
    for (name, backend) in backend_cases() {
        let mut plain = build::<f64>(&backend, &sys);
        let want = plain.try_evaluate_batch(&points).unwrap();
        let want_stats = plain.engine_stats();

        let collector = Arc::new(CollectingTracer::new());
        let tracers: [(&str, Arc<dyn Tracer>); 2] = [
            ("noop", Arc::new(NoopTracer)),
            ("collecting", collector.clone()),
        ];
        for (mode, tracer) in tracers {
            let mut traced = Engine::builder()
                .backend(backend.clone())
                .per_device_capacity(PER_DEVICE)
                .tracer(tracer)
                .build(&sys)
                .expect("tracing must not break provisioning");
            let got = traced.try_evaluate_batch(&points).unwrap();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.values, w.values, "{name}/{mode}, point {i}");
                assert_eq!(
                    g.jacobian.as_slice(),
                    w.jacobian.as_slice(),
                    "{name}/{mode}, point {i}"
                );
            }
            let stats = traced.engine_stats();
            assert_eq!(stats.evaluations, want_stats.evaluations, "{name}/{mode}");
            assert_eq!(stats.batches, want_stats.batches, "{name}/{mode}");
            assert_eq!(
                stats.wall_seconds, want_stats.wall_seconds,
                "{name}/{mode}: the modeled wall clock must not move"
            );
            assert_eq!(
                stats.kernel_seconds, want_stats.kernel_seconds,
                "{name}/{mode}"
            );
        }
        // The device-modeled backends actually narrate their work; the
        // CPU reference has no modeled timeline and stays silent.
        if name == "cpu-reference" {
            assert!(collector.is_empty(), "{name}: nothing to trace");
        } else {
            assert!(!collector.is_empty(), "{name}: spans must be recorded");
        }
    }
}

/// The host corrector loop — `drive_correct` over
/// `try_evaluate_batch`, exactly the `AnyEvaluator` trait default —
/// replicated here so fused overrides can be compared against it on
/// the *same* backend.
struct HostLoop<'a, R: Real>(&'a mut dyn AnyEvaluator<R>);

impl<R: Real> CorrectOps<R> for HostLoop<'_, R> {
    fn eval(
        &mut self,
        points: &[Vec<Complex<R>>],
        _indices: &[usize],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        self.0.try_evaluate_batch(points)
    }
}

fn correct_params() -> CorrectParams {
    CorrectParams {
        max_iters: 6,
        ..Default::default()
    }
}

/// Corrector contract: `try_correct_batch` on every backend — fused
/// device-resident overrides and host defaults alike — produces
/// endpoints, statuses, and full residual histories **bit-identical**
/// to the CPU reference's host loop, in precision `R`: on the uniform
/// system under the default keys, and on the ragged one under packed
/// keys.
fn run_correct_suite<R: Real>() {
    let points = test_points::<R>(POINTS);
    let params = correct_params();
    for (keys, sys, encoding) in [
        ("uniform", test_system::<R>(), EncodingKind::Direct),
        ("ragged", sparse_test_system::<R>(), EncodingKind::Packed),
    ] {
        let engine_for = |backend: &Backend| {
            Engine::builder()
                .backend(backend.clone())
                .per_device_capacity(PER_DEVICE)
                .encoding(encoding)
                .build(&sys)
                .unwrap_or_else(|e| panic!("{keys}: conformance system must build: {e}"))
        };
        let mut want_pts = points.clone();
        let want_st = engine_for(&Backend::CpuReference)
            .try_correct_batch(&mut want_pts, &mut IdentityCombine, &params)
            .unwrap();
        for (name, backend) in backend_cases() {
            let mut engine = engine_for(&backend);
            let mut got_pts = points.clone();
            let got_st = engine
                .try_correct_batch(&mut got_pts, &mut IdentityCombine, &params)
                .unwrap();
            for i in 0..POINTS {
                assert_eq!(
                    got_pts[i], want_pts[i],
                    "{keys} {name} point {i}: corrected endpoint must be bit-identical to the host loop"
                );
                assert_eq!(
                    got_st[i], want_st[i],
                    "{keys} {name} point {i}: status and residual history must match"
                );
            }
            // Only the fused overrides charge the corrector counters;
            // the host-default backends pay through their evaluate
            // round trips.
            let stats = engine.engine_stats();
            if matches!(name, "gpu-batch" | "cluster") {
                assert_eq!(
                    stats.corrections, POINTS as u64,
                    "{keys} {name}: corrections counted"
                );
                assert!(
                    stats.corrector_iterations > 0,
                    "{keys} {name}: iterations counted"
                );
            } else {
                assert_eq!(
                    stats.corrections, 0,
                    "{keys} {name}: the host corrector charges no fused corrections"
                );
            }
        }
    }
}

#[test]
fn all_backends_correct_bit_identically_in_double() {
    run_correct_suite::<f64>();
}

#[test]
fn all_backends_correct_bit_identically_in_double_double() {
    run_correct_suite::<Dd>();
}

/// Runs `homotopy::correct_resident` on `f` at mixed `t` from the
/// start system's roots and checks the hand-back contract: every
/// converged point comes back with `H`'s evaluation at its returned
/// point and `t` — values, Jacobian and `∂H/∂t` bit for bit what
/// `BatchHomotopy::try_eval_batch_at_each` returns there on the CPU
/// reference — and no other point does. Also checks that `f` counted
/// one evaluation per residual. Returns how many points converged.
fn assert_hands_back<R: Real>(name: &str, f: &mut dyn AnyEvaluator<R>) -> usize {
    let start = StartSystem::uniform(8, 2);
    let mut points: Vec<Vec<Complex<R>>> = (0..POINTS as u128)
        .map(|i| start.solution_by_index(i))
        .collect();
    let ts: Vec<R> = [0.0, 1e-3, 4e-3, 1e-2].map(R::from_f64).to_vec();
    f.reset_engine_stats();
    let mut h = BatchHomotopy::with_random_gamma(start.clone(), &mut *f, 7);
    let corrected = correct_resident(
        &mut h,
        &mut points,
        &ts,
        &NewtonParams::default(),
        &mut 0,
        &RecoveryPolicy::default(),
        &mut FaultReport::default(),
    )
    .unwrap_or_else(|e| panic!("{name}: the correction must succeed: {e}"));
    let evaluations: usize = corrected.iter().map(|(s, _)| s.residuals.len()).sum();
    assert_eq!(
        h.f.engine_stats().evaluations,
        evaluations as u64,
        "{name}: one evaluation per residual"
    );

    let cpu = build::<R>(&Backend::CpuReference, &test_system::<R>());
    let mut reference = BatchHomotopy::with_random_gamma(start, cpu, 7);
    let mut converged = 0;
    for (i, (status, held)) in corrected.into_iter().enumerate() {
        if !status.converged {
            assert!(
                held.is_none(),
                "{name} point {i}: only converged points hand back"
            );
            continue;
        }
        converged += 1;
        let (got, got_dt) =
            held.unwrap_or_else(|| panic!("{name} point {i}: a converged point hands back"));
        let (want, want_dt) = reference
            .try_eval_batch_at_each(&points[i..=i], &ts[i..=i])
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(got.values, want.values, "{name} point {i}: values");
        assert_eq!(
            got.jacobian.as_slice(),
            want.jacobian.as_slice(),
            "{name} point {i}: Jacobian"
        );
        assert_eq!(got_dt, want_dt, "{name} point {i}: dH/dt");
    }
    converged
}

/// Hand-back contract of the fused corrector on every backend, and on
/// a point fleet that fails over from a lost device or falls back on
/// the CPU reference.
fn run_hand_back_suite<R: Real>() {
    let sys = test_system::<R>();
    for (name, backend) in backend_cases() {
        let converged = assert_hands_back(name, build::<R>(&backend, &sys).as_mut());
        assert!(converged > 1, "{name}: {converged} points converged");
    }
    // The point fleet again. Under the first schedule a device is lost
    // mid-call and the survivors correct the points it stranded; under
    // the second every operation faults, no device survives, and the
    // CPU reference corrects every point.
    for (name, rate, survivors) in [
        ("cluster-device-lost", 100_000, true),
        ("cluster-cpu-fallback", 1_000_000, false),
    ] {
        let mut opts = ClusterOptions {
            recovery: RecoveryPolicy {
                cpu_fallback: true,
                ..RecoveryPolicy::default()
            },
            ..Default::default()
        };
        opts.base.fault = Some(FaultConfig {
            plan: FaultPlan::new(19, rate),
            device_index: 0,
        });
        let specs = vec![DeviceSpec::tesla_c2050(); DEVICES];
        let mut fleet = ShardedBatchEvaluator::new(&sys, &specs, PER_DEVICE, opts).unwrap();
        let converged = assert_hands_back(name, &mut fleet);
        assert!(converged > 1, "{name}: {converged} points converged");
        let stats = fleet.cluster_stats();
        let on_devices: u64 = stats.device_evals.iter().sum();
        if survivors {
            assert!(stats.devices_lost > 0, "{name}: {stats:?}");
            assert_eq!(on_devices, stats.evaluations, "{name}: {stats:?}");
        } else {
            assert_eq!(on_devices, 0, "{name}: {stats:?}");
        }
    }
}

#[test]
fn fused_corrector_hands_back_converged_evaluations_in_double() {
    run_hand_back_suite::<f64>();
}

#[test]
fn fused_corrector_hands_back_converged_evaluations_in_double_double() {
    run_hand_back_suite::<Dd>();
}

/// Transfer contract: on the batched device backends the fused
/// corrector's device→host traffic is strictly below the host loop's
/// (which downloads every value and Jacobian every iteration) — the
/// per-iteration residual download shrinks to the `O(P)` flag vector —
/// while the endpoints stay bit-identical.
#[test]
fn fused_corrector_downloads_less_than_the_host_loop() {
    let sys = test_system::<f64>();
    let points = test_points::<f64>(POINTS);
    let params = correct_params();
    for (name, backend) in backend_cases() {
        if !matches!(name, "gpu-batch" | "cluster") {
            continue; // no fused override: the host loop *is* the path
        }
        let mut host = build::<f64>(&backend, &sys);
        host.reset_engine_stats();
        let mut host_pts = points.clone();
        let host_st = drive_correct(
            &mut HostLoop(host.as_mut()),
            &mut IdentityCombine,
            &mut host_pts,
            &params,
        )
        .unwrap();
        let host_stats = host.engine_stats();

        let mut fused = build::<f64>(&backend, &sys);
        fused.reset_engine_stats();
        let mut fused_pts = points.clone();
        let fused_st = fused
            .try_correct_batch(&mut fused_pts, &mut IdentityCombine, &params)
            .unwrap();
        let fused_stats = fused.engine_stats();

        assert_eq!(fused_pts, host_pts, "{name}: endpoints bit-identical");
        assert_eq!(fused_st, host_st, "{name}: statuses bit-identical");
        assert!(
            fused_stats.d2h_bytes < host_stats.d2h_bytes,
            "{name}: fused D2H {} must undercut the host loop's {}",
            fused_stats.d2h_bytes,
            host_stats.d2h_bytes
        );
        assert!(
            fused_stats.factor_seconds > 0.0 && fused_stats.backsub_seconds > 0.0,
            "{name}: on-device factorization must be charged"
        );
        assert_eq!(
            host_stats.factor_seconds, 0.0,
            "{name}: the host loop factors on the host"
        );
    }
}

/// The host replay of a correction on the CPU reference, logging the
/// charges the shared driver reports: evaluation rounds and the live
/// count of every factor-and-solve round.
struct ChargeLog<'a, R: Real> {
    engine: &'a mut dyn AnyEvaluator<R>,
    rounds: u64,
    factor_counts: Vec<usize>,
}

impl<R: Real> CorrectOps<R> for ChargeLog<'_, R> {
    fn eval(
        &mut self,
        points: &[Vec<Complex<R>>],
        _indices: &[usize],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        self.rounds += 1;
        self.engine.try_evaluate_batch(points)
    }

    fn charge(&mut self, ev: CorrectCharge) -> Result<(), BatchError> {
        if let CorrectCharge::FactorSolve { count } = ev {
            self.factor_counts.push(count);
        }
        Ok(())
    }
}

/// Launch-budget contract of the fused corrector, on the batch engine
/// with a uniform system on Direct keys and a ragged one on packed keys: a
/// `try_correct_batch` pays exactly two evaluation launches per round
/// plus **one** factor-and-solve launch per round that factors. The
/// engine's launch count is read off its modeled overhead and
/// reconciled against the driver's charge log replayed host-side; the
/// `factor` and `backsub` phases sum to the fused launches' kernel time.
#[test]
fn fused_corrector_pays_one_factor_solve_launch_per_iteration() {
    use polygpu::gpusim::linalg::factor_solve_cost;

    let device = DeviceSpec::tesla_c2050();
    let params = correct_params();
    let points = test_points::<f64>(POINTS);
    let cases = [
        ("gpu-batch", test_system::<f64>(), EncodingKind::Direct),
        (
            "sparse-batch",
            sparse_test_system::<f64>(),
            EncodingKind::Packed,
        ),
    ];
    for (name, sys, encoding) in cases {
        let mut cpu = build::<f64>(&Backend::CpuReference, &sys);
        let mut log = ChargeLog {
            engine: cpu.as_mut(),
            rounds: 0,
            factor_counts: Vec::new(),
        };
        let mut want_pts = points.clone();
        drive_correct(&mut log, &mut IdentityCombine, &mut want_pts, &params).unwrap();
        assert!(
            !log.factor_counts.is_empty(),
            "{name}: the probe must factor"
        );

        let mut fused = Engine::builder()
            .backend(Backend::GpuBatch {
                capacity: BATCH_CAP,
            })
            .encoding(encoding)
            .build(&sys)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        fused.reset_engine_stats();
        let mut got_pts = points.clone();
        fused
            .try_correct_batch(&mut got_pts, &mut IdentityCombine, &params)
            .unwrap();
        assert_eq!(got_pts, want_pts, "{name}: endpoints bit-identical");
        let stats = fused.engine_stats();

        let launches = stats.overhead_seconds / device.launch_overhead;
        let want = 2 * log.rounds + log.factor_counts.len() as u64;
        assert!(
            (launches - launches.round()).abs() < 1e-6,
            "{name}: {launches} launches"
        );
        assert_eq!(
            launches.round() as u64,
            want,
            "{name}: {} rounds, {} of them factoring",
            log.rounds,
            log.factor_counts.len()
        );

        let fused_kernel: f64 = log
            .factor_counts
            .iter()
            .map(|&count| {
                factor_solve_cost(&device, sys.dim(), count, 16)
                    .unwrap()
                    .launch
                    .timing
                    .kernel_seconds
            })
            .sum();
        let phases = stats.factor_seconds + stats.backsub_seconds;
        assert!(
            (phases - fused_kernel).abs() <= 1e-9 * fused_kernel,
            "{name}: factor + backsub {phases:e} vs fused kernels {fused_kernel:e}"
        );
        assert!(stats.factor_seconds > 0.0 && stats.backsub_seconds > 0.0);
    }
}

/// A system whose pivot panel does not fit one SM's shared memory
/// cannot take the fused corrector: `try_correct_batch` surfaces
/// `BatchError::Launch(SharedOverflow)` typed, never panics, and leaves
/// the caller's points untouched. The multilinear (`d = 1`) systems of
/// single-variable monomials below stage `n + 32·2` elements per
/// evaluation block, fewer than the panel's `2n` once `n > 64`, so an
/// SM shrunk to 140 complex doubles evaluates them but cannot factor
/// them.
#[test]
fn fused_corrector_rejects_an_oversized_pivot_panel_typed() {
    use polygpu::gpusim::prelude::LaunchError;

    const N: usize = 72;
    const SHARED: usize = 140 * 16;
    let device = DeviceSpec {
        shared_mem_per_sm: SHARED,
        ..DeviceSpec::tesla_c2050()
    };
    let dense = random_system::<f64>(&BenchmarkParams {
        n: N,
        m: 2,
        k: 1,
        d: 1,
        seed: 3,
    });
    let sparse = random_sparse_system::<f64>(&SparseBenchmarkParams {
        n: N,
        m_min: 1,
        m_max: 2,
        k_min: 1,
        k_max: 1,
        d: 1,
        seed: 3,
    });
    let points = random_points::<f64>(N, 2, 5);
    for (name, sys, encoding) in [
        ("gpu-batch", dense, EncodingKind::Direct),
        ("sparse-batch", sparse, EncodingKind::Packed),
    ] {
        let mut engine = Engine::builder()
            .backend(Backend::GpuBatch { capacity: 2 })
            .device(device.clone())
            .encoding(encoding)
            .build(&sys)
            .unwrap_or_else(|e| panic!("{name}: evaluation must fit the shrunken SM: {e}"));
        engine.try_evaluate_batch(&points).unwrap();
        let mut pts = points.clone();
        let err = engine
            .try_correct_batch(&mut pts, &mut IdentityCombine, &correct_params())
            .unwrap_err();
        assert_eq!(
            err,
            BatchError::Launch(LaunchError::SharedOverflow {
                needed: 2 * N * 16,
                capacity: SHARED,
            }),
            "{name}"
        );
        assert_eq!(pts, points, "{name}: the caller's points are untouched");
    }
}

/// Chaos contract for the fused corrector: with a seeded fault plan
/// armed, every backend's `try_correct_batch` either recovers — with
/// endpoints and statuses **bit-identical** to the fault-free run — or
/// surfaces a typed `Fault`/`DegradedFleet` error. Each retry starts
/// from a fresh copy of the inputs, exactly as the trait documents.
#[test]
fn fused_corrector_survives_fault_injection() {
    let sys = test_system::<f64>();
    let points = test_points::<f64>(POINTS);
    let params = correct_params();
    let mut clean_pts = points.clone();
    let clean_st = build::<f64>(&Backend::CpuReference, &sys)
        .try_correct_batch(&mut clean_pts, &mut IdentityCombine, &params)
        .unwrap();

    let mut injected_total = 0u64;
    for (name, backend) in backend_cases() {
        for seed in 0..6u64 {
            let mut engine = Engine::builder()
                .backend(backend.clone())
                .per_device_capacity(PER_DEVICE)
                .fault_plan(FaultPlan::new(seed, 30_000))
                .recovery(RecoveryPolicy::default())
                .build(&sys)
                .expect("arming fault injection must not break provisioning");
            let mut recovered = None;
            for _ in 0..4 {
                let mut pts = points.clone();
                match engine.try_correct_batch(&mut pts, &mut IdentityCombine, &params) {
                    Ok(st) => {
                        recovered = Some((pts, st));
                        break;
                    }
                    Err(BatchError::Fault(e)) => {
                        if e.kind == FaultKind::DeviceLost {
                            break;
                        }
                    }
                    Err(BatchError::DegradedFleet { .. }) => break,
                    Err(e) => panic!("{name} seed {seed}: non-fault error {e}"),
                }
            }
            if let Some((pts, st)) = recovered {
                for i in 0..POINTS {
                    assert_eq!(
                        pts[i], clean_pts[i],
                        "{name} seed {seed} point {i}: recovery must be bit-identical"
                    );
                    assert_eq!(
                        st[i], clean_st[i],
                        "{name} seed {seed} point {i}: statuses must survive recovery"
                    );
                }
            }
            injected_total += engine.engine_stats().fault.faults;
        }
    }
    assert!(
        injected_total > 0,
        "the corrector chaos sweep never injected a fault — the contract went untested"
    );
}

/// Tracing contract for the fused corrector: a no-op or collecting
/// tracer changes nothing — endpoints, statuses, and every modeled
/// stat stay bit-identical to the untraced engine.
#[test]
fn tracing_never_perturbs_the_fused_corrector() {
    use std::sync::Arc;

    let sys = test_system::<f64>();
    let points = test_points::<f64>(POINTS);
    let params = correct_params();
    for (name, backend) in backend_cases() {
        let mut plain = build::<f64>(&backend, &sys);
        let mut want_pts = points.clone();
        let want_st = plain
            .try_correct_batch(&mut want_pts, &mut IdentityCombine, &params)
            .unwrap();
        let want_stats = plain.engine_stats();

        let tracers: [(&str, Arc<dyn Tracer>); 2] = [
            ("noop", Arc::new(NoopTracer)),
            ("collecting", Arc::new(CollectingTracer::new())),
        ];
        for (mode, tracer) in tracers {
            let mut traced = Engine::builder()
                .backend(backend.clone())
                .per_device_capacity(PER_DEVICE)
                .tracer(tracer)
                .build(&sys)
                .expect("tracing must not break provisioning");
            let mut got_pts = points.clone();
            let got_st = traced
                .try_correct_batch(&mut got_pts, &mut IdentityCombine, &params)
                .unwrap();
            assert_eq!(got_pts, want_pts, "{name}/{mode}: endpoints");
            assert_eq!(got_st, want_st, "{name}/{mode}: statuses");
            let stats = traced.engine_stats();
            assert_eq!(
                stats.wall_seconds, want_stats.wall_seconds,
                "{name}/{mode}: the modeled wall clock must not move"
            );
            assert_eq!(stats.d2h_bytes, want_stats.d2h_bytes, "{name}/{mode}");
            assert_eq!(
                stats.corrector_iterations, want_stats.corrector_iterations,
                "{name}/{mode}"
            );
        }
    }
}

/// The device-modeled backends report modeled cost; the CPU reference
/// reports zeroes for the device terms — both through the same trait.
#[test]
fn modeled_cost_reporting_is_uniform() {
    let sys = test_system::<f64>();
    let points = test_points::<f64>(POINTS);
    for (name, backend) in backend_cases() {
        let mut engine = build::<f64>(&backend, &sys);
        engine.reset_engine_stats();
        let _ = engine.try_evaluate_batch(&points).unwrap();
        let stats = engine.engine_stats();
        if name == "cpu-reference" {
            assert_eq!(stats.kernel_seconds, 0.0, "{name}");
            assert_eq!(stats.wall_clock_seconds(), 0.0, "{name}");
        } else {
            assert!(stats.kernel_seconds > 0.0, "{name}");
            assert!(stats.wall_clock_seconds() > 0.0, "{name}");
            assert!(stats.throughput_evals_per_sec() > 0.0, "{name}");
        }
    }
}

/// One evaluation, two launches: every engine that launches the
/// evaluation kernels pays exactly two launch overheads per round —
/// the monomial kernel (the paper's kernels 1 and 2, fused) and the
/// sum kernel. The single-point `Gpu` backend runs one round per point,
/// the batch engines one per batch; checked at P = 1 and P = capacity
/// under Direct, Compact and Packed keys.
fn run_eval_launch_budget<R: Real>() {
    let device = DeviceSpec::tesla_c2050();
    let batch = Backend::GpuBatch {
        capacity: BATCH_CAP,
    };
    let cases = [
        (
            "gpu",
            Backend::Gpu,
            EncodingKind::Direct,
            test_system::<R>(),
        ),
        (
            "gpu packed",
            Backend::Gpu,
            EncodingKind::Packed,
            sparse_test_system::<R>(),
        ),
        (
            "gpu-batch direct",
            batch.clone(),
            EncodingKind::Direct,
            test_system::<R>(),
        ),
        (
            "gpu-batch compact",
            batch.clone(),
            EncodingKind::Compact,
            test_system::<R>(),
        ),
        (
            "sparse-batch",
            batch,
            EncodingKind::Packed,
            sparse_test_system::<R>(),
        ),
    ];
    for (name, backend, encoding, sys) in cases {
        let mut engine = Engine::builder()
            .backend(backend.clone())
            .encoding(encoding)
            .build(&sys)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for p in [1, BATCH_CAP] {
            engine.reset_engine_stats();
            engine.try_evaluate_batch(&test_points::<R>(p)).unwrap();
            let stats = engine.engine_stats();
            let rounds = if backend == Backend::Gpu { p } else { 1 };
            assert_eq!(stats.batches, rounds as u64, "{name}, P = {p}");
            let launches = stats.overhead_seconds / device.launch_overhead;
            assert!(
                (launches - (2 * rounds) as f64).abs() < 1e-9,
                "{name}, P = {p}: {launches} launches for {rounds} rounds"
            );
        }
    }
}

#[test]
fn each_evaluation_pays_two_launches_in_double() {
    run_eval_launch_budget::<f64>();
}

#[test]
fn each_evaluation_pays_two_launches_in_double_double() {
    run_eval_launch_budget::<Dd>();
}

/// Fusing kernels 1 and 2 keeps the reach of the two separate
/// kernels: the fused block reuses the power table's rows for the
/// Speelpenning scratch, so it needs the larger of the two blocks —
/// `d·n` table elements or `n + 32·(k + 1)` staged variables and
/// scratch — never their sum. On a C2050 whose shared memory is exactly
/// that many complex doubles a system builds on every evaluation
/// engine; one element less and it fails typed at setup.
#[test]
fn fused_block_fits_exactly_where_the_larger_separate_block_fits() {
    use polygpu::gpusim::prelude::LaunchError;

    let scratch_bound = test_system::<f64>();
    let table_bound = random_system::<f64>(&BenchmarkParams {
        n: 32,
        m: 4,
        k: 2,
        d: 8,
        seed: 11,
    });
    for (sys, want) in [(scratch_bound, 8 + 32 * 3), (table_bound, 8 * 32)] {
        let shape = sys.uniform_shape().unwrap();
        let kernel1 = shape.d as usize * shape.n;
        let kernel2 = shape.n + 32 * (shape.k + 1);
        assert_eq!(kernel1.max(kernel2), want, "{shape:?}");
        for (name, backend, encoding) in [
            ("gpu", Backend::Gpu, EncodingKind::Direct),
            (
                "gpu-batch",
                Backend::GpuBatch { capacity: 4 },
                EncodingKind::Direct,
            ),
            (
                "sparse-batch",
                Backend::GpuBatch { capacity: 4 },
                EncodingKind::Packed,
            ),
        ] {
            let on = |elems: usize| {
                Engine::builder()
                    .backend(backend.clone())
                    .encoding(encoding)
                    .device(DeviceSpec {
                        shared_mem_per_sm: elems * 16,
                        ..DeviceSpec::tesla_c2050()
                    })
                    .build(&sys)
            };
            assert!(on(want).is_ok(), "{name}: {want} elements must fit");
            match on(want - 1) {
                Err(BuildError::Setup(SetupError::Launch(LaunchError::SharedOverflow {
                    needed,
                    capacity,
                }))) => {
                    assert_eq!(needed, want * 16, "{name}");
                    assert_eq!(capacity, (want - 1) * 16, "{name}");
                }
                Err(e) => panic!("{name}: expected SharedOverflow, got {e}"),
                Ok(_) => panic!("{name}: {} elements must not fit", want - 1),
            }
        }
    }
}
