//! Service-level integration tests: typed admission, cache
//! amortization, chaos degradation, and the determinism contract —
//! admission and fair-queue decisions are pure functions of the
//! arrival order, the engine caps and the tenant budgets, fault
//! injection included.

use polygpu_complex::C64;
use polygpu_core::engine::{Backend, Engine, SystemShardPolicy};
use polygpu_core::pipeline::GpuOptions;
use polygpu_core::{BatchGpuEvaluator, ClusterPolicy, EncodingKind, FaultPlan, ShardMode};
use polygpu_gpusim::device::DeviceSpec;
use polygpu_homotopy::solve::{SolveRequest, StartSelection};
use polygpu_obs::{CollectingTracer, Span};
use polygpu_polysys::{
    random_sparse_system, random_system, BenchmarkParams, Monomial, Polynomial,
    SparseBenchmarkParams, System, Term,
};
use polygpu_serve::{cache_key, Priority, ServeError, SolveService, TenantSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn sys(seed: u64) -> System<f64> {
    random_system::<f64>(&BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed,
    })
}

/// A small request: 4 paths of a random uniform target.
fn request(seed: u64) -> SolveRequest {
    SolveRequest::new(sys(seed)).with_starts(StartSelection::FirstN(4))
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Submit a derived sequence of `n` jobs (tenant, priority and target
/// are pure functions of `seed`) and serve them. Returns the decision
/// strings, the rendered report and the span export — the three
/// artifacts the determinism contract covers.
fn run_once(seed: u64, n: usize, chaos: bool) -> (Vec<String>, String, Vec<Span>) {
    let mut builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
    if chaos {
        builder = builder.fault_plan(FaultPlan::new(seed, 30_000));
    }
    let tracer = Arc::new(CollectingTracer::new());
    let mut svc = SolveService::new(&builder)
        .unwrap()
        .with_tracer(tracer.clone());
    let tenants = [
        svc.register(TenantSpec::new("alpha").with_weight(1)),
        svc.register(TenantSpec::new("beta").with_weight(2)),
        svc.register(
            TenantSpec::new("gamma")
                .with_weight(3)
                .with_max_in_flight(2),
        ),
    ];
    let mut decisions = Vec::new();
    for i in 0..n {
        let r = splitmix(seed.wrapping_mul(31).wrapping_add(i as u64));
        let tenant = tenants[(r % 3) as usize];
        let priority = match (r >> 8) % 3 {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        let target_seed = (r >> 16) % 3;
        let got = svc.submit(tenant, priority, request(target_seed));
        decisions.push(match got {
            Ok(id) => format!("admit:{}", id.index()),
            Err(e) => format!("reject:{e}"),
        });
    }
    let report = svc.run();
    (decisions, report.render(), tracer.spans())
}

#[test]
fn identical_runs_are_byte_identical() {
    let (d1, r1, s1) = run_once(7, 6, false);
    let (d2, r2, s2) = run_once(7, 6, false);
    assert_eq!(d1, d2, "admission decisions diverged");
    assert_eq!(r1, r2, "rendered reports diverged");
    assert_eq!(s1, s2, "span exports diverged");
    assert!(!s1.is_empty(), "the tracer saw serve spans");
    assert!(r1.contains("solve service report"), "{r1}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The determinism contract, swept: admission decisions, service
    /// order, rendered report and span export are pure functions of
    /// (arrival order, caps, budgets) — with and without an injected
    /// fault plan.
    #[test]
    fn service_is_a_pure_function_of_arrivals(seed in 0u64..1000, n in 1usize..7, chaos in 0u32..2) {
        let chaos = chaos == 1;
        let (d1, r1, s1) = run_once(seed, n, chaos);
        let (d2, r2, s2) = run_once(seed, n, chaos);
        prop_assert_eq!(d1, d2, "decisions diverged (seed {}, chaos {})", seed, chaos);
        prop_assert_eq!(r1, r2, "reports diverged (seed {}, chaos {})", seed, chaos);
        prop_assert_eq!(s1.len(), s2.len(), "span counts diverged");
        prop_assert!(s1 == s2, "span exports diverged (seed {}, chaos {})", seed, chaos);
    }
}

#[test]
fn repeat_targets_amortize_through_the_cache() {
    let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
    let mut svc = SolveService::new(&builder).unwrap();
    let t = svc.register(TenantSpec::new("acme").with_max_in_flight(8));
    // Two targets, alternating: the second round of each is a cache
    // hit that pays at most a command-queue switch instead of the
    // full encode + upload + validation-probe setup.
    for _ in 0..2 {
        svc.submit(t, Priority::Normal, request(1)).unwrap();
        svc.submit(t, Priority::Normal, request(2)).unwrap();
    }
    let report = svc.run();
    assert_eq!(report.jobs.len(), 4);
    assert_eq!(report.cache.misses, 2);
    assert_eq!(report.cache.hits, 2);
    assert_eq!(report.cache.evictions, 0);
    let miss: Vec<f64> = report
        .jobs
        .iter()
        .filter(|j| !j.cache_hit)
        .map(|j| j.admission_seconds)
        .collect();
    let hit: Vec<f64> = report
        .jobs
        .iter()
        .filter(|j| j.cache_hit)
        .map(|j| j.admission_seconds)
        .collect();
    assert_eq!(miss.len(), 2);
    assert_eq!(hit.len(), 2);
    for (m, h) in miss.iter().zip(&hit) {
        assert!(
            h * 5.0 <= *m,
            "repeat admission must be >= 5x cheaper: miss {m:.3e}, hit {h:.3e}"
        );
    }
}

/// `system` with every real part scaled: same supports, different
/// coefficients — the pair whose support hashes collide by design.
fn rescaled(system: &System<f64>, factor: f64) -> System<f64> {
    let polys = system
        .polys()
        .iter()
        .map(|p| {
            Polynomial::new(
                p.terms()
                    .iter()
                    .map(|t| Term {
                        coeff: C64 {
                            re: t.coeff.re * factor,
                            im: t.coeff.im,
                        },
                        monomial: Monomial::new(t.monomial.factors().to_vec()).unwrap(),
                    })
                    .collect(),
            )
        })
        .collect();
    System::new(system.dim(), polys).unwrap()
}

/// Collision/aliasing regression for the residency-cache key: the key
/// covers the encoding kind (a dense and a packed encoding of the same
/// support are distinct residents) and sparse (ragged) supports, and a
/// designed support-hash collision never serves one system from
/// another's resident engine.
#[test]
fn cache_key_separates_encodings_and_collisions_never_alias() {
    // A dense and a packed encoding of the SAME support must be
    // distinct residents: their constant-memory layouts differ.
    let a = sys(1);
    assert_ne!(
        cache_key(&a, EncodingKind::Direct),
        cache_key(&a, EncodingKind::Packed),
        "dense and packed encodings of one support alias"
    );
    assert_ne!(
        cache_key(&a, EncodingKind::Direct),
        cache_key(&a, EncodingKind::Compact),
    );

    // The key covers ragged (sparse) supports: distinct ragged
    // supports key apart, and the encoding tag still separates them.
    let ragged = |seed| {
        random_sparse_system::<f64>(&SparseBenchmarkParams {
            n: 4,
            m_min: 1,
            m_max: 3,
            k_min: 0,
            k_max: 3,
            d: 3,
            seed,
        })
    };
    let (r5, r6) = (ragged(5), ragged(6));
    assert!(r5.uniform_shape().is_err(), "family must be ragged");
    assert_ne!(
        cache_key(&r5, EncodingKind::Packed),
        cache_key(&r6, EncodingKind::Packed),
    );
    assert_ne!(
        cache_key(&r5, EncodingKind::Direct),
        cache_key(&r5, EncodingKind::Packed),
    );

    // Aliasing through the service: rescaled coefficients collide on
    // the support hash by design, so the second submission must pay
    // its own load — never be served from the first one's residency.
    let b = rescaled(&a, 0.5);
    assert_eq!(a.support_hash(), b.support_hash());
    assert_eq!(
        cache_key(&a, EncodingKind::Direct),
        cache_key(&b, EncodingKind::Direct),
        "the collision under test disappeared"
    );
    let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
    let mut svc = SolveService::new(&builder).unwrap();
    let t = svc.register(TenantSpec::new("acme").with_max_in_flight(8));
    let req = |s: &System<f64>| SolveRequest::new(s.clone()).with_starts(StartSelection::FirstN(2));
    svc.submit(t, Priority::Normal, req(&a)).unwrap();
    svc.submit(t, Priority::Normal, req(&b)).unwrap();
    svc.submit(t, Priority::Normal, req(&a)).unwrap();
    let report = svc.run();
    assert_eq!(report.jobs.len(), 3);
    assert_eq!(
        report.cache.misses, 2,
        "colliding hash aliased: b was served from a's slot"
    );
    assert_eq!(report.cache.hits, 1, "the true repeat of a is a hit");
}

#[test]
fn never_fits_is_typed_and_free() {
    let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
    let mut svc = SolveService::new(&builder).unwrap();
    let t = svc.register(TenantSpec::new("acme"));
    // 8 polys x 520 monomials x 8 vars: the direct encoding wants
    // 2 * 8 * 520 * 8 = 66,560 bytes against the C2050's 64 KiB —
    // the serving-layer face of the paper's constant-memory wall.
    let huge = random_system::<f64>(&BenchmarkParams {
        n: 8,
        m: 520,
        k: 8,
        d: 2,
        seed: 3,
    });
    let err = svc
        .submit(t, Priority::Normal, SolveRequest::new(huge))
        .unwrap_err();
    match err {
        ServeError::NeverFits { needed, budget } => {
            assert!(needed > budget, "needed {needed} vs budget {budget}");
        }
        other => panic!("expected NeverFits, got {other}"),
    }
    // Rejection is free: no queue slot, no residency, no modeled time.
    assert_eq!(svc.queued(), 0);
    assert_eq!(svc.resident_systems(), 0);
    assert_eq!(svc.clock(), 0.0);
    // The service still serves well-sized work afterwards.
    svc.submit(t, Priority::Normal, request(1)).unwrap();
    let report = svc.run();
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.rejected_unservable, 1);
}

#[test]
fn overload_is_typed_backpressure_that_drains() {
    let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
    let mut svc = SolveService::new(&builder).unwrap();
    let t = svc.register(TenantSpec::new("acme").with_max_in_flight(1));
    svc.submit(t, Priority::Normal, request(1)).unwrap();
    let err = svc.submit(t, Priority::Normal, request(2)).unwrap_err();
    match err {
        ServeError::Overloaded {
            in_flight, limit, ..
        } => {
            assert_eq!((in_flight, limit), (1, 1));
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    let report = svc.run();
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.rejected_overloaded, 1);
    // Served jobs return their in-flight slot.
    svc.submit(t, Priority::Normal, request(2)).unwrap();
    assert_eq!(svc.queued(), 1);
}

#[test]
fn bad_requests_are_typed() {
    let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
    let mut svc = SolveService::new(&builder).unwrap();
    let t = svc.register(TenantSpec::new("acme"));
    // Unknown tenant ids are rejected before anything else.
    let ghost = {
        let mut other = SolveService::new(&builder).unwrap();
        other.register(TenantSpec::new("a"));
        other.register(TenantSpec::new("b"))
    };
    assert!(matches!(
        svc.submit(ghost, Priority::Normal, request(1)),
        Err(ServeError::UnknownTenant)
    ));
    // Escalating precision is not served (typed, not downgraded).
    let esc = request(1).with_precision(polygpu_homotopy::solve::PrecisionPolicy::Escalating {
        dd_params: Default::default(),
    });
    assert!(matches!(
        svc.submit(t, Priority::Normal, esc),
        Err(ServeError::UnsupportedPrecision)
    ));
    // Mixed-cell start systems are a solver-side feature: the service
    // replays the start system itself, so the kind rejects typed.
    let polyhedral =
        request(1).with_start_kind(polygpu_homotopy::solve::StartKind::MixedCells { lift_seed: 7 });
    match svc.submit(t, Priority::Normal, polyhedral) {
        Err(ServeError::BadRequest { reason }) => {
            assert!(reason.contains("MixedCells"), "{reason}");
        }
        other => panic!("expected BadRequest, got {other:?}"),
    }
}

#[test]
fn unsupported_backends_reject_at_construction() {
    let cpu = Engine::builder().backend(Backend::CpuReference);
    assert!(matches!(
        SolveService::new(&cpu),
        Err(ServeError::UnsupportedBackend { .. })
    ));
    let points = Engine::builder().backend(Backend::Cluster {
        devices: vec![DeviceSpec::tesla_c2050(); 2],
        shard: ShardMode::Points {
            policy: ClusterPolicy::RoundRobin,
        },
    });
    assert!(matches!(
        SolveService::new(&points),
        Err(ServeError::UnsupportedBackend { .. })
    ));
}

/// Chaos: a row-sharded fleet with heavy fault injection keeps
/// *serving* — jobs fail typed or succeed, the run itself never
/// errors, and the whole thing stays deterministic.
#[test]
fn chaos_degrades_jobs_not_the_service() {
    let serve = |seed: u64| {
        let builder = Engine::builder()
            .backend(Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); 2],
                shard: SystemShardPolicy::Contiguous.into(),
            })
            .per_device_capacity(4)
            .fault_plan(FaultPlan::new(seed, 200_000));
        let mut svc = SolveService::new(&builder).unwrap();
        let t = svc.register(TenantSpec::new("acme").with_max_in_flight(8));
        for target in [1u64, 2, 1] {
            svc.submit(t, Priority::Normal, request(target)).unwrap();
        }
        svc.run()
    };
    for seed in [3u64, 11, 29] {
        let report = serve(seed);
        assert_eq!(report.jobs.len(), 3, "every admitted job is accounted for");
        let again = serve(seed);
        assert_eq!(
            report.render(),
            again.render(),
            "chaos run diverged (seed {seed})"
        );
    }
}

#[test]
fn fault_free_cluster_serve_succeeds() {
    let builder = Engine::builder()
        .backend(Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); 2],
            shard: SystemShardPolicy::Contiguous.into(),
        })
        .per_device_capacity(4);
    let mut svc = SolveService::new(&builder).unwrap();
    let t = svc.register(TenantSpec::new("acme").with_max_in_flight(8));
    for target in [1u64, 2] {
        svc.submit(t, Priority::Normal, request(target)).unwrap();
    }
    let report = svc.run();
    assert_eq!(report.jobs.len(), 2);
    assert_eq!(report.solved(), 2, "{report:?}");
    assert!(!report.degraded);
}

/// Global memory is residency pressure too: on a card that holds two
/// residents' engines, a third target evicts the least recently used
/// one instead of failing, on one device and on a row-sharded fleet.
#[test]
fn global_memory_pressure_evicts_like_constant_pressure() {
    let capacity = 4;
    let holds_two = |system: &System<f64>| DeviceSpec {
        global_mem: 2 * BatchGpuEvaluator::<f64>::footprint(
            system,
            capacity,
            &GpuOptions::default(),
        ),
        ..DeviceSpec::tesla_c2050()
    };
    let single = Engine::builder()
        .device(holds_two(&sys(1)))
        .backend(Backend::GpuBatch { capacity });
    let fleet = Engine::builder()
        .backend(Backend::Cluster {
            devices: vec![holds_two(&sys(1).row_block(&[0])); 2],
            shard: SystemShardPolicy::Contiguous.into(),
        })
        .per_device_capacity(capacity);
    for mut svc in [
        SolveService::new(&single).unwrap(),
        SolveService::new(&fleet).unwrap(),
    ] {
        let t = svc.register(TenantSpec::new("acme").with_max_in_flight(8));
        for target in [1u64, 2, 3] {
            svc.submit(t, Priority::Normal, request(target)).unwrap();
        }
        let report = svc.run();
        assert_eq!(report.solved(), 3, "{report:?}");
        assert_eq!(report.cache.misses, 3);
        assert_eq!(report.cache.evictions, 1);
    }
}

/// `CorrectorMode::DeviceResident` flows through the service: a
/// resident job's endpoints (and success count) are bit-identical to
/// the same request served in host mode — the fused corrector is a
/// transfer optimization, never a numerical one — across single-device
/// and row-sharded cluster fleets (the fleet shapes the service hosts).
#[test]
fn device_resident_jobs_match_host_jobs_bit_for_bit() {
    use polygpu_homotopy::CorrectorMode;
    let backends = [
        Backend::GpuBatch { capacity: 4 },
        Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); 2],
            shard: SystemShardPolicy::Contiguous.into(),
        },
    ];
    for backend in backends {
        let serve = |mode: CorrectorMode| {
            let builder = Engine::builder()
                .backend(backend.clone())
                .per_device_capacity(4);
            let mut svc = SolveService::new(&builder).unwrap();
            let t = svc.register(TenantSpec::new("acme").with_max_in_flight(8));
            for target in [1u64, 2] {
                svc.submit(t, Priority::Normal, request(target).with_corrector(mode))
                    .unwrap();
            }
            svc.run()
        };
        let host = serve(CorrectorMode::Host);
        let resident = serve(CorrectorMode::DeviceResident);
        assert_eq!(host.jobs.len(), resident.jobs.len());
        for (h, r) in host.jobs.iter().zip(&resident.jobs) {
            assert_eq!(h.outcome, r.outcome, "{backend:?}");
            assert_eq!(h.successes, r.successes, "{backend:?}");
            assert_eq!(
                h.endpoint_checksum, r.endpoint_checksum,
                "{backend:?}: endpoints must be bit-identical across corrector modes"
            );
        }
    }
}
