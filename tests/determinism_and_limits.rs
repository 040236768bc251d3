//! Integration: determinism under host parallelism, device capacity
//! limits (E3), and the occupancy arithmetic of §3.2.

use polygpu::prelude::*;

#[test]
fn pipeline_is_deterministic_under_host_parallelism() {
    // The simulator runs blocks on rayon; results and every counter
    // must nonetheless be identical run to run.
    let p = BenchmarkParams {
        n: 32,
        m: 16,
        k: 9,
        d: 2,
        seed: 1,
    };
    let system = random_system::<f64>(&p);
    let x = random_point::<f64>(32, 2);
    let run = || {
        let mut gpu = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
        let e = gpu.evaluate(&x);
        (e, gpu.stats().counters, gpu.stats().total_seconds())
    };
    let (e1, c1, t1) = run();
    let (e2, c2, t2) = run();
    assert_eq!(e1.values, e2.values);
    assert_eq!(e1.jacobian.as_slice(), e2.jacobian.as_slice());
    assert_eq!(c1, c2, "counters must be reduction-order independent");
    assert_eq!(t1, t2, "modeled time must be deterministic");
}

#[test]
fn serial_and_parallel_host_execution_agree() {
    // 576 monomials and 600 outputs: both launches have grids large
    // enough that the parallel evaluator really runs blocks on threads.
    let p = BenchmarkParams {
        n: 24,
        m: 24,
        k: 4,
        d: 3,
        seed: 9,
    };
    let system = random_system::<f64>(&p);
    let x = random_point::<f64>(24, 4);
    let mut par = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
    let mut ser = GpuEvaluator::new(
        &system,
        GpuOptions {
            launch: polygpu::gpusim::LaunchOptions {
                parallel_host: false,
            },
            ..Default::default()
        },
    )
    .unwrap();
    let a = par.evaluate(&x);
    let b = ser.evaluate(&x);
    let grids: Vec<u32> = par
        .last_reports()
        .iter()
        .map(|r| r.config.grid_dim)
        .collect();
    assert_eq!(grids.len(), 2);
    assert!(
        grids.iter().all(|&g| g as usize >= rayon::INLINE_BELOW),
        "{grids:?}"
    );
    assert_eq!(a.values, b.values);
    assert_eq!(a.jacobian.as_slice(), b.jacobian.as_slice());
    assert_eq!(par.stats().counters, ser.stats().counters);

    // A batch of 16 points: grids of 288 and 304 blocks, more than one
    // of the simulator's 256-block waves each.
    let points = random_points::<f64>(24, 16, 5);
    let batch = |parallel_host| {
        let opts = GpuOptions {
            launch: polygpu::gpusim::LaunchOptions { parallel_host },
            ..Default::default()
        };
        let mut engine = BatchGpuEvaluator::new(&system, 16, opts).unwrap();
        let evals = engine.evaluate_batch(&points);
        let grids: Vec<u32> = engine
            .last_reports()
            .iter()
            .map(|r| r.config.grid_dim)
            .collect();
        (evals, engine.stats().counters, grids)
    };
    let (par, ser) = (batch(true), batch(false));
    assert_eq!(par.2, [288, 304]);
    assert_eq!(par.2, ser.2);
    for (a, b) in par.0.iter().zip(&ser.0) {
        assert_eq!(a.values, b.values);
        assert_eq!(a.jacobian.as_slice(), b.jacobian.as_slice());
    }
    assert_eq!(par.1, ser.1);
}

#[test]
fn capacity_wall_matches_paper_arithmetic() {
    // k = 16: 2,048 monomials need exactly 65,536 payload bytes.
    for (total, should_fit) in [(1536usize, true), (2048, false)] {
        let p = BenchmarkParams {
            n: 32,
            m: total / 32,
            k: 16,
            d: 10,
            seed: 3,
        };
        let system = random_system::<f64>(&p);
        let r = GpuEvaluator::new(&system, GpuOptions::default());
        assert_eq!(
            r.is_ok(),
            should_fit,
            "{total} monomials: expected fit = {should_fit}"
        );
    }
    // k = 9 at 2,048 monomials needs only 36,864 bytes and fits — the
    // wall is k-dependent (see EXPERIMENTS.md for the discussion of the
    // paper's blanket statement).
    let p = BenchmarkParams {
        n: 32,
        m: 64,
        k: 9,
        d: 2,
        seed: 3,
    };
    let system = random_system::<f64>(&p);
    assert!(GpuEvaluator::new(&system, GpuOptions::default()).is_ok());
}

#[test]
fn paper_shared_memory_budget_section_3_2() {
    // Reproduce the paper's §3.2 arithmetic through the occupancy
    // calculator: kernel 2 with complex double-double at n = 70,
    // k = 35, B = 32 uses 32*36 locations + 70 variables of 32 bytes
    // = 39,104 bytes <= 49,152.
    use polygpu::gpusim::occupancy;
    let device = DeviceSpec::tesla_c2050();
    let bytes = (32 * 36 + 70) * 32;
    assert_eq!(bytes, 39_104);
    let occ = occupancy::occupancy(&device, 32, bytes, 24).expect("fits");
    assert_eq!(occ.blocks_per_sm, 1);
    // And the paper's own slack claim: "we are still … > 10,000 bytes
    // below the maximal capacity".
    let (capacity, used) = (49_152u32, 36_864 + 2_240);
    assert!(capacity - used > 10_000);
}

#[test]
fn evaluator_trait_objects_are_interchangeable() {
    // The three evaluators behind one dyn interface — the property that
    // lets Newton/tracking code stay engine-agnostic.
    let p = BenchmarkParams {
        n: 8,
        m: 4,
        k: 3,
        d: 2,
        seed: 100,
    };
    let system = random_system::<f64>(&p);
    let x = random_point::<f64>(8, 1);
    let mut engines: Vec<Box<dyn SystemEvaluator<f64>>> = vec![
        Box::new(NaiveEvaluator::new(system.clone())),
        Box::new(AdEvaluator::new(system.clone()).unwrap()),
        Box::new(GpuEvaluator::new(&system, GpuOptions::default()).unwrap()),
    ];
    let results: Vec<SystemEval<f64>> = engines.iter_mut().map(|e| e.evaluate(&x)).collect();
    for r in &results[1..] {
        assert!(results[0].max_difference(r) < 1e-11);
    }
    let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
    assert_eq!(names, vec!["cpu-naive", "cpu-ad", "gpu-sim"]);
}
