//! Facade-level integration of the unified engine API: the `polygpu`
//! crate's `Engine::builder()` reaches every backend (including the
//! cluster, wired to `polygpu_cluster::Sharded`), with bit-identical
//! results and a working residency session.

use polygpu::prelude::*;

#[test]
fn facade_builder_reaches_all_four_backends_bit_identically() {
    let params = BenchmarkParams {
        n: 8,
        m: 4,
        k: 3,
        d: 2,
        seed: 5,
    };
    let system = random_system::<f64>(&params);
    let points = random_points::<f64>(8, 6, 11);
    let backends = [
        Backend::CpuReference,
        Backend::Gpu,
        Backend::GpuBatch { capacity: 6 },
        Backend::Cluster {
            devices: vec![DeviceSpec::tesla_c2050(); 3],
            shard: ClusterPolicy::default().into(),
        },
    ];
    let mut want: Option<Vec<SystemEval<f64>>> = None;
    for backend in backends {
        let mut engine = Engine::builder()
            .backend(backend)
            .per_device_capacity(2)
            .build(&system)
            .unwrap();
        let got = engine.try_evaluate_batch(&points).unwrap();
        let name = engine.caps().backend;
        match &want {
            None => want = Some(got),
            Some(w) => {
                for (i, (g, x)) in got.iter().zip(w).enumerate() {
                    assert_eq!(g.values, x.values, "{name}, point {i}");
                    assert_eq!(
                        g.jacobian.as_slice(),
                        x.jacobian.as_slice(),
                        "{name}, point {i}"
                    );
                }
            }
        }
    }
}

#[test]
fn facade_builder_validates_and_reports_errors() {
    let system = random_system::<f64>(&BenchmarkParams {
        n: 4,
        m: 3,
        k: 2,
        d: 2,
        seed: 1,
    });
    let err = match Engine::builder()
        .backend(Backend::Cluster {
            devices: vec![],
            shard: ClusterPolicy::RoundRobin.into(),
        })
        .build(&system)
    {
        Ok(_) => panic!("empty device list must not build"),
        Err(e) => e,
    };
    assert!(matches!(err, BuildError::NoDevices));
    // Errors are std::error::Error with Display.
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("at least one device"));
}

#[test]
fn facade_session_amortizes_against_reencoding() {
    let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
    let mut session = builder.session::<f64>().unwrap();
    let sys_a = random_system::<f64>(&BenchmarkParams {
        n: 16,
        m: 8,
        k: 5,
        d: 2,
        seed: 2,
    });
    let sys_b = random_system::<f64>(&BenchmarkParams {
        n: 16,
        m: 12,
        k: 5,
        d: 2,
        seed: 3,
    });
    let a = session.load("g", &sys_a).unwrap();
    let b = session.load("f", &sys_b).unwrap();
    let points = random_points::<f64>(16, 4, 9);
    for _ in 0..5 {
        for id in [a, b] {
            let _ = session.activate(id).try_evaluate_batch(&points).unwrap();
        }
    }
    let am = session.amortization();
    assert_eq!(am.stages, 10);
    assert!(
        am.steady_state_ratio >= 5.0,
        "resident stages must be >= 5x cheaper than re-encoding, got {:.2}x",
        am.steady_state_ratio
    );
    assert!(session.constant_bytes_used() <= session.constant_budget());
}

/// A session's residents share the card's global memory as they share
/// its constant arena: on devices whose global memory holds exactly
/// two residents' engines, a third load fails typed and changes
/// nothing, and it succeeds once a resident is unloaded. Covers the
/// single-device `Session` and the row-sharded `ClusterSession`.
#[test]
fn facade_sessions_share_the_cards_global_memory() {
    let params = |seed| BenchmarkParams {
        n: 8,
        m: 4,
        k: 3,
        d: 2,
        seed,
    };
    let systems: Vec<System<f64>> = (1..=3).map(|s| random_system(&params(s))).collect();
    let capacity = 4;
    let sized = |global_mem| DeviceSpec {
        global_mem,
        ..DeviceSpec::tesla_c2050()
    };
    let footprint = |system: &System<f64>| {
        BatchGpuEvaluator::<f64>::footprint(system, capacity, &GpuOptions::default())
    };
    let overflow = |result: Result<polygpu::engine::SystemId, BuildError>| match result {
        Err(BuildError::Setup(SetupError::GlobalOverflow { needed, budget })) => (needed, budget),
        Err(e) => panic!("expected GlobalOverflow, got {e}"),
        Ok(_) => panic!("a third resident must not fit"),
    };

    // One device: every system's engine takes `each` bytes.
    let each = footprint(&systems[0]);
    assert!(systems.iter().all(|s| footprint(s) == each));
    let mut session = Engine::builder()
        .device(sized(2 * each))
        .backend(Backend::GpuBatch { capacity })
        .session::<f64>()
        .unwrap();
    let a = session.load("a", &systems[0]).unwrap();
    session.load("b", &systems[1]).unwrap();
    let constant = session.constant_bytes_used();
    assert_eq!(
        overflow(session.load("c", &systems[2])),
        (3 * each, 2 * each)
    );
    assert_eq!(session.resident_count(), 2);
    assert_eq!(session.constant_bytes_used(), constant);
    assert!(session.unload(a));
    let c = session.load("c", &systems[2]).unwrap();
    assert!(session.is_resident(c));
    // One byte less holds one resident only.
    let mut session = Engine::builder()
        .device(sized(2 * each - 1))
        .backend(Backend::GpuBatch { capacity })
        .session::<f64>()
        .unwrap();
    session.load("a", &systems[0]).unwrap();
    assert_eq!(
        overflow(session.load("b", &systems[1])),
        (2 * each, 2 * each - 1)
    );

    // Two devices, four rows each: every shard's engine takes `shard`
    // bytes on its device.
    let shard = footprint(&systems[0].row_block(&[0, 1, 2, 3]));
    let spec = Engine::builder()
        .backend(Backend::Cluster {
            devices: vec![sized(2 * shard); 2],
            shard: SystemShardPolicy::Contiguous.into(),
        })
        .per_device_capacity(capacity)
        .cluster_spec()
        .unwrap();
    let mut session = ClusterSession::<f64>::from_spec(&spec).unwrap();
    let a = session.load("a", &systems[0]).unwrap();
    session.load("b", &systems[1]).unwrap();
    let constant = session.constant_bytes_per_device();
    assert_eq!(
        overflow(session.load("c", &systems[2])),
        (3 * shard, 2 * shard)
    );
    assert_eq!(session.resident_count(), 2);
    assert_eq!(session.constant_bytes_per_device(), constant);
    assert!(session.unload(a));
    let c = session.load("c", &systems[2]).unwrap();
    assert!(session.is_resident(c));
}

/// A capacity whose device buffers the card's global memory cannot
/// hold fails typed on every path that sizes them: a batched engine, a
/// point fleet's and a row fleet's per-device capacity, and a session
/// load. At 100,000 points the Table 1 row needs about 83 GB of a
/// C2050's 3 GiB (a row fleet's device, holding half the rows, about
/// 41 GB); at `usize::MAX` the byte count overflows and saturates.
#[test]
fn facade_rejects_capacities_the_card_cannot_hold() {
    let table1 = random_system::<f64>(&BenchmarkParams {
        n: 32,
        m: 48,
        k: 9,
        d: 2,
        seed: 1,
    });
    let budget = DeviceSpec::tesla_c2050().global_mem;
    assert_eq!(budget, 3 << 30);
    let check = |path: &str, capacity: usize, result: Result<(), BuildError>| match result {
        Err(BuildError::Setup(SetupError::GlobalOverflow { needed, budget: b })) => {
            assert_eq!(b, budget, "{path} at {capacity}");
            assert!(needed > budget, "{path} at {capacity}: {needed}");
            if capacity == usize::MAX {
                assert_eq!(needed, usize::MAX, "{path}");
            }
        }
        Err(e) => panic!("{path} at {capacity}: {e}"),
        Ok(()) => panic!("{path} at {capacity} must not build"),
    };
    let fleet = |shard: ShardMode| Backend::Cluster {
        devices: vec![DeviceSpec::tesla_c2050(); 2],
        shard,
    };
    for capacity in [100_000, usize::MAX] {
        let built = Engine::builder()
            .backend(Backend::GpuBatch { capacity })
            .build(&table1);
        check("gpu-batch", capacity, built.map(drop));
        let built = Engine::builder()
            .backend(fleet(ClusterPolicy::default().into()))
            .per_device_capacity(capacity)
            .build(&table1);
        check("point fleet", capacity, built.map(drop));
        let built = Engine::builder()
            .backend(fleet(SystemShardPolicy::Contiguous.into()))
            .per_device_capacity(capacity)
            .build(&table1);
        check("row fleet", capacity, built.map(drop));
        let mut session = Engine::builder()
            .backend(Backend::GpuBatch { capacity })
            .session::<f64>()
            .unwrap();
        check("session", capacity, session.load("t1", &table1).map(drop));
        assert_eq!(session.resident_count(), 0);
        assert_eq!(session.constant_bytes_used(), 0);
    }
    // The error reads like the constant-memory one.
    let err = Engine::builder()
        .backend(Backend::GpuBatch {
            capacity: usize::MAX,
        })
        .build(&table1)
        .map(drop)
        .unwrap_err();
    assert!(err.to_string().contains("global memory exhausted"), "{err}");
}
