//! The unified solver: one `SolveRequest`, every scheduler, every
//! backend, every precision policy — replacing the per-driver snippets
//! (`track` / `track_queue` / `track_escalating_engine`) with one entry
//! point.
//!
//! ```text
//! cargo run --release --example solver
//! ```

use polygpu::prelude::*;

fn main() {
    // A dim-2 benchmark system, tracked from a degree-4 start system
    // (16 paths).
    let params = BenchmarkParams {
        n: 2,
        m: 2,
        k: 2,
        d: 2,
        seed: 5,
    };
    let sys = random_system::<f64>(&params);
    let req = SolveRequest::new(sys.clone())
        .with_start(StartSystem::uniform(2, 4))
        .with_gamma_seed(11);

    // 1. Same request, both schedulers, one backend: scheduling is a
    //    performance decision, not a numerical one.
    println!("## scheduler comparison (batched GPU backend)\n");
    let gpu = Solver::from_builder(Engine::builder().backend(Backend::GpuBatch { capacity: 8 }));
    for scheduler in [
        SchedulerKind::PerPath,
        SchedulerKind::Queue {
            slots: SlotPolicy::Auto,
        },
    ] {
        let report = gpu
            .solve(&req.clone().with_scheduler(scheduler))
            .expect("uniform system fits the device");
        println!(
            "{:>8}: {:2}/{} paths to t = 1, {:4} device round trips, \
             occupancy {:.2}, modeled wall {:.1} ms",
            scheduler.name(),
            report.successes(),
            report.paths.len(),
            report.stats.batch_rounds,
            report.occupancy(),
            report.engine.wall_clock_seconds() * 1e3,
        );
    }

    // 2. Same request on a 4-device cluster: SlotPolicy::Auto reads
    //    the front size off EngineCaps (D x per-device capacity).
    println!("\n## cluster backend (D = 4, auto-sized queue front)\n");
    let cluster = Solver::from_builder(
        Engine::builder()
            .backend(Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); 4],
                shard: ClusterPolicy::default().into(),
            })
            .per_device_capacity(2),
    );
    let report = cluster.solve(&req).expect("cluster provisions");
    println!(
        "backend {} over {} devices: auto front = {} slots, occupancy {:.2}, \
         {} paths/s (modeled)",
        report.backend,
        report.caps.devices,
        report.stats.slots,
        report.occupancy(),
        report.paths_per_second() as u64,
    );

    // 3. Precision escalation as a policy: an f64-unreachable
    //    tolerance sends every failed path back through the same
    //    scheduler in double-double, provisioned from the same spec.
    println!("\n## escalation (residual tolerance 1e-19, below f64 round-off)\n");
    let brutal = TrackParams {
        corrector: NewtonParams {
            residual_tol: 1e-19,
            step_tol: 1e-21,
            max_iters: 8,
            ..Default::default()
        },
        ..Default::default()
    };
    let esc_req = SolveRequest::new(sys)
        .with_start(StartSystem::uniform(2, 2))
        .with_gamma_seed(33)
        .with_params(brutal)
        .with_precision(PrecisionPolicy::Escalating { dd_params: brutal });
    let report = gpu.solve(&esc_req).expect("escalation provisions dd");
    let esc = report.escalation.as_ref().expect("every path escalates");
    println!(
        "{} of {} paths escalated ({}% rate), {} rescued in double-double",
        esc.retried,
        report.paths.len(),
        (report.escalation_rate() * 100.0) as u32,
        esc.rescued,
    );
    for (i, p) in report.paths.iter().enumerate() {
        println!(
            "  path {i}: {:?} in {}, residual {:.1e}",
            p.outcome,
            p.precision().name(),
            p.residual
        );
    }
    assert!(esc.rescued > 0, "double-double must rescue paths");
}
