//! The four workloads, each a closed loop on one thread: the next
//! request is sent when the previous one returns.
//!
//! Every workload cycles through a pool of distinct requests generated
//! from the seed. The first pass over the pool is the modeled sample
//! (modeled metrics are a pure function of the seed); the loop then
//! continues until the requests' measured host time reaches the run
//! length. Each request's output is checked against the CPU reference,
//! computed outside the timed region.
//!
//! In a traced run every request runs twice, untraced and then through
//! the timing decorator, and the two must agree bit for bit.

use crate::account::{quantile, Host, Modeled, SERVE_RUN, SUBMIT};
use crate::clock;
use crate::inputs::{self, SolveCase};
use crate::probe::{self, span, take_fleets, take_spans, Observed, Span, Timed};
use crate::replay::solve_traced;
use polygpu::core::pipeline::PipelineStats;
use polygpu::engine::{AnyEvaluator, Backend, ClusterProvider, Engine, EngineBuilder, Sharded};
use polygpu::gpusim::prelude::DeviceSpec;
use polygpu::homotopy::solve::{SolveReport, Solver};
use polygpu::polysys::{random_points, AdEvaluator, SystemEvaluator};
use polygpu::qd::Dd;
use polygpu::serve::{JobOutcome, Priority, SolveService, TenantId, TenantSpec};
use std::time::Instant;

/// Wall seconds after which a run stops sending requests once its first
/// pass is complete, whatever its measured time.
const WALL_CAP: f64 = 120.0;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Each set-up repetition on the set-up clock: seconds on the
    /// reference core (see [`crate::clock`]).
    pub setup: Vec<f64>,
    /// The same repetitions in process CPU seconds, unscaled.
    pub setup_cpu: Vec<f64>,
    /// CPU seconds of the reference kernel next to each repetition.
    pub reference: Vec<f64>,
    /// Host seconds of each timed (untraced) request.
    pub host: Vec<f64>,
    /// Ops completed by the timed requests.
    pub ops: u64,
    /// Modeled latency of each request of the modeled sample.
    pub modeled: Vec<f64>,
    pub modeled_ops: u64,
    /// Modeled seconds the sample took end to end.
    pub modeled_seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Traced runs: the modeled split of the sample and the host split.
    pub model: Modeled,
    pub host_layers: Host,
    pub spans: Vec<Span>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
    /// Why ops failed (the first twenty reasons).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Count `failed` ops as failed, for the reason `why`.
    fn fail(&mut self, failed: u64, why: String) {
        self.failed += failed;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }
}

/// Share of a run's wall time spent on set-up repetitions.
const SETUP_SHARE: f64 = 0.1;

/// Decides when a closed loop stops, and samples set-up time: three
/// repetitions before the first request, then, between requests, as
/// many as keep set-up at [`SETUP_SHARE`] of the run's wall time so far.
/// On a shared machine the speed of a core swings by half over seconds,
/// so a run's median set-up time should rest on many samples spread over
/// the run, not on its first moment.
struct Pacer {
    start: Instant,
    seconds: f64,
    measured: f64,
    /// Wall seconds spent in set-up repetitions and their reference bursts.
    setup_wall: f64,
    setup: Vec<f64>,
    setup_cpu: Vec<f64>,
    reference: Vec<f64>,
}

impl Pacer {
    fn new(seconds: f64) -> Self {
        Pacer {
            start: Instant::now(),
            seconds,
            measured: 0.0,
            setup_wall: 0.0,
            setup: Vec::new(),
            setup_cpu: Vec::new(),
            reference: Vec::new(),
        }
    }

    /// Hands the set-up samples to `out`.
    fn finish(self, out: &mut Outcome) {
        out.setup = self.setup;
        out.setup_cpu = self.setup_cpu;
        out.reference = self.reference;
    }

    /// Whether to send request `i` of a workload whose first pass is
    /// `pool` requests long.
    fn more(&self, i: usize, pool: usize) -> bool {
        i < pool || (self.measured < self.seconds && self.start.elapsed().as_secs_f64() < WALL_CAP)
    }

    /// The initial set-up repetitions; returns what the last one built.
    fn set_up<T>(&mut self, f: &mut impl FnMut() -> T) -> T {
        self.rep(f);
        self.rep(f);
        self.rep(f)
    }

    /// The set-up repetitions due between two requests.
    fn resample<T>(&mut self, f: &mut impl FnMut() -> T) {
        while self.setup_wall < SETUP_SHARE * self.start.elapsed().as_secs_f64() {
            self.rep(f);
        }
    }

    /// One set-up repetition on the set-up clock (see [`crate::clock`]):
    /// a 10 ms burst of the reference kernel, then the set-up, repeated
    /// until 20 ms have passed so that microsecond set-ups are not read
    /// off a single clock tick.
    fn rep<T>(&mut self, f: &mut impl FnMut() -> T) -> T {
        let (reference, ref_wall, _) = clock::burst(0.01, &mut clock::reference_work);
        let (cpu, wall, last) = clock::burst(0.02, f);
        self.setup.push(cpu / reference * clock::REFERENCE_SECONDS);
        self.setup_cpu.push(cpu);
        self.reference.push(reference);
        self.setup_wall += ref_wall + wall;
        last
    }
}

fn pcie_bandwidth() -> f64 {
    DeviceSpec::tesla_c2050().pcie_bandwidth
}

pub fn run(o: &Options) -> Option<Outcome> {
    let out = match o.workload.as_str() {
        "eval-table1" => run_eval(o),
        "solve-small" => run_small(o),
        "solve-dim32" => run_dim32(o),
        "serve-mix" => run_serve(o),
        _ => return None,
    };
    Some(out)
}

// ---------------------------------------------------------------------
// eval-table1
// ---------------------------------------------------------------------

fn run_eval(o: &Options) -> Outcome {
    let mut out = Outcome::default();
    let system = inputs::table1_system(o.seed);
    let batches = inputs::eval_batches(o.seed);
    out.notes.push(format!(
        "system n=32 k=9 d<=2, 1536 monomials; request = try_evaluate_batch of {} points; pool {} batches",
        inputs::EVAL_POINTS,
        batches.len()
    ));
    let mut pacer = Pacer::new(o.seconds);
    let mut setup = || {
        inputs::eval_spec()
            .build::<f64>(&system)
            .expect("the Table-1 system fits one C2050")
    };
    let mut engine = Timed::new(pacer.set_up(&mut setup));
    let mut cpu = Engine::builder()
        .backend(Backend::CpuReference)
        .build::<f64>(&system)
        .expect("the CPU reference accepts every system");
    let reference: Vec<_> = batches.iter().map(|b| cpu.evaluate_batch(b)).collect();
    let points = inputs::EVAL_POINTS as u64;

    let mut i = 0;
    while pacer.more(i, batches.len()) {
        pacer.resample(&mut setup);
        let k = i % batches.len();
        engine.inner_mut().reset_engine_stats();
        let t0 = Instant::now();
        let got = engine.inner_mut().try_evaluate_batch(&batches[k]);
        let host = t0.elapsed().as_secs_f64();
        let stats = engine.engine_stats();
        out.attempted += points;
        match &got {
            Ok(evals) if *evals == reference[k] => out.ops += points,
            Ok(_) => out.fail(
                points,
                format!("request {i}: differs from the CPU reference"),
            ),
            Err(e) => out.fail(points, format!("request {i}: {e}")),
        }
        out.host.push(host);
        pacer.measured += host;
        if o.trace {
            probe::begin_request(i as u64);
            engine.reset_engine_stats();
            let t1 = Instant::now();
            let traced = engine.try_evaluate_batch(&batches[k]);
            let dt = t1.elapsed().as_secs_f64();
            let traced_stats = engine.engine_stats();
            let spans = take_spans();
            if traced.ok() != got.ok() || !same_stats(&traced_stats, &stats) {
                out.fail(points, format!("request {i}: traced run differs"));
            }
            out.host_layers.add(&spans, dt, host);
            out.host_layers.warps += traced_stats.counters.warps;
            out.spans.extend(spans);
            pacer.measured += dt;
        }
        if i < batches.len() {
            out.modeled.push(stats.wall_clock_seconds());
            out.modeled_ops += points;
            out.modeled_seconds += stats.wall_clock_seconds();
            out.model.requests += 1;
            out.model.add_engine(&stats, false, pcie_bandwidth());
        }
        i += 1;
    }
    pacer.finish(&mut out);
    out
}

fn same_stats(a: &PipelineStats, b: &PipelineStats) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

// ---------------------------------------------------------------------
// solve-small and solve-dim32
// ---------------------------------------------------------------------

fn run_small(o: &Options) -> Outcome {
    let cases: Vec<SolveCase> = (0..inputs::SMALL_POOL)
        .map(|i| inputs::small_case(o.seed, i))
        .collect();
    let specs = [inputs::small_spec(false), inputs::small_spec(true)];
    let mut setup = || {
        for case in &cases {
            let built = specs[usize::from(case.packed)].build::<f64>(&case.request.target);
            std::hint::black_box(built.expect("every solve-small target fits one C2050"));
        }
    };
    run_solver(o, &mut setup, &cases, &specs, &specs)
}

fn run_dim32(o: &Options) -> Outcome {
    let cases: Vec<SolveCase> = (0..inputs::DIM32_POOL)
        .map(|i| inputs::dim32_case(o.seed, i))
        .collect();
    let plain = inputs::dim32_spec(Sharded);
    let mut setup = || {
        for case in &cases {
            let built = plain.build::<Dd>(&case.request.target.convert::<Dd>());
            std::hint::black_box(built.expect("the dim-32 target fits the fleet"));
        }
    };
    let spec = [plain.clone(), plain.clone()];
    let observed = [inputs::dim32_spec(Observed), inputs::dim32_spec(Observed)];
    run_solver(o, &mut setup, &cases, &spec, &observed)
}

/// The solver loop shared by `solve-small` and `solve-dim32`. `setup`
/// provisions an engine per pool target; `plain` and `traced` hold the
/// spec for direct-encoded (index 0) and packed (index 1) targets.
fn run_solver<P: ClusterProvider>(
    o: &Options,
    setup: &mut impl FnMut(),
    cases: &[SolveCase],
    plain: &[EngineBuilder<Sharded>; 2],
    traced: &[EngineBuilder<P>; 2],
) -> Outcome {
    let mut out = Outcome::default();
    let plain = plain.clone().map(Solver::from_builder);
    let traced = traced.clone().map(Solver::from_builder);
    let mut shapes = std::collections::BTreeMap::new();
    for case in cases {
        *shapes
            .entry((case.shape.as_str(), case.reference.len()))
            .or_insert(0) += 1;
    }
    for ((shape, paths), count) in shapes {
        out.notes
            .push(format!("pool: {count} x {shape}, {paths} paths each"));
    }
    let mut pacer = Pacer::new(o.seconds);
    pacer.set_up(setup);
    let mut i = 0;
    while pacer.more(i, cases.len()) {
        pacer.resample(setup);
        let case = &cases[i % cases.len()];
        let solver = &plain[usize::from(case.packed)];
        let t0 = Instant::now();
        let got = solver.solve(&case.request);
        let host = t0.elapsed().as_secs_f64();
        out.host.push(host);
        pacer.measured += host;
        let paths = case.reference.len() as u64;
        out.attempted += paths;
        let report = match got {
            Ok(report) => report,
            Err(e) => {
                out.fail(paths, format!("request {i}: {e}"));
                i += 1;
                continue;
            }
        };
        let wrong = wrong_paths(case, &report);
        if wrong > 0 {
            out.fail(
                wrong,
                format!("request {i}: {wrong} paths failed or differ from the CPU reference"),
            );
        }
        out.ops += paths - wrong;
        let mut fleets = Vec::new();
        if o.trace {
            probe::begin_request(i as u64);
            let t1 = Instant::now();
            let replay = solve_traced(&traced[usize::from(case.packed)], &case.request);
            let dt = t1.elapsed().as_secs_f64();
            let spans = take_spans();
            fleets = take_fleets();
            match replay {
                Ok(r) if r.matches(&report) => {
                    out.host_layers.warps += r.primary_engine.counters.warps
                        + r.escalation.as_ref().map_or(0, |e| e.2.counters.warps);
                }
                Ok(_) => out.fail(paths, format!("request {i}: traced replay differs")),
                Err(e) => out.fail(paths, format!("request {i}: traced replay: {e}")),
            }
            out.host_layers.add(&spans, dt, host);
            out.spans.extend(spans);
            pacer.measured += dt;
        }
        if i < cases.len() {
            out.modeled.push(report.modeled_wall_seconds());
            out.modeled_ops += paths;
            out.modeled_seconds += report.modeled_wall_seconds();
            add_report(&mut out.model, &report, &fleets);
        }
        i += 1;
    }
    pacer.finish(&mut out);
    out
}

/// Paths of `report` that did not converge or differ from the CPU
/// reference bit for bit.
fn wrong_paths(case: &SolveCase, report: &SolveReport) -> u64 {
    if report.paths.len() != case.reference.len() {
        return case.reference.len() as u64;
    }
    report
        .paths
        .iter()
        .zip(&case.reference)
        .filter(|(p, want)| !p.success() || &p.endpoint != *want)
        .count() as u64
}

/// Fold one solve of the modeled sample into the modeled split.
fn add_report(model: &mut Modeled, report: &SolveReport, fleets: &[probe::FleetView]) {
    let on_fleet = report.caps.devices > 1;
    let bw = pcie_bandwidth();
    model.requests += 1;
    model.paths += report.paths.len() as u64;
    model.escalated += report.escalated() as u64;
    model.add_engine(&report.engine, on_fleet, bw);
    model.add_schedule(&report.stats);
    if let Some(e) = &report.escalation {
        model.add_engine(&e.engine, on_fleet, bw);
        model.add_schedule(&e.stats);
    }
    model.add_fleets(fleets);
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

/// Waves in the modeled sample of `serve-mix`: 102 jobs, enough for the
/// p90s of job latency and wait.
const SERVE_POOL: u64 = 17;

fn open_service() -> (SolveService, Vec<TenantId>) {
    let mut svc =
        SolveService::new(&inputs::serve_spec(Sharded)).expect("row-sharded fleets serve");
    let tenants = inputs::TENANT_WEIGHTS
        .iter()
        .enumerate()
        .map(|(t, &w)| {
            svc.register(
                TenantSpec::new(format!("tenant{t}"))
                    .with_weight(w)
                    .with_max_in_flight(64),
            )
        })
        .collect();
    (svc, tenants)
}

fn run_serve(o: &Options) -> Outcome {
    let mut out = Outcome::default();
    let hot = inputs::hot_set(o.seed);
    // Set-up: open the service, and probe-build each hot target on the
    // fleet spec (the solver workloads' validation probe).
    let spec = inputs::serve_spec(Sharded);
    let mut setup = || {
        for case in &hot {
            let built = spec.build::<f64>(&case.request.target);
            std::hint::black_box(built.expect("every hot target fits the fleet"));
        }
        open_service()
    };
    let mut pacer = Pacer::new(o.seconds);
    let (mut svc, tenants) = pacer.set_up(&mut setup);
    let (mut svc_traced, _) = open_service();
    let replayer = Solver::from_builder(inputs::serve_spec(Observed));
    out.notes.push(format!(
        "fleet: 2 row-sharded C2050s, {} constant bytes each; tenants weighted {:?}; \
         wave = {} jobs ({} paths each), 1 in {} with a new target; modeled sample = {} waves \
         ({} jobs, the sample of the job latency and wait percentiles)",
        inputs::SERVE_CONSTANT_BYTES,
        inputs::TENANT_WEIGHTS,
        inputs::JOBS_PER_TENANT * tenants.len(),
        inputs::SERVE_PATHS,
        inputs::NEW_EVERY,
        SERVE_POOL,
        SERVE_POOL as usize * inputs::JOBS_PER_TENANT * tenants.len()
    ));
    let mut solve_gap = 0.0f64;

    let mut w = 0u64;
    while pacer.more(w as usize, SERVE_POOL as usize) {
        pacer.resample(&mut setup);
        let jobs = inputs::serve_wave(o.seed, w, &hot);
        let requests: Vec<_> = jobs
            .iter()
            .map(|j| (tenants[j.tenant], j.case.request.clone()))
            .collect();
        let submissions = requests.clone();
        let t0 = Instant::now();
        let ids: Vec<_> = submissions
            .into_iter()
            .map(|(t, r)| svc.submit(t, Priority::Normal, r))
            .collect();
        let report = svc.run();
        let host = t0.elapsed().as_secs_f64();
        out.host.push(host);
        pacer.measured += host;
        out.attempted += jobs.len() as u64;

        // Correctness: every job admitted, solved, and its checksum equal
        // to the CPU reference's.
        let mut good = 0u64;
        for (k, (job, id)) in jobs.iter().zip(&ids).enumerate() {
            let record = id
                .as_ref()
                .ok()
                .and_then(|id| report.jobs.iter().find(|r| r.job == *id));
            let want = inputs::endpoint_checksum(&job.case.reference);
            match record {
                Some(r)
                    if r.outcome == JobOutcome::Solved
                        && r.successes == job.case.reference.len()
                        && r.endpoint_checksum.to_bits() == want.to_bits() =>
                {
                    good += 1
                }
                Some(r) => out.fail(
                    1,
                    format!(
                        "wave {w} job {k}: {:?}, checksum {} vs {want}",
                        r.outcome, r.endpoint_checksum
                    ),
                ),
                None => out.fail(
                    1,
                    format!("wave {w} job {k}: not admitted: {:?}", id.as_ref().err()),
                ),
            }
        }
        out.ops += good;

        if o.trace {
            probe::begin_request(w);
            let submissions = requests.clone();
            let t1 = Instant::now();
            for (t, r) in submissions {
                let _ = span(SUBMIT, || svc_traced.submit(t, Priority::Normal, r));
            }
            let traced = span(SERVE_RUN, || svc_traced.run());
            let dt = t1.elapsed().as_secs_f64();
            let spans = take_spans();
            if traced.render() != report.render() {
                out.fail(
                    jobs.len() as u64,
                    format!("wave {w}: traced service report differs"),
                );
            }
            out.host_layers.add(&spans, dt, host);
            out.spans.extend(spans);
            pacer.measured += dt;
        }

        if w < SERVE_POOL {
            out.modeled_ops += report.jobs.len() as u64;
            out.modeled_seconds += report.finished_at - report.started_at;
            out.model.makespan += report.finished_at - report.started_at;
            for r in &report.jobs {
                out.modeled
                    .push(r.wait_seconds + r.admission_seconds + r.solve_seconds);
                out.model.waits.push(r.wait_seconds);
                out.model.admission += r.admission_seconds;
                out.model.solve += r.solve_seconds;
            }
            if o.trace {
                // The service reports each job's solve wall only; replay
                // the sample's jobs on the same fleet spec for the split.
                for (k, (_, r)) in requests.iter().enumerate() {
                    match replayer.solve(r) {
                        Ok(rep) => {
                            add_report(&mut out.model, &rep, &take_fleets());
                            solve_gap += rep.modeled_wall_seconds();
                        }
                        Err(e) => out.fail(1, format!("wave {w} job {k}: direct replay: {e}")),
                    }
                }
                solve_gap -= report.jobs.iter().map(|r| r.solve_seconds).sum::<f64>();
            }
            if w + 1 == SERVE_POOL {
                let cache = svc.cache_stats();
                out.model.hits = cache.hits;
                out.model.misses = cache.misses;
                out.model.evictions = cache.evictions;
            }
        }
        w += 1;
    }
    if o.trace {
        out.notes.push(format!(
            "service solve seconds vs direct-solver replays of the same jobs: gap {solve_gap:.3e} s"
        ));
    }
    pacer.finish(&mut out);
    out
}

// ---------------------------------------------------------------------
// The single-thread CPU baseline
// ---------------------------------------------------------------------

/// Microseconds per single-thread `AdEvaluator::evaluate` of the
/// `eval-table1` system: the paper's one-core column (median of five
/// rounds of 32 points).
pub fn cpu_eval_us(seed: u64) -> f64 {
    let system = inputs::table1_system(seed);
    let mut ad = AdEvaluator::new(system).expect("the Table-1 system is uniform");
    let points = random_points::<f64>(32, 32, inputs::mix(seed, 3, 0));
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for p in &points {
                std::hint::black_box(ad.evaluate(p));
            }
            t0.elapsed().as_secs_f64() * 1e6 / points.len() as f64
        })
        .collect();
    quantile(&mut rounds, 0.5)
}
