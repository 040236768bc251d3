//! The multi-tenant solve service: one residency fleet, one fair
//! queue, one admission gate, one cache — all on the modeled clock.
//!
//! [`SolveService`] fronts a single residency fleet (a
//! [`Session`] on the single-device GPU backends, a
//! [`ClusterSession`] on row-sharded clusters) with:
//!
//! * **admission control** — every submission is sized against the
//!   spec's [`AdmissionBudget`] *before* any device state is touched:
//!   a system that can never fit the fleet's constant memory is
//!   rejected typed and free, a tenant at its in-flight budget gets
//!   typed backpressure, and a degraded fleet shrinks the admitted
//!   capacity instead of failing;
//! * **weighted fair queuing** — admitted jobs drain in virtual-finish
//!   order (see [`FairQueue`]), FIFO within a tenant, with priorities
//!   scaling a job's virtual charge rather than bypassing fairness;
//! * **an encoded-system cache** — repeat targets skip the encode +
//!   upload entirely through fleet residency, with LRU eviction under
//!   residency pressure and hit/miss/eviction counters;
//! * **deterministic accounting** — queue waits, admission costs and
//!   solve times all live on the scheduler's modeled clock, so the
//!   same submissions in the same order produce a byte-identical
//!   [`ServeReport::render`] and span export, fault injection
//!   included.

use crate::cache::{CacheStats, SystemCache};
use crate::error::ServeError;
use crate::queue::FairQueue;
use crate::tenant::{Priority, TenantId, TenantSpec};
use polygpu_cluster::ClusterSession;
use polygpu_complex::Complex;
use polygpu_core::engine::{
    AdmissionBudget, AnyEvaluator, BuildError, ClusterProvider, EngineBuilder, Session, SystemId,
};
use polygpu_core::{BatchError, EncodeError, SetupError};
use polygpu_homotopy::homotopy::random_gamma;
use polygpu_homotopy::lockstep::BatchHomotopy;
use polygpu_homotopy::queue::{track_queue_recovering_traced, SlotPolicy};
use polygpu_homotopy::solve::{PrecisionPolicy, SolveRequest, StartKind};
use polygpu_homotopy::UsedPrecision;
use polygpu_obs::{
    MetaValue, MetricsRegistry, SpanKind, TelemetrySnapshot, TraceSink, Tracer, Track,
};
use polygpu_polysys::System;
use std::fmt::Write as _;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The fleet: one residency session behind one face
// ---------------------------------------------------------------------

/// The service's residency backend — a single-device [`Session`] or a
/// row-sharded [`ClusterSession`], behind one delegating face so the
/// service logic is backend-free.
enum Fleet {
    Single(Box<Session<f64>>),
    Cluster(Box<ClusterSession<f64>>),
}

impl Fleet {
    fn load(&mut self, label: &str, system: &System<f64>) -> Result<SystemId, BuildError> {
        match self {
            Fleet::Single(s) => s.load(label, system),
            Fleet::Cluster(c) => c.load(label, system),
        }
    }

    fn unload(&mut self, id: SystemId) -> bool {
        match self {
            Fleet::Single(s) => s.unload(id),
            Fleet::Cluster(c) => c.unload(id),
        }
    }

    fn activate(&mut self, id: SystemId) -> &mut dyn AnyEvaluator<f64> {
        match self {
            Fleet::Single(s) => s.activate(id),
            Fleet::Cluster(c) => c.activate(id),
        }
    }

    fn residency_pressure(&self) -> f64 {
        match self {
            Fleet::Single(s) => s.residency_pressure(),
            Fleet::Cluster(c) => c.residency_pressure(),
        }
    }

    /// Modeled seconds of session work so far (loads + switches) — the
    /// admission-side cost pool the service charges deltas from.
    fn session_seconds(&self) -> f64 {
        match self {
            Fleet::Single(s) => s.amortization().session_seconds,
            Fleet::Cluster(c) => c.amortization().session_seconds,
        }
    }

    fn devices(&self) -> usize {
        match self {
            Fleet::Single(_) => 1,
            Fleet::Cluster(c) => c.device_count(),
        }
    }

    fn devices_lost(&self) -> usize {
        match self {
            Fleet::Single(_) => 0,
            Fleet::Cluster(c) => c.devices_lost(),
        }
    }

    fn resident_count(&self) -> usize {
        match self {
            Fleet::Single(s) => s.resident_count(),
            Fleet::Cluster(c) => c.resident_count(),
        }
    }
}

// ---------------------------------------------------------------------
// Jobs and per-tenant state
// ---------------------------------------------------------------------

/// Handle to a job admitted by [`SolveService::submit`], issued in
/// admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(usize);

impl JobId {
    /// The raw admission index this handle names.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One admitted-but-unserved job.
struct Job {
    tenant: TenantId,
    priority: Priority,
    request: SolveRequest,
    /// Start points, resolved (and validated) at admission.
    starts: Vec<Vec<Complex<f64>>>,
    /// Modeled clock at admission — queue wait is measured from here.
    arrival: f64,
    /// Residency label: the request's label, or `job-<id>`.
    label: String,
}

struct TenantState {
    spec: TenantSpec,
    in_flight: usize,
    jobs: u64,
    paths: u64,
    successes: u64,
    failed_jobs: u64,
    cache_hits: u64,
    wait_seconds: f64,
    solve_seconds: f64,
    telemetry: TelemetrySnapshot,
}

// ---------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------

/// How one job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// Every path tracked; `successes` of them converged.
    Solved,
    /// The solve (or its residency load) failed after recovery — the
    /// service records the typed reason and keeps serving.
    Failed {
        /// Display of the underlying typed error.
        reason: String,
    },
}

/// One served job, in completion (service) order.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub job: JobId,
    /// Tenant display name.
    pub tenant: String,
    pub priority: Priority,
    /// The request's label, or the generated `job-<id>`.
    pub label: String,
    pub outcome: JobOutcome,
    /// Paths tracked (0 when the job failed before solving).
    pub paths: usize,
    /// Paths that converged to `t = 1`.
    pub successes: usize,
    /// Whether the target was served from the encoded-system cache.
    pub cache_hit: bool,
    /// Modeled queue wait between admission and service.
    pub wait_seconds: f64,
    /// Modeled residency cost this job paid (encode + upload on a
    /// miss, a command-queue switch on a hit).
    pub admission_seconds: f64,
    /// Modeled engine wall time of the solve itself.
    pub solve_seconds: f64,
    /// Order-sensitive checksum over the endpoints (sum of `t` and
    /// coordinate parts, in path order) — byte-identical across runs
    /// of the same submissions.
    pub endpoint_checksum: f64,
    /// Per-job metrics (queue/scheduler stats, faults, cache outcome).
    pub telemetry: TelemetrySnapshot,
}

/// Per-tenant service accounting, aggregated over the run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    pub tenant: String,
    pub weight: u32,
    pub jobs: u64,
    pub failed_jobs: u64,
    pub paths: u64,
    pub successes: u64,
    pub cache_hits: u64,
    pub wait_seconds: f64,
    pub solve_seconds: f64,
    /// Merge of every served job's telemetry snapshot.
    pub telemetry: TelemetrySnapshot,
}

/// Everything one [`SolveService::run`] produced. [`render`]ed, it is
/// byte-identical across runs of the same submissions — the service's
/// determinism contract.
///
/// [`render`]: ServeReport::render
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Served jobs, in service (fair-queue) order.
    pub jobs: Vec<JobRecord>,
    /// Per-tenant accounting, sorted by tenant name.
    pub tenants: Vec<TenantReport>,
    pub cache: CacheStats,
    pub devices: usize,
    pub devices_lost: usize,
    /// Whether any job failed with a degraded fleet (the service kept
    /// running — degradation shrinks capacity, it never errors the
    /// whole run).
    pub degraded: bool,
    /// Submissions rejected because they can never fit the fleet.
    pub rejected_unservable: u64,
    /// Submissions rejected on the tenant in-flight budget.
    pub rejected_overloaded: u64,
    /// Modeled clock when the run started / finished.
    pub started_at: f64,
    pub finished_at: f64,
}

impl ServeReport {
    /// Jobs that finished [`JobOutcome::Solved`].
    pub fn solved(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.outcome == JobOutcome::Solved)
            .count()
    }

    /// Mean queue wait over served jobs (0 with no jobs).
    pub fn mean_wait_seconds(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs.iter().map(|j| j.wait_seconds).sum::<f64>() / self.jobs.len() as f64
    }

    /// Deterministic text table: same submissions, same bytes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "solve service report");
        let _ = writeln!(
            out,
            "  fleet {} devices ({} lost){}   span {:.6e} .. {:.6e} s",
            self.devices,
            self.devices_lost,
            if self.degraded { "  DEGRADED" } else { "" },
            self.started_at,
            self.finished_at,
        );
        let _ = writeln!(
            out,
            "  jobs {} served ({} solved)   rejected: {} unservable, {} overloaded",
            self.jobs.len(),
            self.solved(),
            self.rejected_unservable,
            self.rejected_overloaded,
        );
        let _ = writeln!(
            out,
            "  cache: {} hits / {} misses / {} evictions (hit rate {:.6e})",
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            self.cache.hit_rate(),
        );
        let _ = writeln!(
            out,
            "  {:<5} {:<10} {:<7} {:>5} {:>4} {:>5}  {:>13} {:>13} {:>13}  {:>13}",
            "job",
            "tenant",
            "prio",
            "paths",
            "ok",
            "cache",
            "wait(s)",
            "admit(s)",
            "solve(s)",
            "checksum",
        );
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "  {:<5} {:<10} {:<7} {:>5} {:>4} {:>5}  {:>13.6e} {:>13.6e} {:>13.6e}  {:>13.6e}",
                j.job.index(),
                j.tenant,
                j.priority.name(),
                j.paths,
                j.successes,
                if j.cache_hit { "hit" } else { "miss" },
                j.wait_seconds,
                j.admission_seconds,
                j.solve_seconds,
                j.endpoint_checksum,
            );
            if let JobOutcome::Failed { reason } = &j.outcome {
                let _ = writeln!(out, "        failed: {reason}");
            }
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>5} {:>6} {:>5} {:>5} {:>5}  {:>13} {:>13}",
            "tenant", "weight", "jobs", "failed", "paths", "ok", "hits", "wait(s)", "solve(s)",
        );
        for t in &self.tenants {
            let _ = writeln!(
                out,
                "  {:<10} {:>6} {:>5} {:>6} {:>5} {:>5} {:>5}  {:>13.6e} {:>13.6e}",
                t.tenant,
                t.weight,
                t.jobs,
                t.failed_jobs,
                t.paths,
                t.successes,
                t.cache_hits,
                t.wait_seconds,
                t.solve_seconds,
            );
        }
        out
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

/// A deterministic multi-tenant front end over one residency fleet.
/// See the [module docs](self) for the full contract; in short:
/// [`register`] tenants, [`submit`] requests (typed rejections are
/// free), [`run`] to drain the fair queue into a [`ServeReport`].
///
/// [`register`]: SolveService::register
/// [`submit`]: SolveService::submit
/// [`run`]: SolveService::run
pub struct SolveService {
    budget: AdmissionBudget,
    fleet: Fleet,
    tenants: Vec<TenantState>,
    queue: FairQueue,
    /// Admitted jobs by [`JobId`] index; `None` once served.
    jobs: Vec<Option<Job>>,
    cache: SystemCache,
    /// Global arrival sequence (also counts rejected submissions, so
    /// admission decisions are a pure function of the arrival order).
    seq: u64,
    /// The modeled service clock: admission costs, switches and solve
    /// wall time all accumulate here.
    clock: f64,
    trace: TraceSink,
    degraded: bool,
    rejected_unservable: u64,
    rejected_overloaded: u64,
}

impl SolveService {
    /// Open a service over `builder`'s fleet. Single-device GPU
    /// backends get a [`Session`]; row-sharded clusters a
    /// [`ClusterSession`]. The CPU reference and point-sharded
    /// clusters have no joint residency arena to admit against and are
    /// rejected typed.
    pub fn new<P: ClusterProvider>(builder: &EngineBuilder<P>) -> Result<Self, ServeError> {
        let budget = builder.admission_budget()?;
        let fleet = match budget.backend {
            "gpu" | "gpu-batch" => Fleet::Single(Box::new(builder.session::<f64>()?)),
            "cluster" if budget.rows_sharded => Fleet::Cluster(Box::new(
                ClusterSession::from_spec(&builder.cluster_spec()?)?,
            )),
            "cluster" => {
                return Err(ServeError::UnsupportedBackend {
                    backend: "cluster (point-sharded)",
                })
            }
            other => return Err(ServeError::UnsupportedBackend { backend: other }),
        };
        let cache = SystemCache::new(budget.encoding);
        Ok(SolveService {
            budget,
            fleet,
            tenants: Vec::new(),
            queue: FairQueue::new(),
            jobs: Vec::new(),
            cache,
            seq: 0,
            clock: 0.0,
            trace: TraceSink::noop(),
            degraded: false,
            rejected_unservable: 0,
            rejected_overloaded: 0,
        })
    }

    /// Install a [`Tracer`]: the service emits `serve → admit → wait →
    /// solve` (and `evict`) spans on the modeled clock, on
    /// [`Track::Scheduler`]. Tracing never feeds back into scheduling:
    /// reports are byte-identical with and without a tracer.
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.trace = TraceSink::new(tracer).on(Track::Scheduler);
        self
    }

    /// Register a tenant (weights below 1 are clamped up). Ids are
    /// issued in registration order.
    pub fn register(&mut self, spec: TenantSpec) -> TenantId {
        let mut spec = spec;
        spec.weight = spec.weight.max(1);
        self.tenants.push(TenantState {
            spec,
            in_flight: 0,
            jobs: 0,
            paths: 0,
            successes: 0,
            failed_jobs: 0,
            cache_hits: 0,
            wait_seconds: 0.0,
            solve_seconds: 0.0,
            telemetry: TelemetrySnapshot::default(),
        });
        TenantId(self.tenants.len() - 1)
    }

    /// Fleet devices (as configured).
    pub fn devices(&self) -> usize {
        self.fleet.devices()
    }

    /// Fleet devices lost to faults so far.
    pub fn devices_lost(&self) -> usize {
        self.fleet.devices_lost()
    }

    /// Jobs admitted and not yet served.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The encoded-system cache's counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats
    }

    /// Resident constant bytes over the tightest device budget.
    pub fn residency_pressure(&self) -> f64 {
        self.fleet.residency_pressure()
    }

    /// Encoded systems currently resident on the fleet.
    pub fn resident_systems(&self) -> usize {
        self.fleet.resident_count()
    }

    /// The modeled service clock (seconds).
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// This tenant's effective in-flight limit right now: the
    /// configured budget scaled to the surviving share of the fleet —
    /// degradation shrinks admitted capacity instead of erroring.
    fn effective_limit(&self, spec: &TenantSpec, surviving: usize) -> usize {
        let devices = self.budget.devices().max(1);
        (spec.max_in_flight * surviving).div_ceil(devices)
    }

    /// Admit (or reject, typed and free) one request. Every decision
    /// here is a pure function of the arrival order, the spec's
    /// admission budget and the tenants' budgets — no device state is
    /// touched, no modeled time is charged.
    pub fn submit(
        &mut self,
        tenant: TenantId,
        priority: Priority,
        request: SolveRequest,
    ) -> Result<JobId, ServeError> {
        self.seq += 1;
        let seq = self.seq;
        if tenant.0 >= self.tenants.len() {
            return Err(ServeError::UnknownTenant);
        }
        if !matches!(
            request.precision,
            PrecisionPolicy::Fixed(UsedPrecision::Double)
        ) {
            return Err(ServeError::UnsupportedPrecision);
        }
        if request.start_kind != StartKind::TotalDegree {
            // The service replays the request's start system itself
            // (resident engines, session amortization); mixed-cell
            // start construction stays a solver-side feature for now.
            return Err(ServeError::BadRequest {
                reason: format!(
                    "start kind {:?} is not servable; submit total-degree requests",
                    request.start_kind
                ),
            });
        }
        let shape = request
            .target
            .uniform_shape()
            .map_err(|e| ServeError::BadRequest {
                reason: e.to_string(),
            })?;
        if shape.rows != shape.n {
            return Err(ServeError::BadRequest {
                reason: format!(
                    "target is not square ({} polys, {} vars)",
                    shape.rows, shape.n
                ),
            });
        }
        let devices = self.budget.devices();
        let lost = self.fleet.devices_lost();
        let surviving = devices.saturating_sub(lost);
        if surviving == 0 {
            return Err(ServeError::FleetExhausted { devices, lost });
        }
        if !self.budget.fits(&shape, surviving) {
            self.rejected_unservable += 1;
            return Err(ServeError::NeverFits {
                needed: self.budget.bytes_needed_per_device(&shape, surviving),
                budget: self
                    .budget
                    .device_constant_budgets
                    .iter()
                    .copied()
                    .min()
                    .unwrap_or(0),
            });
        }
        let state = &self.tenants[tenant.0];
        let limit = self.effective_limit(&state.spec, surviving);
        if state.in_flight >= limit {
            self.rejected_overloaded += 1;
            return Err(ServeError::Overloaded {
                tenant: state.spec.name.clone(),
                in_flight: state.in_flight,
                limit,
            });
        }
        let starts = request
            .resolve_starts()
            .map_err(|e| ServeError::BadRequest {
                reason: e.to_string(),
            })?;
        if starts.is_empty() {
            return Err(ServeError::BadRequest {
                reason: "no start points selected".to_string(),
            });
        }

        // Admitted. The job's virtual charge is its path count scaled
        // by priority; its arrival pins the queue-wait measurement.
        let id = JobId(self.jobs.len());
        let label = request
            .label
            .clone()
            .unwrap_or_else(|| format!("job-{}", id.0));
        let weight = self.tenants[tenant.0].spec.weight;
        let charge = starts.len() as f64 * priority.charge_factor();
        self.queue.push(id.0, tenant.0, weight, charge, seq);
        self.tenants[tenant.0].in_flight += 1;
        self.trace.emit(
            SpanKind::Admit,
            self.clock,
            0.0,
            1,
            &[
                ("job", MetaValue::U64(id.0 as u64)),
                ("tenant", MetaValue::U64(tenant.0 as u64)),
                ("paths", MetaValue::U64(starts.len() as u64)),
            ],
        );
        self.jobs.push(Some(Job {
            tenant,
            priority,
            request,
            starts,
            arrival: self.clock,
            label,
        }));
        Ok(id)
    }

    /// Make `target` resident, serving repeats from the cache and
    /// evicting LRU residents under residency pressure. Returns the
    /// resident id and whether it was a cache hit.
    fn ensure_resident(
        &mut self,
        label: &str,
        target: &System<f64>,
    ) -> Result<(SystemId, bool), BuildError> {
        if let Some(id) = self.cache.lookup(target) {
            return Ok((id, true));
        }
        loop {
            match self.fleet.load(label, target) {
                Ok(id) => {
                    self.cache.insert(target.clone(), id);
                    return Ok((id, false));
                }
                Err(BuildError::Setup(
                    SetupError::Encode(EncodeError::Constant(_))
                    | SetupError::GlobalOverflow { .. },
                )) if self.cache.len() > 0 => {
                    // Residency pressure, on constant or on global
                    // memory: evict the LRU resident and retry — its
                    // arena regions and buffers return to the pool.
                    let victim = self.cache.pop_lru().expect("cache is non-empty");
                    self.fleet.unload(victim);
                    self.trace.emit(
                        SpanKind::Evict,
                        self.clock,
                        0.0,
                        1,
                        &[("resident", MetaValue::U64(victim.index() as u64))],
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Drain the fair queue, serving every admitted job on the modeled
    /// clock. Failures (faults that outlive recovery, degraded-fleet
    /// loads) fail the *job*, never the run.
    pub fn run(&mut self) -> ServeReport {
        let started_at = self.clock;
        let mut records: Vec<JobRecord> = Vec::new();

        while let Some(idx) = self.queue.pop() {
            let job = self.jobs[idx].take().expect("queued job exists");
            let wait = self.clock - job.arrival;
            self.trace.emit(
                SpanKind::Wait,
                job.arrival,
                wait,
                1,
                &[("job", MetaValue::U64(idx as u64))],
            );

            let admit_base = self.fleet.session_seconds();
            let resident = self.ensure_resident(&job.label, &job.request.target);
            let (record, telemetry) = match resident {
                Ok((sys_id, cache_hit)) => {
                    self.serve_one(idx, job, sys_id, cache_hit, wait, admit_base)
                }
                Err(e) => {
                    if matches!(e, BuildError::DegradedFleet { .. }) {
                        self.degraded = true;
                    }
                    let mut reg = MetricsRegistry::new();
                    reg.counter("serve.failed", 1);
                    reg.gauge("serve.wait_seconds", wait);
                    let telemetry = reg.snapshot();
                    let t = &mut self.tenants[job.tenant.0];
                    t.failed_jobs += 1;
                    (
                        JobRecord {
                            job: JobId(idx),
                            tenant: self.tenants[job.tenant.0].spec.name.clone(),
                            priority: job.priority,
                            label: job.label,
                            outcome: JobOutcome::Failed {
                                reason: e.to_string(),
                            },
                            paths: 0,
                            successes: 0,
                            cache_hit: false,
                            wait_seconds: wait,
                            admission_seconds: 0.0,
                            solve_seconds: 0.0,
                            endpoint_checksum: 0.0,
                            telemetry: telemetry.clone(),
                        },
                        (job.tenant, telemetry),
                    )
                }
            };
            let (tenant, telemetry) = telemetry;
            let t = &mut self.tenants[tenant.0];
            t.jobs += 1;
            t.paths += record.paths as u64;
            t.successes += record.successes as u64;
            t.cache_hits += u64::from(record.cache_hit);
            t.wait_seconds += record.wait_seconds;
            t.solve_seconds += record.solve_seconds;
            t.telemetry = t.telemetry.merge(&telemetry);
            t.in_flight = t.in_flight.saturating_sub(1);
            records.push(record);
        }

        self.trace.emit(
            SpanKind::Serve,
            started_at,
            self.clock - started_at,
            0,
            &[("jobs", MetaValue::U64(records.len() as u64))],
        );

        let mut tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| TenantReport {
                tenant: t.spec.name.clone(),
                weight: t.spec.weight,
                jobs: t.jobs,
                failed_jobs: t.failed_jobs,
                paths: t.paths,
                successes: t.successes,
                cache_hits: t.cache_hits,
                wait_seconds: t.wait_seconds,
                solve_seconds: t.solve_seconds,
                telemetry: t.telemetry.clone(),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));

        ServeReport {
            jobs: records,
            tenants,
            cache: self.cache.stats,
            devices: self.fleet.devices(),
            devices_lost: self.fleet.devices_lost(),
            degraded: self.degraded,
            rejected_unservable: self.rejected_unservable,
            rejected_overloaded: self.rejected_overloaded,
            started_at,
            finished_at: self.clock,
        }
    }

    /// Serve one job against its resident engine: activate, solve with
    /// the request's scheduler, advance the modeled clock, and fold the
    /// whole thing into metrics.
    fn serve_one(
        &mut self,
        idx: usize,
        job: Job,
        sys_id: SystemId,
        cache_hit: bool,
        wait: f64,
        admit_base: f64,
    ) -> (JobRecord, (TenantId, TelemetrySnapshot)) {
        let Job {
            tenant,
            priority,
            request,
            starts,
            label,
            ..
        } = job;
        let params = request.params;
        let scheduler = request.scheduler;
        let recovery = request.recovery;
        let gamma = random_gamma::<f64>(request.gamma_seed);

        let engine = self.fleet.activate(sys_id);
        // Admission cost = the session-seconds delta (a full setup on
        // a miss, one switch on a hit); charged before the solve.
        engine.reset_engine_stats();
        let caps = engine.caps();
        let mut h = BatchHomotopy::new(request.start.clone(), engine, gamma);

        let solve_base = {
            // `session_seconds` needs `&self.fleet`, which `h` borrows
            // mutably — read the admission delta off the clock instead:
            // it is applied after the solve, from `admit_base`.
            self.clock
        };
        let trace = self.trace.rebased(solve_base);
        // The solver's one tracker, sized the way the solver sizes it;
        // `DeviceResident` requests run the fused corrector on the
        // resident engine.
        let slots = SlotPolicy::Fixed(scheduler.slot_count(&caps, starts.len()));
        let outcome =
            track_queue_recovering_traced(&mut h, &starts, params, slots, &recovery, &trace)
                .map(|(r, fault)| (r.paths, r.stats, fault));
        let solve_seconds = h.f.engine_stats().wall_seconds;
        drop(h);
        let admission_seconds = self.fleet.session_seconds() - admit_base;

        let mut reg = MetricsRegistry::new();
        reg.counter("serve.jobs", 1);
        reg.counter("serve.cache_hit", u64::from(cache_hit));
        reg.gauge("serve.wait_seconds", wait);
        reg.gauge("serve.admission_seconds", admission_seconds);
        reg.gauge("serve.solve_seconds", solve_seconds);
        reg.counter("serve.paths", starts.len() as u64);

        let record = match outcome {
            Ok((paths, stats, fault)) => {
                stats.record_metrics(&mut reg, "serve.queue");
                fault.record_metrics(&mut reg, "serve.fault");
                let successes = paths.iter().filter(|p| p.success()).count();
                let mut checksum = 0.0;
                for p in &paths {
                    checksum += p.t;
                    for c in &p.x {
                        checksum += c.re + c.im;
                    }
                }
                reg.counter("serve.successes", successes as u64);
                let telemetry = reg.snapshot();
                self.clock += admission_seconds + solve_seconds;
                self.trace.emit(
                    SpanKind::Solve,
                    solve_base + admission_seconds,
                    solve_seconds,
                    1,
                    &[
                        ("job", MetaValue::U64(idx as u64)),
                        ("paths", MetaValue::U64(paths.len() as u64)),
                    ],
                );
                JobRecord {
                    job: JobId(idx),
                    tenant: self.tenants[tenant.0].spec.name.clone(),
                    priority,
                    label,
                    outcome: JobOutcome::Solved,
                    paths: paths.len(),
                    successes,
                    cache_hit,
                    wait_seconds: wait,
                    admission_seconds,
                    solve_seconds,
                    endpoint_checksum: checksum,
                    telemetry,
                }
            }
            Err(e) => {
                if matches!(e, BatchError::DegradedFleet { .. }) {
                    self.degraded = true;
                }
                reg.counter("serve.failed", 1);
                let telemetry = reg.snapshot();
                self.clock += admission_seconds + solve_seconds;
                self.tenants[tenant.0].failed_jobs += 1;
                JobRecord {
                    job: JobId(idx),
                    tenant: self.tenants[tenant.0].spec.name.clone(),
                    priority,
                    label,
                    outcome: JobOutcome::Failed {
                        reason: e.to_string(),
                    },
                    paths: 0,
                    successes: 0,
                    cache_hit,
                    wait_seconds: wait,
                    admission_seconds,
                    solve_seconds,
                    endpoint_checksum: 0.0,
                    telemetry,
                }
            }
        };
        let telemetry = record.telemetry.clone();
        (record, (tenant, telemetry))
    }
}
