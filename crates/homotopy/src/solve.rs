//! One `solve()` entry point over the path tracker.
//!
//! polygpu tracks paths with one driver, the path queue
//! ([`crate::queue::track_queue`]): a refilling slot front, with the
//! corrector on the host or fused on the engine
//! ([`TrackParams::corrector_mode`]). Precision escalation
//! ([`crate::escalate::track_escalating_engine`]) retries failed paths
//! in double-double. This module puts one surface over all of it:
//!
//! * [`SolveRequest`] — *what* to solve: the target system, the start
//!   system and start points, the tolerances, a
//!   [`PrecisionPolicy`] (fixed precision or escalate-on-failure) and
//!   a [`SchedulerKind`];
//! * [`Scheduler`] — the object-safe trait a scheduling strategy
//!   implements; [`SchedulerKind`] implements it by running the path
//!   queue with one slot ([`SchedulerKind::PerPath`]) or a sized front
//!   ([`SchedulerKind::Queue`]). Schedulers are *performance* choices:
//!   both produce bit-identical endpoints;
//! * [`Solver`] — *where* to solve: it owns an engine spec
//!   ([`EngineBuilder`]) and provisions engines per precision on
//!   demand, so precision escalation re-enters the same scheduler at
//!   higher precision on the same backend instead of being a separate
//!   driver;
//! * [`SolveReport`] — one result shape for every combination: a
//!   [`PathReport`] per path (verdict, endpoint, target residual,
//!   precision used), the scheduler's [`QueueStats`] (occupancy,
//!   refills, round trips), the engine's modeled [`PipelineStats`] and
//!   [`EngineCaps`], and the escalation accounting.
//!
//! Scheduling and backend placement are never numerical decisions: for
//! the same request, the per-path and queue schedulers return
//! bit-identical endpoints on every backend reachable from the spec.
//!
//! ```
//! use polygpu_homotopy::solve::{SolveRequest, Solver};
//! use polygpu_polysys::parse_system;
//!
//! // All four total-degree paths of a conic intersection, tracked by
//! // the default queue scheduler on the default engine spec.
//! let target = parse_system::<f64>("x0^2 + x1^2 - 5; x0*x1 - 2").unwrap();
//! let report = Solver::new().solve(&SolveRequest::new(target)).unwrap();
//! assert_eq!(report.paths.len(), 4);
//! assert_eq!(report.successes(), 4);
//! assert!(report.paths.iter().all(|p| p.residual < 1e-8));
//! ```

use crate::escalate::UsedPrecision;
use crate::fallible::FaultReport;
use crate::homotopy::random_gamma;
use crate::lockstep::{BatchHomotopy, LockstepPath};
use crate::queue::{track_queue_recovering_traced, QueueStats, SlotPolicy};
use crate::start::{AnyStart, StartSystem};
use crate::tracker::{TrackOutcome, TrackParams};
use polygpu_complex::{Complex, Real};
use polygpu_core::engine::{
    AnyEvaluator, Backend, BuildError, ClusterProvider, Engine, EngineBuilder, EngineCaps,
    NoCluster,
};
use polygpu_core::pipeline::PipelineStats;
use polygpu_core::{BatchError, CorrectorMode, RecoveryPolicy};
use polygpu_obs::{
    MetaValue, MetricsRegistry, SpanKind, TelemetrySnapshot, TraceSink, Tracer, Track,
};
use polygpu_polyhedral::{mixed_cell_starts, CellError};
use polygpu_polysys::{NaiveEvaluator, System, SystemEvaluator};
use polygpu_qd::Dd;
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The scheduler trait and the built-in schedulers
// ---------------------------------------------------------------------

/// The homotopy every scheduler runs over: an analytic start system
/// ([`AnyStart`] — total-degree or one mixed cell's binomial system)
/// against a boxed engine from the [`Solver`]'s spec.
pub type EngineHomotopy<R> = BatchHomotopy<R, AnyStart, Box<dyn AnyEvaluator<R>>>;

/// What a scheduler hands back: per-path endpoints in start order plus
/// its aggregate scheduling statistics.
#[derive(Debug, Clone)]
pub struct SchedulerRun<R> {
    /// Per-path endpoints, in start order.
    pub paths: Vec<LockstepPath<R>>,
    /// Rounds, round trips, occupancy numerators, step counts.
    pub stats: QueueStats,
    /// Faults seen and recovery work done at the scheduler level
    /// (`engine` is filled in by the solve layer after the run).
    pub fault: FaultReport,
}

/// An object-safe multi-path scheduling strategy: how the front of
/// live paths is formed and fed to the engine each round.
/// [`SchedulerKind`] implements it for the built-ins; implement it to
/// plug a custom strategy into the same [`EngineHomotopy`] (build one
/// with [`Solver::homotopy`]).
///
/// Scheduling is a performance decision only — the built-ins produce
/// **bit-identical** endpoints for the same request, whatever the
/// front size.
pub trait Scheduler<R: Real> {
    /// Short stable name for reports and tables.
    fn name(&self) -> &'static str;

    /// Track every start through `h`, one endpoint per start, in
    /// order. `caps` describes the engine in `h` (for slot sizing);
    /// `recovery` governs round-level retry when the engine injects
    /// faults. A fault that outlives recovery comes back as
    /// [`SolveError::Fault`] — schedulers never panic on one.
    ///
    /// `trace` is the solve layer's span sink on [`Track::Scheduler`]:
    /// emit one [`SpanKind::Round`] span per scheduling round on the
    /// modeled clock (the built-ins do). A disabled sink must leave the
    /// run bit-identical — spans never feed back into scheduling.
    fn run(
        &mut self,
        h: &mut EngineHomotopy<R>,
        starts: &[Vec<Complex<R>>],
        params: &TrackParams,
        caps: &EngineCaps,
        recovery: &RecoveryPolicy,
        trace: &TraceSink,
    ) -> Result<SchedulerRun<R>, SolveError>;
}

/// Which built-in [`Scheduler`] a [`SolveRequest`] runs. Both are the
/// path queue ([`crate::queue::track_queue_recovering_traced`]); they
/// differ only in the size of its slot front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// One path at a time: the path queue with a single slot, one
    /// evaluation (or one fused correction) per round trip — the
    /// reference the wider fronts are checked against.
    ///
    /// ```
    /// use polygpu_homotopy::solve::{SchedulerKind, SolveRequest, Solver};
    /// use polygpu_polysys::parse_system;
    ///
    /// let target = parse_system::<f64>("x0^2 - 1; x1^2 - 1").unwrap();
    /// let req = SolveRequest::new(target).with_scheduler(SchedulerKind::PerPath);
    /// let report = Solver::new().solve(&req).unwrap();
    /// assert_eq!(report.successes(), 4);
    /// assert_eq!(report.stats.slots, 1);
    /// ```
    PerPath,
    /// A refilling slot front — full batches until the queue drains.
    /// [`SlotPolicy::Auto`] resolves through [`EngineCaps::auto_slots`]
    /// to `devices × per-device capacity`, clamped to the engine's
    /// batch capacity — a point-sharded cluster run keeps every
    /// device's batch full each round, while a row-sharded cluster
    /// (whose devices all see every point) stays at one device's worth.
    ///
    /// ```
    /// use polygpu_homotopy::solve::{SchedulerKind, SolveRequest, Solver};
    /// use polygpu_homotopy::queue::SlotPolicy;
    /// use polygpu_polysys::parse_system;
    ///
    /// let target = parse_system::<f64>("x0^3 - 1; x1^3 - 1").unwrap();
    /// let req = SolveRequest::new(target).with_scheduler(SchedulerKind::Queue {
    ///     slots: SlotPolicy::Fixed(3),
    /// });
    /// let report = Solver::new().solve(&req).unwrap();
    /// assert!(report.occupancy() > 0.8);
    /// ```
    Queue { slots: SlotPolicy },
}

impl Default for SchedulerKind {
    /// The queue scheduler with [`SlotPolicy::Auto`] — full device
    /// occupancy on any backend.
    fn default() -> Self {
        SchedulerKind::Queue {
            slots: SlotPolicy::Auto,
        }
    }
}

impl SchedulerKind {
    /// Short stable name for reports and tables.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerKind::PerPath => "per-path",
            SchedulerKind::Queue { .. } => "queue",
        }
    }

    /// The slot front this kind runs `paths` paths with on an engine
    /// described by `caps`: one slot per path, or the queue's
    /// [`SlotPolicy`] resolved against [`EngineCaps::auto_slots`].
    pub fn slot_count(&self, caps: &EngineCaps, paths: usize) -> usize {
        match self {
            SchedulerKind::PerPath => 1,
            SchedulerKind::Queue { slots } => slots.resolve(caps.auto_slots(), paths),
        }
    }

    /// This kind as a [`Scheduler`] in precision `R` (one kind
    /// instantiates for every precision, which is how escalation
    /// re-enters the same scheduler at higher precision).
    pub fn instantiate<R: Real>(&self) -> Box<dyn Scheduler<R>> {
        Box::new(*self)
    }
}

impl<R: Real> Scheduler<R> for SchedulerKind {
    fn name(&self) -> &'static str {
        SchedulerKind::name(self)
    }

    fn run(
        &mut self,
        h: &mut EngineHomotopy<R>,
        starts: &[Vec<Complex<R>>],
        params: &TrackParams,
        caps: &EngineCaps,
        recovery: &RecoveryPolicy,
        trace: &TraceSink,
    ) -> Result<SchedulerRun<R>, SolveError> {
        let slots = SlotPolicy::Fixed(self.slot_count(caps, starts.len()));
        let (r, fault) = track_queue_recovering_traced(h, starts, *params, slots, recovery, trace)
            .map_err(SolveError::Fault)?;
        Ok(SchedulerRun {
            paths: r.paths,
            stats: r.stats,
            fault,
        })
    }
}

// ---------------------------------------------------------------------
// The request
// ---------------------------------------------------------------------

/// Which precision(s) a solve runs in.
#[derive(Debug, Clone, Copy)]
pub enum PrecisionPolicy {
    /// Every path tracked in one precision with the request's params.
    Fixed(UsedPrecision),
    /// Track in hardware doubles first; the paths that fail re-enter
    /// the **same scheduler** on the **same backend spec** in
    /// double-double with `dd_params` (typically tighter tolerances) —
    /// the paper's "a couple or perhaps just one solution path may
    /// require extended multiprecision arithmetic".
    Escalating { dd_params: TrackParams },
}

impl Default for PrecisionPolicy {
    fn default() -> Self {
        PrecisionPolicy::Fixed(UsedPrecision::Double)
    }
}

impl PrecisionPolicy {
    /// Escalation retrying failed paths with the same params as the
    /// double pass.
    pub fn escalating_with(params: TrackParams) -> Self {
        PrecisionPolicy::Escalating { dd_params: params }
    }
}

/// Which start points a [`SolveRequest`] tracks.
#[derive(Debug, Clone, Default)]
pub enum StartSelection {
    /// Every total-degree start solution (`∏ dᵢ` paths — mind the
    /// Bézout number).
    #[default]
    All,
    /// The first `n` start solutions in mixed-radix order.
    FirstN(u128),
    /// Specific start-solution indices.
    Indices(Vec<u128>),
    /// Explicit start points (yours to match the start system).
    Points(Vec<Vec<Complex<f64>>>),
}

/// Which start-system construction a [`SolveRequest`] tracks paths
/// from.
///
/// The two kinds bound the path count differently: total-degree tracks
/// one path per Bézout root (`∏ dᵢ`), mixed cells one path per unit of
/// mixed volume (Bernstein's bound) — strictly fewer for sparse
/// targets, and the dominant cost of a solve is the number of paths.
///
/// ```
/// use polygpu_homotopy::solve::{SolveRequest, Solver, StartKind};
/// use polygpu_polysys::parse_system;
///
/// // Sparse quadratics: Bézout 4, mixed volume 2 — half the paths.
/// let target = parse_system::<f64>("x0*x1 + x0 + 1; x0*x1 + x1 + 2").unwrap();
/// let dense = Solver::new().solve(&SolveRequest::new(target.clone())).unwrap();
/// let sparse = Solver::new()
///     .solve(&SolveRequest::new(target).with_start_kind(StartKind::MixedCells { lift_seed: 7 }))
///     .unwrap();
/// assert_eq!(dense.paths.len(), 4);
/// assert_eq!(sparse.paths.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartKind {
    /// The total-degree system `xᵢ^{dᵢ} − 1` from
    /// [`SolveRequest::start`] (or a custom [`StartSystem`] installed
    /// with [`SolveRequest::with_start`]).
    #[default]
    TotalDegree,
    /// One binomial start system per mixed cell of the target's lifted
    /// Newton polytopes ([`polygpu_polyhedral::mixed_cell_starts`]).
    /// The cells — and therefore every path — are a pure function of
    /// the target's support and `lift_seed`. [`SolveRequest::start`]
    /// is ignored; [`StartSelection::Points`] is rejected typed (a
    /// point's cell is not recoverable from coordinates).
    MixedCells { lift_seed: u64 },
}

/// One start system and the start points tracked from it —
/// [`SolveRequest::resolve_groups`] returns one group per start
/// system, in path order.
pub type StartGroup<R> = (AnyStart, Vec<Vec<Complex<R>>>);

/// Everything `solve()` needs: the problem, the tolerances, the
/// precision policy and the scheduler. Engine placement lives in the
/// [`Solver`], so one request runs unchanged on every backend.
///
/// ```
/// use polygpu_homotopy::prelude::*;
/// use polygpu_polysys::parse_system;
///
/// let target = parse_system::<f64>("x0^2 + x1^2 - 5; x0*x1 - 2").unwrap();
/// let req = SolveRequest::new(target)
///     .with_starts(StartSelection::FirstN(2))
///     .with_gamma_seed(7)
///     .with_precision(PrecisionPolicy::escalating_with(TrackParams::default()))
///     .with_scheduler(SchedulerKind::default());
/// let report = Solver::new().solve(&req).unwrap();
/// assert_eq!(report.paths.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The target system `F` (the engine spec provisions its
    /// evaluators, in every precision the policy needs).
    pub target: System<f64>,
    /// The start system `G` (evaluated analytically on the host).
    /// Used by [`StartKind::TotalDegree`]; ignored under
    /// [`StartKind::MixedCells`], which derives its per-cell binomial
    /// start systems from the target's support.
    pub start: StartSystem,
    /// Which start-system construction to track paths from.
    pub start_kind: StartKind,
    /// Which paths to track.
    pub starts: StartSelection,
    /// Seed of the gamma trick; equal seeds describe equal paths
    /// across schedulers, backends and precisions.
    pub gamma_seed: u64,
    /// Step-size and corrector controls (of the double pass, under
    /// escalation).
    pub params: TrackParams,
    pub precision: PrecisionPolicy,
    pub scheduler: SchedulerKind,
    /// Round-level retry policy for injected faults (see
    /// [`crate::fallible`]). Irrelevant — and free — on fault-free
    /// engines; with fault injection armed it bounds the retries before
    /// a fault surfaces as [`SolveError::Fault`].
    pub recovery: RecoveryPolicy,
    /// Span sink observing this solve on the modeled clock (disabled by
    /// default — see [`SolveRequest::with_tracer`]). Tracing never
    /// feeds back into the solve: outputs and modeled timings are
    /// bit-identical with and without a tracer installed.
    pub trace: TraceSink,
    /// Free-form request tag (`None` by default). The solver ignores
    /// it; serving layers use it to correlate a request through queues,
    /// reports and span exports without inventing a side table.
    pub label: Option<String>,
}

impl SolveRequest {
    /// A request tracking **all** total-degree paths of `target` with
    /// default tolerances, the queue scheduler and fixed double
    /// precision. Panics if a polynomial has total degree zero (no
    /// total-degree start system exists); build the [`StartSystem`]
    /// yourself and use [`SolveRequest::with_start`] for anything
    /// nonstandard.
    pub fn new(target: System<f64>) -> Self {
        let degrees: Vec<u32> = target.polys().iter().map(|p| p.total_degree()).collect();
        SolveRequest {
            start: StartSystem::new(degrees),
            start_kind: StartKind::TotalDegree,
            target,
            starts: StartSelection::All,
            gamma_seed: 0x9E37,
            params: TrackParams::default(),
            precision: PrecisionPolicy::default(),
            scheduler: SchedulerKind::default(),
            recovery: RecoveryPolicy::default(),
            trace: TraceSink::noop(),
            label: None,
        }
    }

    /// Tag this request with a correlation label (tenant name, job id).
    /// Purely descriptive: two requests differing only in label solve
    /// bit-identically.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    pub fn with_start(mut self, start: StartSystem) -> Self {
        self.start = start;
        self
    }

    pub fn with_start_kind(mut self, kind: StartKind) -> Self {
        self.start_kind = kind;
        self
    }

    pub fn with_starts(mut self, starts: StartSelection) -> Self {
        self.starts = starts;
        self
    }

    pub fn with_gamma_seed(mut self, seed: u64) -> Self {
        self.gamma_seed = seed;
        self
    }

    pub fn with_params(mut self, params: TrackParams) -> Self {
        self.params = params;
        self
    }

    /// Where the Newton corrector's linear solves run.
    /// [`CorrectorMode::Host`] (the default) downloads values and
    /// Jacobians every iteration; [`CorrectorMode::DeviceResident`]
    /// runs the fused evaluate → factor → solve → update loop on the
    /// engine, downloading only the O(paths) convergence-flag vector
    /// per iteration. Endpoints are bit-identical either way — the
    /// mode only moves modeled transfer traffic (compare
    /// [`SolveReport::engine`]'s `h2d_bytes`/`d2h_bytes`).
    ///
    /// ```
    /// use polygpu_core::engine::{Backend, Engine};
    /// use polygpu_core::CorrectorMode;
    /// use polygpu_homotopy::solve::{SolveRequest, Solver};
    /// use polygpu_polysys::{random_system, BenchmarkParams};
    ///
    /// let solver = || Solver::from_builder(
    ///     Engine::builder().backend(Backend::GpuBatch { capacity: 4 }),
    /// );
    /// let target = random_system::<f64>(&BenchmarkParams { n: 2, m: 2, k: 2, d: 2, seed: 3 });
    /// let host = solver().solve(&SolveRequest::new(target.clone())).unwrap();
    /// let resident = solver()
    ///     .solve(&SolveRequest::new(target).with_corrector(CorrectorMode::DeviceResident))
    ///     .unwrap();
    /// assert_eq!(resident.successes(), host.successes());
    /// assert!(resident.engine.d2h_bytes < host.engine.d2h_bytes);
    /// ```
    pub fn with_corrector(mut self, mode: CorrectorMode) -> Self {
        self.params.corrector_mode = mode;
        self
    }

    pub fn with_precision(mut self, precision: PrecisionPolicy) -> Self {
        self.precision = precision;
        self
    }

    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Install a [`Tracer`] observing this solve: spans for the whole
    /// solve, each precision pass, every scheduler round and — through
    /// the engine the [`Solver`]'s spec provisions — every device
    /// operation, all timestamped on the *modeled* clock. Same request,
    /// same seed ⇒ the same spans, byte for byte once exported.
    ///
    /// ```
    /// use polygpu_homotopy::solve::{SolveRequest, Solver};
    /// use polygpu_obs::{CollectingTracer, SpanKind};
    /// use polygpu_polysys::parse_system;
    /// use std::sync::Arc;
    ///
    /// let tracer = Arc::new(CollectingTracer::new());
    /// let target = parse_system::<f64>("x0^2 - 1; x1^2 - 1").unwrap();
    /// let req = SolveRequest::new(target).with_tracer(tracer.clone());
    /// Solver::new().solve(&req).unwrap();
    /// let spans = tracer.spans();
    /// assert_eq!(spans[0].kind, SpanKind::Solve);
    /// assert!(spans.iter().any(|s| s.kind == SpanKind::Round));
    /// ```
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.trace = TraceSink::new(tracer);
        self
    }

    /// Install an already-configured [`TraceSink`] (e.g. one shared
    /// with other solves, or rebased to splice this solve into a longer
    /// modeled timeline). [`SolveRequest::with_tracer`] is the common
    /// entry point.
    pub fn with_trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The concrete start points this request tracks, in path order.
    pub fn resolve_starts(&self) -> Result<Vec<Vec<Complex<f64>>>, SolveError> {
        let count = self.start.solution_count();
        let by_index = |idx: u128| -> Result<Vec<Complex<f64>>, SolveError> {
            if idx >= count {
                return Err(SolveError::StartIndexOutOfRange { index: idx, count });
            }
            Ok(self.start.solution_by_index(idx))
        };
        match &self.starts {
            StartSelection::All => (0..count).map(by_index).collect(),
            StartSelection::FirstN(n) => (0..count.min(*n)).map(by_index).collect(),
            StartSelection::Indices(idx) => idx.iter().map(|&i| by_index(i)).collect(),
            StartSelection::Points(points) => {
                let expected = self.start.degrees().len();
                for (i, x) in points.iter().enumerate() {
                    if x.len() != expected {
                        return Err(SolveError::PointDimension {
                            point: i,
                            got: x.len(),
                            expected,
                        });
                    }
                }
                Ok(points.clone())
            }
        }
    }

    /// The start systems and start points this request tracks, as the
    /// solver runs them: one group per start system, concatenated in
    /// path order. [`StartKind::TotalDegree`] yields one group
    /// (`resolve_starts`); [`StartKind::MixedCells`] yields one group
    /// per mixed cell, with [`StartSelection`] indexing the
    /// concatenation of every cell's roots (count = mixed volume).
    pub fn resolve_groups(&self) -> Result<Vec<StartGroup<f64>>, SolveError> {
        let lift_seed = match self.start_kind {
            StartKind::TotalDegree => {
                let start = AnyStart::TotalDegree(self.start.clone());
                return Ok(vec![(start, self.resolve_starts()?)]);
            }
            StartKind::MixedCells { lift_seed } => lift_seed,
        };
        let mc = mixed_cell_starts(&self.target, lift_seed).map_err(SolveError::MixedCells)?;
        let count = mc.mixed_volume;
        // Per-cell index ranges over the concatenated root order.
        let mut ranges = Vec::with_capacity(mc.cells.len());
        let mut off = 0u128;
        for cell in &mc.cells {
            ranges.push((off, cell.start.solution_count()));
            off += cell.start.solution_count();
        }
        let take = |cell: usize, lo: u128, hi: u128| -> (AnyStart, Vec<Vec<Complex<f64>>>) {
            let start = &mc.cells[cell].start;
            let points = (lo..hi).map(|i| start.solution_by_index(i)).collect();
            (AnyStart::Binomial(start.clone()), points)
        };
        let mut groups = Vec::new();
        match &self.starts {
            StartSelection::All => {
                for (cell, &(_, len)) in ranges.iter().enumerate() {
                    groups.push(take(cell, 0, len));
                }
            }
            StartSelection::FirstN(n) => {
                let mut remaining = *n;
                for (cell, &(_, len)) in ranges.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    let here = len.min(remaining);
                    groups.push(take(cell, 0, here));
                    remaining -= here;
                }
            }
            StartSelection::Indices(idx) => {
                // Consecutive indices in the same cell share a group, a
                // cell switch opens a new one — path order stays the
                // requested index order.
                let mut last_cell = usize::MAX;
                for &i in idx {
                    if i >= count {
                        return Err(SolveError::StartIndexOutOfRange { index: i, count });
                    }
                    let cell = ranges
                        .partition_point(|&(start, _)| start <= i)
                        .saturating_sub(1);
                    let point = mc.cells[cell].start.solution_by_index(i - ranges[cell].0);
                    if cell == last_cell {
                        groups.last_mut().expect("group opened above").1.push(point);
                    } else {
                        groups.push((
                            AnyStart::Binomial(mc.cells[cell].start.clone()),
                            vec![point],
                        ));
                        last_cell = cell;
                    }
                }
            }
            StartSelection::Points(_) => {
                return Err(SolveError::PointsWithMixedCells);
            }
        }
        if groups.is_empty() {
            // Zero paths selected: keep one (empty) group so the solve
            // still provisions an engine and reports its caps.
            groups.push(take(0, 0, 0));
        }
        Ok(groups)
    }
}

// ---------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------

/// A path endpoint in the precision that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum PathEndpoint {
    Double(Vec<Complex<f64>>),
    DoubleDouble(Vec<Complex<Dd>>),
}

impl PathEndpoint {
    pub fn precision(&self) -> UsedPrecision {
        match self {
            PathEndpoint::Double(_) => UsedPrecision::Double,
            PathEndpoint::DoubleDouble(_) => UsedPrecision::DoubleDouble,
        }
    }

    /// The endpoint in double-double (exact promotion when the path
    /// finished in doubles).
    pub fn to_dd(&self) -> Vec<Complex<Dd>> {
        match self {
            PathEndpoint::Double(x) => x.iter().map(|z| z.convert()).collect(),
            PathEndpoint::DoubleDouble(x) => x.clone(),
        }
    }

    /// The endpoint rounded to hardware doubles.
    pub fn to_f64(&self) -> Vec<Complex<f64>> {
        match self {
            PathEndpoint::Double(x) => x.clone(),
            PathEndpoint::DoubleDouble(x) => x.iter().map(|z| z.convert()).collect(),
        }
    }
}

/// One path's verdict.
#[derive(Debug, Clone)]
pub struct PathReport {
    /// Why tracking stopped (success means `t = 1` was reached).
    pub outcome: TrackOutcome,
    /// `t` of the last accepted point (`1.0` on success).
    pub t: f64,
    /// The last accepted point, in the precision that produced it.
    pub endpoint: PathEndpoint,
    /// Max-norm residual of the **target** system at the endpoint
    /// (evaluated in the endpoint's precision; diagnostic only for
    /// failed paths, which stopped short of `t = 1`).
    pub residual: f64,
}

impl PathReport {
    pub fn success(&self) -> bool {
        self.outcome == TrackOutcome::Success
    }

    /// Which precision finished this path.
    pub fn precision(&self) -> UsedPrecision {
        self.endpoint.precision()
    }
}

/// The double-double pass of an escalating solve.
#[derive(Debug, Clone)]
pub struct EscalationReport {
    /// Paths the double pass failed and the dd pass retried.
    pub retried: usize,
    /// Retried paths that succeeded in double-double.
    pub rescued: usize,
    /// The dd pass's scheduler statistics.
    pub stats: QueueStats,
    /// The dd engine's modeled cost (provisioned from the same spec).
    pub engine: PipelineStats,
    /// Faults seen and recovery work done during the dd pass.
    pub fault: FaultReport,
}

/// The uniform result of [`Solver::solve`]: per-path verdicts plus the
/// scheduler, engine and escalation telemetry the old drivers scattered
/// across four result types.
#[derive(Debug, Clone)]
pub struct SolveReport {
    /// One verdict per tracked path, in start order.
    pub paths: Vec<PathReport>,
    /// The scheduler that ran.
    pub scheduler: SchedulerKind,
    /// Backend name (from [`EngineCaps::backend`]).
    pub backend: &'static str,
    /// Engine shape and placement (devices, capacities, residency).
    pub caps: EngineCaps,
    /// Scheduler statistics of the primary (double, unless the policy
    /// fixed double-double) pass — occupancy, rounds, refills.
    pub stats: QueueStats,
    /// The primary engine's modeled cost statistics.
    pub engine: PipelineStats,
    /// Faults seen and recovery work done during the primary pass
    /// (scheduler-level retries plus the engine's own fault
    /// accounting). All zeros on fault-free runs.
    pub fault: FaultReport,
    /// Present when an escalation pass ran.
    pub escalation: Option<EscalationReport>,
    /// Every stats struct above, flattened into one sorted, diffable,
    /// serializable snapshot (`pipeline.*`, `scheduler.*`, `fault.*`,
    /// `escalation.*`, `solve.*` keys).
    ///
    /// ```
    /// use polygpu_homotopy::solve::{SolveRequest, Solver};
    /// use polygpu_obs::MetricValue;
    /// use polygpu_polysys::parse_system;
    ///
    /// let target = parse_system::<f64>("x0^2 - 1; x1^2 - 1").unwrap();
    /// let report = Solver::new().solve(&SolveRequest::new(target)).unwrap();
    /// assert_eq!(
    ///     report.telemetry.get("solve.paths"),
    ///     Some(MetricValue::Counter(4))
    /// );
    /// // One schema for dashboards and regression diffs.
    /// assert!(report.telemetry.to_json().starts_with('{'));
    /// assert!(report.telemetry.diff(&report.telemetry).is_empty());
    /// ```
    pub telemetry: TelemetrySnapshot,
}

impl SolveReport {
    /// Paths that reached `t = 1`.
    pub fn successes(&self) -> usize {
        self.paths.iter().filter(|p| p.success()).count()
    }

    /// Mean slot occupancy of the primary pass (see
    /// [`QueueStats::occupancy`]).
    pub fn occupancy(&self) -> f64 {
        self.stats.occupancy()
    }

    /// Paths the escalation pass retried in double-double.
    pub fn escalated(&self) -> usize {
        self.escalation.as_ref().map_or(0, |e| e.retried)
    }

    /// Fraction of paths that needed double-double.
    pub fn escalation_rate(&self) -> f64 {
        if self.paths.is_empty() {
            0.0
        } else {
            self.escalated() as f64 / self.paths.len() as f64
        }
    }

    /// Modeled end-to-end duration: engine wall clock plus scheduler-
    /// level recovery backoff, both passes included — the duration of
    /// the root [`SpanKind::Solve`] span an installed tracer sees.
    pub fn modeled_wall_seconds(&self) -> f64 {
        self.engine.wall_clock_seconds()
            + self.fault.backoff_seconds
            + self.escalation.as_ref().map_or(0.0, |e| {
                e.engine.wall_clock_seconds() + e.fault.backoff_seconds
            })
    }

    /// Modeled end-to-end throughput: paths per modeled engine second,
    /// both passes included (`0.0` for engines without a device model,
    /// e.g. the CPU reference).
    pub fn paths_per_second(&self) -> f64 {
        let wall = self.engine.wall_clock_seconds()
            + self
                .escalation
                .as_ref()
                .map_or(0.0, |e| e.engine.wall_clock_seconds());
        if wall > 0.0 {
            self.paths.len() as f64 / wall
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a solve could not run (tracking failures are *verdicts* in the
/// report, not errors).
#[derive(Debug)]
#[non_exhaustive]
pub enum SolveError {
    /// The engine spec failed to provision a backend.
    Build(BuildError),
    /// The target is rectangular (`rows != dim`): path tracking solves
    /// square systems only. Rectangular row blocks are an *evaluator*
    /// concept (row-sharded clusters cut them internally).
    RectangularTarget { rows: usize, dim: usize },
    /// Start and target systems disagree in dimension.
    DimensionMismatch { start: usize, target: usize },
    /// A start index beyond the start system's solution count.
    StartIndexOutOfRange { index: u128, count: u128 },
    /// An explicit start point whose length is not the start-system
    /// dimension.
    PointDimension {
        point: usize,
        got: usize,
        expected: usize,
    },
    /// An injected fault outlived the request's [`RecoveryPolicy`]
    /// (device loss, or retries exhausted) — typed, never a panic.
    /// The partial pass is discarded; rerun with a stronger policy or
    /// a fleet engine with internal failover.
    Fault(BatchError),
    /// [`StartKind::MixedCells`] could not construct start systems for
    /// this target (not square, dimension above the mixed-cell cap,
    /// a single-monomial polynomial, degenerate liftings, …).
    MixedCells(CellError),
    /// [`StartSelection::Points`] combined with
    /// [`StartKind::MixedCells`]: explicit points carry no record of
    /// which cell's binomial system they solve, so there is no start
    /// system to track them from. Use [`StartSelection::Indices`].
    PointsWithMixedCells,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Build(e) => write!(f, "engine provisioning: {e}"),
            SolveError::RectangularTarget { rows, dim } => write!(
                f,
                "target has {rows} polynomials in {dim} variables; solving needs a square system"
            ),
            SolveError::DimensionMismatch { start, target } => write!(
                f,
                "start system dimension {start} does not match target dimension {target}"
            ),
            SolveError::StartIndexOutOfRange { index, count } => write!(
                f,
                "start index {index} out of range (start system has {count} solutions)"
            ),
            SolveError::PointDimension {
                point,
                got,
                expected,
            } => write!(
                f,
                "start point {point} has {got} coordinates, expected {expected}"
            ),
            SolveError::Fault(e) => write!(f, "evaluation fault outlived recovery: {e}"),
            SolveError::MixedCells(e) => write!(f, "mixed-cell start construction: {e}"),
            SolveError::PointsWithMixedCells => write!(
                f,
                "explicit start points cannot be tracked from mixed-cell start systems \
                 (no cell is recoverable from coordinates); select by index instead"
            ),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Build(e) => Some(e),
            SolveError::Fault(e) => Some(e),
            SolveError::MixedCells(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BuildError> for SolveError {
    fn from(e: BuildError) -> Self {
        SolveError::Build(e)
    }
}

// ---------------------------------------------------------------------
// The solver
// ---------------------------------------------------------------------

/// The unified solving entry point: owns an engine spec and provisions
/// engines per precision on demand, so one `solve()` call covers every
/// scheduler × backend × precision combination the request selects.
///
/// [`Solver::new`] carries the core backends (CPU reference,
/// single-point GPU, batched GPU); [`Solver::from_builder`] accepts
/// any [`EngineBuilder`] — pass the facade's (or
/// `polygpu_cluster::engine_builder()`) for the cluster backend.
pub struct Solver<P: ClusterProvider = NoCluster> {
    builder: EngineBuilder<P>,
}

impl Solver<NoCluster> {
    /// A solver over the CPU reference backend — the spec every
    /// system shape fits (the device backends require the paper's
    /// uniform shape). Select a device or cluster backend with
    /// [`Solver::from_builder`]; endpoints are bit-identical either
    /// way.
    pub fn new() -> Self {
        Solver::from_builder(Engine::builder().backend(Backend::CpuReference))
    }
}

impl Default for Solver<NoCluster> {
    fn default() -> Self {
        Solver::new()
    }
}

impl<P: ClusterProvider> From<EngineBuilder<P>> for Solver<P> {
    fn from(builder: EngineBuilder<P>) -> Self {
        Solver::from_builder(builder)
    }
}

impl<P: ClusterProvider> Solver<P> {
    /// A solver provisioning engines from `builder` (the spec is
    /// reused for every precision the policy demands).
    pub fn from_builder(builder: EngineBuilder<P>) -> Self {
        Solver { builder }
    }

    /// The engine spec this solver provisions from.
    pub fn builder(&self) -> &EngineBuilder<P> {
        &self.builder
    }

    /// Build the request's homotopy in precision `R` over a fresh
    /// engine from this solver's spec — the entry point for custom
    /// [`Scheduler`] implementations. The gamma is the exactly-widened
    /// `f64` gamma of `gamma_seed`, so every precision describes the
    /// same paths.
    pub fn homotopy<R: Real>(
        &self,
        target: &System<R>,
        start: &StartSystem,
        gamma_seed: u64,
    ) -> Result<EngineHomotopy<R>, SolveError> {
        self.homotopy_any(target, &AnyStart::TotalDegree(start.clone()), gamma_seed)
    }

    /// [`Solver::homotopy`] over any [`AnyStart`] — how the solve loop
    /// builds the homotopy of each mixed cell's binomial start system.
    pub fn homotopy_any<R: Real>(
        &self,
        target: &System<R>,
        start: &AnyStart,
        gamma_seed: u64,
    ) -> Result<EngineHomotopy<R>, SolveError> {
        if !target.is_square() {
            return Err(SolveError::RectangularTarget {
                rows: target.rows(),
                dim: target.dim(),
            });
        }
        if start.dim() != target.dim() {
            return Err(SolveError::DimensionMismatch {
                start: start.dim(),
                target: target.dim(),
            });
        }
        let engine = self.builder.build(target)?;
        let gamma: Complex<R> = random_gamma::<f64>(gamma_seed).convert();
        Ok(BatchHomotopy::new(start.clone(), engine, gamma))
    }

    /// Provision engines for the request's precision policy, run its
    /// scheduler over its start points, and collect the uniform
    /// [`SolveReport`].
    pub fn solve(&self, req: &SolveRequest) -> Result<SolveReport, SolveError> {
        let groups = req.resolve_groups()?;
        let mut report = match req.precision {
            PrecisionPolicy::Fixed(UsedPrecision::Double) => {
                let pass = self.run_groups(req, &req.target, &groups, req.params, 0.0)?;
                SolveReport {
                    paths: report_f64(&req.target, pass.paths),
                    scheduler: req.scheduler,
                    backend: pass.caps.backend,
                    caps: pass.caps,
                    stats: pass.stats,
                    engine: pass.engine,
                    fault: pass.fault,
                    escalation: None,
                    telemetry: TelemetrySnapshot::default(),
                }
            }
            PrecisionPolicy::Fixed(UsedPrecision::DoubleDouble) => {
                let target_dd = req.target.convert::<Dd>();
                let groups_dd = widen_groups(&groups);
                let pass = self.run_groups(req, &target_dd, &groups_dd, req.params, 0.0)?;
                let paths = report_dd(&target_dd, pass.paths);
                SolveReport {
                    paths,
                    scheduler: req.scheduler,
                    backend: pass.caps.backend,
                    caps: pass.caps,
                    stats: pass.stats,
                    engine: pass.engine,
                    fault: pass.fault,
                    escalation: None,
                    telemetry: TelemetrySnapshot::default(),
                }
            }
            PrecisionPolicy::Escalating { dd_params } => {
                let pass = self.run_groups(req, &req.target, &groups, req.params, 0.0)?;
                let failed: Vec<usize> = pass
                    .paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !p.success())
                    .map(|(i, _)| i)
                    .collect();
                // Every failed path's report is replaced by its dd
                // retry below, so only successful endpoints are worth
                // a residual evaluation here.
                let mut paths = report_f64_successes_only(&req.target, pass.paths);
                let escalation = if failed.is_empty() {
                    None
                } else {
                    // Re-enter the same scheduler at higher precision:
                    // same spec, same gamma (exactly widened), the
                    // failed paths' start points only — regrouped by
                    // their start system (failed indices are increasing
                    // and groups concatenate in order, so retry order
                    // matches `failed`). The dd pass's spans start
                    // where the primary pass's clock ended.
                    let target_dd = req.target.convert::<Dd>();
                    let retry_groups = retry_groups_of(&groups, &failed);
                    let dd =
                        self.run_groups(req, &target_dd, &retry_groups, dd_params, pass.wall)?;
                    let rescued = dd.paths.iter().filter(|p| p.success()).count();
                    let dd_reports = report_dd(&target_dd, dd.paths);
                    for (&i, r) in failed.iter().zip(dd_reports) {
                        paths[i] = r;
                    }
                    Some(EscalationReport {
                        retried: failed.len(),
                        rescued,
                        stats: dd.stats,
                        engine: dd.engine,
                        fault: dd.fault,
                    })
                };
                SolveReport {
                    paths,
                    scheduler: req.scheduler,
                    backend: pass.caps.backend,
                    caps: pass.caps,
                    stats: pass.stats,
                    engine: pass.engine,
                    fault: pass.fault,
                    escalation,
                    telemetry: TelemetrySnapshot::default(),
                }
            }
        };
        report.telemetry = telemetry_of(&report);
        // The root span: the whole solve, both passes, on the modeled
        // clock from zero.
        req.trace.on(Track::Scheduler).emit(
            SpanKind::Solve,
            0.0,
            report.modeled_wall_seconds(),
            0,
            &[
                ("paths", MetaValue::U64(report.paths.len() as u64)),
                ("scheduler", MetaValue::Str(report.scheduler.name())),
            ],
        );
        Ok(report)
    }

    /// One precision pass over every start-system group: one
    /// [`Solver::run_pass`] per group, chained on the modeled clock
    /// (each group's spans start where the previous group's ended) and
    /// merged into one [`Pass`] — paths concatenate in group order,
    /// statistics sum. A total-degree solve is the one-group case and
    /// runs exactly as before.
    fn run_groups<R: Real>(
        &self,
        req: &SolveRequest,
        target: &System<R>,
        groups: &[StartGroup<R>],
        params: TrackParams,
        base: f64,
    ) -> Result<Pass<R>, SolveError> {
        let mut acc: Option<Pass<R>> = None;
        let mut offset = base;
        for (start, starts) in groups {
            let pass = self.run_pass(req, start, target, starts, params, offset)?;
            offset += pass.wall;
            acc = Some(match acc {
                None => pass,
                Some(mut merged) => {
                    merged.merge(pass);
                    merged
                }
            });
        }
        Ok(acc.expect("resolve_groups yields at least one group"))
    }

    /// One scheduler pass in precision `R`: fresh engine, fresh
    /// homotopy over `start`, the request's scheduler. `base` is the
    /// pass's origin on the solve's modeled clock — `0.0` for the
    /// primary pass, the primary pass's wall for the escalation pass —
    /// so every span of a two-pass solve lands on one monotone
    /// timeline.
    fn run_pass<R: Real>(
        &self,
        req: &SolveRequest,
        start: &AnyStart,
        target: &System<R>,
        starts: &[Vec<Complex<R>>],
        params: TrackParams,
        base: f64,
    ) -> Result<Pass<R>, SolveError> {
        let trace = req.trace.rebased(base);
        let mut h = if trace.enabled() {
            // A fresh engine wakes at modeled t = 0; handing it the
            // rebased sink keeps its device spans after the primary
            // pass's on the solve timeline.
            Solver::from_builder(self.builder.clone().trace_sink(trace.clone())).homotopy_any(
                target,
                start,
                req.gamma_seed,
            )?
        } else {
            self.homotopy_any(target, start, req.gamma_seed)?
        };
        let caps = h.f.caps();
        let mut scheduler = req.scheduler;
        let sched_trace = trace.on(Track::Scheduler);
        let run = scheduler.run(&mut h, starts, &params, &caps, &req.recovery, &sched_trace)?;
        let engine = h.f.engine_stats();
        let mut fault = run.fault;
        fault.engine = engine.fault;
        // The pass's extent on the modeled clock: engine wall plus the
        // scheduler-level backoff charged between retried rounds.
        let wall = engine.wall_clock_seconds() + fault.backoff_seconds;
        sched_trace.emit(
            SpanKind::Pass,
            0.0,
            wall,
            1,
            &[("paths", MetaValue::U64(starts.len() as u64))],
        );
        Ok(Pass {
            paths: run.paths,
            stats: run.stats,
            engine,
            fault,
            caps,
            wall,
        })
    }
}

/// One precision pass's raw results (possibly merged over several
/// start-system groups).
struct Pass<R: Real> {
    paths: Vec<LockstepPath<R>>,
    stats: QueueStats,
    engine: PipelineStats,
    fault: FaultReport,
    caps: EngineCaps,
    /// The pass's modeled duration (engine wall + scheduler backoff).
    wall: f64,
}

impl<R: Real> Pass<R> {
    /// Fold a later group's pass into this one: paths concatenate in
    /// path order, counters sum, the modeled clocks chain (`caps` stays
    /// — every group provisions from the same spec).
    fn merge(&mut self, other: Pass<R>) {
        self.paths.extend(other.paths);
        self.stats.rounds += other.stats.rounds;
        self.stats.batch_rounds += other.stats.batch_rounds;
        self.stats.refills += other.stats.refills;
        self.stats.point_rounds += other.stats.point_rounds;
        self.stats.slots = self.stats.slots.max(other.stats.slots);
        self.stats.steps_accepted += other.stats.steps_accepted;
        self.stats.steps_rejected += other.stats.steps_rejected;
        self.stats.corrector_iterations += other.stats.corrector_iterations;
        self.engine.merge(&other.engine);
        self.fault.faults += other.fault.faults;
        self.fault.retried_rounds += other.fault.retried_rounds;
        self.fault.recovered_rounds += other.fault.recovered_rounds;
        self.fault.backoff_seconds += other.fault.backoff_seconds;
        self.fault.engine.merge(&other.fault.engine);
        self.wall += other.wall;
    }
}

/// The groups' starts widened to double-double (exactly — widening is
/// injective), for the fixed-dd policy.
fn widen_groups(groups: &[StartGroup<f64>]) -> Vec<StartGroup<Dd>> {
    groups
        .iter()
        .map(|(start, starts)| (start.clone(), widen(starts)))
        .collect()
}

/// The escalation pass's groups: each failed path's start point,
/// widened, grouped under its own start system. `failed` holds
/// increasing global path indices over the groups' concatenation, so
/// walking the groups in order preserves retry order.
fn retry_groups_of(groups: &[StartGroup<f64>], failed: &[usize]) -> Vec<StartGroup<Dd>> {
    let mut retry = Vec::new();
    let mut next = failed.iter().copied().peekable();
    let mut offset = 0usize;
    for (start, starts) in groups {
        let end = offset + starts.len();
        let mut sel: Vec<Vec<Complex<f64>>> = Vec::new();
        while next.peek().is_some_and(|&i| i < end) {
            sel.push(starts[next.next().expect("peeked") - offset].clone());
        }
        if !sel.is_empty() {
            retry.push((start.clone(), widen(&sel)));
        }
        offset = end;
    }
    retry
}

/// Flatten every stats struct of `report` into the one sorted snapshot
/// surfaced as [`SolveReport::telemetry`].
fn telemetry_of(report: &SolveReport) -> TelemetrySnapshot {
    let mut reg = MetricsRegistry::new();
    reg.counter("solve.paths", report.paths.len() as u64);
    reg.counter("solve.successes", report.successes() as u64);
    reg.counter("solve.escalated", report.escalated() as u64);
    reg.gauge("solve.escalation_rate", report.escalation_rate());
    reg.gauge("solve.paths_per_second", report.paths_per_second());
    reg.gauge("solve.wall_seconds", report.modeled_wall_seconds());
    report.stats.record_metrics(&mut reg, "scheduler");
    report.engine.record_metrics(&mut reg, "pipeline");
    report.fault.record_metrics(&mut reg, "fault");
    if let Some(e) = &report.escalation {
        reg.counter("escalation.retried", e.retried as u64);
        reg.counter("escalation.rescued", e.rescued as u64);
        e.stats.record_metrics(&mut reg, "escalation.scheduler");
        e.engine.record_metrics(&mut reg, "escalation.pipeline");
        e.fault.record_metrics(&mut reg, "escalation.fault");
    }
    reg.snapshot()
}

fn widen(starts: &[Vec<Complex<f64>>]) -> Vec<Vec<Complex<Dd>>> {
    starts
        .iter()
        .map(|x| x.iter().map(|z| z.convert()).collect())
        .collect()
}

// Residuals are diagnostics, so the naive evaluator (which accepts
// any square system, uniform or not) is the right checker here.

fn report_f64(target: &System<f64>, paths: Vec<LockstepPath<f64>>) -> Vec<PathReport> {
    let mut check = NaiveEvaluator::new(target.clone());
    paths
        .into_iter()
        .map(|p| PathReport {
            residual: check.evaluate(&p.x).residual_norm(),
            outcome: p.outcome,
            t: p.t,
            endpoint: PathEndpoint::Double(p.x),
        })
        .collect()
}

/// [`report_f64`] for the escalating policy: failed paths' reports are
/// about to be replaced by their double-double retries, so their
/// residual evaluation would be discarded — leave a placeholder.
fn report_f64_successes_only(
    target: &System<f64>,
    paths: Vec<LockstepPath<f64>>,
) -> Vec<PathReport> {
    let mut check = NaiveEvaluator::new(target.clone());
    paths
        .into_iter()
        .map(|p| PathReport {
            residual: if p.outcome == TrackOutcome::Success {
                check.evaluate(&p.x).residual_norm()
            } else {
                f64::NAN
            },
            outcome: p.outcome,
            t: p.t,
            endpoint: PathEndpoint::Double(p.x),
        })
        .collect()
}

fn report_dd(target: &System<Dd>, paths: Vec<LockstepPath<Dd>>) -> Vec<PathReport> {
    let mut check = NaiveEvaluator::new(target.clone());
    paths
        .into_iter()
        .map(|p| PathReport {
            residual: check.evaluate(&p.x).residual_norm().to_f64(),
            outcome: p.outcome,
            t: p.t,
            endpoint: PathEndpoint::DoubleDouble(p.x),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::escalate::track_escalating_engine;
    use crate::homotopy::Homotopy;
    use crate::newton::NewtonParams;
    use crate::queue::track_queue;
    use crate::tracker::track;
    use polygpu_complex::C64;
    use polygpu_polysys::{
        parse_system, random_sparse_system, random_system, AdEvaluator, BenchmarkParams,
        SparseBenchmarkParams,
    };

    fn fixture(seed: u64) -> (System<f64>, StartSystem, Vec<Vec<C64>>) {
        let params = BenchmarkParams {
            n: 2,
            m: 2,
            k: 2,
            d: 2,
            seed,
        };
        let sys = random_system::<f64>(&params);
        let start = StartSystem::uniform(2, 2);
        let starts: Vec<Vec<C64>> = (0..4u128).map(|i| start.solution_by_index(i)).collect();
        (sys, start, starts)
    }

    fn request(sys: &System<f64>, start: &StartSystem, scheduler: SchedulerKind) -> SolveRequest {
        SolveRequest::new(sys.clone())
            .with_start(start.clone())
            .with_gamma_seed(7)
            .with_scheduler(scheduler)
    }

    fn gpu_solver() -> Solver {
        Solver::from_builder(Engine::builder().backend(Backend::GpuBatch { capacity: 4 }))
    }

    /// `solve()` with the per-path scheduler replays the legacy `track`
    /// loop bit for bit — endpoints, outcomes, final t, step counts.
    #[test]
    fn per_path_solve_matches_legacy_track() {
        let (sys, start, starts) = fixture(3);
        let params = TrackParams::default();
        let report = gpu_solver()
            .solve(&request(&sys, &start, SchedulerKind::PerPath))
            .unwrap();
        assert_eq!(report.paths.len(), 4);
        let (mut acc, mut rej, mut corr) = (0usize, 0usize, 0usize);
        for (i, (x0, got)) in starts.iter().zip(&report.paths).enumerate() {
            let f = AdEvaluator::new(sys.clone()).unwrap();
            let mut h = Homotopy::with_random_gamma(start.clone(), f, 7);
            let want = track(&mut h, x0, params);
            assert_eq!(got.outcome, want.outcome, "path {i}");
            assert_eq!(got.t, want.end().t, "path {i}");
            assert_eq!(
                got.endpoint,
                PathEndpoint::Double(want.end().x.clone()),
                "bit-identical endpoint, path {i}"
            );
            acc += want.steps_accepted;
            rej += want.steps_rejected;
            corr += want.corrector_iterations;
        }
        assert_eq!(report.stats.steps_accepted, acc);
        assert_eq!(report.stats.steps_rejected, rej);
        assert_eq!(report.stats.corrector_iterations, corr);
        // Per-path scheduling is a one-slot queue: one device round
        // trip per evaluation, every path after the first a refill.
        assert_eq!(report.stats.slots, 1);
        assert_eq!(report.stats.batch_rounds, report.stats.rounds);
        assert_eq!(report.stats.batch_rounds as u64, report.engine.batches);
        assert_eq!(report.stats.refills, 3);
        assert_eq!(report.backend, "gpu-batch");
    }

    /// The queue scheduler (any slot policy) equals the per-path
    /// scheduler bit for bit, and both equal the legacy `track_queue`.
    #[test]
    fn queue_solve_matches_legacy_and_per_path() {
        let (sys, start, starts) = fixture(3);
        let per_path = gpu_solver()
            .solve(&request(&sys, &start, SchedulerKind::PerPath))
            .unwrap();
        let mut legacy_h = BatchHomotopy::with_random_gamma(
            start.clone(),
            AdEvaluator::new(sys.clone()).unwrap(),
            7,
        );
        let legacy = track_queue(&mut legacy_h, &starts, TrackParams::default(), 3);
        for slots in [SlotPolicy::Auto, SlotPolicy::Fixed(2), SlotPolicy::Fixed(3)] {
            let report = gpu_solver()
                .solve(&request(&sys, &start, SchedulerKind::Queue { slots }))
                .unwrap();
            for (i, (got, want)) in report.paths.iter().zip(&per_path.paths).enumerate() {
                assert_eq!(got.outcome, want.outcome, "{slots:?}, path {i}");
                assert_eq!(got.endpoint, want.endpoint, "{slots:?}, path {i}");
                assert_eq!(got.t, want.t, "{slots:?}, path {i}");
            }
            for (i, (got, want)) in report.paths.iter().zip(&legacy.paths).enumerate() {
                assert_eq!(
                    got.endpoint,
                    PathEndpoint::Double(want.x.clone()),
                    "{slots:?} vs legacy track_queue, path {i}"
                );
            }
            assert_eq!(
                report.stats.corrector_iterations,
                legacy.stats.corrector_iterations
            );
        }
    }

    /// `SlotPolicy::Auto` resolves the queue front through the
    /// engine's capabilities and keeps it > 0.8 occupied.
    #[test]
    fn queue_auto_slots_follow_engine_caps() {
        let (sys, start, _) = fixture(3);
        let solver =
            Solver::from_builder(Engine::builder().backend(Backend::GpuBatch { capacity: 2 }));
        let req = request(&sys, &start, SchedulerKind::default());
        let report = solver.solve(&req).unwrap();
        // caps: 1 device × capacity 2, clamped by nothing (4 paths).
        assert_eq!(report.caps.auto_slots(), 2);
        assert_eq!(report.stats.slots, 2);
        assert!(report.occupancy() > 0.8, "occupancy {}", report.occupancy());
        assert!(report.stats.refills >= 2);
    }

    /// Escalation re-enters the scheduler at double-double and matches
    /// the legacy `track_escalating_engine` driver bit for bit.
    #[test]
    fn escalating_solve_matches_legacy_escalating_engine() {
        let (sys, start, starts) = fixture(7);
        let brutal = NewtonParams {
            residual_tol: 1e-19, // below f64 round-off: every path escalates
            step_tol: 1e-21,
            max_iters: 8,
            ..Default::default()
        };
        let params = TrackParams {
            corrector: brutal,
            ..Default::default()
        };
        let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
        let req = request(&sys, &start, SchedulerKind::PerPath)
            .with_params(params)
            .with_precision(PrecisionPolicy::Escalating { dd_params: params });
        let report = Solver::from_builder(builder.clone()).solve(&req).unwrap();
        let escalation = report.escalation.as_ref().expect("escalation pass ran");
        assert_eq!(escalation.retried, 4, "1e-19 is unreachable in f64");
        assert_eq!(report.escalated(), 4);
        assert!((report.escalation_rate() - 1.0).abs() < 1e-12);
        for (i, (x0, got)) in starts.iter().zip(&report.paths).enumerate() {
            let want =
                track_escalating_engine(&builder, &sys, &start, 7, x0, params, params).unwrap();
            assert_eq!(got.precision(), want.precision(), "path {i}");
            assert_eq!(got.success(), want.success(), "path {i}");
            assert_eq!(
                got.endpoint.to_dd(),
                want.end_dd(),
                "bit-identical dd endpoint, path {i}"
            );
        }
        // The dd engine came from the same spec and did modeled work.
        assert!(escalation.engine.evaluations > 0);
        assert!(escalation.engine.kernel_seconds > 0.0);
    }

    /// An easy request under the escalating policy never provisions
    /// the dd engine. (Path 1 of the seed-7 fixture is the known
    /// double-trackable path the escalate tests use.)
    #[test]
    fn easy_paths_do_not_escalate() {
        let (sys, start, _) = fixture(7);
        let req = request(&sys, &start, SchedulerKind::default())
            .with_starts(StartSelection::Indices(vec![1]))
            .with_gamma_seed(33)
            .with_precision(PrecisionPolicy::escalating_with(TrackParams::default()));
        let report = gpu_solver().solve(&req).unwrap();
        assert!(report.escalation.is_none());
        assert_eq!(report.escalated(), 0);
        assert_eq!(report.escalation_rate(), 0.0);
        assert!(report
            .paths
            .iter()
            .all(|p| p.precision() == UsedPrecision::Double));
    }

    /// Fixed double-double tracks everything in dd from the same spec
    /// (same gamma, exactly widened) and reports dd endpoints.
    #[test]
    fn fixed_dd_tracks_in_double_double() {
        let (sys, start, _) = fixture(7);
        let req = request(&sys, &start, SchedulerKind::default())
            .with_precision(PrecisionPolicy::Fixed(UsedPrecision::DoubleDouble));
        let report = gpu_solver().solve(&req).unwrap();
        assert!(report.successes() > 0);
        for p in &report.paths {
            assert_eq!(p.precision(), UsedPrecision::DoubleDouble);
            if p.success() {
                assert!(p.residual < 1e-9, "dd residual {:e}", p.residual);
                // The f64 view rounds the dd endpoint.
                assert_eq!(p.endpoint.to_f64().len(), 2);
            }
        }
    }

    /// Request validation: typed errors, not panics.
    #[test]
    fn request_errors_are_typed() {
        let (sys, _, _) = fixture(3);
        let req = SolveRequest::new(sys.clone()).with_starts(StartSelection::Indices(vec![99]));
        let err = Solver::new().solve(&req).unwrap_err();
        assert!(
            matches!(err, SolveError::StartIndexOutOfRange { index: 99, .. }),
            "{err}"
        );

        let req = SolveRequest::new(sys.clone()).with_start(StartSystem::uniform(3, 2));
        let err = Solver::new().solve(&req).unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::DimensionMismatch {
                    start: 3,
                    target: 2
                }
            ),
            "{err}"
        );

        // An explicit start point of the wrong length is rejected up
        // front, not deep in evaluation.
        let req = SolveRequest::new(sys.clone()).with_starts(StartSelection::Points(vec![vec![
            Complex::from_f64(1.0, 0.0),
        ]]));
        let err = Solver::new().solve(&req).unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::PointDimension {
                    point: 0,
                    got: 1,
                    expected: 2
                }
            ),
            "{err}"
        );

        // A rectangular target (constructible since row sharding made
        // System::rectangular public) is rejected with a typed error
        // instead of panicking inside the square-only LU.
        let rect = sys.row_block(&[0]);
        assert!(!rect.is_square());
        let req = SolveRequest::new(rect).with_start(StartSystem::uniform(2, 2));
        let err = Solver::new().solve(&req).unwrap_err();
        assert!(
            matches!(err, SolveError::RectangularTarget { rows: 1, dim: 2 }),
            "{err}"
        );

        let req = SolveRequest::new(sys);
        let err = Solver::from_builder(Engine::builder().block_dim(0))
            .solve(&req)
            .unwrap_err();
        assert!(matches!(err, SolveError::Build(_)), "{err}");
        // Every variant prints through Display + Error.
        let e: Box<dyn std::error::Error> = Box::new(err);
        assert!(e.to_string().contains("engine provisioning"));
        assert!(e.source().is_some());
    }

    /// Start selections resolve deterministically.
    #[test]
    fn start_selection_resolves() {
        let (sys, start, starts) = fixture(3);
        let req = SolveRequest::new(sys).with_start(start.clone());
        assert_eq!(req.resolve_starts().unwrap().len(), 4);
        assert_eq!(
            req.clone()
                .with_starts(StartSelection::FirstN(2))
                .resolve_starts()
                .unwrap(),
            starts[..2].to_vec()
        );
        assert_eq!(
            req.clone()
                .with_starts(StartSelection::Indices(vec![3, 1]))
                .resolve_starts()
                .unwrap(),
            vec![starts[3].clone(), starts[1].clone()]
        );
        assert_eq!(
            req.with_starts(StartSelection::Points(starts.clone()))
                .resolve_starts()
                .unwrap(),
            starts
        );
    }

    /// The chaos headline: under seeded fault injection, a solve either
    /// recovers — with endpoints **bit-identical** to the fault-free
    /// run — or surfaces a typed [`SolveError::Fault`]. It never panics
    /// and never silently degrades, on either scheduler and with either
    /// corrector. The seed sweep must actually hit both
    /// recovered-with-faults runs and at least one fault, or the
    /// invariant went untested.
    #[test]
    fn chaos_solve_recovers_bit_identical_or_types_the_fault() {
        use polygpu_core::FaultPlan;

        let (sys, start, _) = fixture(11);
        for scheduler in [
            SchedulerKind::PerPath,
            SchedulerKind::Queue {
                slots: SlotPolicy::Auto,
            },
        ] {
            for mode in [CorrectorMode::Host, CorrectorMode::DeviceResident] {
                let req = request(&sys, &start, scheduler).with_corrector(mode);
                let clean = gpu_solver().solve(&req).unwrap();
                assert!(!clean.fault.any(), "fault-free engines report no faults");

                let (mut faulted, mut recovered, mut surfaced) = (0u32, 0u32, 0u32);
                for seed in 0..24u64 {
                    let solver = Solver::from_builder(
                        Engine::builder()
                            .backend(Backend::GpuBatch { capacity: 4 })
                            .fault_plan(FaultPlan::new(seed, 5_000)),
                    );
                    match solver.solve(&req) {
                        Ok(report) => {
                            for (i, (got, want)) in
                                report.paths.iter().zip(&clean.paths).enumerate()
                            {
                                assert_eq!(got.outcome, want.outcome, "seed {seed} path {i}");
                                assert_eq!(
                                    got.endpoint, want.endpoint,
                                    "seed {seed} path {i}: recovery must be bit-identical"
                                );
                            }
                            if report.fault.any() {
                                faulted += 1;
                                if report.fault.recovered_rounds > 0 {
                                    recovered += 1;
                                    assert!(
                                        report.fault.backoff_seconds > 0.0,
                                        "seed {seed}: retries charge modeled backoff"
                                    );
                                }
                            }
                        }
                        Err(SolveError::Fault(e)) => {
                            surfaced += 1;
                            assert!(
                                matches!(e, BatchError::Fault(_)),
                                "seed {seed}: a single-device engine surfaces the fault itself"
                            );
                        }
                        Err(e) => panic!("seed {seed}: unexpected non-fault error: {e}"),
                    }
                }
                let case = format!("{scheduler:?} / {mode:?}");
                assert!(faulted > 0, "{case}: the sweep never faulted");
                assert!(recovered > 0, "{case}: the sweep never recovered");
                assert!(surfaced > 0, "{case}: no seed exhausted recovery");
            }
        }
    }

    /// Same request, same seed, two runs: the exported Chrome trace is
    /// byte-identical, and the span tree reconciles with the report's
    /// stats (root span duration = modeled wall, pass span = root).
    #[test]
    fn solve_trace_is_deterministic_and_reconciles() {
        use polygpu_obs::{chrome_trace_json, CollectingTracer, MetricValue};

        let (sys, start, _) = fixture(3);
        let run = || {
            let tracer = Arc::new(CollectingTracer::new());
            let req = request(&sys, &start, SchedulerKind::default()).with_tracer(tracer.clone());
            let report = gpu_solver().solve(&req).unwrap();
            (tracer.spans(), report)
        };
        let (spans, report) = run();
        let (spans2, _) = run();
        assert_eq!(
            chrome_trace_json(&spans),
            chrome_trace_json(&spans2),
            "same request, same seed: byte-identical trace"
        );

        let solve = spans.iter().find(|s| s.kind == SpanKind::Solve).unwrap();
        assert_eq!(solve.start, 0.0);
        assert!(
            (solve.dur - report.modeled_wall_seconds()).abs() <= 1e-12 * solve.dur.max(1.0),
            "root span ({}) reconciles with the report's wall ({})",
            solve.dur,
            report.modeled_wall_seconds()
        );
        let passes: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Pass).collect();
        assert_eq!(passes.len(), 1);
        assert_eq!(passes[0].dur, solve.dur);
        // Scheduler rounds and device ops both made it into the tree.
        assert!(spans
            .iter()
            .any(|s| s.kind == SpanKind::Round && s.track == Track::Scheduler));
        assert!(spans
            .iter()
            .any(|s| matches!(s.track, Track::Device(0) | Track::DeviceLane(0, _))));
        // The telemetry snapshot subsumes the stats structs.
        assert_eq!(
            report.telemetry.get("pipeline.evaluations"),
            Some(MetricValue::Counter(report.engine.evaluations))
        );
        assert_eq!(
            report.telemetry.get("solve.paths"),
            Some(MetricValue::Counter(report.paths.len() as u64))
        );
        assert!(report.telemetry.diff(&report.telemetry).is_empty());
    }

    /// Installing the no-op tracer (or any tracer) changes nothing:
    /// endpoints, scheduler stats and modeled engine timings are
    /// bit-identical to the untraced run.
    #[test]
    fn noop_tracer_leaves_solve_bit_identical() {
        use polygpu_obs::NoopTracer;

        let (sys, start, _) = fixture(3);
        let plain = gpu_solver()
            .solve(&request(&sys, &start, SchedulerKind::default()))
            .unwrap();
        let traced = gpu_solver()
            .solve(
                &request(&sys, &start, SchedulerKind::default()).with_tracer(Arc::new(NoopTracer)),
            )
            .unwrap();
        for (i, (a, b)) in plain.paths.iter().zip(&traced.paths).enumerate() {
            assert_eq!(a.outcome, b.outcome, "path {i}");
            assert_eq!(a.endpoint, b.endpoint, "path {i}");
        }
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.engine.wall_seconds, traced.engine.wall_seconds);
        assert_eq!(plain.telemetry, traced.telemetry);
    }

    /// Under escalation the dd pass's spans start exactly where the
    /// primary pass's modeled clock ended, and the root span covers
    /// both.
    #[test]
    fn escalation_trace_appends_dd_pass_after_primary() {
        use polygpu_obs::CollectingTracer;

        let (sys, start, _) = fixture(7);
        let brutal = NewtonParams {
            residual_tol: 1e-19,
            step_tol: 1e-21,
            max_iters: 8,
            ..Default::default()
        };
        let params = TrackParams {
            corrector: brutal,
            ..Default::default()
        };
        let tracer = Arc::new(CollectingTracer::new());
        let req = request(&sys, &start, SchedulerKind::default())
            .with_params(params)
            .with_precision(PrecisionPolicy::Escalating { dd_params: params })
            .with_tracer(tracer.clone());
        let report = gpu_solver().solve(&req).unwrap();
        assert!(report.escalation.is_some());

        let spans = tracer.spans();
        let passes: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Pass).collect();
        assert_eq!(passes.len(), 2, "primary + escalation");
        assert_eq!(passes[0].start, 0.0);
        assert_eq!(
            passes[1].start, passes[0].dur,
            "the dd pass starts where the primary ended"
        );
        let solve = spans.iter().find(|s| s.kind == SpanKind::Solve).unwrap();
        assert!(
            (solve.dur - (passes[0].dur + passes[1].dur)).abs() <= 1e-12 * solve.dur,
            "root span spans both passes"
        );
    }

    /// A request resolving to zero paths keeps every report ratio total
    /// (no div-by-zero, no NaN).
    #[test]
    fn empty_solve_report_ratios_are_total() {
        let (sys, start, _) = fixture(3);
        let req =
            request(&sys, &start, SchedulerKind::PerPath).with_starts(StartSelection::FirstN(0));
        let report = gpu_solver().solve(&req).unwrap();
        assert!(report.paths.is_empty());
        assert_eq!(report.paths_per_second(), 0.0);
        assert_eq!(report.escalation_rate(), 0.0);
        assert_eq!(report.occupancy(), 0.0);
        assert_eq!(report.modeled_wall_seconds(), 0.0);
        assert!(!report.telemetry.is_empty());
    }

    /// Sparse quadratics under mixed-cell starts: mixed-volume many
    /// paths (strictly fewer than Bézout), same roots, bit-identical
    /// endpoints across schedulers.
    fn packed_gpu_solver() -> Solver {
        use polygpu_core::EncodingKind;
        Solver::from_builder(
            Engine::builder()
                .backend(Backend::GpuBatch { capacity: 4 })
                .encoding(EncodingKind::Packed),
        )
    }

    #[test]
    fn mixed_cells_track_fewer_paths_bit_identical_across_schedulers() {
        let target = parse_system::<f64>("x0*x1 + x0 + 1; x0*x1 + x1 + 2").unwrap();
        let kind = StartKind::MixedCells { lift_seed: 7 };
        let dense = packed_gpu_solver()
            .solve(&SolveRequest::new(target.clone()))
            .unwrap();
        let per_path = packed_gpu_solver()
            .solve(
                &SolveRequest::new(target.clone())
                    .with_start_kind(kind)
                    .with_scheduler(SchedulerKind::PerPath),
            )
            .unwrap();
        let queue = packed_gpu_solver()
            .solve(&SolveRequest::new(target.clone()).with_start_kind(kind))
            .unwrap();
        assert_eq!(dense.paths.len(), 4, "Bézout paths");
        assert_eq!(per_path.paths.len(), 2, "mixed-volume paths");
        assert_eq!(per_path.successes(), 2);
        for (i, (a, b)) in per_path.paths.iter().zip(&queue.paths).enumerate() {
            assert_eq!(a.outcome, b.outcome, "path {i}");
            assert_eq!(a.endpoint, b.endpoint, "bit-identical endpoint, path {i}");
            assert!(a.residual < 1e-8, "path {i} residual {:e}", a.residual);
        }
        // The two mixed-cell roots are among the dense solve's roots.
        for p in &per_path.paths {
            let x = p.endpoint.to_f64();
            let near = dense.paths.iter().filter(|d| d.success()).any(|d| {
                d.endpoint
                    .to_f64()
                    .iter()
                    .zip(&x)
                    .all(|(a, b)| (*a - *b).abs() < 1e-6)
            });
            assert!(near, "mixed-cell endpoint missing from dense solve");
        }
    }

    /// `StartSelection` indexes the concatenation of every cell's
    /// roots; `Points` and out-of-range indices reject typed, as do
    /// targets the cell enumeration cannot handle.
    #[test]
    fn mixed_cells_selection_and_typed_errors() {
        let target = parse_system::<f64>("x0*x1 + x0 + 1; x0*x1 + x1 + 2").unwrap();
        let kind = StartKind::MixedCells { lift_seed: 7 };
        let all = packed_gpu_solver()
            .solve(&SolveRequest::new(target.clone()).with_start_kind(kind))
            .unwrap();
        let first = packed_gpu_solver()
            .solve(
                &SolveRequest::new(target.clone())
                    .with_start_kind(kind)
                    .with_starts(StartSelection::FirstN(1)),
            )
            .unwrap();
        assert_eq!(first.paths.len(), 1);
        assert_eq!(first.paths[0].endpoint, all.paths[0].endpoint);
        let picked = packed_gpu_solver()
            .solve(
                &SolveRequest::new(target.clone())
                    .with_start_kind(kind)
                    .with_starts(StartSelection::Indices(vec![1, 0])),
            )
            .unwrap();
        assert_eq!(picked.paths[0].endpoint, all.paths[1].endpoint);
        assert_eq!(picked.paths[1].endpoint, all.paths[0].endpoint);

        let err = Solver::new()
            .solve(
                &SolveRequest::new(target.clone())
                    .with_start_kind(kind)
                    .with_starts(StartSelection::Indices(vec![9])),
            )
            .unwrap_err();
        assert!(
            matches!(err, SolveError::StartIndexOutOfRange { index: 9, count: 2 }),
            "{err}"
        );
        let err = Solver::new()
            .solve(
                &SolveRequest::new(target)
                    .with_start_kind(kind)
                    .with_starts(StartSelection::Points(vec![vec![C64::one(); 2]])),
            )
            .unwrap_err();
        assert!(matches!(err, SolveError::PointsWithMixedCells), "{err}");

        // An 8-dimensional target is past the mixed-cell dimension cap.
        let big = random_sparse_system::<f64>(&SparseBenchmarkParams {
            n: 8,
            m_min: 2,
            m_max: 3,
            k_min: 1,
            k_max: 3,
            d: 2,
            seed: 1,
        });
        let err = Solver::new()
            .solve(&SolveRequest::new(big).with_start_kind(StartKind::MixedCells { lift_seed: 0 }))
            .unwrap_err();
        assert!(matches!(err, SolveError::MixedCells(_)), "{err}");
    }

    /// Precision escalation re-enters the scheduler per cell: failed
    /// mixed-cell paths retry in double-double from the same binomial
    /// start systems.
    #[test]
    fn mixed_cells_escalate_per_cell() {
        let target = parse_system::<f64>("x0*x1 + x0 + 1; x0*x1 + x1 + 2").unwrap();
        let brutal = NewtonParams {
            residual_tol: 1e-19, // below f64 round-off: every path escalates
            step_tol: 1e-21,
            max_iters: 8,
            ..Default::default()
        };
        let params = TrackParams {
            corrector: brutal,
            ..Default::default()
        };
        let report = packed_gpu_solver()
            .solve(
                &SolveRequest::new(target)
                    .with_start_kind(StartKind::MixedCells { lift_seed: 7 })
                    .with_params(params)
                    .with_precision(PrecisionPolicy::Escalating { dd_params: params }),
            )
            .unwrap();
        let escalation = report.escalation.as_ref().expect("escalation pass ran");
        assert_eq!(escalation.retried, 2, "1e-19 is unreachable in f64");
        assert_eq!(escalation.rescued, 2);
        assert!(report
            .paths
            .iter()
            .all(|p| p.precision() == UsedPrecision::DoubleDouble));
        assert!(report.paths.iter().all(|p| p.residual < 1e-18));
    }

    /// With recovery disabled every injected fault surfaces typed on
    /// the first strike: zero retried rounds, zero modeled backoff.
    #[test]
    fn chaos_solve_without_recovery_fails_fast() {
        use polygpu_core::FaultPlan;

        let (sys, start, _) = fixture(11);
        let solver = Solver::from_builder(
            Engine::builder()
                .backend(Backend::GpuBatch { capacity: 4 })
                // High enough that the first batch round faults.
                .fault_plan(FaultPlan::new(5, 400_000)),
        );
        let req =
            request(&sys, &start, SchedulerKind::default()).with_recovery(RecoveryPolicy::none());
        match solver.solve(&req) {
            Err(SolveError::Fault(e)) => {
                let msg = e.to_string();
                assert!(msg.contains("injected fault"), "{msg}");
            }
            Ok(r) => panic!(
                "a 40% fault rate with no recovery cannot finish cleanly (faults={})",
                r.fault.faults
            ),
            Err(e) => panic!("unexpected non-fault error: {e}"),
        }
    }
}
