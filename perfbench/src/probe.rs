//! Host-clock tracing from outside the library: a decorator that times
//! every call into an engine, a cluster provider that exposes the
//! per-device figures a fleet keeps behind its concrete type, and the
//! in-memory span store both write to.
//!
//! Nothing here changes what the engines compute. The decorator forwards
//! every method of [`AnyEvaluator`] — including `try_correct_batch`,
//! whose trait default would silently swap the fused device corrector
//! for the host loop — and the provider builds exactly the engines
//! `polygpu_cluster::Sharded` builds.

use polygpu::cluster::{
    ClusterOptions, RowClusterOptions, RowShardedEvaluator, ShardPolicy, ShardedBatchEvaluator,
};
use polygpu::complex::{Complex, Real};
use polygpu::core::pipeline::PipelineStats;
use polygpu::core::{BatchError, CombineMap, CorrectParams, CorrectStatus};
use polygpu::engine::{
    AnyEvaluator, BuildError, ClusterPolicy, ClusterProvider, ClusterSpec, EngineCaps, ShardMode,
};
use polygpu::polysys::{BatchSystemEvaluator, System, SystemEval, SystemEvaluator};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// One timed call at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    /// Request the call belongs to (spans of one request share it).
    pub request: u64,
    /// Offset from the recorder's epoch.
    pub start: Duration,
    pub dur: Duration,
}

/// Modeled figures of one fleet engine that its `engine_stats` does not
/// carry: per-device wall clocks, per-device overlap savings and the
/// row-shard gather.
#[derive(Debug, Clone, Default)]
pub struct FleetView {
    pub device_wall: Vec<f64>,
    pub overlap_saved: f64,
    pub gather: f64,
}

#[derive(Default)]
struct Recorder {
    epoch: Option<Instant>,
    request: u64,
    spans: Vec<Span>,
    fleets: Vec<FleetView>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Start a new request: later spans carry its id.
pub fn begin_request(id: u64) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.epoch.get_or_insert_with(Instant::now);
        r.request = id;
    });
}

/// Time `f` as one span of `layer`.
pub fn span<T>(layer: &'static str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let dur = t0.elapsed();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let epoch = *r.epoch.get_or_insert(t0);
        let request = r.request;
        r.spans.push(Span {
            layer,
            request,
            start: t0.saturating_duration_since(epoch),
            dur,
        });
    });
    out
}

/// Every span recorded on this thread so far, leaving the store empty.
pub fn take_spans() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// The fleet views of every fleet engine dropped since the last call.
pub fn take_fleets() -> Vec<FleetView> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().fleets))
}

/// Total seconds of the spans on `layer`.
pub fn layer_seconds(spans: &[Span], layer: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur.as_secs_f64())
        .sum()
}

/// The span list as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete event per span, one thread lane per request.
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
            s.layer,
            s.request,
            s.start.as_secs_f64() * 1e6,
            s.dur.as_secs_f64() * 1e6
        ));
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------------
// The timing decorator
// ---------------------------------------------------------------------

/// Layer name of the time inside engine evaluation calls.
pub const EVAL: &str = "core.eval";
/// Layer name of the time inside fused corrector calls.
pub const CORRECT: &str = "core.correct";

/// Forwards every [`AnyEvaluator`] method to `inner`, timing the
/// evaluation entry points as [`EVAL`] spans and the fused corrector as
/// [`CORRECT`] spans.
pub struct Timed<R: Real> {
    inner: Box<dyn AnyEvaluator<R>>,
}

impl<R: Real> Timed<R> {
    pub fn new(inner: Box<dyn AnyEvaluator<R>>) -> Self {
        Timed { inner }
    }

    /// The undecorated engine, for untraced calls on the same state.
    pub fn inner_mut(&mut self) -> &mut dyn AnyEvaluator<R> {
        self.inner.as_mut()
    }
}

impl<R: Real> SystemEvaluator<R> for Timed<R> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        span(EVAL, || self.inner.evaluate(x))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<R: Real> BatchSystemEvaluator<R> for Timed<R> {
    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        span(EVAL, || self.inner.evaluate_batch(points))
    }
}

impl<R: Real> AnyEvaluator<R> for Timed<R> {
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        span(EVAL, || self.inner.try_evaluate_batch(points))
    }

    fn try_evaluate(&mut self, x: &[Complex<R>]) -> Result<SystemEval<R>, BatchError> {
        span(EVAL, || self.inner.try_evaluate(x))
    }

    fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        span(CORRECT, || {
            self.inner.try_correct_batch(points, combine, params)
        })
    }

    fn engine_stats(&self) -> PipelineStats {
        self.inner.engine_stats()
    }

    fn reset_engine_stats(&mut self) {
        self.inner.reset_engine_stats()
    }

    fn caps(&self) -> EngineCaps {
        self.inner.caps()
    }
}

// ---------------------------------------------------------------------
// The observing cluster provider
// ---------------------------------------------------------------------

/// Fleet engines whose per-device figures the provider reports.
trait FleetFigures {
    fn view(&self) -> FleetView;
}

impl<R: Real> FleetFigures for ShardedBatchEvaluator<R> {
    fn view(&self) -> FleetView {
        FleetView {
            device_wall: self.cluster_stats().device_wall,
            overlap_saved: self.overlap_savings(),
            gather: 0.0,
        }
    }
}

impl<R: Real> FleetFigures for RowShardedEvaluator<R> {
    fn view(&self) -> FleetView {
        let stats = self.cluster_stats();
        FleetView {
            device_wall: stats.device_wall,
            overlap_saved: self
                .device_stats()
                .iter()
                .map(PipelineStats::overlap_savings)
                .sum(),
            gather: stats.gather_seconds,
        }
    }
}

/// A fleet engine that files its [`FleetView`] with the recorder when
/// it is dropped (at the end of the solve pass that built it).
struct Fleet<E: FleetFigures> {
    inner: E,
}

impl<E: FleetFigures> Drop for Fleet<E> {
    fn drop(&mut self) {
        let view = self.inner.view();
        REC.with(|r| {
            if let Ok(mut r) = r.try_borrow_mut() {
                r.fleets.push(view);
            }
        });
    }
}

impl<R: Real, E: AnyEvaluator<R> + FleetFigures> SystemEvaluator<R> for Fleet<E> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        self.inner.evaluate(x)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<R: Real, E: AnyEvaluator<R> + FleetFigures> BatchSystemEvaluator<R> for Fleet<E> {
    fn max_batch(&self) -> usize {
        self.inner.max_batch()
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        self.inner.evaluate_batch(points)
    }
}

impl<R: Real, E: AnyEvaluator<R> + FleetFigures> AnyEvaluator<R> for Fleet<E> {
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        self.inner.try_evaluate_batch(points)
    }

    fn try_evaluate(&mut self, x: &[Complex<R>]) -> Result<SystemEval<R>, BatchError> {
        self.inner.try_evaluate(x)
    }

    fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        self.inner.try_correct_batch(points, combine, params)
    }

    fn engine_stats(&self) -> PipelineStats {
        self.inner.engine_stats()
    }

    fn reset_engine_stats(&mut self) {
        self.inner.reset_engine_stats()
    }

    fn caps(&self) -> EngineCaps {
        self.inner.caps()
    }
}

/// Builds the same fleet engines as `polygpu_cluster::Sharded` (the
/// facade's default provider), wrapped so that each
/// one reports its [`FleetView`] (see [`take_fleets`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct Observed;

impl ClusterProvider for Observed {
    fn build<R: Real>(
        &self,
        system: &System<R>,
        spec: &ClusterSpec,
    ) -> Result<Box<dyn AnyEvaluator<R>>, BuildError> {
        match spec.shard {
            ShardMode::Points { policy } => {
                let policy = match policy {
                    ClusterPolicy::RoundRobin => ShardPolicy::RoundRobin,
                    ClusterPolicy::CapacityProportional => ShardPolicy::CapacityProportional,
                    ClusterPolicy::WorkStealing { chunk } => ShardPolicy::WorkStealing { chunk },
                };
                let opts = ClusterOptions {
                    policy,
                    overlap_chunks: spec.base.overlap_chunks,
                    base: spec.base.clone(),
                    recovery: spec.recovery,
                };
                let inner = ShardedBatchEvaluator::new(
                    system,
                    &spec.devices,
                    spec.per_device_capacity,
                    opts,
                )?;
                Ok(Box::new(Fleet { inner }))
            }
            ShardMode::Rows { policy } => {
                let opts = RowClusterOptions {
                    policy,
                    gather: spec.gather,
                    overlap_chunks: spec.base.overlap_chunks,
                    base: spec.base.clone(),
                    recovery: spec.recovery,
                };
                let inner = RowShardedEvaluator::new(
                    system,
                    &spec.devices,
                    spec.per_device_capacity,
                    opts,
                )?;
                Ok(Box::new(Fleet { inner }))
            }
        }
    }
}
