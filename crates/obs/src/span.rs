//! Spans on the modeled clock: the deterministic trace primitives.
//!
//! A [`Span`] is one interval of *simulated* time — a device operation,
//! a scheduler round, a backoff gap — attributed to a [`Track`] (one
//! row of the exported timeline) and stamped with a [`SpanKind`].
//! Because every timestamp comes from the cost model rather than the
//! host clock, two runs with the same seed produce the *same set* of
//! spans, and [`CollectingTracer::spans`] returns them in one total
//! deterministic order regardless of which host thread emitted them.

use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, Mutex};

/// What a span stands for in the solve hierarchy
/// (`solve → pass → round → batch → shard → device op`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum SpanKind {
    /// One whole `Solver::solve` call.
    Solve,
    /// One precision pass (primary double or dd escalation).
    Pass,
    /// One scheduler round (queue refill-and-step or lockstep sweep).
    Round,
    /// One engine batch (one pair of kernel launches: monomials, then
    /// sums).
    Batch,
    /// One device's slice of a sharded cluster batch.
    Shard,
    /// Host-to-device transfer.
    Upload,
    /// Kernel launch (overhead + execution).
    Launch,
    /// Device-to-host transfer.
    Download,
    /// A retried round after a recoverable fault.
    Retry,
    /// Modeled backoff gap charged between retries.
    Backoff,
    /// Fault detection window (the latency a strike charges).
    Detect,
    /// Re-encoding a system over the surviving fleet after device loss.
    Reencode,
    /// CPU-reference fallback absorbing work from lost devices.
    Fallback,
    /// One whole multi-tenant service run (`SolveService::run`).
    Serve,
    /// Admission decision for one submitted job.
    Admit,
    /// Modeled queue wait between admission and solve start.
    Wait,
    /// Cache eviction of a resident encoded system.
    Evict,
    /// One fused device-resident corrector call (evaluate → factor →
    /// solve → update without host round trips).
    Correct,
    /// Elimination phase (LU of the live Jacobians) of a fused
    /// factor-and-solve launch, launch overhead included.
    Factor,
    /// Back-substitution and update phase of a fused factor-and-solve
    /// launch; with `Factor` it tiles the launch.
    Backsub,
}

impl SpanKind {
    /// Stable lowercase name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Solve => "solve",
            SpanKind::Pass => "pass",
            SpanKind::Round => "round",
            SpanKind::Batch => "batch",
            SpanKind::Shard => "shard",
            SpanKind::Upload => "upload",
            SpanKind::Launch => "launch",
            SpanKind::Download => "download",
            SpanKind::Retry => "retry",
            SpanKind::Backoff => "backoff",
            SpanKind::Detect => "detect",
            SpanKind::Reencode => "reencode",
            SpanKind::Fallback => "fallback",
            SpanKind::Serve => "serve",
            SpanKind::Admit => "admit",
            SpanKind::Wait => "wait",
            SpanKind::Evict => "evict",
            SpanKind::Correct => "correct",
            SpanKind::Factor => "factor",
            SpanKind::Backsub => "backsub",
        }
    }
}

/// One engine row of a device track — mirrors the three engines of
/// `gpusim::stream::Timeline` plus a row for fault detection windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Host → device DMA engine.
    H2D,
    /// Kernel execution engine.
    Compute,
    /// Device → host DMA engine.
    D2H,
    /// Fault detection / recovery row.
    Fault,
}

impl Lane {
    pub fn name(self) -> &'static str {
        match self {
            Lane::H2D => "h2d",
            Lane::Compute => "compute",
            Lane::D2H => "d2h",
            Lane::Fault => "fault",
        }
    }
}

/// The timeline row a span is attributed to. Tracks map onto
/// Chrome-trace `(pid, tid)` pairs: the scheduler and cluster get their
/// own processes, each device gets a process with one thread per
/// [`Lane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The solve/scheduler layer (solve, pass, round, retry, backoff).
    #[default]
    Scheduler,
    /// The cluster layer (sharded batches, failover, re-encodes).
    Cluster,
    /// One device's op-level row (batches, shards).
    Device(u32),
    /// One engine lane of one device.
    DeviceLane(u32, Lane),
}

impl Track {
    /// Chrome-trace process id of this track.
    pub fn pid(self) -> u64 {
        match self {
            Track::Scheduler => 0,
            Track::Cluster => 1,
            Track::Device(d) | Track::DeviceLane(d, _) => 100 + u64::from(d),
        }
    }

    /// Chrome-trace thread id of this track within its process.
    pub fn tid(self) -> u64 {
        match self {
            Track::Scheduler | Track::Cluster | Track::Device(_) => 0,
            Track::DeviceLane(_, lane) => match lane {
                Lane::H2D => 1,
                Lane::Compute => 2,
                Lane::D2H => 3,
                Lane::Fault => 4,
            },
        }
    }

    /// Human-readable label used by the rollup exporter.
    pub fn label(self) -> String {
        match self {
            Track::Scheduler => "scheduler".to_string(),
            Track::Cluster => "cluster".to_string(),
            Track::Device(d) => format!("device{d}"),
            Track::DeviceLane(d, lane) => format!("device{d}.{}", lane.name()),
        }
    }
}

/// A small attached value — span metadata stays allocation-light and
/// fully ordered so traces sort deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetaValue {
    U64(u64),
    F64(f64),
    Str(&'static str),
}

impl MetaValue {
    fn cmp_total(&self, other: &MetaValue) -> Ordering {
        fn rank(v: &MetaValue) -> u8 {
            match v {
                MetaValue::U64(_) => 0,
                MetaValue::F64(_) => 1,
                MetaValue::Str(_) => 2,
            }
        }
        match (self, other) {
            (MetaValue::U64(a), MetaValue::U64(b)) => a.cmp(b),
            (MetaValue::F64(a), MetaValue::F64(b)) => a.total_cmp(b),
            (MetaValue::Str(a), MetaValue::Str(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// One interval of modeled time on one [`Track`].
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub kind: SpanKind,
    pub track: Track,
    /// Start on the modeled clock, seconds.
    pub start: f64,
    /// Duration on the modeled clock, seconds.
    pub dur: f64,
    /// Nesting depth in the span hierarchy (0 = solve).
    pub depth: u8,
    /// Attached key/value metadata (path counts, device index, …).
    pub meta: Vec<(&'static str, MetaValue)>,
}

impl Span {
    /// Total deterministic order: track, then start, depth, kind,
    /// duration, metadata. Emission order is *not* part of the key, so
    /// spans recorded concurrently from worker threads still sort to
    /// one canonical sequence.
    pub fn cmp_total(&self, other: &Span) -> Ordering {
        self.track
            .cmp(&other.track)
            .then(self.start.total_cmp(&other.start))
            .then(self.depth.cmp(&other.depth))
            .then(self.kind.cmp(&other.kind))
            .then(self.dur.total_cmp(&other.dur))
            .then_with(|| {
                for (a, b) in self.meta.iter().zip(&other.meta) {
                    let o = a.0.cmp(b.0).then(a.1.cmp_total(&b.1));
                    if o != Ordering::Equal {
                        return o;
                    }
                }
                self.meta.len().cmp(&other.meta.len())
            })
    }
}

/// A span consumer. Implementations must tolerate concurrent calls:
/// cluster shards evaluate on worker threads and record their device
/// spans as they go.
///
/// ```
/// use polygpu_obs::{CollectingTracer, Span, SpanKind, Track, Tracer};
///
/// let tracer = CollectingTracer::new();
/// tracer.record(Span {
///     kind: SpanKind::Batch,
///     track: Track::Device(0),
///     start: 0.0,
///     dur: 1.5e-3,
///     depth: 3,
///     meta: vec![],
/// });
/// assert_eq!(tracer.spans().len(), 1);
/// ```
pub trait Tracer: Send + Sync {
    fn record(&self, span: Span);
}

/// The default tracer: drops every span. Installing it (or no tracer
/// at all) leaves solves bit-identical to untraced runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record(&self, _span: Span) {}
}

/// A tracer that buffers spans in memory for export.
#[derive(Debug, Default)]
pub struct CollectingTracer {
    spans: Mutex<Vec<Span>>,
}

impl CollectingTracer {
    pub fn new() -> Self {
        CollectingTracer::default()
    }

    /// All recorded spans in the canonical deterministic order
    /// ([`Span::cmp_total`]) — independent of host-thread interleaving.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("tracer poisoned").clone();
        v.sort_by(Span::cmp_total);
        v
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Tracer for CollectingTracer {
    fn record(&self, span: Span) {
        self.spans.lock().expect("tracer poisoned").push(span);
    }
}

/// The handle threaded through the engine layers: a shared [`Tracer`]
/// plus the [`Track`] and clock offset spans from this vantage point
/// are attributed to. Cloning is cheap; the default sink is a no-op
/// whose `emit` compiles down to a branch on `None`.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<dyn Tracer>>,
    track: Track,
    base: f64,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.inner.is_some())
            .field("track", &self.track)
            .field("base", &self.base)
            .finish()
    }
}

impl TraceSink {
    /// The disabled sink (same as `TraceSink::default()`).
    pub fn noop() -> Self {
        TraceSink::default()
    }

    /// A sink recording into `tracer`, attributed to
    /// [`Track::Scheduler`] at clock offset zero.
    pub fn new(tracer: Arc<dyn Tracer>) -> Self {
        TraceSink {
            inner: Some(tracer),
            track: Track::Scheduler,
            base: 0.0,
        }
    }

    /// Whether spans are actually recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The same sink attributed to `track`.
    pub fn on(&self, track: Track) -> Self {
        TraceSink {
            inner: self.inner.clone(),
            track,
            base: self.base,
        }
    }

    /// The engine-lane sink of this device track; on non-device tracks
    /// this is a no-op retarget.
    pub fn lane(&self, lane: Lane) -> Self {
        match self.track {
            Track::Device(d) | Track::DeviceLane(d, _) => self.on(Track::DeviceLane(d, lane)),
            other => self.on(other),
        }
    }

    /// The same sink with its clock origin shifted to `base` seconds —
    /// how an escalation pass keeps its spans after the primary pass.
    pub fn rebased(&self, base: f64) -> Self {
        TraceSink {
            inner: self.inner.clone(),
            track: self.track,
            base,
        }
    }

    /// The clock origin of this sink.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Record one span at `start..start + dur` on this sink's local
    /// clock (the sink adds its own origin offset).
    pub fn emit(
        &self,
        kind: SpanKind,
        start: f64,
        dur: f64,
        depth: u8,
        meta: &[(&'static str, MetaValue)],
    ) {
        if let Some(t) = &self.inner {
            t.record(Span {
                kind,
                track: self.track,
                start: self.base + start,
                dur,
                depth,
                meta: meta.to_vec(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_is_free_and_disabled() {
        let s = TraceSink::noop();
        assert!(!s.enabled());
        s.emit(SpanKind::Batch, 0.0, 1.0, 0, &[]);
        let lane = s.lane(Lane::Compute);
        assert!(!lane.enabled());
    }

    #[test]
    fn collecting_tracer_sorts_spans_deterministically() {
        let t = Arc::new(CollectingTracer::new());
        let sink = TraceSink::new(t.clone());
        // Emit out of order, on mixed tracks.
        sink.on(Track::Device(1))
            .emit(SpanKind::Batch, 2.0, 1.0, 3, &[]);
        sink.on(Track::Device(0))
            .emit(SpanKind::Batch, 5.0, 1.0, 3, &[]);
        sink.emit(SpanKind::Solve, 0.0, 9.0, 0, &[]);
        sink.on(Track::Device(0))
            .emit(SpanKind::Batch, 1.0, 1.0, 3, &[]);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].track, Track::Scheduler);
        assert_eq!(spans[1].track, Track::Device(0));
        assert_eq!(spans[1].start, 1.0);
        assert_eq!(spans[2].start, 5.0);
        assert_eq!(spans[3].track, Track::Device(1));
    }

    #[test]
    fn lane_retargets_only_device_tracks() {
        let t = Arc::new(CollectingTracer::new());
        let sink = TraceSink::new(t.clone());
        // On a non-device track, lane() keeps the track unchanged.
        sink.lane(Lane::H2D).emit(SpanKind::Round, 0.0, 1.0, 2, &[]);
        let dev = sink.on(Track::Device(2)).lane(Lane::D2H);
        dev.emit(SpanKind::Download, 0.0, 1.0, 5, &[]);
        let spans = t.spans();
        assert_eq!(spans[0].track, Track::Scheduler);
        assert_eq!(spans[1].track, Track::DeviceLane(2, Lane::D2H));
    }

    #[test]
    fn rebasing_offsets_the_clock() {
        let t = Arc::new(CollectingTracer::new());
        let sink = TraceSink::new(t.clone()).rebased(10.0);
        sink.emit(SpanKind::Pass, 1.0, 2.0, 1, &[]);
        assert_eq!(t.spans()[0].start, 11.0);
    }
}
