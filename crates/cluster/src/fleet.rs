//! Fleet recovery, written once for both fleet topologies.
//!
//! A fleet call runs in rounds on the cluster's modeled clock. In each
//! round every participating device runs its share of the work
//! ([`run_share`]) in capacity-sized chunks, and a chunk struck by an
//! injected fault runs again in place after the [`RecoveryPolicy`]'s
//! backoff. The [`Executor`] charges the round: each device's wall
//! time, retries and backoff, with its `Shard`, `Retry` and `Backoff`
//! spans on [`Track::Cluster`]. Devices run concurrently, so a round
//! costs its slowest device. Work a failed device stranded fails over
//! in the next round, by the topology's rule:
//!
//! * the point fleet ([`crate::ShardedBatchEvaluator`]) marks only
//!   `DeviceLost` as permanent and re-plans the stranded
//!   points over the survivors;
//! * the row fleet ([`crate::RowShardedEvaluator`]) drops every device
//!   whose fault outlives its retries and re-encodes all rows over the
//!   survivors.
//!
//! When no device is left, the executor emits a `Fallback` span and
//! hands the work to the CPU reference, bit-identical to the device
//! kernels, or fails the call with [`BatchError::DegradedFleet`]. A
//! call that fails keeps the modeled time of its rounds.

use crate::shard::Shard;
use polygpu_complex::{Complex, Real};
use polygpu_core::engine::{AnyEvaluator, CpuReferenceEngine};
use polygpu_core::pipeline::{FaultConfig, GpuOptions};
use polygpu_core::{BatchError, BatchGpuEvaluator};
use polygpu_gpusim::prelude::{DeviceSpec, FaultStats, RecoveryPolicy};
use polygpu_obs::{MetaValue, SpanKind, TraceSink, Track};
use polygpu_polysys::{System, SystemEval};
use rayon::prelude::*;

/// One device's share of a round: the index the fleet charges it
/// under, its engine, and the point indices it runs.
pub(crate) type Job<'a, R> = (usize, &'a mut BatchGpuEvaluator<R>, Shard);

/// Takes each finished share of a round, in job order; an error stops
/// the round.
pub(crate) type Fold<'a, T> = &'a mut dyn FnMut(usize, Shard, Share<T>) -> Result<(), BatchError>;

/// What one device reported for its share of a round.
pub(crate) struct Share<T> {
    /// Results for the leading `done.len()` points of the share; the
    /// rest were stranded by `err`.
    pub(crate) done: Vec<T>,
    /// What stopped the share early, if anything did.
    pub(crate) err: Option<BatchError>,
    retries: u64,
    backoff: f64,
    /// The device's modeled wall-clock delta, detection latency
    /// included.
    wall: f64,
}

/// Run `items` on `engine` through `work`, in chunks of the engine's
/// capacity. A chunk struck by a fault runs again in place after the
/// policy's backoff, so completed chunks never re-run; the share stops
/// at the first error the policy gives up on.
fn run_share<R: Real, T>(
    engine: &mut BatchGpuEvaluator<R>,
    items: &[usize],
    policy: &RecoveryPolicy,
    mut work: impl FnMut(&mut dyn AnyEvaluator<R>, &[usize]) -> Result<Vec<T>, BatchError>,
) -> Share<T> {
    let wall0 = engine.stats().wall_seconds;
    let mut share = Share {
        done: Vec::with_capacity(items.len()),
        err: None,
        retries: 0,
        backoff: 0.0,
        wall: 0.0,
    };
    'chunks: for chunk in items.chunks(engine.capacity().max(1)) {
        let mut attempt = 0;
        loop {
            match work(engine, chunk) {
                Ok(out) => {
                    share.done.extend(out);
                    break;
                }
                Err(BatchError::Fault(fe)) => {
                    let Some(backoff) = policy.retry_backoff(fe.kind, attempt) else {
                        share.err = Some(BatchError::Fault(fe));
                        break 'chunks;
                    };
                    share.backoff += backoff;
                    share.retries += 1;
                    attempt += 1;
                }
                Err(e) => {
                    share.err = Some(e);
                    break 'chunks;
                }
            }
        }
    }
    share.wall = engine.stats().wall_seconds - wall0;
    share
}

/// What a fleet call runs. Evaluation and the fused corrector differ
/// only in the work a device runs on a chunk of its share, and in how a
/// round's devices share the host.
pub(crate) trait Work<R: Real> {
    type Out: Send;
    /// Whether the work is an evaluation: counted in a point fleet's
    /// `batches` and traced as a `Batch` span, where the fused
    /// corrector traces a `Correct` span.
    const EVALUATES: bool;
    /// The point evaluations that produced `out`, which a point fleet
    /// counts in `evaluations` and `device_evals`.
    fn evaluations(out: &Self::Out) -> u64;
    /// Run the points `chunk` names on a device, or on the CPU
    /// reference once the whole fleet is dead.
    fn run(
        &mut self,
        engine: &mut dyn AnyEvaluator<R>,
        chunk: &[usize],
    ) -> Result<Vec<Self::Out>, BatchError>;
    /// Run one round's jobs and fold each share in job order; by
    /// default the devices run one after another on the host, and a
    /// share the fold rejects keeps later devices from running.
    fn round(
        &mut self,
        jobs: Vec<Job<'_, R>>,
        policy: &RecoveryPolicy,
        fold: Fold<'_, Self::Out>,
    ) -> Result<(), BatchError> {
        for (d, engine, items) in jobs {
            let share = run_share(engine, &items, policy, |e, c| self.run(e, c));
            fold(d, items, share)?;
        }
        Ok(())
    }
}

/// Evaluation of the call's points. A round's devices run concurrently
/// on the host pool; the rayon shim keeps input order, so the fold
/// that follows is deterministic.
pub(crate) struct Evaluate<'a, R: Real>(pub(crate) &'a [Vec<Complex<R>>]);

impl<R: Real> Work<R> for Evaluate<'_, R> {
    type Out = SystemEval<R>;
    const EVALUATES: bool = true;

    fn evaluations(_: &SystemEval<R>) -> u64 {
        1
    }

    fn run(
        &mut self,
        engine: &mut dyn AnyEvaluator<R>,
        chunk: &[usize],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        engine.try_evaluate_batch(&gather(self.0, chunk))
    }

    fn round(
        &mut self,
        jobs: Vec<Job<'_, R>>,
        policy: &RecoveryPolicy,
        fold: Fold<'_, Self::Out>,
    ) -> Result<(), BatchError> {
        let points = self.0;
        let shares: Vec<(usize, Shard, Share<SystemEval<R>>)> = jobs
            .into_par_iter()
            .map(|(d, engine, items)| {
                let share = run_share(engine, &items, policy, |e, c| Evaluate(points).run(e, c));
                (d, items, share)
            })
            .collect();
        shares
            .into_iter()
            .try_for_each(|(d, items, share)| fold(d, items, share))
    }
}

/// The points a chunk names, in chunk order.
pub(crate) fn gather<R: Real>(points: &[Vec<Complex<R>>], chunk: &[usize]) -> Vec<Vec<Complex<R>>> {
    chunk.iter().map(|&i| points[i].clone()).collect()
}

/// The options of the fleet's device `index` (its place in the
/// configured fleet) on `spec`: `base`, with the device's own schedule
/// drawn from the shared fault plan and its spans on its own track.
pub(crate) fn device_options(base: &GpuOptions, spec: &DeviceSpec, index: usize) -> GpuOptions {
    GpuOptions {
        device: spec.clone(),
        fault: base.fault.map(|f| FaultConfig {
            plan: f.plan,
            device_index: index,
        }),
        trace: base.trace.on(Track::Device(index as u32)),
        ..base.clone()
    }
}

/// Where a fleet books a call's modeled seconds and fault counts.
pub(crate) trait Ledger {
    fn book(&mut self, seconds: f64, fault: &FaultStats);
}

/// A fleet's recovery state: its policy, its cluster-track sink, the
/// system the CPU fallback runs and which devices are gone for good —
/// and the progress of the call it is running, on the cluster's
/// modeled clock.
pub(crate) struct Executor<R: Real> {
    pub(crate) policy: RecoveryPolicy,
    /// Cluster-level span sink ([`Track::Cluster`]); each device engine
    /// carries its own sink on its device's track.
    pub(crate) trace: TraceSink,
    /// Retained for the CPU fallback (and a row fleet's re-encode).
    pub(crate) system: System<R>,
    /// Sticky loss flags, one per device of the configured fleet.
    pub(crate) lost: Vec<bool>,
    /// The cluster clock when the call began: the origin of its spans.
    pub(crate) wall0: f64,
    /// Modeled seconds of the call's finished rounds (and re-encodes);
    /// survivors learn of stranded work only once a round completes.
    pub(crate) elapsed: f64,
    /// The current round's slowest device so far.
    round: f64,
    /// The call's own retries, failovers and recovery seconds.
    pub(crate) fault: FaultStats,
}

impl<R: Real> Executor<R> {
    pub(crate) fn new(
        policy: RecoveryPolicy,
        trace: &TraceSink,
        system: &System<R>,
        devices: usize,
    ) -> Self {
        Executor {
            policy,
            trace: trace.on(Track::Cluster),
            system: system.clone(),
            lost: vec![false; devices],
            wall0: 0.0,
            elapsed: 0.0,
            round: 0.0,
            fault: FaultStats::default(),
        }
    }

    /// Start a call at cluster clock `wall0`.
    pub(crate) fn begin(&mut self, wall0: f64) {
        self.wall0 = wall0;
        self.elapsed = 0.0;
        self.round = 0.0;
        self.fault = FaultStats::default();
    }

    /// Start of the current round on the cluster clock.
    pub(crate) fn now(&self) -> f64 {
        self.wall0 + self.elapsed
    }

    pub(crate) fn end_round(&mut self) {
        self.elapsed += self.round;
        self.round = 0.0;
    }

    /// Devices marked lost so far; never more than the fleet holds.
    pub(crate) fn lost_count(&self) -> usize {
        self.lost.iter().filter(|&&l| l).count()
    }

    /// Charge `device`'s share of the current round: its retries and
    /// backoff to the call, its wall (backoff included) to
    /// `device_wall` and to the round's maximum. Its spans: a `Shard`
    /// span over that wall, carrying `size` (the share in the
    /// topology's unit), then — where it retried — the `Retry` marker
    /// and the `Backoff` window, both after the device's own work.
    pub(crate) fn charge<T>(
        &mut self,
        device: usize,
        size: (&'static str, usize),
        share: &Share<T>,
        device_wall: &mut f64,
    ) {
        self.fault.retries += share.retries;
        self.fault.recovery_seconds += share.backoff;
        let wall = share.wall + share.backoff;
        let (t0, t1) = (self.now(), self.now() + share.wall);
        let device = ("device", MetaValue::U64(device as u64));
        let size = (size.0, MetaValue::U64(size.1 as u64));
        self.trace
            .emit(SpanKind::Shard, t0, wall, 4, &[device, size]);
        if share.retries > 0 {
            let attempts = ("attempts", MetaValue::U64(share.retries));
            self.trace
                .emit(SpanKind::Retry, t1, 0.0, 5, &[device, attempts]);
        }
        if share.backoff > 0.0 {
            self.trace
                .emit(SpanKind::Backoff, t1, share.backoff, 5, &[device]);
        }
        self.round = self.round.max(wall);
        *device_wall += wall;
    }

    /// Fail the call with `err`, booking the modeled time of its rounds
    /// (the current one included) and its fault counts.
    pub(crate) fn fail(&self, ledger: &mut impl Ledger, err: BatchError) -> BatchError {
        ledger.book(self.elapsed + self.round, &self.fault);
        err
    }

    /// No device is left for the call's `points` outstanding points:
    /// emit `Fallback` and return the CPU reference to finish them on,
    /// or, when the policy forbids that, fail the call with
    /// [`BatchError::DegradedFleet`] (`lost` of the fleet's devices
    /// gone).
    pub(crate) fn dead_fleet(
        &mut self,
        ledger: &mut impl Ledger,
        points: usize,
        lost: usize,
    ) -> Result<CpuReferenceEngine<R>, BatchError> {
        if !self.policy.cpu_fallback {
            let devices = self.lost.len();
            return Err(self.fail(ledger, BatchError::DegradedFleet { devices, lost }));
        }
        self.fault.failovers += 1;
        let meta = [("points", MetaValue::U64(points as u64))];
        self.trace
            .emit(SpanKind::Fallback, self.now(), 0.0, 4, &meta);
        Ok(CpuReferenceEngine::new(&self.system)
            .expect("the CPU reference runs every system a device encodes"))
    }
}
