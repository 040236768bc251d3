//! # polygpu-cluster — multi-device sharding over batched evaluators
//!
//! The scale-out layer of the reproduction: the paper evaluates on a
//! single Tesla C2050, and its successors (GPU Newton in
//! double-double/quad-double, polyhedral path tracking) scale the same
//! evaluation + differentiation core to many concurrent paths. This
//! crate runs one [`polygpu_core::BatchGpuEvaluator`] per simulated
//! device — heterogeneous [`DeviceSpec`]s allowed — and implements
//! [`BatchSystemEvaluator`] over the whole fleet:
//!
//! * each `P`-point batch is split into per-device shards by a
//!   pluggable, deterministic [`ShardPolicy`];
//! * shards execute **in parallel** on the host (one thread per device,
//!   via rayon), each device modeling stream-overlapped transfers
//!   ([`polygpu_core::GpuOptions::overlap_chunks`]);
//! * results merge back in input order, **bit-for-bit** identical to a
//!   single-device evaluation of the same batch — sharding, like
//!   batching, is a performance transformation, never a numerical one;
//! * [`ClusterStats`] models the cluster wall clock as the **max** over
//!   devices per batch (devices run concurrently), and reports the
//!   overlap savings and the load-imbalance ratio.
//!
//! ```
//! use polygpu_cluster::{ClusterOptions, ShardedBatchEvaluator};
//! use polygpu_gpusim::prelude::DeviceSpec;
//! use polygpu_polysys::{random_points, random_system, BatchSystemEvaluator, BenchmarkParams};
//!
//! let params = BenchmarkParams { n: 8, m: 3, k: 2, d: 2, seed: 7 };
//! let system = random_system::<f64>(&params);
//! let specs = vec![DeviceSpec::tesla_c2050(); 2];
//! let mut cluster =
//!     ShardedBatchEvaluator::new(&system, &specs, 32, ClusterOptions::default()).unwrap();
//! let points = random_points::<f64>(8, 48, 3);
//! let evals = cluster.evaluate_batch(&points);
//! assert_eq!(evals.len(), 48);
//! assert!(cluster.cluster_stats().wall_seconds > 0.0);
//! ```

pub mod rows;
pub mod shard;

pub use rows::{
    plan_rows, ClusterSession, RowClusterOptions, RowClusterStats, RowShardedEvaluator,
};
pub use shard::{plan, DeviceWeight, Shard, ShardPolicy};
// Re-exported so the row-sharding surface is importable from one
// place; the enum itself lives next to `Backend` in the core builder.
pub use polygpu_core::engine::SystemShardPolicy;
pub use polygpu_gpusim::stream::TransferPath;

use polygpu_complex::{Complex, Real};
use polygpu_core::engine::{
    AnyEvaluator, BuildError, ClusterPolicy, ClusterProvider, ClusterSpec, CpuReferenceEngine,
    Engine, EngineBuilder, EngineCaps, ShardMode,
};
use polygpu_core::pipeline::{FaultConfig, GpuOptions, PipelineStats, SetupError};
use polygpu_core::{
    BatchError, BatchGpuEvaluator, CombineMap, CorrectParams, CorrectStatus, OffsetCombine,
};
use polygpu_gpusim::prelude::{DeviceSpec, FaultKind, FaultStats, RecoveryPolicy};
use polygpu_obs::{MetaValue, MetricsRegistry, SpanKind, TraceSink, Track};
use polygpu_polysys::{BatchSystemEvaluator, System, SystemEval, SystemEvaluator};
use rayon::prelude::*;
use std::fmt;

/// Configuration of a [`ShardedBatchEvaluator`].
#[derive(Debug, Clone)]
pub struct ClusterOptions {
    /// How batches are split across devices.
    pub policy: ShardPolicy,
    /// Per-device stream-overlap chunking (see
    /// [`GpuOptions::overlap_chunks`]); `Some(1)` disables overlap,
    /// `None` lets every device pick its chunk count adaptively from
    /// the modeled kernel/transfer ratio.
    pub overlap_chunks: Option<usize>,
    /// Base options for every device (`device` is replaced per spec,
    /// `overlap_chunks` by the field above, and any
    /// [`FaultConfig::device_index`] by the device's own index so every
    /// device draws an independent fault schedule from the shared plan).
    pub base: GpuOptions,
    /// How the fleet reacts to injected faults: per-shard retries with
    /// exponential backoff, then failover re-planning onto survivors,
    /// and optionally a CPU-reference fallback when no device survives.
    pub recovery: RecoveryPolicy,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            policy: ShardPolicy::default(),
            overlap_chunks: Some(4),
            base: GpuOptions::default(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Aggregate modeled cost of the cluster.
///
/// Devices run concurrently, so the cluster-level wall clock of one
/// batch is the **maximum** of the participating devices' wall clocks,
/// not their sum; per-device resource seconds keep accumulating in each
/// device's own [`PipelineStats`].
#[derive(Debug, Clone, Default)]
pub struct ClusterStats {
    /// Points evaluated (a batch of `P` counts `P`).
    pub evaluations: u64,
    /// Cluster-level batches (one per `evaluate_batch` call).
    pub batches: u64,
    /// Modeled cluster wall clock: per batch the max over devices,
    /// summed over batches.
    pub wall_seconds: f64,
    /// Cumulative modeled wall seconds per device (aligned with the
    /// device list).
    pub device_wall: Vec<f64>,
    /// Points evaluated per device.
    pub device_evals: Vec<u64>,
    /// Injected-fault accounting: strikes and detection latency from
    /// the devices, plus the cluster's own retries, failovers, and
    /// backoff seconds.
    pub fault: FaultStats,
    /// Devices currently marked lost (sticky for the life of the
    /// evaluator — a lost simulated device never comes back).
    pub devices_lost: usize,
}

impl ClusterStats {
    fn new(devices: usize) -> Self {
        ClusterStats {
            device_wall: vec![0.0; devices],
            device_evals: vec![0; devices],
            ..Default::default()
        }
    }

    /// Modeled cluster throughput in evaluations per second.
    pub fn throughput_evals_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.evaluations as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Load-imbalance ratio: the busiest device's cumulative wall
    /// seconds over the mean across all devices. `1.0` is perfect
    /// balance; `D` means one device did all the work.
    pub fn imbalance(&self) -> f64 {
        let max = self.device_wall.iter().copied().fold(0.0, f64::max);
        let mean = self.device_wall.iter().sum::<f64>() / self.device_wall.len().max(1) as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Fold this struct into a [`MetricsRegistry`] under `prefix`.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.evaluations"), self.evaluations);
        reg.counter(&format!("{prefix}.batches"), self.batches);
        reg.counter(&format!("{prefix}.devices_lost"), self.devices_lost as u64);
        reg.gauge(&format!("{prefix}.wall_seconds"), self.wall_seconds);
        reg.gauge(&format!("{prefix}.imbalance"), self.imbalance());
        self.fault.record_metrics(reg, &format!("{prefix}.fault"));
    }
}

impl fmt::Display for ClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  evaluations           {:>12}", self.evaluations)?;
        writeln!(f, "  batches               {:>12}", self.batches)?;
        writeln!(f, "  devices               {:>12}", self.device_wall.len())?;
        writeln!(f, "  devices lost          {:>12}", self.devices_lost)?;
        writeln!(f, "  wall seconds          {:>12.3e}", self.wall_seconds)?;
        writeln!(f, "  imbalance             {:>12.3}", self.imbalance())?;
        write!(
            f,
            "  throughput (evals/s)  {:>12.3e}",
            self.throughput_evals_per_sec()
        )
    }
}

/// [`BatchSystemEvaluator`] over `D` per-device batched engines.
pub struct ShardedBatchEvaluator<R: Real> {
    devices: Vec<BatchGpuEvaluator<R>>,
    weights: Vec<DeviceWeight>,
    policy: ShardPolicy,
    stats: ClusterStats,
    n: usize,
    /// Sticky per-device loss flags: a device that reports
    /// [`FaultKind::DeviceLost`] is excluded from every later plan.
    lost: Vec<bool>,
    recovery: RecoveryPolicy,
    /// Retained for the CPU-reference fallback, which is bit-identical
    /// to the GPU path in double precision.
    system: System<R>,
    /// Cluster-level span sink ([`Track::Cluster`]); each device engine
    /// carries its own sink retargeted to its [`Track::Device`].
    trace: TraceSink,
}

/// What one device reported for its shard in one recovery round.
struct ShardOutcome<R: Real> {
    device: usize,
    /// Original point indices the device was asked to evaluate.
    indices: Shard,
    /// Evaluations for the leading `done.len()` indices; the rest (if
    /// any) were lost to the fault in `err`.
    done: Vec<SystemEval<R>>,
    err: Option<BatchError>,
    retries: u64,
    backoff: f64,
    /// Modeled device wall-clock delta for this round, detection
    /// latency included.
    wall: f64,
}

impl<R: Real> ShardedBatchEvaluator<R> {
    /// Build one batched engine of `per_device_capacity` points per
    /// spec (heterogeneous specs allowed; every device must fit the
    /// system). Ragged systems under the packed encoding run the ragged
    /// kernels per device, exactly as off-cluster. A one-point
    /// probe per device calibrates the modeled seconds-per-point weight
    /// used by [`ShardPolicy::WorkStealing`].
    pub fn new(
        system: &System<R>,
        specs: &[DeviceSpec],
        per_device_capacity: usize,
        opts: ClusterOptions,
    ) -> Result<Self, SetupError> {
        assert!(!specs.is_empty(), "cluster needs at least one device");
        let mut devices = Vec::with_capacity(specs.len());
        let mut weights = Vec::with_capacity(specs.len());
        let n = system.dim();
        for (d, spec) in specs.iter().enumerate() {
            let gopts = GpuOptions {
                device: spec.clone(),
                overlap_chunks: opts.overlap_chunks,
                // Each device draws its own schedule from the shared
                // fault plan; the base's device index is a placeholder.
                fault: opts.base.fault.map(|f| FaultConfig {
                    plan: f.plan,
                    device_index: d,
                }),
                // Silenced during calibration; retargeted to this
                // device's track below.
                trace: TraceSink::noop(),
                ..opts.base.clone()
            };
            let mut dev = BatchGpuEvaluator::new(system, per_device_capacity, gopts)?;
            // Calibration probe: modeled seconds for one point, used
            // only as a relative work-stealing weight. Runs with the
            // injector disarmed so calibration can neither fault nor
            // perturb the fault schedule of real work.
            dev.set_fault_armed(false);
            let probe = vec![vec![Complex::<R>::one(); n]];
            let _ = dev.evaluate_batch(&probe);
            dev.set_fault_armed(true);
            let spp = dev.stats().wall_clock_seconds();
            dev.reset_stats();
            dev.set_trace(opts.base.trace.on(Track::Device(d as u32)));
            devices.push(dev);
            weights.push(DeviceWeight {
                capacity: per_device_capacity,
                seconds_per_point: spp,
            });
        }
        Ok(ShardedBatchEvaluator {
            stats: ClusterStats::new(devices.len()),
            lost: vec![false; devices.len()],
            devices,
            weights,
            policy: opts.policy,
            n,
            recovery: opts.recovery,
            system: system.clone(),
            trace: opts.base.trace.on(Track::Cluster),
        })
    }

    /// Number of devices in the cluster.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Per-device modeled statistics (resource seconds, counters,
    /// per-device wall clock with overlap).
    pub fn device_stats(&self) -> Vec<PipelineStats> {
        self.devices.iter().map(|d| d.stats()).collect()
    }

    /// Aggregate cluster statistics. Fault accounting merges the
    /// devices' own strike/detection counters with the cluster-level
    /// retry/failover/backoff bookkeeping.
    pub fn cluster_stats(&self) -> ClusterStats {
        let mut s = self.stats.clone();
        for d in &self.devices {
            s.fault.merge(&d.stats().fault);
        }
        s.devices_lost = self.lost.iter().filter(|&&l| l).count();
        s
    }

    /// Total seconds stream overlap shaved off the serialized model,
    /// summed over devices.
    pub fn overlap_savings(&self) -> f64 {
        self.devices
            .iter()
            .map(|d| d.stats().overlap_savings())
            .sum()
    }

    pub fn reset_stats(&mut self) {
        for d in self.devices.iter_mut() {
            d.reset_stats();
        }
        self.stats = ClusterStats::new(self.devices.len());
    }

    /// The shard plan the current policy would produce for a `p`-point
    /// batch (for inspection and tests).
    pub fn plan_for(&self, p: usize) -> Vec<Shard> {
        plan(self.policy, p, &self.weights)
    }

    /// Evaluate a batch across the cluster, returning typed errors for
    /// contract violations (see [`BatchSystemEvaluator`]'s capacity
    /// contract; the cluster's capacity is the sum over devices).
    ///
    /// Injected faults are recovered per the [`RecoveryPolicy`]: a
    /// faulted shard retries on its own device with exponential
    /// backoff, and a device that exhausts its retries (or is lost
    /// outright) has its unfinished points re-planned over the
    /// surviving devices. Because every engine in the fleet — and the
    /// CPU-reference fallback — computes bit-identical values, a
    /// recovered batch equals the fault-free batch exactly; recovery
    /// only costs modeled wall-clock time, tallied in
    /// [`ClusterStats::fault`]. When no device survives and CPU
    /// fallback is disabled, the call fails with
    /// [`BatchError::DegradedFleet`].
    pub fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        let p = points.len();
        let capacity = self.max_batch();
        if p == 0 {
            return Err(BatchError::Empty);
        }
        if p > capacity {
            return Err(BatchError::CapacityExceeded {
                points: p,
                capacity,
            });
        }
        for (i, x) in points.iter().enumerate() {
            if x.len() != self.n {
                return Err(BatchError::DimensionMismatch {
                    point: i,
                    got: x.len(),
                    expected: self.n,
                });
            }
        }

        // Recovery proceeds in rounds. Round 0 runs the normal plan
        // over every live device; if a device faults past its retry
        // budget, its unfinished points are re-planned over the
        // survivors in the next round. Devices that fail within a call
        // are excluded for the rest of that call; `DeviceLost` failures
        // are excluded permanently.
        let ndev = self.devices.len();
        let mut merged: Vec<Option<SystemEval<R>>> = (0..p).map(|_| None).collect();
        let mut excluded = self.lost.clone();
        let mut fault = FaultStats::default();
        let mut batch_wall = 0.0f64;
        let mut todo: Vec<usize> = (0..p).collect();
        let recovery = self.recovery;
        // Cluster-track spans run on the cluster's own modeled clock
        // (rounds are sequential, so `wall0 + batch_wall` is the current
        // round's start).
        let wall0 = self.stats.wall_seconds;

        while !todo.is_empty() {
            let live: Vec<usize> = (0..ndev).filter(|&d| !excluded[d]).collect();
            if live.is_empty() {
                // Whole fleet gone mid-call: finish on the CPU
                // reference (bit-identical to the device kernels in
                // double precision) when the policy allows, else
                // surface the degradation as a typed error.
                if recovery.cpu_fallback {
                    fault.failovers += 1;
                    self.trace.emit(
                        SpanKind::Fallback,
                        wall0 + batch_wall,
                        0.0,
                        4,
                        &[("points", MetaValue::U64(todo.len() as u64))],
                    );
                    let mut cpu = cpu_fallback(&self.system);
                    for &i in &todo {
                        merged[i] = Some(cpu.evaluate(&points[i]));
                    }
                    todo.clear();
                    break;
                }
                let lost = excluded.iter().filter(|&&l| l).count();
                self.stats.fault.merge(&fault);
                self.stats.wall_seconds += batch_wall;
                return Err(BatchError::DegradedFleet {
                    devices: ndev,
                    lost,
                });
            }

            let live_weights: Vec<DeviceWeight> = live.iter().map(|&d| self.weights[d]).collect();
            let shards = plan(self.policy, todo.len(), &live_weights);
            // Translate planner output (indices into `todo`) back to
            // original point indices and hand each live device its
            // shard; shards execute in parallel on the host pool (the
            // rayon shim preserves input order, so merging below is
            // deterministic).
            let mut want: Vec<Option<Shard>> = (0..ndev).map(|_| None).collect();
            for (&d, s) in live.iter().zip(shards) {
                if !s.is_empty() {
                    want[d] = Some(s.iter().map(|&j| todo[j]).collect());
                }
            }
            let work: Vec<(usize, &mut BatchGpuEvaluator<R>, Shard)> = self
                .devices
                .iter_mut()
                .enumerate()
                .filter_map(|(d, dev)| want[d].take().map(|s| (d, dev, s)))
                .collect();
            let outcomes: Vec<ShardOutcome<R>> = work
                .into_par_iter()
                .map(|(d, dev, shard)| {
                    let wall_before = dev.stats().wall_seconds;
                    let cap = dev.capacity().max(1);
                    let mut out = Vec::with_capacity(shard.len());
                    let mut err = None;
                    let mut retries = 0u64;
                    let mut backoff = 0.0f64;
                    // A shard larger than the device capacity evaluates
                    // in capacity-sized chunks (several round trips);
                    // a faulted chunk retries in place with exponential
                    // backoff, so completed chunks never re-run.
                    'chunks: for chunk in shard.chunks(cap) {
                        let pts: Vec<Vec<Complex<R>>> =
                            chunk.iter().map(|&i| points[i].clone()).collect();
                        let mut attempt = 0u32;
                        loop {
                            match dev.try_evaluate_batch(&pts) {
                                Ok(evals) => {
                                    out.extend(evals);
                                    break;
                                }
                                Err(BatchError::Fault(fe)) => {
                                    // A lost device stays lost: retries
                                    // would only burn modeled time.
                                    if fe.kind == FaultKind::DeviceLost
                                        || attempt >= recovery.max_retries
                                    {
                                        err = Some(BatchError::Fault(fe));
                                        break 'chunks;
                                    }
                                    backoff += recovery.backoff_seconds(attempt);
                                    attempt += 1;
                                    retries += 1;
                                }
                                Err(e) => {
                                    err = Some(e);
                                    break 'chunks;
                                }
                            }
                        }
                    }
                    let wall = dev.stats().wall_seconds - wall_before;
                    ShardOutcome {
                        device: d,
                        indices: shard,
                        done: out,
                        err,
                        retries,
                        backoff,
                        wall,
                    }
                })
                .collect();

            // Merge device results back into input order (each outcome
            // carries its own shard, so merging cannot drift from the
            // plan the work ran under) and collect the points stranded
            // by terminal faults for the next round.
            todo.clear();
            let mut round_wall = 0.0f64;
            for o in outcomes {
                let completed = o.done.len();
                let shard_points = o.indices.len();
                for (&i, e) in o.indices.iter().zip(o.done) {
                    merged[i] = Some(e);
                }
                fault.retries += o.retries;
                fault.recovery_seconds += o.backoff;
                let dev_wall = o.wall + o.backoff;
                self.trace_shard(
                    wall0 + batch_wall,
                    o.device,
                    shard_points,
                    o.wall,
                    o.retries,
                    o.backoff,
                );
                round_wall = round_wall.max(dev_wall);
                self.stats.device_wall[o.device] += dev_wall;
                self.stats.device_evals[o.device] += completed as u64;
                if let Some(e) = o.err {
                    match e {
                        BatchError::Fault(fe) => {
                            excluded[o.device] = true;
                            if fe.kind == FaultKind::DeviceLost {
                                self.lost[o.device] = true;
                            }
                            fault.failovers += 1;
                            todo.extend(&o.indices[completed..]);
                        }
                        // Non-fault errors are contract violations, not
                        // recoverable hardware events.
                        other => {
                            self.stats.fault.merge(&fault);
                            self.stats.wall_seconds += batch_wall + round_wall;
                            return Err(other);
                        }
                    }
                }
            }
            // Rounds are sequential on the modeled clock: survivors
            // only learn of stranded points after the round completes.
            batch_wall += round_wall;
        }

        self.trace.emit(
            SpanKind::Batch,
            wall0,
            batch_wall,
            3,
            &[("points", MetaValue::U64(p as u64))],
        );
        self.stats.fault.merge(&fault);
        self.stats.evaluations += p as u64;
        self.stats.batches += 1;
        self.stats.wall_seconds += batch_wall;
        Ok(merged
            .into_iter()
            .map(|e| e.expect("every index is evaluated or re-planned"))
            .collect())
    }

    /// Fused device-resident Newton correction across the fleet.
    ///
    /// The batch shards exactly like [`Self::try_evaluate_batch`], but
    /// each device runs the whole evaluate → factor → solve → update
    /// loop on its own shard — per-iteration traffic is each device's
    /// `O(P_d)` flag download, never the values/Jacobians. Devices are
    /// driven sequentially on the host (the [`CombineMap`] is a single
    /// host-side object), yet the modeled cluster wall clock per round
    /// is still the **max** over participating devices: the devices
    /// would run concurrently, only the simulation is serialized.
    ///
    /// Recovery mirrors the evaluate path: a faulted shard retries on
    /// its own device with backoff, a device that exhausts retries (or
    /// is lost) strands its unfinished points for re-planning over the
    /// survivors, and with [`RecoveryPolicy::cpu_fallback`] a dead
    /// fleet finishes on the bit-identical CPU reference. Retries,
    /// backoff and the modeled time of a call that fails typed are
    /// traced and charged as on the evaluate path. Corrections
    /// commit into `points` only when every index has a status, so on
    /// `Err` the inputs are untouched and a caller-level retry replays
    /// bit for bit.
    pub fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        /// Remaps a device-local index to the point's position in the
        /// original batch — the sparse sibling of [`OffsetCombine`]
        /// for shards whose indices are not contiguous.
        struct GatherCombine<'a, R: Real> {
            inner: &'a mut dyn CombineMap<R>,
            indices: &'a [usize],
        }
        impl<R: Real> CombineMap<R> for GatherCombine<'_, R> {
            fn apply(&mut self, index: usize, x: &[Complex<R>], eval: &mut SystemEval<R>) {
                self.inner.apply(self.indices[index], x, eval);
            }
        }

        let p = points.len();
        if p == 0 {
            return Err(BatchError::Empty);
        }
        let capacity = self.max_batch();
        if p > capacity {
            return Err(BatchError::CapacityExceeded {
                points: p,
                capacity,
            });
        }
        for (i, x) in points.iter().enumerate() {
            if x.len() != self.n {
                return Err(BatchError::DimensionMismatch {
                    point: i,
                    got: x.len(),
                    expected: self.n,
                });
            }
        }

        let ndev = self.devices.len();
        let mut scratch: Vec<Vec<Complex<R>>> = points.to_vec();
        let mut statuses: Vec<Option<CorrectStatus>> = (0..p).map(|_| None).collect();
        let mut excluded = self.lost.clone();
        let mut fault = FaultStats::default();
        let mut batch_wall = 0.0f64;
        let mut todo: Vec<usize> = (0..p).collect();
        let recovery = self.recovery;
        let wall0 = self.stats.wall_seconds;

        while !todo.is_empty() {
            let live: Vec<usize> = (0..ndev).filter(|&d| !excluded[d]).collect();
            if live.is_empty() {
                if recovery.cpu_fallback {
                    fault.failovers += 1;
                    self.trace.emit(
                        SpanKind::Fallback,
                        wall0 + batch_wall,
                        0.0,
                        4,
                        &[("points", MetaValue::U64(todo.len() as u64))],
                    );
                    let mut cpu = cpu_fallback(&self.system);
                    for &i in &todo {
                        let one = std::slice::from_mut(&mut scratch[i]);
                        let st = cpu.try_correct_batch(
                            one,
                            &mut OffsetCombine {
                                inner: combine,
                                offset: i,
                            },
                            params,
                        )?;
                        statuses[i] = st.into_iter().next();
                    }
                    todo.clear();
                    break;
                }
                let lost = excluded.iter().filter(|&&l| l).count();
                self.stats.fault.merge(&fault);
                self.stats.wall_seconds += batch_wall;
                return Err(BatchError::DegradedFleet {
                    devices: ndev,
                    lost,
                });
            }

            let live_weights: Vec<DeviceWeight> = live.iter().map(|&d| self.weights[d]).collect();
            let shards: Vec<Shard> = plan(self.policy, todo.len(), &live_weights)
                .into_iter()
                .map(|s| s.iter().map(|&j| todo[j]).collect())
                .collect();
            todo.clear();
            let mut round_wall = 0.0f64;
            for (&d, shard) in live.iter().zip(&shards) {
                if shard.is_empty() {
                    continue;
                }
                let dev = &mut self.devices[d];
                let wall_before = dev.stats().wall_seconds;
                let cap = dev.capacity().max(1);
                let mut retries = 0u64;
                let mut backoff = 0.0f64;
                let mut err = None;
                let mut done = 0usize;
                'chunks: for chunk in shard.chunks(cap) {
                    // The fused loop never commits on `Err`, so the
                    // gathered iterates stay valid across retries and
                    // the eventual success is bit-identical to a
                    // fault-free run.
                    let mut pts: Vec<Vec<Complex<R>>> =
                        chunk.iter().map(|&i| scratch[i].clone()).collect();
                    let mut attempt = 0u32;
                    loop {
                        let mut gather = GatherCombine {
                            inner: combine,
                            indices: chunk,
                        };
                        match dev.try_correct_batch(&mut pts, &mut gather, params) {
                            Ok(st) => {
                                for ((&i, x), s) in chunk.iter().zip(pts).zip(st) {
                                    scratch[i] = x;
                                    statuses[i] = Some(s);
                                }
                                done += chunk.len();
                                break;
                            }
                            Err(BatchError::Fault(fe)) => {
                                if fe.kind == FaultKind::DeviceLost
                                    || attempt >= recovery.max_retries
                                {
                                    err = Some(BatchError::Fault(fe));
                                    break 'chunks;
                                }
                                backoff += recovery.backoff_seconds(attempt);
                                attempt += 1;
                                retries += 1;
                            }
                            Err(e) => {
                                err = Some(e);
                                break 'chunks;
                            }
                        }
                    }
                }
                let wall = dev.stats().wall_seconds - wall_before;
                let dev_wall = wall + backoff;
                fault.retries += retries;
                fault.recovery_seconds += backoff;
                self.trace_shard(wall0 + batch_wall, d, shard.len(), wall, retries, backoff);
                round_wall = round_wall.max(dev_wall);
                self.stats.device_wall[d] += dev_wall;
                match err {
                    None => {}
                    Some(BatchError::Fault(fe)) => {
                        excluded[d] = true;
                        if fe.kind == FaultKind::DeviceLost {
                            self.lost[d] = true;
                        }
                        fault.failovers += 1;
                        todo.extend(&shard[done..]);
                    }
                    // Non-fault errors are contract violations or
                    // launch limits, not recoverable hardware events;
                    // the round's modeled time is charged as on the
                    // evaluate path.
                    Some(other) => {
                        self.stats.fault.merge(&fault);
                        self.stats.wall_seconds += batch_wall + round_wall;
                        return Err(other);
                    }
                }
            }
            batch_wall += round_wall;
        }

        self.trace.emit(
            SpanKind::Correct,
            wall0,
            batch_wall,
            3,
            &[("points", MetaValue::U64(p as u64))],
        );
        self.stats.fault.merge(&fault);
        self.stats.wall_seconds += batch_wall;
        for (dst, src) in points.iter_mut().zip(scratch) {
            *dst = src;
        }
        Ok(statuses
            .into_iter()
            .map(|s| s.expect("every index is corrected or re-planned"))
            .collect())
    }

    /// The cluster-track spans of one device's share of a round
    /// starting at `t0`: its `Shard` span over the device wall `wall`
    /// plus any `backoff`, then — where it retried — the `Retry`
    /// marker and the `Backoff` window, both placed after the device's
    /// own work.
    fn trace_shard(
        &self,
        t0: f64,
        device: usize,
        points: usize,
        wall: f64,
        retries: u64,
        backoff: f64,
    ) {
        self.trace.emit(
            SpanKind::Shard,
            t0,
            wall + backoff,
            4,
            &[
                ("device", MetaValue::U64(device as u64)),
                ("points", MetaValue::U64(points as u64)),
            ],
        );
        if retries > 0 {
            self.trace.emit(
                SpanKind::Retry,
                t0 + wall,
                0.0,
                5,
                &[
                    ("device", MetaValue::U64(device as u64)),
                    ("attempts", MetaValue::U64(retries)),
                ],
            );
        }
        if backoff > 0.0 {
            self.trace.emit(
                SpanKind::Backoff,
                t0 + wall,
                backoff,
                5,
                &[("device", MetaValue::U64(device as u64))],
            );
        }
    }
}

/// A fleet's last resort once every device is gone: the CPU
/// reference, bit-identical to the device kernels on every system a
/// device accepts.
pub(crate) fn cpu_fallback<R: Real>(system: &System<R>) -> CpuReferenceEngine<R> {
    CpuReferenceEngine::new(system).expect("the CPU reference runs every system a device encodes")
}

impl<R: Real> SystemEvaluator<R> for ShardedBatchEvaluator<R> {
    fn dim(&self) -> usize {
        self.n
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        polygpu_core::expect_batch(AnyEvaluator::try_evaluate(self, x))
    }

    fn name(&self) -> &str {
        "gpu-sim-cluster"
    }
}

impl<R: Real> BatchSystemEvaluator<R> for ShardedBatchEvaluator<R> {
    /// Cluster capacity: the sum of the per-device capacities.
    fn max_batch(&self) -> usize {
        self.devices.iter().map(|d| d.capacity()).sum()
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        polygpu_core::expect_batch(self.try_evaluate_batch(points))
    }
}

impl<R: Real> AnyEvaluator<R> for ShardedBatchEvaluator<R> {
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        ShardedBatchEvaluator::try_evaluate_batch(self, points)
    }

    fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        ShardedBatchEvaluator::try_correct_batch(self, points, combine, params)
    }

    /// Cluster-level aggregate: evaluations/batches and the cluster
    /// wall clock (max over devices per batch) from [`ClusterStats`],
    /// resource seconds, transfer bytes and counters summed over the
    /// devices.
    fn engine_stats(&self) -> PipelineStats {
        let mut agg = PipelineStats {
            evaluations: self.stats.evaluations,
            batches: self.stats.batches,
            wall_seconds: self.stats.wall_seconds,
            ..Default::default()
        };
        agg.fault = self.stats.fault;
        for d in &self.devices {
            let s = d.stats();
            agg.counters += s.counters;
            agg.kernel_seconds += s.kernel_seconds;
            agg.overhead_seconds += s.overhead_seconds;
            agg.transfer_seconds += s.transfer_seconds;
            agg.factor_seconds += s.factor_seconds;
            agg.backsub_seconds += s.backsub_seconds;
            agg.h2d_bytes += s.h2d_bytes;
            agg.d2h_bytes += s.d2h_bytes;
            agg.corrections += s.corrections;
            agg.corrector_iterations += s.corrector_iterations;
            agg.fault.merge(&s.fault);
        }
        agg
    }

    fn reset_engine_stats(&mut self) {
        self.reset_stats();
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            backend: "cluster",
            devices: self.devices.len(),
            capacity: self.max_batch(),
            // The tightest device's single-round-trip absorption: with
            // `devices ×` this front every device's batch stays full.
            per_device_capacity: self
                .devices
                .iter()
                .map(|d| d.capacity())
                .min()
                .unwrap_or(usize::MAX),
            batched: true,
            constant_bytes: self.devices.iter().map(|d| d.constant_bytes_used()).sum(),
        }
    }
}

/// The [`ClusterProvider`] of this crate: [`Backend::Cluster`] builds a
/// [`ShardedBatchEvaluator`] (point sharding) or a
/// [`RowShardedEvaluator`] (system/row sharding) over the spec's
/// device list, per its `ShardMode`.
///
/// [`Backend::Cluster`]: polygpu_core::engine::Backend::Cluster
#[derive(Debug, Clone, Copy, Default)]
pub struct Sharded;

impl ClusterProvider for Sharded {
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
                let cluster = ShardedBatchEvaluator::new(
                    system,
                    &spec.devices,
                    spec.per_device_capacity,
                    opts,
                )?;
                Ok(Box::new(cluster))
            }
            ShardMode::Rows { policy } => {
                let opts = RowClusterOptions {
                    policy,
                    gather: spec.gather,
                    overlap_chunks: spec.base.overlap_chunks,
                    base: spec.base.clone(),
                    recovery: spec.recovery,
                };
                let cluster = RowShardedEvaluator::new(
                    system,
                    &spec.devices,
                    spec.per_device_capacity,
                    opts,
                )?;
                Ok(Box::new(cluster))
            }
        }
    }
}

/// An [`Engine`] builder with every backend available — the cluster
/// backend wired to [`Sharded`]. The `polygpu` facade re-exports this
/// as `Engine::builder()`.
pub fn engine_builder() -> EngineBuilder<Sharded> {
    Engine::builder_with(Sharded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_core::BatchGpuEvaluator;
    use polygpu_polysys::{random_points, random_system, BenchmarkParams};

    // The parallel shard execution moves `&mut` device engines across
    // threads; assert the bound explicitly so a regression fails here
    // and not in a confusing rayon-shim error.
    fn _assert_send<T: Send>() {}
    #[allow(dead_code)]
    fn _cluster_types_are_send() {
        _assert_send::<polygpu_core::BatchGpuEvaluator<f64>>();
        _assert_send::<ShardedBatchEvaluator<f64>>();
    }

    fn small_params(seed: u64) -> BenchmarkParams {
        BenchmarkParams {
            n: 8,
            m: 3,
            k: 2,
            d: 2,
            seed,
        }
    }

    /// A fleet with a slower clock on half the devices: heterogeneity
    /// without changing any functional behavior.
    fn hetero_specs(d: usize) -> Vec<DeviceSpec> {
        (0..d)
            .map(|i| {
                let mut s = DeviceSpec::tesla_c2050();
                if i % 2 == 1 {
                    s.name = format!("slow-c2050 #{i}");
                    s.clock_hz *= 0.6;
                    s.pcie_bandwidth *= 0.8;
                }
                s
            })
            .collect()
    }

    #[test]
    fn sharded_results_are_bit_identical_to_single_device() {
        let prm = small_params(5);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 37, 11); // 37: divides nothing
        let mut single = BatchGpuEvaluator::new(&sys, 37, GpuOptions::default()).unwrap();
        let want = single.evaluate_batch(&points);
        for policy in [
            ShardPolicy::RoundRobin,
            ShardPolicy::CapacityProportional,
            ShardPolicy::WorkStealing { chunk: 3 },
        ] {
            let mut cluster = ShardedBatchEvaluator::new(
                &sys,
                &hetero_specs(3),
                16,
                ClusterOptions {
                    policy,
                    ..Default::default()
                },
            )
            .unwrap();
            let got = cluster.evaluate_batch(&points);
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.values, w.values, "{policy:?}, point {i}");
                assert_eq!(
                    g.jacobian.as_slice(),
                    w.jacobian.as_slice(),
                    "{policy:?}, point {i}"
                );
            }
        }
    }

    /// The acceptance criterion: modeled throughput at `D = 4`,
    /// `P = 256` is at least 3x the `D = 1` figure with stream overlap
    /// enabled, and the results agree bit-for-bit across `D`.
    ///
    /// Uses a Table-1-shaped system (n = 32, 128 monomials): scaling
    /// needs kernel work to dominate the per-batch fixed costs, which a
    /// toy system does not model (its launches are latency-bound and
    /// nearly flat in P — the paper's own effect).
    #[test]
    fn four_devices_scale_at_least_3x_over_one() {
        let prm = BenchmarkParams {
            n: 32,
            m: 4,
            k: 9,
            d: 2,
            seed: 9,
        };
        let sys = random_system::<f64>(&prm);
        let p = 256;
        let points = random_points::<f64>(32, p, 21);
        let mut throughputs = Vec::new();
        let mut endpoints: Vec<Vec<SystemEval<f64>>> = Vec::new();
        for d in [1usize, 2, 4] {
            let specs = vec![DeviceSpec::tesla_c2050(); d];
            let mut cluster =
                ShardedBatchEvaluator::new(&sys, &specs, p.div_ceil(d), ClusterOptions::default())
                    .unwrap();
            let evals = cluster.evaluate_batch(&points);
            let s = cluster.cluster_stats();
            assert_eq!(s.evaluations, p as u64);
            throughputs.push(s.throughput_evals_per_sec());
            endpoints.push(evals);
            assert!(cluster.overlap_savings() > 0.0, "D = {d} overlap modeled");
        }
        // Bit-identical across D in {1, 2, 4}.
        for d in 1..endpoints.len() {
            for (i, (a, b)) in endpoints[0].iter().zip(&endpoints[d]).enumerate() {
                assert_eq!(a.values, b.values, "D index {d}, point {i}");
                assert_eq!(
                    a.jacobian.as_slice(),
                    b.jacobian.as_slice(),
                    "D index {d}, point {i}"
                );
            }
        }
        let (d1, d2, d4) = (throughputs[0], throughputs[1], throughputs[2]);
        assert!(
            d4 >= 3.0 * d1,
            "D = 4 must be >= 3x D = 1: {d4:.0} vs {d1:.0} evals/s"
        );
        assert!(d2 > d1, "D = 2 must beat D = 1: {d2:.0} vs {d1:.0}");
    }

    #[test]
    fn cluster_stats_track_imbalance_and_wall_max() {
        let prm = small_params(3);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 24, 7);
        // Round-robin over heterogeneous devices: the slow devices hold
        // the same share, so imbalance rises above 1.
        let mut cluster = ShardedBatchEvaluator::new(
            &sys,
            &hetero_specs(2),
            16,
            ClusterOptions {
                policy: ShardPolicy::RoundRobin,
                ..Default::default()
            },
        )
        .unwrap();
        let _ = cluster.evaluate_batch(&points);
        let s = cluster.cluster_stats();
        assert_eq!(s.batches, 1);
        assert!(s.imbalance() > 1.0, "imbalance {}", s.imbalance());
        // Wall is the max device wall, which is less than the sum.
        let wall_sum: f64 = s.device_wall.iter().sum();
        assert!(s.wall_seconds < wall_sum);
        assert!(s.wall_seconds >= s.device_wall.iter().copied().fold(0.0, f64::max) - 1e-15);
        // Work stealing on the same fleet balances better.
        let mut stealing = ShardedBatchEvaluator::new(
            &sys,
            &hetero_specs(2),
            16,
            ClusterOptions {
                policy: ShardPolicy::WorkStealing { chunk: 2 },
                ..Default::default()
            },
        )
        .unwrap();
        let _ = stealing.evaluate_batch(&points);
        let t = stealing.cluster_stats();
        assert!(
            t.imbalance() <= s.imbalance() + 1e-12,
            "stealing {} vs round-robin {}",
            t.imbalance(),
            s.imbalance()
        );
    }

    #[test]
    fn shards_larger_than_device_capacity_chunk_internally() {
        let prm = small_params(13);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 20, 5);
        // Capacity 4 per device, 2 devices: a 20-point batch needs
        // chunked shard execution (3 round trips on one device).
        let mut cluster =
            ShardedBatchEvaluator::new(&sys, &hetero_specs(2), 4, ClusterOptions::default())
                .unwrap();
        assert_eq!(cluster.max_batch(), 8);
        // 20 > max_batch: typed error.
        assert!(matches!(
            cluster.try_evaluate_batch(&points),
            Err(BatchError::CapacityExceeded {
                points: 20,
                capacity: 8
            })
        ));
        let got = cluster.evaluate_batch(&points[..8]);
        let mut single = BatchGpuEvaluator::new(&sys, 8, GpuOptions::default()).unwrap();
        let want = single.evaluate_batch(&points[..8]);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.values, w.values);
        }
        assert!(matches!(
            cluster.try_evaluate_batch(&[]),
            Err(BatchError::Empty)
        ));
    }

    /// Chaos, Points mode: under a seeded fault plan the fleet retries,
    /// fails over, and (with CPU fallback on) always completes — and
    /// every recovered batch is **bit-identical** to the fault-free
    /// run. Sweeping seeds guarantees the schedule actually strikes.
    #[test]
    fn fleet_recovery_is_bit_identical_under_faults() {
        use polygpu_gpusim::prelude::FaultPlan;
        let prm = small_params(5);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 24, 11);
        let mut clean =
            ShardedBatchEvaluator::new(&sys, &hetero_specs(3), 8, ClusterOptions::default())
                .unwrap();
        let want = clean.evaluate_batch(&points);
        let mut strikes = 0u64;
        let mut failovers = 0u64;
        for seed in 0..24u64 {
            let mut opts = ClusterOptions {
                recovery: RecoveryPolicy {
                    cpu_fallback: true,
                    ..RecoveryPolicy::default()
                },
                ..Default::default()
            };
            opts.base.fault = Some(FaultConfig {
                plan: FaultPlan::new(seed, 40_000),
                device_index: 0,
            });
            let mut chaos = ShardedBatchEvaluator::new(&sys, &hetero_specs(3), 8, opts).unwrap();
            let got = chaos
                .try_evaluate_batch(&points)
                .expect("cpu_fallback makes every schedule recoverable");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.values, w.values, "seed {seed}, point {i}");
                assert_eq!(
                    g.jacobian.as_slice(),
                    w.jacobian.as_slice(),
                    "seed {seed}, point {i}"
                );
            }
            let s = chaos.cluster_stats();
            if s.fault.faults > 0 {
                strikes += 1;
                assert!(
                    s.fault.recovery_seconds > 0.0,
                    "seed {seed}: faults without charged recovery time"
                );
            }
            failovers += s.fault.failovers;
        }
        assert!(strikes > 0, "40000 ppm over 24 seeds must strike");
        assert!(failovers > 0, "some schedule must exhaust retries");
    }

    /// Chaos, Points mode: at a 100% fault rate every device dies; the
    /// outcome is the typed `DegradedFleet` error — or, with the CPU
    /// fallback enabled, a bit-identical result. Never a panic.
    #[test]
    fn total_fleet_loss_is_typed_or_falls_back_to_cpu() {
        use polygpu_gpusim::prelude::FaultPlan;
        let prm = small_params(3);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 6, 7);
        let mut clean =
            ShardedBatchEvaluator::new(&sys, &hetero_specs(2), 8, ClusterOptions::default())
                .unwrap();
        let want = clean.evaluate_batch(&points);
        let make = |cpu_fallback: bool| {
            let mut opts = ClusterOptions {
                recovery: RecoveryPolicy {
                    cpu_fallback,
                    ..RecoveryPolicy::default()
                },
                ..Default::default()
            };
            opts.base.fault = Some(FaultConfig {
                plan: FaultPlan::new(7, 1_000_000),
                device_index: 0,
            });
            ShardedBatchEvaluator::new(&sys, &hetero_specs(2), 8, opts).unwrap()
        };
        let mut doomed = make(false);
        match doomed.try_evaluate_batch(&points) {
            Err(BatchError::DegradedFleet { devices: 2, lost }) => {
                assert!(lost >= 1, "lost {lost}")
            }
            Err(other) => panic!("expected DegradedFleet, got {other}"),
            Ok(_) => panic!("expected DegradedFleet, got a result"),
        }
        assert!(doomed.cluster_stats().fault.faults > 0);
        let mut saved = make(true);
        let got = saved.try_evaluate_batch(&points).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.values, w.values);
            assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice());
        }
        assert!(saved.cluster_stats().fault.failovers > 0);
    }

    /// Satellite: ratio helpers must be total on empty runs.
    #[test]
    fn empty_cluster_stats_ratios_are_total() {
        let s = ClusterStats::default();
        assert_eq!(s.throughput_evals_per_sec(), 0.0);
        assert_eq!(s.imbalance(), 1.0);
        assert!(!format!("{s}").is_empty());
    }

    /// Cluster spans: the Batch span on `Track::Cluster` covers the
    /// batch wall clock, Shard spans cover each device's share, and the
    /// exported trace is byte-identical across identical runs.
    #[test]
    fn cluster_trace_reconciles_and_is_deterministic() {
        use polygpu_obs::{chrome_trace_json, CollectingTracer, SpanKind, TraceSink, Track};
        use std::sync::Arc;
        let prm = small_params(5);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 24, 7);
        let run = || {
            let tracer = Arc::new(CollectingTracer::new());
            let mut opts = ClusterOptions::default();
            opts.base.trace = TraceSink::new(tracer.clone());
            let mut cluster = ShardedBatchEvaluator::new(&sys, &hetero_specs(2), 16, opts).unwrap();
            let _ = cluster.evaluate_batch(&points);
            (tracer.spans(), cluster.cluster_stats())
        };
        let (spans, stats) = run();
        let batch: Vec<_> = spans
            .iter()
            .filter(|s| s.track == Track::Cluster && s.kind == SpanKind::Batch)
            .collect();
        assert_eq!(batch.len(), 1);
        assert!((batch[0].dur - stats.wall_seconds).abs() < 1e-12);
        let shards = spans
            .iter()
            .filter(|s| s.track == Track::Cluster && s.kind == SpanKind::Shard)
            .count();
        assert_eq!(shards, 2, "one Shard span per participating device");
        // Calibration probes are silenced: device tracks carry exactly
        // the real batch's ops, so each device Batch span reconciles
        // with that device's wall clock.
        for (d, dev) in stats.device_wall.iter().enumerate() {
            let dev_spans: f64 = spans
                .iter()
                .filter(|s| s.track == Track::Device(d as u32) && s.kind == SpanKind::Batch)
                .map(|s| s.dur)
                .sum();
            assert!(
                (dev_spans - dev).abs() < 1e-12,
                "device {d}: spans {dev_spans} vs wall {dev}"
            );
        }
        let (again, _) = run();
        assert_eq!(chrome_trace_json(&spans), chrome_trace_json(&again));
    }

    /// Sparse (ragged) systems shard across the fleet under the packed
    /// encoding, bit-identical to the single-device engine — and
    /// seeded chaos schedules recover bit-identically, the sparse CPU
    /// fallback included.
    #[test]
    fn sparse_points_sharding_is_bit_identical_and_recovers() {
        use polygpu_core::layout::encoding::EncodingKind;
        use polygpu_gpusim::prelude::FaultPlan;
        use polygpu_polysys::{random_sparse_system, SparseBenchmarkParams};
        let prm = SparseBenchmarkParams {
            n: 8,
            m_min: 1,
            m_max: 5,
            k_min: 0,
            k_max: 4,
            d: 3,
            seed: 11,
        };
        let sys = random_sparse_system::<f64>(&prm);
        assert!(sys.uniform_shape().is_err(), "the family must be ragged");
        let points = random_points::<f64>(8, 21, 5);
        let packed = GpuOptions {
            encoding: EncodingKind::Packed,
            ..GpuOptions::default()
        };
        let mut single = BatchGpuEvaluator::new(&sys, 21, packed.clone()).unwrap();
        let want = single.try_evaluate_batch(&points).unwrap();
        let mut cluster = ShardedBatchEvaluator::new(
            &sys,
            &hetero_specs(3),
            8,
            ClusterOptions {
                base: packed.clone(),
                ..Default::default()
            },
        )
        .unwrap();
        let got = cluster.evaluate_batch(&points);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.values, w.values, "point {i}");
            assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice(), "point {i}");
        }
        let mut strikes = 0u64;
        for seed in 0..12u64 {
            let mut opts = ClusterOptions {
                base: packed.clone(),
                recovery: RecoveryPolicy {
                    cpu_fallback: true,
                    ..RecoveryPolicy::default()
                },
                ..Default::default()
            };
            opts.base.fault = Some(FaultConfig {
                plan: FaultPlan::new(seed, 40_000),
                device_index: 0,
            });
            let mut chaos = ShardedBatchEvaluator::new(&sys, &hetero_specs(3), 8, opts).unwrap();
            let got = chaos
                .try_evaluate_batch(&points)
                .expect("cpu_fallback makes every schedule recoverable");
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.values, w.values, "seed {seed}, point {i}");
                assert_eq!(
                    g.jacobian.as_slice(),
                    w.jacobian.as_slice(),
                    "seed {seed}, point {i}"
                );
            }
            strikes += chaos.cluster_stats().fault.faults;
        }
        assert!(strikes > 0, "40000 ppm over 12 seeds must strike");
    }

    #[test]
    fn double_double_cluster_matches_single_device_bitwise() {
        use polygpu_qd::Dd;
        let prm = small_params(17);
        let sys = random_system::<f64>(&prm).convert::<Dd>();
        let points: Vec<Vec<Complex<Dd>>> = random_points::<f64>(8, 11, 23)
            .into_iter()
            .map(|x| x.into_iter().map(|z| z.convert()).collect())
            .collect();
        let mut single = BatchGpuEvaluator::new(&sys, 11, GpuOptions::default()).unwrap();
        let want = single.evaluate_batch(&points);
        let mut cluster =
            ShardedBatchEvaluator::new(&sys, &hetero_specs(3), 8, ClusterOptions::default())
                .unwrap();
        let got = cluster.evaluate_batch(&points);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.values, w.values, "dd point {i}");
            assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice(), "dd point {i}");
        }
    }

    /// The fused corrector's retries show on the cluster track the way
    /// the evaluate path's do: one `Retry` span per retrying shard,
    /// whose attempts add up to the fleet's retry count, and one
    /// `Backoff` window per retrying shard, whose durations add up to
    /// the backoff the fleet charged.
    #[test]
    fn fused_correct_retries_and_backoff_are_traced() {
        use polygpu_core::IdentityCombine;
        use polygpu_gpusim::prelude::FaultPlan;
        use polygpu_obs::{CollectingTracer, MetaValue, SpanKind, TraceSink, Track};
        use std::sync::Arc;
        let sys = random_system::<f64>(&small_params(5));
        let points = random_points::<f64>(8, 12, 3);
        let recovery = RecoveryPolicy {
            cpu_fallback: true,
            ..RecoveryPolicy::default()
        };
        let mut retried = 0u64;
        for seed in 0..24u64 {
            let tracer = Arc::new(CollectingTracer::new());
            let mut opts = ClusterOptions {
                recovery,
                ..Default::default()
            };
            opts.base.trace = TraceSink::new(tracer.clone());
            opts.base.fault = Some(FaultConfig {
                plan: FaultPlan::new(seed, 40_000),
                device_index: 0,
            });
            let specs = vec![DeviceSpec::tesla_c2050(); 3];
            let mut fleet = ShardedBatchEvaluator::new(&sys, &specs, 4, opts).unwrap();
            let mut pts = points.clone();
            fleet
                .try_correct_batch(&mut pts, &mut IdentityCombine, &CorrectParams::default())
                .expect("cpu_fallback makes every schedule recoverable");
            let spans = tracer.spans();
            let on_cluster = |kind| {
                spans
                    .iter()
                    .filter(move |s| s.track == Track::Cluster && s.kind == kind)
            };
            let attempts: u64 = on_cluster(SpanKind::Retry)
                .map(|s| match s.meta.iter().find(|(k, _)| *k == "attempts") {
                    Some((_, MetaValue::U64(a))) => *a,
                    _ => panic!("seed {seed}: a Retry span carries its attempts"),
                })
                .sum();
            let backoff: f64 = on_cluster(SpanKind::Backoff).map(|s| s.dur).sum();
            let stats = fleet.cluster_stats();
            assert_eq!(attempts, stats.fault.retries, "seed {seed}: Retry spans");
            // The fleet's recovery time is its backoff plus the
            // devices' fault-detection latencies.
            let detection: f64 = fleet
                .device_stats()
                .iter()
                .map(|d| d.fault.recovery_seconds)
                .sum();
            let charged = stats.fault.recovery_seconds - detection;
            assert!(
                (backoff - charged).abs() < 1e-12,
                "seed {seed}: Backoff spans {backoff} vs charged {charged}"
            );
            assert_eq!(
                on_cluster(SpanKind::Retry).count(),
                on_cluster(SpanKind::Backoff).count(),
                "seed {seed}: every retrying shard backs off"
            );
            retried += stats.fault.retries;
        }
        assert!(retried > 0, "40000 ppm over 24 seeds must retry");
    }

    /// A fused fleet call that fails typed keeps its round's modeled
    /// time, as the evaluate path does: the failing device's partial
    /// wall lands in its `device_wall`, and the round's maximum in the
    /// cluster wall clock. Here one device's shared memory is too small
    /// for the n = 72 pivot panel (2,304 B > 2,240 B), though it holds
    /// the evaluation kernels' blocks.
    #[test]
    fn failed_fused_call_charges_its_round() {
        use polygpu_core::IdentityCombine;
        let sys = random_system::<f64>(&BenchmarkParams {
            n: 72,
            m: 1,
            k: 1,
            d: 1,
            seed: 1,
        });
        let mut small = DeviceSpec::tesla_c2050();
        small.shared_mem_per_sm = 2240;
        let specs = vec![DeviceSpec::tesla_c2050(), small];
        let mut fleet = ShardedBatchEvaluator::new(&sys, &specs, 1, ClusterOptions::default())
            .expect("both devices hold the evaluation kernels");
        let mut pts = random_points::<f64>(72, 2, 5);
        let err = fleet
            .try_correct_batch(&mut pts, &mut IdentityCombine, &CorrectParams::default())
            .unwrap_err();
        assert!(matches!(err, BatchError::Launch(_)), "{err}");
        let own: Vec<f64> = fleet
            .device_stats()
            .iter()
            .map(|d| d.wall_seconds)
            .collect();
        assert!(own.iter().all(|&w| w > 0.0), "both devices worked: {own:?}");
        let s = fleet.cluster_stats();
        assert_eq!(s.device_wall, own, "each device keeps its partial wall");
        assert_eq!(
            s.wall_seconds,
            own[0].max(own[1]),
            "the round's max is charged"
        );
    }
}
