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
//!   overlap savings and the load-imbalance ratio;
//! * fault recovery (retry, backoff, failover, CPU fallback) is one
//!   executor, in the private `fleet` module (`src/fleet.rs`), that
//!   this point fleet and the row fleet ([`rows`]) share.
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

mod fleet;
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

use fleet::{device_options, Evaluate, Executor, Job, Ledger, Work};
use polygpu_complex::{Complex, Real};
use polygpu_core::engine::{
    validate_batch, AnyEvaluator, BuildError, ClusterPolicy, ClusterProvider, ClusterSpec, Engine,
    EngineBuilder, EngineCaps, ShardMode,
};
use polygpu_core::pipeline::{GpuOptions, PipelineStats, SetupError};
use polygpu_core::{BatchError, BatchGpuEvaluator, CombineMap, CorrectParams, CorrectStatus};
use polygpu_gpusim::prelude::{DeviceSpec, FaultKind, FaultStats, RecoveryPolicy};
use polygpu_obs::{MetaValue, MetricsRegistry, SpanKind, TraceSink};
use polygpu_polysys::{BatchSystemEvaluator, System, SystemEval, SystemEvaluator};
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
    /// `overlap_chunks` by the field above, and the device index of any
    /// [`GpuOptions::fault`] by the device's own index so every device
    /// draws an independent fault schedule from the shared plan).
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
    /// Recovery; its loss flags exclude a device that reported
    /// [`FaultKind::DeviceLost`] from every later plan.
    exec: Executor<R>,
}

impl Ledger for ClusterStats {
    fn book(&mut self, seconds: f64, fault: &FaultStats) {
        self.fault.merge(fault);
        self.wall_seconds += seconds;
    }
}

/// The fused corrector. Its [`CombineMap`] is a single host object, so
/// a round's devices run one after another (the [`Work`] default). The
/// fused loop never commits on `Err`, so a retried chunk starts from
/// the same iterates and its eventual success is bit-identical to a
/// fault-free run.
struct Correct<'a, R: Real> {
    points: &'a [Vec<Complex<R>>],
    combine: &'a mut dyn CombineMap<R>,
    params: &'a CorrectParams,
}

impl<R: Real> Work<R> for Correct<'_, R> {
    /// A corrected point and its status.
    type Out = (Vec<Complex<R>>, CorrectStatus);
    const EVALUATES: bool = false;

    fn run(
        &mut self,
        engine: &mut dyn AnyEvaluator<R>,
        chunk: &[usize],
    ) -> Result<Vec<Self::Out>, BatchError> {
        /// Remaps a chunk-local index to the point's position in the
        /// call's batch — the sparse sibling of `OffsetCombine` for
        /// chunks whose indices are not contiguous.
        struct GatherCombine<'a, R: Real> {
            inner: &'a mut dyn CombineMap<R>,
            indices: &'a [usize],
        }
        impl<R: Real> CombineMap<R> for GatherCombine<'_, R> {
            fn apply(&mut self, index: usize, x: &[Complex<R>], eval: &mut SystemEval<R>) {
                self.inner.apply(self.indices[index], x, eval);
            }
        }
        let mut pts = fleet::gather(self.points, chunk);
        let mut combine = GatherCombine {
            inner: &mut *self.combine,
            indices: chunk,
        };
        let statuses = engine.try_correct_batch(&mut pts, &mut combine, self.params)?;
        Ok(pts.into_iter().zip(statuses).collect())
    }
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
        let base = GpuOptions {
            overlap_chunks: opts.overlap_chunks,
            ..opts.base.clone()
        };
        for (d, spec) in specs.iter().enumerate() {
            let mut gopts = device_options(&base, spec, d);
            // Silenced during calibration; restored below.
            let trace = std::mem::replace(&mut gopts.trace, TraceSink::noop());
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
            dev.set_trace(trace);
            devices.push(dev);
            weights.push(DeviceWeight {
                capacity: per_device_capacity,
                seconds_per_point: spp,
            });
        }
        Ok(ShardedBatchEvaluator {
            stats: ClusterStats::new(devices.len()),
            exec: Executor::new(opts.recovery, &opts.base.trace, system, devices.len()),
            devices,
            weights,
            policy: opts.policy,
            n,
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
        s.devices_lost = self.exec.lost_count();
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
        validate_batch(self.n, self.max_batch(), points)?;
        self.run_rounds(&mut Evaluate(points), points.len())
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
    /// Recovery is the evaluate path's, retries, backoff, failover and
    /// [`RecoveryPolicy::cpu_fallback`] included, and so are its traces
    /// and its charging of a call that fails typed. Corrections commit
    /// into `points` only when every index has a status, so on `Err`
    /// the inputs are untouched and a caller-level retry replays bit
    /// for bit.
    pub fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        validate_batch(self.n, self.max_batch(), points)?;
        let work = &mut Correct {
            points,
            combine,
            params,
        };
        let corrected = self.run_rounds(work, points.len())?;
        Ok(points
            .iter_mut()
            .zip(corrected)
            .map(|(x, (end, status))| {
                *x = end;
                status
            })
            .collect())
    }

    /// The point fleet's round loop. Round 0 plans all `p` points over
    /// every device not lost. A device whose fault outlives its retries
    /// is excluded for the rest of the call — for good when the fault
    /// is [`FaultKind::DeviceLost`] — and the points it stranded are
    /// re-planned over the survivors in the next round.
    fn run_rounds<W: Work<R>>(
        &mut self,
        work: &mut W,
        p: usize,
    ) -> Result<Vec<W::Out>, BatchError> {
        let ndev = self.devices.len();
        let policy = self.exec.policy;
        let mut out: Vec<Option<W::Out>> = (0..p).map(|_| None).collect();
        let mut excluded = self.exec.lost.clone();
        self.exec.begin(self.stats.wall_seconds);
        let mut todo: Vec<usize> = (0..p).collect();
        while !todo.is_empty() {
            let live: Vec<usize> = (0..ndev).filter(|&d| !excluded[d]).collect();
            if live.is_empty() {
                let mut cpu = self.exec.dead_fleet(&mut self.stats, todo.len(), ndev)?;
                for &i in &todo {
                    out[i] = work.run(&mut cpu, &[i])?.pop();
                }
                break;
            }
            // Translate planner output (indices into `todo`) back to
            // point indices and hand each live device its shard.
            let live_weights: Vec<DeviceWeight> = live.iter().map(|&d| self.weights[d]).collect();
            let mut want: Vec<Option<Shard>> = vec![None; ndev];
            for (&d, s) in live
                .iter()
                .zip(plan(self.policy, todo.len(), &live_weights))
            {
                if !s.is_empty() {
                    want[d] = Some(s.iter().map(|&j| todo[j]).collect());
                }
            }
            let jobs: Vec<Job<'_, R>> = self
                .devices
                .iter_mut()
                .enumerate()
                .filter_map(|(d, dev)| want[d].take().map(|s| (d, dev, s)))
                .collect();
            todo.clear();
            let (exec, stats) = (&mut self.exec, &mut self.stats);
            let round = work.round(jobs, &policy, &mut |d, shard, share| {
                exec.charge(
                    d,
                    ("points", shard.len()),
                    &share,
                    &mut stats.device_wall[d],
                );
                let completed = share.done.len();
                if W::EVALUATES {
                    stats.device_evals[d] += completed as u64;
                }
                for (&i, v) in shard.iter().zip(share.done) {
                    out[i] = Some(v);
                }
                match share.err {
                    None => {}
                    Some(BatchError::Fault(fe)) => {
                        excluded[d] = true;
                        if fe.kind == FaultKind::DeviceLost {
                            exec.lost[d] = true;
                        }
                        exec.fault.failovers += 1;
                        todo.extend(&shard[completed..]);
                    }
                    // Contract violations and launch limits are not
                    // recoverable hardware events.
                    Some(other) => return Err(other),
                }
                Ok(())
            });
            round.map_err(|err| self.exec.fail(&mut self.stats, err))?;
            self.exec.end_round();
        }

        let kind = if W::EVALUATES {
            SpanKind::Batch
        } else {
            SpanKind::Correct
        };
        let (wall0, elapsed) = (self.exec.wall0, self.exec.elapsed);
        let meta = [("points", MetaValue::U64(p as u64))];
        self.exec.trace.emit(kind, wall0, elapsed, 3, &meta);
        self.stats.book(elapsed, &self.exec.fault);
        if W::EVALUATES {
            self.stats.evaluations += p as u64;
            self.stats.batches += 1;
        }
        Ok(out
            .into_iter()
            .map(|v| v.expect("every point is run or re-planned"))
            .collect())
    }
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
            fault: self.stats.fault,
            ..Default::default()
        };
        for d in &self.devices {
            agg.merge(&d.stats());
        }
        PipelineStats {
            evaluations: self.stats.evaluations,
            batches: self.stats.batches,
            wall_seconds: self.stats.wall_seconds,
            ..agg
        }
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
    use polygpu_core::pipeline::FaultConfig;
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
    pub(crate) fn hetero_specs(d: usize) -> Vec<DeviceSpec> {
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

    /// Chaos, Points mode, on a dense and on a ragged (packed) system:
    /// sharded results are bit-identical to the single-device engine,
    /// and under a seeded fault plan the fleet retries, fails over and
    /// (with CPU fallback on) always completes — every recovered batch
    /// **bit-identical** to the fault-free one, the sparse CPU fallback
    /// included. Sweeping seeds guarantees the schedule actually
    /// strikes.
    #[test]
    fn fleet_recovery_is_bit_identical_under_faults() {
        use polygpu_core::layout::encoding::EncodingKind;
        use polygpu_gpusim::prelude::FaultPlan;
        use polygpu_polysys::{random_sparse_system, SparseBenchmarkParams};
        let ragged = random_sparse_system::<f64>(&SparseBenchmarkParams {
            n: 8,
            m_min: 1,
            m_max: 5,
            k_min: 0,
            k_max: 4,
            d: 3,
            seed: 11,
        });
        assert!(ragged.uniform_shape().is_err(), "the family must be ragged");
        let packed = GpuOptions {
            encoding: EncodingKind::Packed,
            ..GpuOptions::default()
        };
        let cases = [
            (
                random_system::<f64>(&small_params(5)),
                GpuOptions::default(),
                24,
                11,
            ),
            (ragged, packed, 21, 5),
        ];
        for (sys, base, p, seed) in cases {
            let points = random_points::<f64>(8, p, seed);
            let mut single = BatchGpuEvaluator::new(&sys, p, base.clone()).unwrap();
            let want = single.try_evaluate_batch(&points).unwrap();
            let (mut strikes, mut failovers) = (0u64, 0u64);
            let plans = (0..24).map(|seed| Some(FaultPlan::new(seed, 40_000)));
            for plan in std::iter::once(None).chain(plans) {
                let mut opts = ClusterOptions {
                    base: base.clone(),
                    recovery: RecoveryPolicy {
                        cpu_fallback: true,
                        ..RecoveryPolicy::default()
                    },
                    ..Default::default()
                };
                opts.base.fault = plan.map(|plan| FaultConfig {
                    plan,
                    device_index: 0,
                });
                let mut fleet =
                    ShardedBatchEvaluator::new(&sys, &hetero_specs(3), 8, opts).unwrap();
                let got = fleet
                    .try_evaluate_batch(&points)
                    .expect("cpu_fallback makes every schedule recoverable");
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.values, w.values, "{plan:?}, point {i}");
                    assert_eq!(
                        g.jacobian.as_slice(),
                        w.jacobian.as_slice(),
                        "{plan:?}, point {i}"
                    );
                }
                let s = fleet.cluster_stats();
                if s.fault.faults > 0 {
                    strikes += 1;
                    assert!(
                        s.fault.recovery_seconds > 0.0,
                        "{plan:?}: faults without charged recovery time"
                    );
                }
                failovers += s.fault.failovers;
            }
            assert!(strikes > 0, "40000 ppm over 24 seeds must strike");
            assert!(failovers > 0, "some schedule must exhaust retries");
        }
    }

    /// Chaos, Points mode: at a 100% fault rate every device dies; the
    /// outcome is the typed `DegradedFleet` error — or, with the CPU
    /// fallback enabled, a bit-identical result. Never a panic. The
    /// fused corrector takes the same road: a failed call leaves the
    /// points untouched, and the fallback corrects bit-identically to
    /// the CPU reference.
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

        use polygpu_core::{engine::CpuReferenceEngine, IdentityCombine};
        let params = CorrectParams::default();
        let mut want_points = points.clone();
        let want_statuses = CpuReferenceEngine::new(&sys)
            .unwrap()
            .try_correct_batch(&mut want_points, &mut IdentityCombine, &params)
            .unwrap();
        let mut pts = points.clone();
        match make(false).try_correct_batch(&mut pts, &mut IdentityCombine, &params) {
            Err(BatchError::DegradedFleet {
                devices: 2,
                lost: 2,
            }) => {}
            Err(other) => panic!("expected DegradedFleet, got {other}"),
            Ok(_) => panic!("expected DegradedFleet, got a result"),
        }
        assert_eq!(pts, points, "a failed call leaves the points untouched");
        let statuses = make(true)
            .try_correct_batch(&mut pts, &mut IdentityCombine, &params)
            .unwrap();
        assert_eq!(statuses, want_statuses);
        assert_eq!(pts, want_points);
    }

    /// Both fleets' ratio helpers are total on empty runs.
    #[test]
    fn empty_cluster_stats_ratios_are_total() {
        let s = ClusterStats::default();
        assert_eq!(s.throughput_evals_per_sec(), 0.0);
        assert_eq!(s.imbalance(), 1.0);
        assert!(!format!("{s}").is_empty());
        let r = RowClusterStats::default();
        assert_eq!(r.throughput_evals_per_sec(), 0.0);
        assert_eq!(r.gather_fraction(), 0.0);
        assert!(!format!("{r}").is_empty());
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
