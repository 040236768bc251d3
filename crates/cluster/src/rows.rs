//! **System sharding**: partition the target system's equations (rows
//! of the Jacobian) across devices, so systems whose support encoding
//! exceeds one device's constant memory become solvable at all.
//!
//! Point sharding ([`crate::ShardedBatchEvaluator`]) scales *throughput*
//! but every device must hold the **whole** encoding — the paper's
//! 2,048-monomial constant-memory wall caps the system size no matter
//! how many devices join. Row sharding attacks the wall itself:
//!
//! * a [`SystemShardPolicy`] splits the `rows` equations over `D`
//!   devices (pure function of `(rows, D)` — deterministic);
//! * each device encodes **only its rows'** supports and coefficients
//!   into its own constant arena (`~1/D` of the bytes) and runs the
//!   unchanged two-launch pipeline on its rectangular row block;
//! * every device sees **every point** of a batch (the point upload is
//!   replicated — the price of the mode), and its own round trip
//!   downloads its rows' values and Jacobian rows to the host, which
//!   merges them: no result crosses between devices, so a batch costs
//!   its slowest device's round trip plus any recovery;
//! * merged results are **bit-for-bit** the single-device (and CPU
//!   reference) results: each row's arithmetic touches only its own
//!   supports, so partitioning rows changes nothing numerically.
//!
//! [`ClusterSession`] adds multi-system **residency** on top: several
//! row-sharded systems co-reside in the fleet's constant arenas (joint
//! per-device budgets), and switching the active system costs one
//! parallel command-queue round trip instead of `D` re-encodes.

use crate::fleet::{device_options, Evaluate, Executor, Job, Ledger, Work};
use crate::shard::Shard;
use polygpu_complex::{Complex, Real};
use polygpu_core::engine::{
    validate_batch, AnyEvaluator, BuildError, ClusterSpec, EngineCaps, ResidencyRow,
    SessionAmortization, ShardMode, SystemId, SystemShardPolicy,
};
use polygpu_core::layout::encoding::EncodedSupports;
use polygpu_core::layout::packed::sparse_packed_bytes;
use polygpu_core::pipeline::{setup_seconds, GpuOptions, PipelineStats, SetupError};
use polygpu_core::{BatchError, BatchGpuEvaluator};
use polygpu_gpusim::prelude::*;
use polygpu_obs::{MetaValue, MetricsRegistry, SpanKind};
use polygpu_polysys::{BatchSystemEvaluator, System, SystemEval, SystemEvaluator, UniformShape};
use std::fmt;

/// Split `rows` equation indices over `d` devices. Every row appears in
/// exactly one shard; shards may be empty when `d > rows`.
pub fn plan_rows(policy: SystemShardPolicy, rows: usize, d: usize) -> Vec<Vec<usize>> {
    assert!(d >= 1, "row sharding needs at least one device");
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); d];
    match policy {
        SystemShardPolicy::Contiguous => {
            // Largest-remainder apportionment: the first `rows % d`
            // devices carry one extra row, blocks stay contiguous.
            let base = rows / d;
            let extra = rows % d;
            let mut next = 0usize;
            for (dev, shard) in shards.iter_mut().enumerate() {
                let count = base + usize::from(dev < extra);
                shard.extend(next..next + count);
                next += count;
            }
        }
        SystemShardPolicy::RoundRobin => {
            for r in 0..rows {
                shards[r % d].push(r);
            }
        }
    }
    shards
}

/// Configuration of a [`RowShardedEvaluator`].
#[derive(Debug, Clone, Default)]
pub struct RowClusterOptions {
    /// How equations are split across devices.
    pub policy: SystemShardPolicy,
    /// Inert: each device downloads its own rows to the host, so no
    /// result travels between devices and this changes no modeled
    /// figure. Kept only for source compatibility.
    pub gather: TransferPath,
    /// Per-device stream-overlap chunking (see
    /// [`GpuOptions::overlap_chunks`]); `None` picks adaptively.
    pub overlap_chunks: Option<usize>,
    /// Base options for every device (`device` replaced per spec, the
    /// device index of any [`GpuOptions::fault`] by its fleet index).
    pub base: GpuOptions,
    /// How the fleet reacts to injected faults: per-shard retries with
    /// backoff, then re-encoding the lost rows onto survivors when
    /// their constant budgets allow.
    pub recovery: RecoveryPolicy,
}

/// Aggregate modeled cost of a row-sharded cluster.
///
/// Per batch the devices run concurrently and each round trip
/// downloads its own rows to the host, so the batch wall clock is the
/// slowest device's wall plus any recovery (backoff, re-encode).
#[derive(Debug, Clone, Default)]
pub struct RowClusterStats {
    /// Points evaluated (a batch of `P` counts `P`).
    pub evaluations: u64,
    /// Cluster-level batches (one per `evaluate_batch` call).
    pub batches: u64,
    /// Modeled wall clock: per batch the slowest device's wall plus
    /// recovery, summed over batches.
    pub wall_seconds: f64,
    /// Inert: always 0, because no rows cross between devices. Kept
    /// only for source compatibility.
    pub gather_seconds: f64,
    /// Cumulative modeled wall seconds per participating device.
    /// Re-aligned (and zeroed) when a failover re-plan changes the
    /// fleet topology.
    pub device_wall: Vec<f64>,
    /// Rows each participating device owns.
    pub device_rows: Vec<usize>,
    /// Injected-fault accounting: device strikes and detection latency
    /// plus cluster-level retries, failovers, backoff, and re-encode
    /// seconds.
    pub fault: FaultStats,
    /// Devices dropped from the fleet by faults so far, each counted
    /// once (at most the configured fleet size).
    pub devices_lost: usize,
}

impl Ledger for RowClusterStats {
    fn book(&mut self, seconds: f64, fault: &FaultStats) {
        self.fault.merge(fault);
        self.wall_seconds += seconds;
    }
}

impl RowClusterStats {
    fn new(device_rows: Vec<usize>) -> Self {
        RowClusterStats {
            device_wall: vec![0.0; device_rows.len()],
            device_rows,
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

    /// Fold this struct into a [`MetricsRegistry`] under `prefix`.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.evaluations"), self.evaluations);
        reg.counter(&format!("{prefix}.batches"), self.batches);
        reg.counter(&format!("{prefix}.devices_lost"), self.devices_lost as u64);
        reg.gauge(&format!("{prefix}.wall_seconds"), self.wall_seconds);
        self.fault.record_metrics(reg, &format!("{prefix}.fault"));
    }
}

impl fmt::Display for RowClusterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  evaluations           {:>12}", self.evaluations)?;
        writeln!(f, "  batches               {:>12}", self.batches)?;
        writeln!(f, "  devices               {:>12}", self.device_rows.len())?;
        writeln!(f, "  devices lost          {:>12}", self.devices_lost)?;
        writeln!(f, "  wall seconds          {:>12.3e}", self.wall_seconds)?;
        write!(
            f,
            "  throughput (evals/s)  {:>12.3e}",
            self.throughput_evals_per_sec()
        )
    }
}

/// One participating device of a [`RowShardedEvaluator`]: its engine
/// over its rectangular row block, plus the global row indices the
/// block covers.
struct RowShard<R: Real> {
    engine: BatchGpuEvaluator<R>,
    /// Global row index of each local row, in local order.
    rows: Vec<usize>,
    /// The device's index in the original fleet — kept stable across
    /// failover re-plans so each physical device retains its own fault
    /// schedule.
    device_index: usize,
}

/// Plan `system`'s rows over `devices` (fleet index and spec each) and
/// build the engine of every device that owns rows.
fn build_shards<R: Real>(
    system: &System<R>,
    devices: Vec<(usize, DeviceSpec)>,
    policy: SystemShardPolicy,
    base: &GpuOptions,
    capacity: usize,
) -> Result<Vec<RowShard<R>>, SetupError> {
    let plan = plan_rows(policy, system.rows(), devices.len());
    let owners = devices
        .into_iter()
        .zip(plan)
        .filter(|(_, rows)| !rows.is_empty());
    owners
        .map(|((device_index, spec), rows)| {
            let gopts = device_options(base, &spec, device_index);
            Ok(RowShard {
                engine: BatchGpuEvaluator::new(&system.row_block(&rows), capacity, gopts)?,
                rows,
                device_index,
            })
        })
        .collect()
}

/// [`BatchSystemEvaluator`] over `D` devices, each evaluating its own
/// **row block** of the system at every point of the batch.
///
/// The cluster's batch capacity is the *per-device* capacity (points
/// are replicated, not sharded); what scales with `D` is the
/// constant-memory budget — and, on compute-bound shapes, the wall
/// clock, because each device's kernels cover only `rows/D` equations.
pub struct RowShardedEvaluator<R: Real> {
    shards: Vec<RowShard<R>>,
    policy: SystemShardPolicy,
    stats: RowClusterStats,
    /// Variables (the dimension points live in).
    n: usize,
    /// Total rows across all shards.
    rows: usize,
    /// Recovery, over the configured fleet: its loss flags mark the
    /// devices dropped by faults (sticky for the evaluator's life), and
    /// its system feeds failover re-encoding as well as the fallback.
    exec: Executor<R>,
    /// Base options for rebuilding engines after a failover.
    base: GpuOptions,
    capacity: usize,
}

impl<R: Real> RowShardedEvaluator<R> {
    /// Shard `system`'s equations over `specs` by `opts.policy` and
    /// build one rectangular-block [`BatchGpuEvaluator`] of `capacity`
    /// points per participating device (devices left without rows when
    /// `D > rows` sit the computation out). Each device encodes only
    /// its rows' supports — the whole point: a system whose full
    /// encoding overflows one device's constant memory builds here as
    /// long as every *shard* fits. An empty `specs` fails with
    /// [`SetupError::NoDevices`].
    pub fn new(
        system: &System<R>,
        specs: &[DeviceSpec],
        capacity: usize,
        opts: RowClusterOptions,
    ) -> Result<Self, SetupError> {
        if specs.is_empty() {
            return Err(SetupError::NoDevices);
        }
        let base = GpuOptions {
            overlap_chunks: opts.overlap_chunks,
            ..opts.base
        };
        let devices = specs.iter().cloned().enumerate().collect();
        let shards = build_shards(system, devices, opts.policy, &base, capacity)?;
        let opts = RowClusterOptions { base, ..opts };
        Ok(Self::from_parts(
            shards,
            system,
            capacity,
            specs.len(),
            opts,
        ))
    }

    /// Assemble from built shards (the residency path:
    /// [`ClusterSession::load`] encodes each shard into a shared
    /// per-device arena first) on a fleet of `fleet` devices.
    /// `opts.base` is what failover rebuilds engines from.
    fn from_parts(
        shards: Vec<RowShard<R>>,
        system: &System<R>,
        capacity: usize,
        fleet: usize,
        opts: RowClusterOptions,
    ) -> Self {
        RowShardedEvaluator {
            stats: RowClusterStats::new(shards.iter().map(|s| s.rows.len()).collect()),
            policy: opts.policy,
            n: system.dim(),
            rows: system.rows(),
            exec: Executor::new(opts.recovery, &opts.base.trace, system, fleet),
            base: opts.base,
            capacity,
            shards,
        }
    }

    /// Participating devices (those that own at least one row).
    pub fn device_count(&self) -> usize {
        self.shards.len()
    }

    /// The row plan in effect: global row indices per participating
    /// device.
    pub fn row_plan(&self) -> Vec<Vec<usize>> {
        self.shards.iter().map(|s| s.rows.clone()).collect()
    }

    /// The shard policy the plan was produced by.
    pub fn policy(&self) -> SystemShardPolicy {
        self.policy
    }

    /// Per-device modeled statistics.
    pub fn device_stats(&self) -> Vec<PipelineStats> {
        self.shards.iter().map(|s| s.engine.stats()).collect()
    }

    /// Modeled global-memory bytes this evaluator's shards hold on
    /// fleet device `device`.
    pub(crate) fn global_bytes_on(&self, device: usize) -> usize {
        self.shards
            .iter()
            .filter(|s| s.device_index == device)
            .map(|s| s.engine.allocated_bytes())
            .sum()
    }

    /// Aggregate cluster statistics. Fault accounting merges the
    /// devices' strike/detection counters with the cluster-level
    /// retry/failover/re-encode bookkeeping.
    pub fn cluster_stats(&self) -> RowClusterStats {
        let mut s = self.stats.clone();
        for shard in &self.shards {
            s.fault.merge(&shard.engine.stats().fault);
        }
        s.devices_lost = self.exec.lost_count();
        s
    }

    pub fn reset_stats(&mut self) {
        for s in self.shards.iter_mut() {
            s.engine.reset_stats();
        }
        self.stats = RowClusterStats::new(self.shards.iter().map(|s| s.rows.len()).collect());
    }

    /// Re-plan every row over the surviving devices (`keep[d]` per
    /// current shard) and rebuild their engines with the grown row
    /// blocks. Returns the modeled re-encode seconds (each survivor's
    /// [`setup_seconds`] for its grown block, concurrent across
    /// survivors), or `None` when any survivor's constant-memory
    /// budget cannot hold its grown shard.
    fn rebuild_over_survivors(&mut self, keep: &[bool]) -> Option<f64> {
        let survivors: Vec<(usize, DeviceSpec)> = self
            .shards
            .iter()
            .zip(keep)
            .filter(|(_, &k)| k)
            .map(|(s, _)| (s.device_index, s.engine.device().clone()))
            .collect();
        if survivors.is_empty() {
            return None;
        }
        let system = &self.exec.system;
        let shards =
            build_shards(system, survivors, self.policy, &self.base, self.capacity).ok()?;
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let mut setup = 0.0f64;
        for shard in &shards {
            let block = system.row_block(&shard.rows);
            // Modeled re-encode bytes: a ragged block sizes by its
            // packed footprint, a uniform one by its dense encoding.
            let (supports, coeffs) = match block.uniform_shape() {
                Ok(shape) => (
                    EncodedSupports::bytes_needed(&shape, self.base.encoding),
                    shape.total_monomials() * (shape.k + 1) * elem,
                ),
                Err(_) => {
                    let shape = block.sparse_shape();
                    (
                        sparse_packed_bytes(&shape),
                        shape.total_monomials * (shape.max_k + 1) * elem,
                    )
                }
            };
            let outputs = shard.rows.len() * (self.n + 1);
            let device = shard.engine.device();
            setup = setup.max(setup_seconds(
                device, supports, coeffs, self.n, outputs, elem,
            ));
        }
        // The rebuild replaces every engine (and drops the failed
        // devices'), so fold their strike counters into the
        // cluster-level stats before they disappear.
        for s in &self.shards {
            self.stats.fault.merge(&s.engine.stats().fault);
        }
        self.shards = shards;
        self.stats.device_wall = vec![0.0; self.shards.len()];
        self.stats.device_rows = self.shards.iter().map(|s| s.rows.len()).collect();
        Some(setup)
    }

    /// Evaluate a batch: every participating device evaluates **all**
    /// points of its row block in parallel and downloads its rows to
    /// the host, where they merge back into full evaluations in global
    /// row order, bit-identical to a single-device run of the unsharded
    /// system. The batch costs its slowest device's round trip plus any
    /// recovery.
    ///
    /// Injected faults are recovered per the [`RecoveryPolicy`]: a
    /// faulted shard retries on its own device with exponential
    /// backoff; a device that exhausts its retries (or is lost
    /// outright) drops out and the **whole system is re-planned and
    /// re-encoded over the survivors** — charged as modeled re-encode
    /// time — provided every survivor's constant budget holds its grown
    /// shard. Otherwise the batch falls back to the CPU reference when
    /// the policy allows, or fails typed with
    /// [`BatchError::DegradedFleet`]. Recovered batches are
    /// bit-identical to fault-free ones.
    pub fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        validate_batch(self.n, self.max_batch(), points)?;
        let p = points.len();
        let all: Shard = (0..p).collect();
        let policy = self.exec.policy;
        let mut merged: Vec<SystemEval<R>> = (0..p)
            .map(|_| SystemEval::zeros_rect(self.rows, self.n))
            .collect();
        self.exec.begin(self.stats.wall_seconds);
        loop {
            // Every shard runs the whole batch on its row block; the
            // rows it returns scatter into the merged evaluations.
            let (jobs, owners): (Vec<Job<'_, R>>, Vec<_>) = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(d, s)| {
                    (
                        (d, &mut s.engine, all.clone()),
                        (s.device_index, &s.rows[..]),
                    )
                })
                .unzip();
            let (exec, stats, n) = (&mut self.exec, &mut self.stats, self.n);
            let mut keep = vec![true; jobs.len()];
            let round = Evaluate(points).round(jobs, &policy, &mut |d, _, share| {
                let (device, rows) = owners[d];
                let size = ("rows", rows.len());
                exec.charge(device, size, &share, &mut stats.device_wall[d]);
                match share.err {
                    None => {
                        for (eval, full) in share.done.into_iter().zip(merged.iter_mut()) {
                            for (local, &global) in rows.iter().enumerate() {
                                full.values[global] = eval.values[local];
                                for v in 0..n {
                                    full.jacobian[(global, v)] = eval.jacobian[(local, v)];
                                }
                            }
                        }
                    }
                    Some(BatchError::Fault(_)) => {
                        keep[d] = false;
                        exec.fault.failovers += 1;
                    }
                    // Contract violations are not recoverable hardware
                    // events.
                    Some(other) => return Err(other),
                }
                Ok(())
            });
            round.map_err(|err| self.exec.fail(&mut self.stats, err))?;
            self.exec.end_round();
            if keep.iter().all(|&k| k) {
                break;
            }

            // Failover: drop the failed devices and re-encode every row
            // over the survivors; re-run the rebuilt fleet from scratch
            // (bit-identical — only the modeled clock pays).
            for (s, _) in self.shards.iter().zip(&keep).filter(|(_, &k)| !k) {
                self.exec.lost[s.device_index] = true;
            }
            let Some(reencode) = self.rebuild_over_survivors(&keep) else {
                let lost = self.exec.lost_count();
                let mut cpu = self.exec.dead_fleet(&mut self.stats, p, lost)?;
                merged = cpu.try_evaluate_batch(points)?;
                break;
            };
            let exec = &mut self.exec;
            exec.trace
                .emit(SpanKind::Reencode, exec.now(), reencode, 4, &[]);
            exec.fault.recovery_seconds += reencode;
            exec.elapsed += reencode;
        }

        let exec = &self.exec;
        let meta = [("points", MetaValue::U64(p as u64))];
        exec.trace
            .emit(SpanKind::Batch, exec.wall0, exec.elapsed, 3, &meta);
        self.stats.fault.merge(&exec.fault);
        self.stats.evaluations += p as u64;
        self.stats.batches += 1;
        self.stats.wall_seconds += exec.elapsed;
        Ok(merged)
    }
}

impl<R: Real> SystemEvaluator<R> for RowShardedEvaluator<R> {
    fn dim(&self) -> usize {
        self.n
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        polygpu_core::expect_batch(AnyEvaluator::try_evaluate(self, x))
    }

    fn name(&self) -> &str {
        "gpu-sim-cluster-rows"
    }
}

impl<R: Real> BatchSystemEvaluator<R> for RowShardedEvaluator<R> {
    /// The **per-device** point capacity: every device sees every
    /// point, so capacity does not scale with `D` (row sharding trades
    /// throughput scaling for memory scaling).
    fn max_batch(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.capacity())
            .min()
            .unwrap_or(0)
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        polygpu_core::expect_batch(self.try_evaluate_batch(points))
    }
}

impl<R: Real> AnyEvaluator<R> for RowShardedEvaluator<R> {
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        RowShardedEvaluator::try_evaluate_batch(self, points)
    }

    // No `try_correct_batch` override: under row sharding every
    // device holds only a row-slice of each Jacobian, so a fused
    // on-device solve would have to gather the full matrix somewhere
    // per iteration anyway — exactly what the host corrector's
    // evaluate round trip already models. The trait default
    // (`drive_correct` over `try_evaluate_batch`) therefore *is* the
    // honest device-resident story for this topology, and it stays
    // bit-identical to every other backend.

    /// Cluster-level aggregate: wall clock from [`RowClusterStats`]
    /// (the slowest device per batch, plus recovery); resource seconds,
    /// bytes and counters summed over devices; fault accounting merged
    /// exactly as [`RowShardedEvaluator::cluster_stats`] reports it.
    fn engine_stats(&self) -> PipelineStats {
        let mut agg = PipelineStats {
            fault: self.stats.fault,
            ..Default::default()
        };
        for s in &self.shards {
            agg.merge(&s.engine.stats());
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
        let capacity = self.max_batch();
        EngineCaps {
            backend: "cluster-rows",
            devices: self.shards.len(),
            capacity,
            // Identical to `capacity`: every device absorbs the whole
            // batch, so `auto_slots` resolves to `capacity`, not
            // `D × capacity` (the caps-aware clamp in `auto_slots`).
            per_device_capacity: capacity,
            batched: true,
            constant_bytes: self
                .shards
                .iter()
                .map(|s| s.engine.constant_bytes_used())
                .sum(),
        }
    }
}

// ---------------------------------------------------------------------
// Cluster-level residency
// ---------------------------------------------------------------------

struct ClusterResident<R: Real> {
    evaluator: RowShardedEvaluator<R>,
    label: String,
    monomials: usize,
    constant_bytes: usize,
    setup_seconds: f64,
    activations: u64,
    /// Constant-arena regions per participating device
    /// (`(device, (positions, exponents))`) — returned to the arenas on
    /// [`ClusterSession::unload`].
    regions: Vec<(usize, (ConstId, ConstId))>,
}

/// Multi-system residency across a device fleet: several row-sharded
/// systems co-reside in the devices' constant arenas under **joint
/// per-device budgets**, and switching the active system costs one
/// parallel command-queue round trip (the slowest device's
/// `pcie_latency` — every device rebinds its own offsets concurrently)
/// instead of `D` full re-encodes.
///
/// Built from the same validated [`ClusterSpec`] the [`ClusterProvider`]
/// receives — [`EngineBuilder::cluster_spec`] is the seam:
///
/// ```
/// use polygpu_cluster::ClusterSession;
/// use polygpu_core::engine::{Backend, SystemShardPolicy};
/// use polygpu_gpusim::prelude::DeviceSpec;
/// use polygpu_polysys::{random_points, random_system, BenchmarkParams};
///
/// let spec = polygpu_cluster::engine_builder()
///     .backend(Backend::Cluster {
///         devices: vec![DeviceSpec::tesla_c2050(); 2],
///         shard: SystemShardPolicy::Contiguous.into(),
///     })
///     .per_device_capacity(4)
///     .cluster_spec()
///     .unwrap();
/// let mut session = ClusterSession::<f64>::from_spec(&spec).unwrap();
/// let sys = random_system::<f64>(&BenchmarkParams { n: 8, m: 3, k: 2, d: 2, seed: 1 });
/// let id = session.load("stage-a", &sys).unwrap();
/// let points = random_points::<f64>(8, 3, 5);
/// let evals = session.activate(id).try_evaluate_batch(&points).unwrap();
/// assert_eq!(evals.len(), 3);
/// ```
///
/// [`ClusterProvider`]: polygpu_core::engine::ClusterProvider
/// [`EngineBuilder::cluster_spec`]: polygpu_core::engine::EngineBuilder::cluster_spec
pub struct ClusterSession<R: Real> {
    specs: Vec<DeviceSpec>,
    arenas: Vec<ConstantMemory>,
    capacity: usize,
    /// The residents' options (`overlap_chunks` is `base`'s own).
    opts: RowClusterOptions,
    /// Per-device injectors for the session's own staged uploads
    /// (loads); the residents' engines carry their own.
    injectors: Vec<Option<FaultInjector>>,
    /// Devices lost to upload faults — excluded from every later load.
    lost: Vec<bool>,
    fault: FaultStats,
    /// Residency slots, indexed by [`SystemId`]; `None` = unloaded.
    /// Slots are never reused, so a stale id can only name an evicted
    /// system (a panic), never silently alias a different one.
    residents: Vec<Option<ClusterResident<R>>>,
    active: Option<usize>,
    stages: u64,
    switches: u64,
    evictions: u64,
    session_seconds: f64,
    reencode_seconds: f64,
}

impl<R: Real> ClusterSession<R> {
    /// Open a session on the fleet a [`ClusterSpec`] describes.
    /// Requires [`ShardMode::Rows`] (point-sharded clusters replicate
    /// the encoding per device; their residency story is the
    /// single-device [`Session`] per device).
    ///
    /// [`Session`]: polygpu_core::engine::Session
    pub fn from_spec(spec: &ClusterSpec) -> Result<Self, BuildError> {
        let policy = match spec.shard {
            ShardMode::Rows { policy } => policy,
            ShardMode::Points { .. } => {
                return Err(BuildError::SessionBackend {
                    backend: "cluster-points",
                })
            }
        };
        if spec.devices.is_empty() {
            return Err(BuildError::NoDevices);
        }
        if spec.per_device_capacity == 0 {
            return Err(BuildError::ZeroCapacity);
        }
        Ok(ClusterSession {
            arenas: spec.devices.iter().map(ConstantMemory::new).collect(),
            injectors: (0..spec.devices.len())
                .map(|d| {
                    spec.base.fault.map(|f| {
                        let mut inj = FaultInjector::new(f.plan, d);
                        inj.arm();
                        inj
                    })
                })
                .collect(),
            lost: vec![false; spec.devices.len()],
            fault: FaultStats::default(),
            specs: spec.devices.clone(),
            capacity: spec.per_device_capacity,
            opts: RowClusterOptions {
                policy,
                gather: spec.gather,
                overlap_chunks: spec.base.overlap_chunks,
                base: spec.base.clone(),
                recovery: spec.recovery,
            },
            residents: Vec::new(),
            active: None,
            stages: 0,
            switches: 0,
            evictions: 0,
            session_seconds: 0.0,
            reencode_seconds: 0.0,
        })
    }

    /// Modeled one-time setup cost of making `shape` resident on one
    /// device ([`setup_seconds`]) — the same accounting as the
    /// single-device session, per shard.
    fn modeled_shard_setup(&self, device: &DeviceSpec, shape: &UniformShape) -> f64 {
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        setup_seconds(
            device,
            EncodedSupports::bytes_needed(shape, self.opts.base.encoding),
            shape.total_monomials() * (shape.k + 1) * elem,
            shape.n,
            shape.outputs(),
            elem,
        )
    }

    /// Modeled cost of switching the active system: every device
    /// rebinds its kernels' constant offsets concurrently, so the
    /// fleet pays the **slowest** device's command-queue round trip.
    pub fn switch_seconds(&self) -> f64 {
        self.specs
            .iter()
            .map(|s| s.pcie_latency)
            .fold(0.0, f64::max)
    }

    /// Row-shard `system` across the fleet and make it resident:
    /// each device's shard encodes into that device's shared arena
    /// (joint budget — fails typed when a shard does not fit next to
    /// the residents, leaving no partial allocation on any device),
    /// charging the modeled parallel setup once. The residents' shards
    /// on a device share its global memory the same way: a shard whose
    /// engine's buffers do not fit next to theirs fails the load with
    /// [`SetupError::GlobalOverflow`] before anything is built.
    ///
    /// A device that faults during its staged upload is excluded —
    /// permanently when the fault is [`FaultKind::DeviceLost`] — and
    /// the load is **re-planned over the survivors**; only the fault's
    /// modeled detection latency is charged, because the staged-arena
    /// commit protocol already guarantees a failed upload strands no
    /// bytes on any device. When no device survives the load fails
    /// typed with [`BuildError::DegradedFleet`].
    pub fn load(&mut self, label: &str, system: &System<R>) -> Result<SystemId, BuildError> {
        let shape = system.uniform_shape()?;
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let mut excluded = self.lost.clone();
        'replan: loop {
            let survivors: Vec<usize> = (0..self.specs.len()).filter(|&d| !excluded[d]).collect();
            if survivors.is_empty() {
                return Err(BuildError::DegradedFleet {
                    devices: self.specs.len(),
                    lost: excluded.iter().filter(|&&l| l).count(),
                });
            }
            // Pair each surviving device with its row shard (empty
            // shards sit the load out, as at construction).
            let plan: Vec<(usize, Vec<usize>)> =
                plan_rows(self.opts.policy, system.rows(), survivors.len())
                    .into_iter()
                    .zip(&survivors)
                    .filter(|(rows, _)| !rows.is_empty())
                    .map(|(rows, &d)| (d, rows))
                    .collect();
            let blocks: Vec<System<R>> = plan
                .iter()
                .map(|(_, rows)| system.row_block(rows))
                .collect();
            // Budget checks across the whole fleet *before* touching any
            // arena, so a rejected load is free on every device: each
            // shard's engine must fit its device's global memory next to
            // the residents' shards there, and its supports the arena.
            for ((d, rows), block) in plan.iter().zip(&blocks) {
                let gopts = device_options(&self.opts.base, &self.specs[*d], *d);
                let budget = self.specs[*d].global_mem;
                let needed = self
                    .residents
                    .iter()
                    .flatten()
                    .map(|r| r.evaluator.global_bytes_on(*d))
                    .fold(
                        BatchGpuEvaluator::footprint(block, self.capacity, &gopts),
                        usize::saturating_add,
                    );
                if needed > budget {
                    return Err(BuildError::Setup(SetupError::GlobalOverflow {
                        needed,
                        budget,
                    }));
                }
                let shard_shape = UniformShape {
                    rows: rows.len(),
                    ..shape
                };
                let needed = EncodedSupports::bytes_needed(&shard_shape, self.opts.base.encoding);
                if self.arenas[*d].used() + needed > self.arenas[*d].budget() {
                    return Err(BuildError::Setup(SetupError::Encode(
                        polygpu_core::layout::encoding::EncodeError::Constant(ConstantOverflow {
                            requested_total: self.arenas[*d].used() + needed,
                            budget: self.arenas[*d].budget(),
                        }),
                    )));
                }
            }
            // Stage every device's upload into a *clone* of its arena
            // and commit the clones only after the whole fleet
            // succeeded: the byte pre-check above cannot rule out every
            // failure (e.g. an exponent outside the compact encoding's
            // nibble, present only in one device's rows — or an
            // injected upload fault), and a half-loaded system must not
            // strand bytes in the other devices' shared arenas.
            let mut staged: Vec<ConstantMemory> =
                plan.iter().map(|(d, _)| self.arenas[*d].clone()).collect();
            let mut shards = Vec::with_capacity(plan.len());
            let mut regions = Vec::with_capacity(plan.len());
            let mut setup = 0.0f64;
            let mut constant_bytes = 0usize;
            for (j, (d, rows)) in plan.iter().enumerate() {
                let shard_shape = UniformShape {
                    rows: rows.len(),
                    ..shape
                };
                // The staged upload is where a fleet device can fault
                // mid-load: charge the detection latency, exclude the
                // device, and re-plan — the staged arenas simply drop.
                if let Some(inj) = self.injectors[*d].as_mut() {
                    let bytes =
                        EncodedSupports::bytes_needed(&shard_shape, self.opts.base.encoding)
                            + shard_shape.total_monomials() * (shard_shape.k + 1) * elem;
                    let upload = transfer_seconds(&self.specs[*d], bytes);
                    if let Some(fe) = inj.check(OpClass::HostToDevice, &self.specs[*d], upload) {
                        excluded[*d] = true;
                        if fe.kind == FaultKind::DeviceLost {
                            self.lost[*d] = true;
                        }
                        self.fault.faults += 1;
                        self.fault.failovers += 1;
                        self.fault.recovery_seconds += fe.detection_seconds;
                        self.session_seconds += fe.detection_seconds;
                        continue 'replan;
                    }
                }
                let block = &blocks[j];
                let gopts = device_options(&self.opts.base, &self.specs[*d], *d);
                let enc = EncodedSupports::upload(block, &mut staged[j], self.opts.base.encoding)
                    .map_err(|e| BuildError::Setup(SetupError::Encode(e)))?;
                constant_bytes += enc.constant_bytes();
                regions.push((*d, enc.regions()));
                let shard_shape = enc.shape;
                // Devices set up concurrently: the fleet's modeled
                // setup is the slowest shard's.
                setup = setup.max(self.modeled_shard_setup(&self.specs[*d], &shard_shape));
                shards.push(RowShard {
                    engine: BatchGpuEvaluator::from_encoded(
                        block,
                        enc,
                        staged[j].clone(),
                        self.capacity,
                        gopts,
                    )?,
                    rows: rows.clone(),
                    device_index: *d,
                });
            }
            for ((d, _), arena) in plan.iter().zip(staged) {
                self.arenas[*d] = arena;
            }
            let fleet = self.specs.len();
            let evaluator = RowShardedEvaluator::from_parts(
                shards,
                system,
                self.capacity,
                fleet,
                self.opts.clone(),
            );
            self.session_seconds += setup;
            self.residents.push(Some(ClusterResident {
                evaluator,
                label: label.to_string(),
                monomials: shape.total_monomials(),
                constant_bytes,
                setup_seconds: setup,
                activations: 0,
                regions,
            }));
            return Ok(SystemId::new(self.residents.len() - 1));
        }
    }

    /// Unload `id`: every participating device's constant-arena
    /// regions return to that device's arena (reusable by later loads)
    /// and the slot is cleared. The active system is deactivated if it
    /// was `id`. Returns `false` when `id` was already unloaded.
    /// Panics on an id this session never issued.
    pub fn unload(&mut self, id: SystemId) -> bool {
        let idx = id.index();
        assert!(idx < self.residents.len(), "unknown SystemId");
        let Some(r) = self.residents[idx].take() else {
            return false;
        };
        for (d, (positions, exponents)) in r.regions {
            self.arenas[d].free(positions);
            self.arenas[d].free(exponents);
        }
        if self.active == Some(idx) {
            self.active = None;
        }
        self.evictions += 1;
        true
    }

    /// Whether `id` is still resident (not unloaded).
    pub fn is_resident(&self, id: SystemId) -> bool {
        self.residents.get(id.index()).is_some_and(|r| r.is_some())
    }

    /// Unloads performed over the session's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Residency pressure: the **most loaded** device's resident bytes
    /// over its budget, in `[0, 1]` — the fleet-level analogue of the
    /// single-device session's accessor (row shards must fit every
    /// participating device, so the tightest device gates admission).
    pub fn residency_pressure(&self) -> f64 {
        self.arenas
            .iter()
            .filter(|a| a.budget() > 0)
            .map(|a| a.used() as f64 / a.budget() as f64)
            .fold(0.0, f64::max)
    }

    /// Upload-fault accounting for this session's loads (the residents'
    /// evaluators tally their own evaluation-time faults).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault
    }

    /// Devices permanently lost to upload faults.
    pub fn devices_lost(&self) -> usize {
        self.lost.iter().filter(|&&l| l).count()
    }

    /// Make `id` the active system (one modeled parallel command-queue
    /// round trip when it changes) and borrow its evaluator for the
    /// stage. Every call is one "stage" in the amortization
    /// accounting; ids come from **this** session's [`ClusterSession::load`].
    pub fn activate(&mut self, id: SystemId) -> &mut dyn AnyEvaluator<R> {
        let idx = id.index();
        assert!(idx < self.residents.len(), "unknown SystemId");
        assert!(
            self.residents[idx].is_some(),
            "SystemId was unloaded from this session"
        );
        self.stages += 1;
        self.reencode_seconds += self.residents[idx]
            .as_ref()
            .expect("resident")
            .setup_seconds;
        if self.active != Some(idx) {
            if self.active.is_some() {
                self.switches += 1;
                self.session_seconds += self.switch_seconds();
            }
            self.active = Some(idx);
        }
        let r = self.residents[idx].as_mut().expect("resident");
        r.activations += 1;
        &mut r.evaluator
    }

    /// Systems currently resident.
    pub fn resident_count(&self) -> usize {
        self.residents.iter().flatten().count()
    }

    /// Devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.specs.len()
    }

    /// Bytes in use per device arena (all residents' shards).
    pub fn constant_bytes_per_device(&self) -> Vec<usize> {
        self.arenas.iter().map(|a| a.used()).collect()
    }

    /// Per-device constant budgets.
    pub fn constant_budget_per_device(&self) -> Vec<usize> {
        self.arenas.iter().map(|a| a.budget()).collect()
    }

    /// The residency table (one row per resident system; constant
    /// bytes summed over the fleet).
    pub fn residency(&self) -> Vec<ResidencyRow> {
        self.residents
            .iter()
            .flatten()
            .map(|r| ResidencyRow {
                label: r.label.clone(),
                monomials: r.monomials,
                constant_bytes: r.constant_bytes,
                setup_seconds: r.setup_seconds,
                activations: r.activations,
            })
            .collect()
    }

    /// Modeled setup-cost accounting against the re-encoding baseline
    /// (same semantics as the single-device session's).
    pub fn amortization(&self) -> SessionAmortization {
        let min_setup = self
            .residents
            .iter()
            .flatten()
            .map(|r| r.setup_seconds)
            .fold(f64::INFINITY, f64::min);
        let switch = self.switch_seconds();
        SessionAmortization {
            stages: self.stages,
            session_seconds: self.session_seconds,
            reencode_seconds: self.reencode_seconds,
            steady_state_ratio: if self.resident_count() == 0 || switch <= 0.0 {
                1.0
            } else {
                min_setup / switch
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::hetero_specs;
    use polygpu_core::pipeline::FaultConfig;
    use polygpu_obs::TraceSink;
    use polygpu_polysys::{random_points, random_system, AdEvaluator, BenchmarkParams};

    fn params(n: usize, m: usize, k: usize, d: u16, seed: u64) -> BenchmarkParams {
        BenchmarkParams { n, m, k, d, seed }
    }

    #[test]
    fn row_plans_cover_every_row_exactly_once() {
        for policy in [SystemShardPolicy::Contiguous, SystemShardPolicy::RoundRobin] {
            for (rows, d) in [(8usize, 3usize), (5, 5), (2, 4), (32, 4), (7, 1)] {
                let plan = plan_rows(policy, rows, d);
                assert_eq!(plan.len(), d);
                let mut seen = vec![false; rows];
                for shard in &plan {
                    for &r in shard {
                        assert!(!seen[r], "{policy:?}: row {r} planned twice");
                        seen[r] = true;
                    }
                }
                assert!(seen.iter().all(|&b| b), "{policy:?}: rows dropped");
                // Balance: shard sizes differ by at most one.
                let sizes: Vec<usize> = plan.iter().map(|s| s.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{policy:?}: unbalanced {sizes:?}");
            }
        }
    }

    /// Row sharding is bit-identical to the CPU reference under both
    /// policies at every fleet size — on a dense system, and on a
    /// ragged one under the packed encoding, where each device encodes
    /// only its own rows' packed supports.
    #[test]
    fn row_sharded_results_bitwise_equal_cpu_reference() {
        use polygpu_core::engine::CpuReferenceEngine;
        use polygpu_core::layout::encoding::EncodingKind;
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
        let dense = random_system::<f64>(&params(8, 3, 2, 2, 5));
        let points = random_points::<f64>(8, 7, 11);
        for (sys, encoding) in [
            (dense, GpuOptions::default().encoding),
            (ragged, EncodingKind::Packed),
        ] {
            let want = CpuReferenceEngine::new(&sys)
                .unwrap()
                .evaluate_batch(&points);
            for policy in [SystemShardPolicy::Contiguous, SystemShardPolicy::RoundRobin] {
                for d in [1usize, 2, 3, 4] {
                    let opts = RowClusterOptions {
                        policy,
                        base: GpuOptions {
                            encoding,
                            ..GpuOptions::default()
                        },
                        ..Default::default()
                    };
                    let mut cluster =
                        RowShardedEvaluator::new(&sys, &hetero_specs(d), 8, opts).unwrap();
                    let got = cluster.evaluate_batch(&points);
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let at = format!("{encoding:?} {policy:?} D={d}, point {i}");
                        assert_eq!(g.values, w.values, "{at}");
                        assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice(), "{at}");
                    }
                }
            }
        }
    }

    /// The headline: the paper's 2,048-monomial k = 16 system —
    /// rejected by every single-device engine for overflowing constant
    /// memory — **builds and evaluates** once its rows are sharded over
    /// D ∈ {2, 4} devices, bit-identical to the CPU reference.
    #[test]
    fn over_budget_system_builds_at_d2_and_d4() {
        let prm = params(32, 64, 16, 10, 3);
        let sys = random_system::<f64>(&prm);
        // Single device (and D = 1 row sharding): the wall stands.
        assert!(BatchGpuEvaluator::new(&sys, 4, GpuOptions::default()).is_err());
        assert!(
            RowShardedEvaluator::new(&sys, &hetero_specs(1), 4, RowClusterOptions::default())
                .is_err()
        );
        let points = random_points::<f64>(32, 4, 21);
        let mut cpu = AdEvaluator::new(sys.clone()).unwrap();
        let want = cpu.evaluate_batch(&points);
        for d in [2usize, 4] {
            let mut cluster = RowShardedEvaluator::new(
                &sys,
                &vec![DeviceSpec::tesla_c2050(); d],
                4,
                RowClusterOptions::default(),
            )
            .unwrap_or_else(|e| panic!("over-budget system must build at D = {d}: {e}"));
            // Each device holds ~1/D of the encoding, all under budget.
            let caps = AnyEvaluator::caps(&cluster);
            assert_eq!(caps.devices, d);
            assert_eq!(caps.backend, "cluster-rows");
            assert_eq!(caps.constant_bytes, 65_536, "full encoding, fleet-wide");
            let got = cluster.evaluate_batch(&points);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.values, w.values, "D={d}, point {i}");
                assert_eq!(
                    g.jacobian.as_slice(),
                    w.jacobian.as_slice(),
                    "D={d}, point {i}"
                );
            }
            // Each device downloads its own rows to the host: the batch
            // costs its slowest device, and nothing after it.
            let s = cluster.cluster_stats();
            let slowest = s.device_wall.iter().copied().fold(0.0, f64::max);
            assert!(slowest > 0.0, "D={d}");
            assert_eq!(s.wall_seconds, slowest, "D={d}");
        }
    }

    /// The perf half of the headline: on a compute-bound shape that
    /// *does* fit one device, sharding the rows over D = 4 beats D = 1
    /// (each device's kernels cover a quarter of the equations).
    #[test]
    fn four_way_row_sharding_beats_one_device_on_compute_bound_shapes() {
        let prm = params(32, 48, 16, 10, 9); // 1,536 monomials: fits one device
        let sys = random_system::<f64>(&prm);
        let p = 32;
        let points = random_points::<f64>(32, p, 13);
        let mut walls = Vec::new();
        let mut endpoints = Vec::new();
        for d in [1usize, 4] {
            let mut cluster = RowShardedEvaluator::new(
                &sys,
                &vec![DeviceSpec::tesla_c2050(); d],
                p,
                RowClusterOptions::default(),
            )
            .unwrap();
            endpoints.push(cluster.evaluate_batch(&points));
            walls.push(cluster.cluster_stats().wall_seconds);
        }
        for (a, b) in endpoints[0].iter().zip(&endpoints[1]) {
            assert_eq!(a.values, b.values);
        }
        assert!(
            walls[1] < walls[0],
            "D = 4 must beat D = 1: {:.3e} vs {:.3e} s",
            walls[1],
            walls[0]
        );
    }

    #[test]
    fn row_cluster_trace_reconciles_and_is_deterministic() {
        use polygpu_obs::{chrome_trace_json, CollectingTracer, SpanKind, Track};
        use std::sync::Arc;
        let prm = params(8, 4, 3, 2, 7);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 5, 3);
        let run = || {
            let tracer = Arc::new(CollectingTracer::new());
            let mut opts = RowClusterOptions::default();
            opts.base.trace = TraceSink::new(tracer.clone());
            let mut cluster = RowShardedEvaluator::new(&sys, &hetero_specs(3), 8, opts).unwrap();
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
        let shard_end = spans
            .iter()
            .filter(|s| s.track == Track::Cluster && s.kind == SpanKind::Shard)
            .map(|s| s.start + s.dur)
            .fold(0.0, f64::max);
        // The slowest device's Shard span ends exactly at the batch's
        // wall clock: nothing follows the devices' own round trips.
        assert!(
            (shard_end - (batch[0].start + batch[0].dur)).abs() < 1e-12,
            "last shard ends {shard_end} vs batch end {}",
            batch[0].start + batch[0].dur
        );
        let shards = spans
            .iter()
            .filter(|s| s.track == Track::Cluster && s.kind == SpanKind::Shard)
            .count();
        assert_eq!(shards, 3, "one Shard span per participating device");
        let (again, _) = run();
        assert_eq!(chrome_trace_json(&spans), chrome_trace_json(&again));
    }

    #[test]
    fn row_cluster_stats_accounting() {
        let prm = params(8, 4, 3, 2, 7);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 5, 3);
        let mut cluster =
            RowShardedEvaluator::new(&sys, &hetero_specs(3), 8, RowClusterOptions::default())
                .unwrap();
        let _ = cluster.evaluate_batch(&points);
        let s = cluster.cluster_stats();
        assert_eq!(s.batches, 1);
        assert_eq!(s.evaluations, 5);
        assert_eq!(s.gather_seconds, 0.0, "no rows cross between devices");
        // The engine view takes its wall from the cluster and its bytes
        // from the devices: every result element crosses PCIe once.
        let e = AnyEvaluator::engine_stats(&cluster);
        assert_eq!(e.wall_seconds, s.wall_seconds);
        let d2h: u64 = cluster.device_stats().iter().map(|d| d.d2h_bytes).sum();
        assert_eq!(e.d2h_bytes, d2h);
        assert_eq!(d2h, 5 * 8 * (8 + 1) * 16);
        // Typed contract errors, costing nothing.
        assert!(matches!(
            cluster.try_evaluate_batch(&[]),
            Err(BatchError::Empty)
        ));
        let too_many = random_points::<f64>(8, 9, 3);
        assert!(matches!(
            cluster.try_evaluate_batch(&too_many),
            Err(BatchError::CapacityExceeded {
                points: 9,
                capacity: 8
            })
        ));
        assert_eq!(
            cluster.cluster_stats().batches,
            1,
            "rejected calls are free"
        );
        cluster.reset_stats();
        assert_eq!(cluster.cluster_stats().evaluations, 0);
    }

    #[test]
    fn more_devices_than_rows_leaves_spares_idle() {
        let prm = params(3, 2, 2, 2, 1);
        let sys = random_system::<f64>(&prm);
        let mut cluster =
            RowShardedEvaluator::new(&sys, &hetero_specs(5), 4, RowClusterOptions::default())
                .unwrap();
        assert_eq!(cluster.device_count(), 3, "only 3 rows to hand out");
        let points = random_points::<f64>(3, 2, 2);
        let mut cpu = AdEvaluator::new(sys).unwrap();
        let want = cpu.evaluate_batch(&points);
        let got = cluster.evaluate_batch(&points);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.values, w.values);
        }
    }

    #[test]
    fn cluster_session_shares_per_device_budgets_and_amortizes() {
        let spec = crate::engine_builder()
            .backend(polygpu_core::Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); 2],
                shard: SystemShardPolicy::Contiguous.into(),
            })
            .per_device_capacity(4)
            .cluster_spec()
            .unwrap();
        let mut session = ClusterSession::<f64>::from_spec(&spec).unwrap();
        assert_eq!(session.device_count(), 2);
        // The 2,048-monomial over-budget system loads row-sharded…
        let big = random_system::<f64>(&params(32, 64, 16, 10, 3));
        let a = session.load("big", &big).unwrap();
        // …and a second Table-2-sized system co-resides next to it.
        let medium = random_system::<f64>(&params(32, 32, 16, 10, 4));
        let b = session.load("medium", &medium).unwrap();
        assert_eq!(session.resident_count(), 2);
        for (used, budget) in session
            .constant_bytes_per_device()
            .iter()
            .zip(session.constant_budget_per_device())
        {
            assert!(*used <= budget);
            assert!(*used > 0);
        }
        // A third large system breaks the joint per-device budget with
        // the paper's typed constant-overflow error — and costs nothing.
        let err = match session.load("too-much", &big) {
            Ok(_) => panic!("three large systems cannot co-reside on two devices"),
            Err(e) => e,
        };
        assert!(
            matches!(err, BuildError::Setup(SetupError::Encode(_))),
            "{err}"
        );
        assert_eq!(session.resident_count(), 2);

        // Stages switch for one parallel round trip; the amortization
        // accounting matches the single-device session's semantics.
        let points = random_points::<f64>(32, 3, 17);
        for _ in 0..4 {
            for id in [a, b] {
                let evals = session.activate(id).try_evaluate_batch(&points).unwrap();
                assert_eq!(evals.len(), 3);
            }
        }
        let am = session.amortization();
        assert_eq!(am.stages, 8);
        assert!(
            am.steady_state_ratio >= 5.0,
            "cluster residency amortization too weak: {:.2}x",
            am.steady_state_ratio
        );
        assert!(am.reencode_seconds > am.session_seconds);

        // Residency is bit-identical to a fresh row-sharded build.
        let mut standalone = RowShardedEvaluator::new(
            &medium,
            &[DeviceSpec::tesla_c2050(), DeviceSpec::tesla_c2050()],
            4,
            RowClusterOptions::default(),
        )
        .unwrap();
        let want = standalone.try_evaluate_batch(&points).unwrap();
        let got = session.activate(b).try_evaluate_batch(&points).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.values, w.values);
            assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice());
        }
    }

    /// A load that fails *after* the byte pre-check — here a compact
    /// encoding whose exponent limit only the second device's rows
    /// violate — must leave every arena untouched (no stranded bytes
    /// from the devices that had already uploaded their shards).
    #[test]
    fn failed_load_strands_no_bytes_on_any_device() {
        use polygpu_core::layout::encoding::EncodingKind;
        use polygpu_polysys::{Monomial, Polynomial, System, Term};
        let poly = |e: u16| {
            Polynomial::new(vec![Term {
                coeff: polygpu_complex::C64::one(),
                monomial: Monomial::new(vec![(0, e), (1, 1)]).unwrap(),
            }])
        };
        // Rows 0–1 fit the compact nibble (exp − 1 ≤ 15); rows 2–3
        // carry exponent 17, which only device 1's shard encodes.
        let sys = System::new(4, vec![poly(2), poly(2), poly(17), poly(17)]).unwrap();
        let spec = crate::engine_builder()
            .backend(polygpu_core::Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); 2],
                shard: SystemShardPolicy::Contiguous.into(),
            })
            .encoding(EncodingKind::Compact)
            .per_device_capacity(2)
            .cluster_spec()
            .unwrap();
        let mut session = ClusterSession::<f64>::from_spec(&spec).unwrap();
        let before = session.constant_bytes_per_device();
        let err = match session.load("bad", &sys) {
            Ok(_) => panic!("exponent 17 cannot encode compactly"),
            Err(e) => e,
        };
        assert!(matches!(err, BuildError::Setup(_)), "{err}");
        assert_eq!(
            session.constant_bytes_per_device(),
            before,
            "device 0's staged shard must not commit"
        );
        assert_eq!(session.resident_count(), 0);
        // The session stays fully usable.
        let ok = System::new(4, vec![poly(2), poly(3), poly(2), poly(3)]).unwrap();
        let id = session.load("good", &ok).unwrap();
        let x = vec![polygpu_complex::C64::one(); 4];
        let eval = session.activate(id).try_evaluate(&x).unwrap();
        assert_eq!(eval.values.len(), 4);
    }

    /// A two-device fleet over `sys` with no retries and no CPU
    /// fallback. Seeds are scanned for a fault schedule that kills
    /// device 1 early while leaving device 0 clean long enough to
    /// absorb its rows.
    fn fleet_losing_device_1(sys: &System<f64>, trace: TraceSink) -> RowShardedEvaluator<f64> {
        let seed = (0..2_000u64)
            .find(|&seed| {
                let plan = FaultPlan::new(seed, 40_000);
                let d1_strikes = (0..5).any(|op| plan.fault_at(1, op, OpClass::Kernel).is_some());
                let d0_clean = (0..40).all(|op| plan.fault_at(0, op, OpClass::Kernel).is_none());
                d1_strikes && d0_clean
            })
            .expect("some seed kills device 1 first");
        let strict = RecoveryPolicy {
            max_retries: 0,
            backoff_base: 0.0,
            backoff_factor: 1.0,
            cpu_fallback: false,
        };
        let opts = RowClusterOptions {
            base: GpuOptions {
                fault: Some(FaultConfig {
                    plan: FaultPlan::new(seed, 40_000),
                    device_index: 0,
                }),
                trace,
                ..GpuOptions::default()
            },
            recovery: strict,
            ..Default::default()
        };
        RowShardedEvaluator::new(sys, &hetero_specs(2), 8, opts).unwrap()
    }

    /// Chaos, Rows mode: when one device dies, its rows re-encode onto
    /// the survivor (the budget allows it here) and the merged result
    /// is bit-identical to the CPU reference.
    #[test]
    fn lost_rows_reencode_on_survivors_bit_identical() {
        let prm = params(8, 3, 2, 2, 5);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 4, 11);
        let mut cpu = AdEvaluator::new(sys.clone()).unwrap();
        let want = cpu.evaluate_batch(&points);
        let mut cluster = fleet_losing_device_1(&sys, TraceSink::noop());
        assert_eq!(cluster.device_count(), 2);
        let got = cluster
            .try_evaluate_batch(&points)
            .expect("rows must re-encode on the survivor");
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.values, w.values, "point {i}");
            assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice(), "point {i}");
        }
        assert_eq!(cluster.device_count(), 1, "device 1 must be dropped");
        let s = cluster.cluster_stats();
        assert!(s.fault.faults > 0);
        assert!(s.fault.failovers >= 1);
        assert_eq!(s.devices_lost, 1);
        assert!(
            s.fault.recovery_seconds > 0.0,
            "detection + re-encode must be charged"
        );
    }

    /// A failover re-encode costs what setting the grown shard up
    /// costs ([`setup_seconds`]): its supports and coefficients up,
    /// then the validation probe's launches, point upload and result
    /// download.
    #[test]
    fn failover_reencode_charges_the_validation_probe() {
        use polygpu_obs::{CollectingTracer, Track};
        use std::sync::Arc;
        let sys = random_system::<f64>(&params(8, 3, 2, 2, 5));
        let points = random_points::<f64>(8, 4, 11);
        let tracer = Arc::new(CollectingTracer::new());
        let mut cluster = fleet_losing_device_1(&sys, TraceSink::new(tracer.clone()));
        cluster.try_evaluate_batch(&points).unwrap();
        assert_eq!(cluster.device_count(), 1, "device 1 must be dropped");
        let reencodes: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.track == Track::Cluster && s.kind == SpanKind::Reencode)
            .map(|s| s.dur)
            .collect();
        // The survivor, device 0, re-encodes all eight rows.
        let shape = sys.uniform_shape().unwrap();
        let elem = 16;
        let want = setup_seconds(
            &hetero_specs(2)[0],
            EncodedSupports::bytes_needed(&shape, GpuOptions::default().encoding),
            shape.total_monomials() * (shape.k + 1) * elem,
            shape.n,
            shape.outputs(),
            elem,
        );
        assert_eq!(reencodes, vec![want]);
    }

    /// Chaos, Rows mode, total loss: at a 100% fault rate both devices
    /// die and the re-encode can never run — the typed `DegradedFleet`
    /// error or (policy permitting) the CPU fallback, bit-identical to
    /// the device kernels on a dense system and, through the sparse
    /// reference, on a ragged one. Repeated calls count each dead
    /// device once.
    #[test]
    fn rows_total_loss_is_typed_or_falls_back() {
        use polygpu_core::engine::CpuReferenceEngine;
        use polygpu_core::layout::encoding::EncodingKind;
        use polygpu_polysys::{random_sparse_system, SparseBenchmarkParams};
        let ragged = random_sparse_system::<f64>(&SparseBenchmarkParams {
            n: 8,
            m_min: 1,
            m_max: 4,
            k_min: 0,
            k_max: 3,
            d: 2,
            seed: 7,
        });
        assert!(ragged.uniform_shape().is_err(), "the family must be ragged");
        let dense = random_system::<f64>(&params(8, 3, 2, 2, 7));
        let points = random_points::<f64>(8, 3, 3);
        for (sys, encoding) in [
            (dense, GpuOptions::default().encoding),
            (ragged, EncodingKind::Packed),
        ] {
            let want = CpuReferenceEngine::new(&sys)
                .unwrap()
                .evaluate_batch(&points);
            let make = |cpu_fallback: bool| {
                RowShardedEvaluator::new(
                    &sys,
                    &hetero_specs(2),
                    8,
                    RowClusterOptions {
                        base: GpuOptions {
                            encoding,
                            fault: Some(FaultConfig {
                                plan: FaultPlan::new(11, 1_000_000),
                                device_index: 0,
                            }),
                            ..GpuOptions::default()
                        },
                        recovery: RecoveryPolicy {
                            cpu_fallback,
                            ..RecoveryPolicy::default()
                        },
                        ..Default::default()
                    },
                )
                .unwrap()
            };
            let mut doomed = make(false);
            for call in 0..3 {
                match doomed.try_evaluate_batch(&points) {
                    Err(BatchError::DegradedFleet { devices: 2, lost }) => {
                        assert_eq!(lost, 2, "{encoding:?}, call {call}")
                    }
                    Err(other) => panic!("expected DegradedFleet, got {other}"),
                    Ok(_) => panic!("expected DegradedFleet, got a result"),
                }
            }
            let mut saved = make(true);
            for call in 0..4 {
                let got = saved.try_evaluate_batch(&points).unwrap();
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.values, w.values);
                    assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice());
                }
                let s = saved.cluster_stats();
                assert_eq!(s.devices_lost, 2, "{encoding:?}, call {call}");
                assert!(s.fault.failovers > 0);
            }
        }
    }

    /// Chaos, residency: a device that faults during `load`'s staged
    /// upload is excluded and the load re-plans onto the survivor —
    /// committing no bytes to the faulted device's arena — and the
    /// resident evaluates bit-identically to the CPU reference.
    #[test]
    fn upload_fault_during_load_replans_on_survivors() {
        let rate = 60_000;
        let seed = (0..4_000u64)
            .find(|&seed| {
                let plan = FaultPlan::new(seed, rate);
                plan.fault_at(0, 0, OpClass::HostToDevice).is_some()
                    && (0..40).all(|op| plan.fault_at(1, op, OpClass::Kernel).is_none())
            })
            .expect("some seed faults device 0's first upload only");
        let spec = crate::engine_builder()
            .backend(polygpu_core::Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); 2],
                shard: SystemShardPolicy::Contiguous.into(),
            })
            .per_device_capacity(4)
            .fault_plan(FaultPlan::new(seed, rate))
            .cluster_spec()
            .unwrap();
        let mut session = ClusterSession::<f64>::from_spec(&spec).unwrap();
        let sys = random_system::<f64>(&params(8, 3, 2, 2, 1));
        let id = session.load("replanned", &sys).unwrap();
        assert!(session.fault_stats().failovers >= 1, "load must fail over");
        assert_eq!(
            session.constant_bytes_per_device()[0],
            0,
            "the faulted device's arena must stay untouched"
        );
        assert!(session.constant_bytes_per_device()[1] > 0);
        let points = random_points::<f64>(8, 3, 9);
        let mut cpu = AdEvaluator::new(sys).unwrap();
        let want = cpu.evaluate_batch(&points);
        let got = session.activate(id).try_evaluate_batch(&points).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.values, w.values);
            assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice());
        }
    }

    #[test]
    fn session_requires_row_sharding() {
        let spec = crate::engine_builder()
            .backend(polygpu_core::Backend::Cluster {
                devices: vec![DeviceSpec::tesla_c2050(); 2],
                shard: ShardMode::default(), // point sharding
            })
            .cluster_spec()
            .unwrap();
        assert!(matches!(
            ClusterSession::<f64>::from_spec(&spec),
            Err(BuildError::SessionBackend { .. })
        ));
    }
}
