//! The unified engine API: one builder, one evaluator trait, and
//! multi-system device residency.
//!
//! The paper's pipeline is one stage of a homotopy run; follow-on work
//! (GPU Newton in double-double/quad-double, polyhedral path tracking)
//! switches precisions, batch shapes and device counts *mid-run*. This
//! module puts one surface over every evaluator in the workspace:
//!
//! * [`Engine::builder`] — a fluent, validated builder that selects a
//!   [`Backend`] (CPU reference, single-point GPU, batched GPU, or a
//!   multi-device cluster via a [`ClusterProvider`]), a precision (the
//!   `Real` generic of [`EngineBuilder::build`]), and tuning (stream
//!   overlap, encoding, block size) — subsuming the previous
//!   `GpuOptions`/`ClusterOptions` construction sprawl;
//! * [`AnyEvaluator`] — the object-safe trait every backend implements:
//!   single-point and batched evaluation, typed-error batching, and
//!   capacity/statistics/capability queries, so drivers hold a
//!   `Box<dyn AnyEvaluator<R>>` and never name a concrete engine;
//! * [`Session`] — multi-system residency: several encoded systems
//!   share one device's constant-memory budget with explicit
//!   accounting, so successive homotopy stages switch systems for a
//!   modeled command-queue round trip instead of paying full setup.
//!
//! Every backend reachable from the builder produces **bit-identical**
//! results for the same points: batching, sharding and scheduling are
//! performance transformations, never numerical ones.
//!
//! ```
//! use polygpu_core::engine::{Backend, Engine};
//! use polygpu_polysys::{random_point, random_system, BenchmarkParams, SystemEvaluator};
//!
//! let params = BenchmarkParams { n: 8, m: 4, k: 3, d: 2, seed: 1 };
//! let system = random_system::<f64>(&params);
//! let x = random_point::<f64>(8, 2);
//!
//! // The same builder spec, three backends — results are bit-identical.
//! let mut cpu = Engine::builder().backend(Backend::CpuReference).build(&system).unwrap();
//! let mut gpu = Engine::builder().backend(Backend::Gpu).build(&system).unwrap();
//! let mut batch = Engine::builder()
//!     .backend(Backend::GpuBatch { capacity: 16 })
//!     .build(&system)
//!     .unwrap();
//! let want = cpu.evaluate(&x);
//! assert_eq!(gpu.evaluate(&x).values, want.values);
//! assert_eq!(batch.evaluate(&x).values, want.values);
//! // Capability and modeled-cost queries through the same trait:
//! assert!(batch.caps().capacity >= 16);
//! assert!(gpu.engine_stats().kernel_seconds > 0.0);
//! ```

use crate::batch::{BatchError, BatchGpuEvaluator};
use crate::correct::{host_correct, CombineMap, CorrectParams, CorrectStatus};
use crate::layout::encoding::{EncodedSupports, EncodingKind};
use crate::layout::packed::sparse_packed_bytes;
use crate::pipeline::{
    setup_seconds, FaultConfig, GpuEvaluator, GpuOptions, PipelineStats, SetupError,
};
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_obs::{TraceSink, Tracer, Track};
use polygpu_polysys::{
    loop_evaluate_batch, AdEvaluator, BatchSystemEvaluator, SparseAdEvaluator, SparseShape, System,
    SystemError, SystemEval, SystemEvaluator, UniformShape,
};
use std::fmt;
use std::sync::Arc;

// ---------------------------------------------------------------------
// The unified evaluator trait
// ---------------------------------------------------------------------

/// Static description of an engine's shape and placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCaps {
    /// Backend name (`"cpu-reference"`, `"gpu"`, `"gpu-batch"`,
    /// `"cluster"`).
    pub backend: &'static str,
    /// Devices the engine spans (0 for a pure-CPU engine).
    pub devices: usize,
    /// Largest batch one `evaluate_batch` call accepts (summed over
    /// devices for a cluster).
    pub capacity: usize,
    /// Largest batch one *device* absorbs in a single round trip
    /// (`capacity` again for single-device engines; the tightest
    /// device's capacity for a heterogeneous cluster; unbounded —
    /// `usize::MAX` — for engines whose batch merely loops).
    pub per_device_capacity: usize,
    /// Whether a batch amortizes fixed costs (one round trip for many
    /// points) or merely loops the single-point path.
    pub batched: bool,
    /// Bytes of device constant memory the encoded system occupies
    /// (summed over devices; 0 for CPU).
    pub constant_bytes: usize,
}

impl EngineCaps {
    /// The slot-front size a capacity-aware scheduler should run:
    /// `devices × per-device capacity`, clamped to the engine's actual
    /// batch `capacity` (saturating; effectively unbounded for
    /// loop-batching engines, so callers clamp to their path count).
    /// The clamp matters for **row-sharded** clusters, whose devices
    /// all see every point: their point capacity does not scale with
    /// `D`, so the front must not either. This is what
    /// `SlotPolicy::Auto` in `polygpu-homotopy` resolves to.
    pub fn auto_slots(&self) -> usize {
        self.devices
            .max(1)
            .saturating_mul(self.per_device_capacity)
            .min(self.capacity)
    }
}

/// The static admission surface of a builder spec: everything a serving
/// layer needs to decide — *before* building an engine or touching a
/// device — whether a request can ever fit the fleet the spec
/// describes. Obtained from [`EngineBuilder::admission_budget`].
///
/// Admission math is deliberately conservative: it sizes the encoding
/// against the **worst-case even row split** on row-sharded clusters
/// and the **tightest surviving device** under degradation, so a
/// request it admits can always be loaded, while a request it rejects
/// is rejected free (no arena bytes, no modeled time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionBudget {
    /// Backend name (`"gpu"`, `"gpu-batch"`, `"cluster"`, …).
    pub backend: &'static str,
    /// Constant-memory budget of each device in the fleet, in fleet
    /// index order (one entry for single-device backends).
    pub device_constant_budgets: Vec<usize>,
    /// Points one device absorbs per round trip.
    pub per_device_capacity: usize,
    /// The support encoding requests are sized against.
    pub encoding: EncodingKind,
    /// Whether the system's rows are sharded across devices (each
    /// device holds only its rows' supports) or every device encodes
    /// the whole system.
    pub rows_sharded: bool,
}

impl AdmissionBudget {
    /// Devices in the (undegraded) fleet.
    pub fn devices(&self) -> usize {
        self.device_constant_budgets.len()
    }

    /// Constant bytes `shape` requires on the most loaded device when
    /// the fleet has `devices` survivors: the whole encoding on
    /// unsharded backends, the largest even row slice when rows are
    /// sharded. Returns `usize::MAX` for `devices == 0` (nothing can
    /// be admitted to an empty fleet).
    pub fn bytes_needed_per_device(&self, shape: &UniformShape, devices: usize) -> usize {
        if devices == 0 {
            return usize::MAX;
        }
        let mut slice = *shape;
        if self.rows_sharded {
            slice.rows = shape.rows.div_ceil(devices);
        }
        EncodedSupports::bytes_needed(&slice, self.encoding)
    }

    /// Whether `shape` can *ever* fit a fleet of `surviving` devices
    /// (each starting empty): its per-device slice must fit the
    /// tightest surviving budget. Survivor identity is unknown at
    /// admission time, so the check uses the smallest budget in the
    /// fleet — conservative, never optimistic.
    pub fn fits(&self, shape: &UniformShape, surviving: usize) -> bool {
        let surviving = surviving.min(self.devices());
        let tightest = self
            .device_constant_budgets
            .iter()
            .copied()
            .min()
            .unwrap_or(0);
        self.bytes_needed_per_device(shape, surviving) <= tightest
    }

    /// Constant bytes a (possibly ragged) `shape` requires on the most
    /// loaded device when the fleet has `devices` survivors — the
    /// sparse generalization of [`Self::bytes_needed_per_device`].
    /// Uniform shapes size exactly like their `UniformShape`; ragged
    /// shapes size by the packed ragged encoding under
    /// [`EncodingKind::Packed`] and are unencodable (`usize::MAX`)
    /// under the dense encodings. Row-sharded slices bound the slice's
    /// monomial count by `slice_rows · max_m` — conservative, never
    /// optimistic.
    pub fn sparse_bytes_needed_per_device(&self, shape: &SparseShape, devices: usize) -> usize {
        if devices == 0 {
            return usize::MAX;
        }
        let mut slice = *shape;
        if self.rows_sharded {
            slice.rows = shape.rows.div_ceil(devices);
            slice.total_monomials = shape.total_monomials.min(slice.rows * shape.max_m);
        }
        if slice.uniform {
            let uniform = UniformShape {
                n: slice.n,
                rows: slice.rows,
                m: slice.max_m,
                k: slice.max_k,
                d: slice.d,
            };
            EncodedSupports::bytes_needed(&uniform, self.encoding)
        } else if self.encoding == EncodingKind::Packed {
            sparse_packed_bytes(&slice)
        } else {
            usize::MAX
        }
    }

    /// Whether a (possibly ragged) `shape` can ever fit a fleet of
    /// `surviving` devices — the sparse generalization of
    /// [`Self::fits`].
    pub fn sparse_fits(&self, shape: &SparseShape, surviving: usize) -> bool {
        let surviving = surviving.min(self.devices());
        let tightest = self
            .device_constant_budgets
            .iter()
            .copied()
            .min()
            .unwrap_or(0);
        self.sparse_bytes_needed_per_device(shape, surviving) <= tightest
    }
}

/// The object-safe union of every evaluator in the workspace: single
/// and batched evaluation plus capacity, statistics and capability
/// queries. Built by [`Engine::builder`]; held as
/// `Box<dyn AnyEvaluator<R>>` (or borrowed as `&mut dyn
/// AnyEvaluator<R>`) by the homotopy drivers, which accept any backend
/// through it.
///
/// Point-wise results are **bit-identical across implementations** of
/// the same system: `evaluate_batch(points)[i] == evaluate(&points[i])`
/// bit for bit, whichever backend computed them.
///
/// ```
/// use polygpu_core::engine::{AnyEvaluator, Backend, Engine};
/// use polygpu_polysys::{random_points, random_system, BenchmarkParams};
/// use polygpu_polysys::{BatchSystemEvaluator, SystemEvaluator};
///
/// let sys = random_system::<f64>(&BenchmarkParams { n: 6, m: 3, k: 2, d: 2, seed: 3 });
/// let mut engine: Box<dyn AnyEvaluator<f64>> = Engine::builder()
///     .backend(Backend::GpuBatch { capacity: 8 })
///     .build(&sys)
///     .unwrap();
/// let points = random_points::<f64>(6, 5, 7);
/// let batch = engine.try_evaluate_batch(&points).unwrap();
/// assert_eq!(batch.len(), 5);
/// // The batch equals the single-point path bit for bit.
/// assert_eq!(engine.evaluate(&points[0]).values, batch[0].values);
/// assert_eq!(engine.caps().backend, "gpu-batch");
/// ```
pub trait AnyEvaluator<R: Real>: BatchSystemEvaluator<R> {
    /// Typed-error batched evaluation: contract violations (empty
    /// batch, over-capacity, wrong dimension) come back as
    /// [`BatchError`] values instead of panics, and cost nothing.
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError>;

    /// Typed-error single-point evaluation: the non-panicking sibling
    /// of [`SystemEvaluator::evaluate`], as a batch of one.
    fn try_evaluate(&mut self, x: &[Complex<R>]) -> Result<SystemEval<R>, BatchError> {
        let mut out = self.try_evaluate_batch(std::slice::from_ref(&x.to_vec()))?;
        Ok(out.pop().expect("batch of one returns one result"))
    }

    /// Fused Newton correction of `points` in place: evaluate →
    /// factor → solve → update until each point stops (see
    /// [`crate::correct`]). The default is the **host** corrector —
    /// every iteration is a full `try_evaluate_batch` round trip
    /// (chunked to capacity) with the linear solve on the host.
    /// Batched device engines override this with the device-resident
    /// loop, which charges the on-device factor/back-substitution
    /// kernels and only the `O(P)` flag download per iteration — with
    /// bit-identical endpoints, since both run
    /// [`crate::correct::drive_correct`].
    ///
    /// Either way a converged point's last `combine.apply` is at its
    /// returned point, so `combine` can keep the evaluation there; the
    /// device-resident loop's final download carries it.
    ///
    /// On `Err` the contents of `points` are unspecified (the
    /// overrides guarantee untouched inputs; the host default may have
    /// applied updates) — retry from the caller's own copy.
    fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        let capacity = self.caps().capacity;
        host_correct(
            |chunk| self.try_evaluate_batch(chunk),
            capacity,
            combine,
            points,
            params,
        )
    }

    /// Modeled-cost statistics accumulated so far (all zero for
    /// engines with no device model, e.g. the CPU reference).
    fn engine_stats(&self) -> PipelineStats;

    /// Reset the accumulated statistics.
    fn reset_engine_stats(&mut self);

    /// Static capability description of this engine.
    fn caps(&self) -> EngineCaps;
}

/// The batch contract every engine checks before it touches any state:
/// at least one point, at most `capacity` points, each of dimension
/// `n`. Violations come back typed, in that order. Engines without a
/// batch bound pass `usize::MAX`.
pub fn validate_batch<R: Real>(
    n: usize,
    capacity: usize,
    points: &[Vec<Complex<R>>],
) -> Result<(), BatchError> {
    if points.is_empty() {
        return Err(BatchError::Empty);
    }
    if points.len() > capacity {
        return Err(BatchError::CapacityExceeded {
            points: points.len(),
            capacity,
        });
    }
    for (i, x) in points.iter().enumerate() {
        if x.len() != n {
            return Err(BatchError::DimensionMismatch {
                point: i,
                got: x.len(),
                expected: n,
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Backend implementations of AnyEvaluator
// ---------------------------------------------------------------------

/// The CPU algorithm behind [`CpuReferenceEngine`]: uniform systems
/// run the paper's AD evaluator (bit-identical to the dense device
/// backends); ragged systems run the sparse AD evaluator
/// (bit-identical to the packed-encoding device backends).
enum CpuAlgo<R: Real> {
    Ad(AdEvaluator<R>),
    Sparse(SparseAdEvaluator<R>),
}

/// The sequential CPU reference (the paper's one-core algorithm) behind
/// the unified interface: no device model, unlimited batch capacity,
/// bit-identical to the GPU backends on every system they accept —
/// uniform systems through the paper's AD algorithm, ragged systems
/// through its sparse generalization (the reference of the packed
/// pipeline).
pub struct CpuReferenceEngine<R: Real> {
    inner: CpuAlgo<R>,
    evaluations: u64,
    batches: u64,
}

impl<R: Real> CpuReferenceEngine<R> {
    pub fn new(system: &System<R>) -> Result<Self, SystemError> {
        let inner = match AdEvaluator::new(system.clone()) {
            Ok(ad) => CpuAlgo::Ad(ad),
            Err(SystemError::NotUniform(_)) => {
                CpuAlgo::Sparse(SparseAdEvaluator::new(system.clone()))
            }
            Err(e) => return Err(e),
        };
        Ok(CpuReferenceEngine {
            inner,
            evaluations: 0,
            batches: 0,
        })
    }

    fn eval_inner(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        match &mut self.inner {
            CpuAlgo::Ad(e) => e.evaluate(x),
            CpuAlgo::Sparse(e) => e.evaluate(x),
        }
    }
}

impl<R: Real> SystemEvaluator<R> for CpuReferenceEngine<R> {
    fn dim(&self) -> usize {
        match &self.inner {
            CpuAlgo::Ad(e) => e.dim(),
            CpuAlgo::Sparse(e) => e.dim(),
        }
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        self.evaluations += 1;
        self.batches += 1;
        self.eval_inner(x)
    }

    fn name(&self) -> &str {
        "cpu-reference"
    }
}

impl<R: Real> BatchSystemEvaluator<R> for CpuReferenceEngine<R> {
    fn max_batch(&self) -> usize {
        usize::MAX
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        self.evaluations += points.len() as u64;
        self.batches += 1;
        match &mut self.inner {
            CpuAlgo::Ad(e) => loop_evaluate_batch(e, points),
            CpuAlgo::Sparse(e) => loop_evaluate_batch(e, points),
        }
    }
}

impl<R: Real> AnyEvaluator<R> for CpuReferenceEngine<R> {
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        validate_batch(self.dim(), usize::MAX, points)?;
        Ok(self.evaluate_batch(points))
    }

    fn engine_stats(&self) -> PipelineStats {
        PipelineStats {
            evaluations: self.evaluations,
            batches: self.batches,
            ..Default::default()
        }
    }

    fn reset_engine_stats(&mut self) {
        self.evaluations = 0;
        self.batches = 0;
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            backend: "cpu-reference",
            devices: 0,
            capacity: usize::MAX,
            per_device_capacity: usize::MAX,
            batched: false,
            constant_bytes: 0,
        }
    }
}

impl<R: Real> AnyEvaluator<R> for GpuEvaluator<R> {
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        validate_batch(self.dim(), usize::MAX, points)?;
        // Loop the typed single-point path so injected faults surface
        // as `BatchError::Fault` values, never as panics.
        points
            .iter()
            .map(|x| GpuEvaluator::try_evaluate(self, x))
            .collect()
    }

    fn engine_stats(&self) -> PipelineStats {
        self.stats()
    }

    fn reset_engine_stats(&mut self) {
        self.reset_stats();
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            backend: "gpu",
            devices: 1,
            capacity: usize::MAX,
            per_device_capacity: usize::MAX,
            batched: false,
            constant_bytes: self.constant_bytes_used(),
        }
    }
}

impl<R: Real> AnyEvaluator<R> for BatchGpuEvaluator<R> {
    fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        BatchGpuEvaluator::try_evaluate_batch(self, points)
    }

    fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        BatchGpuEvaluator::try_correct_batch(self, points, combine, params)
    }

    fn engine_stats(&self) -> PipelineStats {
        self.stats()
    }

    fn reset_engine_stats(&mut self) {
        self.reset_stats();
    }

    fn caps(&self) -> EngineCaps {
        EngineCaps {
            backend: "gpu-batch",
            devices: 1,
            capacity: self.capacity(),
            per_device_capacity: self.capacity(),
            batched: true,
            constant_bytes: self.constant_bytes_used(),
        }
    }
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

/// Which evaluator the builder constructs.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// The paper's sequential algorithm on the host — the bit-exact
    /// reference every device backend is checked against.
    CpuReference,
    /// The paper's single-point pipeline (two launches per evaluation)
    /// on one simulated device.
    Gpu,
    /// The batched multi-point engine: up to `capacity` points per
    /// round trip on one simulated device.
    GpuBatch { capacity: usize },
    /// One batched engine per device, work split by `shard` — the
    /// *points* of each batch ([`ShardMode::Points`]) or the *rows* of
    /// the system ([`ShardMode::Rows`], for systems whose encoding
    /// exceeds one device's constant memory). Requires a
    /// [`ClusterProvider`]; available out of the box through the
    /// `polygpu` facade or `polygpu-cluster`.
    Cluster {
        devices: Vec<DeviceSpec>,
        shard: ShardMode,
    },
}

/// What a cluster backend shards across its devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// Shard the **points**: every device encodes the whole system and
    /// evaluates its share of each batch. Capacity scales with `D`;
    /// the system must fit every single device.
    Points { policy: ClusterPolicy },
    /// Shard the **system's equations** (rows of the Jacobian): each
    /// device encodes only its rows' supports into its own constant
    /// memory, every device sees every point, and each device's round
    /// trip downloads its own rows to the host, which merges them. A
    /// batch costs its slowest device. Lifts the constant-memory wall
    /// ~`D`-fold; capacity does **not** scale with `D`.
    Rows { policy: SystemShardPolicy },
}

impl Default for ShardMode {
    /// Point sharding with the default policy — the scale-out mode for
    /// systems that fit one device.
    fn default() -> Self {
        ShardMode::Points {
            policy: ClusterPolicy::default(),
        }
    }
}

impl From<ClusterPolicy> for ShardMode {
    fn from(policy: ClusterPolicy) -> Self {
        ShardMode::Points { policy }
    }
}

impl From<SystemShardPolicy> for ShardMode {
    fn from(policy: SystemShardPolicy) -> Self {
        ShardMode::Rows { policy }
    }
}

/// How a cluster backend splits batches across devices (mirrored onto
/// the cluster crate's `ShardPolicy` by its provider).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClusterPolicy {
    /// Point `i` to device `i mod D`.
    RoundRobin,
    /// Contiguous shards proportional to device capacity.
    #[default]
    CapacityProportional,
    /// Deterministic work-stealing in `chunk`-point units.
    WorkStealing { chunk: usize },
}

/// How [`ShardMode::Rows`] partitions the system's equations across
/// devices. Plans are pure functions of `(rows, D)` — never of
/// coefficients or points — so the same system always shards the same
/// way and results merge deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SystemShardPolicy {
    /// Near-equal contiguous row blocks (largest remainder first):
    /// device `d` gets rows `[d·⌈rows/D⌉ …)` — the balanced default.
    #[default]
    Contiguous,
    /// Row `i` to device `i mod D`.
    RoundRobin,
}

/// Validated builder failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildError {
    /// A batch capacity (per engine or per device) of zero.
    ZeroCapacity,
    /// A cluster backend with an empty device list.
    NoDevices,
    /// `block_dim` is zero or exceeds the device's block limit.
    BlockDim { got: u32, max: u32 },
    /// `overlap_chunks` was explicitly set to zero (use `None` /
    /// [`EngineBuilder::adaptive_overlap`] for the adaptive mode).
    ZeroOverlapChunks,
    /// A work-stealing policy with a zero chunk size.
    ZeroStealChunk,
    /// The system failed CPU-side validation (not square / not
    /// uniform).
    System(SystemError),
    /// The system does not fit the device (encoding or launch limits).
    Setup(SetupError),
    /// The spec selects [`Backend::Cluster`] but this builder has no
    /// [`ClusterProvider`]; use `polygpu::Engine::builder()` (the
    /// facade) or `polygpu_cluster::engine_builder()`.
    ClusterUnavailable,
    /// [`EngineBuilder::session`] requires a single-device GPU backend.
    SessionBackend { backend: &'static str },
    /// [`EngineBuilder::cluster_spec`] requires [`Backend::Cluster`].
    NotCluster { backend: &'static str },
    /// Injected faults took out too many devices for the fleet to
    /// carry out the build or load.
    DegradedFleet {
        /// Devices the fleet was configured with.
        devices: usize,
        /// Devices lost or excluded by faults.
        lost: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::ZeroCapacity => write!(f, "batch capacity must be at least 1"),
            BuildError::NoDevices => write!(f, "cluster backend needs at least one device"),
            BuildError::BlockDim { got, max } => {
                write!(f, "block_dim {got} outside the device limit 1..={max}")
            }
            BuildError::ZeroOverlapChunks => write!(
                f,
                "overlap_chunks must be at least 1 (or adaptive for model-picked chunking)"
            ),
            BuildError::ZeroStealChunk => {
                write!(f, "work-stealing chunk size must be at least 1")
            }
            BuildError::System(e) => write!(f, "system validation: {e}"),
            BuildError::Setup(e) => write!(f, "device setup: {e}"),
            BuildError::ClusterUnavailable => write!(
                f,
                "cluster backend requested but no ClusterProvider is installed \
                 (use polygpu::Engine::builder() or polygpu_cluster::engine_builder())"
            ),
            BuildError::SessionBackend { backend } => write!(
                f,
                "sessions need a single-device GPU backend, got {backend}"
            ),
            BuildError::NotCluster { backend } => {
                write!(f, "cluster_spec needs the Cluster backend, got {backend}")
            }
            BuildError::DegradedFleet { devices, lost } => write!(
                f,
                "fleet degraded: {lost} of {devices} devices lost during setup"
            ),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::System(e) => Some(e),
            BuildError::Setup(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SetupError> for BuildError {
    fn from(e: SetupError) -> Self {
        BuildError::Setup(e)
    }
}

impl From<SystemError> for BuildError {
    fn from(e: SystemError) -> Self {
        BuildError::System(e)
    }
}

/// Everything a [`ClusterProvider`] needs to assemble a cluster
/// evaluator: the validated device list, shard mode, per-device
/// capacity and the base per-device options. Also the seam a
/// cluster-level session builds from (see
/// [`EngineBuilder::cluster_spec`]).
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    pub devices: Vec<DeviceSpec>,
    pub shard: ShardMode,
    pub per_device_capacity: usize,
    /// Inert: no fleet moves results between devices (a row fleet's
    /// devices each download their own rows to the host), so this
    /// changes no modeled figure. Kept only for source compatibility.
    pub gather: TransferPath,
    /// Per-device options (`device` — and the fault config's fleet
    /// index — are replaced per spec entry by the provider).
    pub base: GpuOptions,
    /// How the fleet recovers from injected faults: retry with modeled
    /// backoff, fail over onto survivors, then degrade (typed error or
    /// CPU-reference fallback).
    pub recovery: RecoveryPolicy,
}

/// Constructs the [`Backend::Cluster`] evaluator. The core crate sits
/// below the cluster crate in the layer stack, so the concrete
/// multi-device engine is injected: `polygpu-cluster` provides the
/// `Sharded` provider and the `polygpu` facade installs it by default.
///
/// Providers are `Clone` so a spec (and the [`EngineBuilder`] holding
/// it) can be re-provisioned per precision pass — both shipped
/// providers are zero-sized.
pub trait ClusterProvider: Clone {
    fn build<R: Real>(
        &self,
        system: &System<R>,
        spec: &ClusterSpec,
    ) -> Result<Box<dyn AnyEvaluator<R>>, BuildError>;
}

/// The default provider at the core layer: no cluster backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCluster;

impl ClusterProvider for NoCluster {
    fn build<R: Real>(
        &self,
        _system: &System<R>,
        _spec: &ClusterSpec,
    ) -> Result<Box<dyn AnyEvaluator<R>>, BuildError> {
        Err(BuildError::ClusterUnavailable)
    }
}

/// Namespace for the unified builder entry points.
pub struct Engine;

impl Engine {
    /// A builder with the core backends (CPU reference, GPU, batched
    /// GPU). The cluster backend needs [`Engine::builder_with`] and a
    /// [`ClusterProvider`] — or use the `polygpu` facade, whose
    /// `Engine::builder()` installs one.
    pub fn builder() -> EngineBuilder {
        Engine::builder_with(NoCluster)
    }

    /// A builder with every backend, cluster construction delegated to
    /// `provider`.
    pub fn builder_with<P: ClusterProvider>(provider: P) -> EngineBuilder<P> {
        EngineBuilder {
            backend: Backend::Gpu,
            device: DeviceSpec::tesla_c2050(),
            block_dim: 32,
            encoding: EncodingKind::Direct,
            from_scratch_cf: false,
            overlap_chunks: None,
            per_device_capacity: 64,
            launch: LaunchOptions::default(),
            fault: None,
            recovery: RecoveryPolicy::default(),
            trace: TraceSink::noop(),
            provider,
        }
    }
}

/// Fluent, validated engine construction — one entry point for every
/// backend and precision. The builder itself is precision-free: the
/// same spec builds `f64` and double-double engines (see
/// [`EngineBuilder::build`]), which is how precision escalation
/// re-requests a higher-precision engine without rebuilding options by
/// hand.
#[derive(Debug, Clone)]
pub struct EngineBuilder<P: ClusterProvider = NoCluster> {
    backend: Backend,
    device: DeviceSpec,
    block_dim: u32,
    encoding: EncodingKind,
    from_scratch_cf: bool,
    overlap_chunks: Option<usize>,
    per_device_capacity: usize,
    launch: LaunchOptions,
    fault: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    trace: TraceSink,
    provider: P,
}

impl<P: ClusterProvider> EngineBuilder<P> {
    /// Select the backend (default: [`Backend::Gpu`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Device spec for the single-device backends (default: the
    /// paper's Tesla C2050). Cluster devices travel in the
    /// [`Backend::Cluster`] variant instead.
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = device;
        self
    }

    /// Threads per block (default 32, the paper's figure).
    pub fn block_dim(mut self, block_dim: u32) -> Self {
        self.block_dim = block_dim;
        self
    }

    /// Constant-memory support encoding (default direct; compact lifts
    /// the paper's 2,048-monomial wall; packed additionally encodes
    /// **ragged** supports — per-monomial variable counts, constants
    /// included — that the uniform layouts reject typed).
    ///
    /// ```
    /// use polygpu_core::engine::{Backend, Engine};
    /// use polygpu_core::EncodingKind;
    /// use polygpu_polysys::{random_sparse_system, SparseBenchmarkParams};
    ///
    /// let sparse = random_sparse_system::<f64>(&SparseBenchmarkParams {
    ///     n: 4, m_min: 1, m_max: 3, k_min: 0, k_max: 3, d: 3, seed: 5,
    /// });
    /// let spec = Engine::builder().backend(Backend::GpuBatch { capacity: 8 });
    /// // The paper's Direct layout cannot express ragged supports…
    /// assert!(spec.clone().build(&sparse).is_err());
    /// // …the packed exponent-key encoding runs them bit-identically.
    /// let mut engine = spec.encoding(EncodingKind::Packed).build(&sparse).unwrap();
    /// assert!(engine.caps().constant_bytes > 0);
    /// ```
    pub fn encoding(mut self, encoding: EncodingKind) -> Self {
        self.encoding = encoding;
        self
    }

    /// Use the from-scratch common-factor kernel (ablation A1).
    pub fn from_scratch_cf(mut self, yes: bool) -> Self {
        self.from_scratch_cf = yes;
        self
    }

    /// Fix the stream-overlap chunk count (must be ≥ 1; `1` is the
    /// fully serialized schedule). Unset (the default), each batch
    /// picks its chunk count adaptively from the modeled
    /// kernel/transfer ratio and never schedules worse than one chunk.
    pub fn overlap_chunks(mut self, chunks: usize) -> Self {
        self.overlap_chunks = Some(chunks);
        self
    }

    /// Return to the default adaptive overlap chunking.
    pub fn adaptive_overlap(mut self) -> Self {
        self.overlap_chunks = None;
        self
    }

    /// Per-device batch capacity for the cluster backend (default 64;
    /// the single-device batch capacity lives in
    /// [`Backend::GpuBatch`]).
    pub fn per_device_capacity(mut self, capacity: usize) -> Self {
        self.per_device_capacity = capacity;
        self
    }

    /// Host-side launch options (write-conflict checking, host
    /// parallelism) — the last `GpuOptions` knob, so the builder fully
    /// subsumes direct options construction.
    pub fn launch(mut self, launch: LaunchOptions) -> Self {
        self.launch = launch;
        self
    }

    /// Inject deterministic faults from this seeded plan into every
    /// modeled device the backend spans (each device draws a
    /// decorrelated schedule keyed on its fleet index). Default: no
    /// injection. Faults surface as typed `BatchError::Fault` values
    /// through `try_evaluate_batch`; cluster backends recover per
    /// [`EngineBuilder::recovery`].
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Fleet recovery policy for cluster backends: retries with
    /// modeled exponential backoff, then failover re-planning, then —
    /// if permitted — the bit-identical CPU-reference fallback.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Install a [`Tracer`]: every engine built from this spec emits
    /// its device-op spans (uploads, launches, downloads, fault
    /// windows) into it, timestamped on the **modeled** clock. The
    /// default is a no-op sink; installing one changes no modeled
    /// timing or numeric result.
    ///
    /// ```
    /// use polygpu_core::engine::{Backend, Engine};
    /// use polygpu_obs::CollectingTracer;
    /// use polygpu_polysys::{random_point, random_system, BenchmarkParams};
    /// use std::sync::Arc;
    ///
    /// let params = BenchmarkParams { n: 2, m: 2, k: 2, d: 2, seed: 1 };
    /// let system = random_system::<f64>(&params);
    /// let tracer = Arc::new(CollectingTracer::new());
    /// let mut engine = Engine::builder()
    ///     .backend(Backend::GpuBatch { capacity: 2 })
    ///     .tracer(tracer.clone())
    ///     .build::<f64>(&system)
    ///     .unwrap();
    /// engine.try_evaluate(&random_point::<f64>(2, 7)).unwrap();
    /// assert!(!tracer.spans().is_empty(), "device ops were recorded");
    /// ```
    pub fn tracer(self, tracer: Arc<dyn Tracer>) -> Self {
        self.trace_sink(TraceSink::new(tracer))
    }

    /// Install an already-targeted [`TraceSink`] — the seam the solver
    /// uses to thread one request-level sink (possibly rebased for an
    /// escalation pass) into the engines it builds.
    pub fn trace_sink(mut self, sink: TraceSink) -> Self {
        self.trace = sink;
        self
    }

    /// The per-device options this spec resolves to (shared by every
    /// backend that models a device).
    fn gpu_options(&self, device: DeviceSpec) -> GpuOptions {
        GpuOptions {
            device,
            block_dim: self.block_dim,
            encoding: self.encoding,
            from_scratch_cf: self.from_scratch_cf,
            overlap_chunks: self.overlap_chunks,
            launch: self.launch,
            fault: self.fault.map(|plan| FaultConfig {
                plan,
                device_index: 0,
            }),
            // Single-device engines are device 0 of their track space;
            // cluster providers retarget per fleet index.
            trace: self.trace.on(Track::Device(0)),
        }
    }

    /// Validate the spec without building anything.
    pub fn validate(&self) -> Result<(), BuildError> {
        if self.overlap_chunks == Some(0) {
            return Err(BuildError::ZeroOverlapChunks);
        }
        let check_block = |device: &DeviceSpec| -> Result<(), BuildError> {
            if self.block_dim == 0 || self.block_dim > device.max_threads_per_block {
                return Err(BuildError::BlockDim {
                    got: self.block_dim,
                    max: device.max_threads_per_block,
                });
            }
            Ok(())
        };
        match &self.backend {
            Backend::CpuReference => Ok(()),
            Backend::Gpu => check_block(&self.device),
            Backend::GpuBatch { capacity } => {
                if *capacity == 0 {
                    return Err(BuildError::ZeroCapacity);
                }
                check_block(&self.device)
            }
            Backend::Cluster { devices, shard } => {
                if devices.is_empty() {
                    return Err(BuildError::NoDevices);
                }
                if self.per_device_capacity == 0 {
                    return Err(BuildError::ZeroCapacity);
                }
                if matches!(
                    shard,
                    ShardMode::Points {
                        policy: ClusterPolicy::WorkStealing { chunk: 0 }
                    }
                ) {
                    return Err(BuildError::ZeroStealChunk);
                }
                for d in devices {
                    check_block(d)?;
                }
                Ok(())
            }
        }
    }

    /// The validated [`ClusterSpec`] this builder describes — the seam
    /// through which cluster-level constructs outside the core crate
    /// (the row-sharded cluster session in `polygpu-cluster`, say) are
    /// assembled from the same spec the [`ClusterProvider`] receives.
    /// Errors unless the backend is [`Backend::Cluster`].
    pub fn cluster_spec(&self) -> Result<ClusterSpec, BuildError> {
        self.validate()?;
        match &self.backend {
            Backend::Cluster { devices, shard } => Ok(ClusterSpec {
                devices: devices.clone(),
                shard: *shard,
                per_device_capacity: self.per_device_capacity,
                gather: TransferPath::default(),
                base: self.gpu_options(self.device.clone()),
                recovery: self.recovery,
            }),
            Backend::CpuReference => Err(BuildError::NotCluster {
                backend: "cpu-reference",
            }),
            Backend::Gpu => Err(BuildError::NotCluster { backend: "gpu" }),
            Backend::GpuBatch { .. } => Err(BuildError::NotCluster {
                backend: "gpu-batch",
            }),
        }
    }

    /// The [`AdmissionBudget`] this spec resolves to — the free,
    /// device-untouched sizing surface a serving layer admits against.
    /// Errors only when the spec itself is invalid.
    pub fn admission_budget(&self) -> Result<AdmissionBudget, BuildError> {
        self.validate()?;
        let (backend, budgets, rows_sharded) = match &self.backend {
            Backend::CpuReference => ("cpu-reference", vec![usize::MAX], false),
            Backend::Gpu => ("gpu", vec![self.device.constant_budget()], false),
            Backend::GpuBatch { .. } => ("gpu-batch", vec![self.device.constant_budget()], false),
            Backend::Cluster { devices, shard } => (
                "cluster",
                devices.iter().map(|d| d.constant_budget()).collect(),
                matches!(shard, ShardMode::Rows { .. }),
            ),
        };
        let per_device_capacity = match &self.backend {
            Backend::CpuReference => usize::MAX,
            Backend::Gpu => 1,
            Backend::GpuBatch { capacity } => *capacity,
            Backend::Cluster { .. } => self.per_device_capacity,
        };
        Ok(AdmissionBudget {
            backend,
            device_constant_budgets: budgets,
            per_device_capacity,
            encoding: self.encoding,
            rows_sharded,
        })
    }

    /// Build the selected backend for `system` in precision `R`. The
    /// spec is reusable: call again with the same system converted to a
    /// higher precision to escalate without re-describing the engine.
    pub fn build<R: Real>(
        &self,
        system: &System<R>,
    ) -> Result<Box<dyn AnyEvaluator<R>>, BuildError> {
        self.validate()?;
        match &self.backend {
            Backend::CpuReference => Ok(Box::new(CpuReferenceEngine::new(system)?)),
            Backend::Gpu => Ok(Box::new(GpuEvaluator::new(
                system,
                self.gpu_options(self.device.clone()),
            )?)),
            Backend::GpuBatch { capacity } => Ok(Box::new(BatchGpuEvaluator::new(
                system,
                *capacity,
                self.gpu_options(self.device.clone()),
            )?)),
            Backend::Cluster { devices, shard } => {
                let spec = ClusterSpec {
                    devices: devices.clone(),
                    shard: *shard,
                    per_device_capacity: self.per_device_capacity,
                    gather: TransferPath::default(),
                    base: self.gpu_options(self.device.clone()),
                    recovery: self.recovery,
                };
                self.provider.build(system, &spec)
            }
        }
    }

    /// Open a multi-system residency [`Session`] on this spec's device.
    /// Requires a single-device GPU backend ([`Backend::Gpu`] gets
    /// capacity 1, [`Backend::GpuBatch`] its capacity).
    pub fn session<R: Real>(&self) -> Result<Session<R>, BuildError> {
        self.validate()?;
        let capacity = match &self.backend {
            Backend::Gpu => 1,
            Backend::GpuBatch { capacity } => *capacity,
            Backend::CpuReference => {
                return Err(BuildError::SessionBackend {
                    backend: "cpu-reference",
                })
            }
            Backend::Cluster { .. } => {
                return Err(BuildError::SessionBackend { backend: "cluster" })
            }
        };
        Ok(Session::new(
            self.gpu_options(self.device.clone()),
            capacity,
        ))
    }
}

// ---------------------------------------------------------------------
// Multi-system residency
// ---------------------------------------------------------------------

/// Handle to a system resident in a [`Session`] (or in a cluster-level
/// session built on the same accounting, e.g.
/// `polygpu_cluster::ClusterSession`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemId(usize);

impl SystemId {
    /// Mint a handle from a raw resident index — for session
    /// implementations outside this crate. Handles are only meaningful
    /// against the session that issued them.
    pub fn new(index: usize) -> Self {
        SystemId(index)
    }

    /// The raw resident index this handle names.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// One row of a session's residency table.
#[derive(Debug, Clone)]
pub struct ResidencyRow {
    pub label: String,
    pub monomials: usize,
    /// Constant-memory bytes this system's supports occupy.
    pub constant_bytes: usize,
    /// Modeled one-time setup cost (encode upload + coefficient upload
    /// + validation probe).
    pub setup_seconds: f64,
    /// Times this system was made active.
    pub activations: u64,
}

/// Modeled setup-cost accounting of a session, against the re-encoding
/// baseline (tearing the device state down and re-uploading the system
/// at every stage — what a run without residency pays).
#[derive(Debug, Clone, Copy)]
pub struct SessionAmortization {
    /// Homotopy stages executed (activations, including each system's
    /// first).
    pub stages: u64,
    /// Modeled seconds the session actually paid: one setup per
    /// resident system plus one switch per system change.
    pub session_seconds: f64,
    /// Modeled seconds the same stage sequence would pay re-encoding
    /// the active system at every stage.
    pub reencode_seconds: f64,
    /// Steady-state per-stage ratio: the *cheapest* resident system's
    /// full setup cost over the switch cost — what each stage saves
    /// once its system is resident. The acceptance bar is ≥ 5.
    pub steady_state_ratio: f64,
}

impl SessionAmortization {
    /// Cumulative ratio over the whole stage sequence (approaches the
    /// steady-state ratio as stages grow).
    pub fn cumulative_ratio(&self) -> f64 {
        if self.session_seconds > 0.0 {
            self.reencode_seconds / self.session_seconds
        } else {
            1.0
        }
    }
}

struct Resident<R: Real> {
    engine: BatchGpuEvaluator<R>,
    label: String,
    monomials: usize,
    constant_bytes: usize,
    setup_seconds: f64,
    activations: u64,
    /// The two constant-arena regions this system's encoding occupies —
    /// returned to the arena on [`Session::unload`].
    regions: (ConstId, ConstId),
}

/// Multi-system device residency: several encoded systems share one
/// device's constant memory, so successive homotopy stages switch
/// between them for a modeled command-queue round trip
/// ([`Session::switch_seconds`]) instead of re-paying the full setup
/// (supports upload, coefficient upload, validation probe).
///
/// The constant-memory budget is enforced **jointly**: loading a system
/// whose supports do not fit next to the already-resident ones fails
/// with the same typed error the paper's 2,048-monomial experiment
/// produces, and [`Session::constant_bytes_used`] reports the shared
/// arena's occupancy. Evaluation results are bit-identical to a
/// standalone engine of the same spec — residency is pure setup-cost
/// amortization.
pub struct Session<R: Real> {
    opts: GpuOptions,
    capacity: usize,
    /// The shared constant-memory arena (joint budget accounting).
    arena: ConstantMemory,
    /// Residency slots, indexed by [`SystemId`]; `None` = unloaded.
    /// Slots are never reused, so a stale id can only name an evicted
    /// system (a panic), never silently alias a different one.
    residents: Vec<Option<Resident<R>>>,
    active: Option<usize>,
    stages: u64,
    switches: u64,
    evictions: u64,
    session_seconds: f64,
    reencode_seconds: f64,
}

impl<R: Real> Session<R> {
    fn new(opts: GpuOptions, capacity: usize) -> Self {
        Session {
            arena: ConstantMemory::new(&opts.device),
            opts,
            capacity,
            residents: Vec::new(),
            active: None,
            stages: 0,
            switches: 0,
            evictions: 0,
            session_seconds: 0.0,
            reencode_seconds: 0.0,
        }
    }

    /// Modeled one-time setup cost of making `shape` resident
    /// ([`setup_seconds`]): supports and coefficient uploads, then the
    /// validation probe's launches and point/result transfers.
    fn modeled_setup_seconds(&self, shape: &UniformShape) -> f64 {
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        setup_seconds(
            &self.opts.device,
            EncodedSupports::bytes_needed(shape, self.opts.encoding),
            shape.total_monomials() * (shape.k + 1) * elem,
            shape.n,
            shape.outputs(),
            elem,
        )
    }

    /// Modeled cost of switching the active system: one command-queue
    /// round trip rebinding the kernels' constant-memory offsets —
    /// nothing is re-uploaded, because every resident system's
    /// supports already live in constant memory.
    pub fn switch_seconds(&self) -> f64 {
        self.opts.device.pcie_latency
    }

    /// Encode and upload `system` into the shared constant arena and
    /// assemble its engine, charging the modeled full setup cost once.
    /// Fails (typed) when the system does not fit the remaining
    /// constant-memory budget next to the already-resident systems.
    pub fn load(&mut self, label: &str, system: &System<R>) -> Result<SystemId, BuildError> {
        let shape = system.uniform_shape()?;
        // Stage the upload in a copy of the arena and commit the copy
        // only once the engine is built, so a rejected load (no room
        // for its supports, or a failed validation probe) leaves the
        // arena as it found it.
        let mut staged = self.arena.clone();
        let enc = EncodedSupports::upload(system, &mut staged, self.opts.encoding)
            .map_err(|e| BuildError::Setup(SetupError::Encode(e)))?;
        let constant_bytes = enc.constant_bytes();
        let regions = enc.regions();
        // The engine snapshots the shared arena at its own load point;
        // its constant offsets are stable against later loads.
        let engine = BatchGpuEvaluator::from_encoded(
            system,
            enc,
            staged.clone(),
            self.capacity,
            self.opts.clone(),
        )?;
        self.arena = staged;
        let setup_seconds = self.modeled_setup_seconds(&shape);
        self.session_seconds += setup_seconds;
        self.residents.push(Some(Resident {
            engine,
            label: label.to_string(),
            monomials: shape.total_monomials(),
            constant_bytes,
            setup_seconds,
            activations: 0,
            regions,
        }));
        Ok(SystemId(self.residents.len() - 1))
    }

    /// Unload `id`: its constant-memory regions return to the shared
    /// arena (reusable by later loads) and its slot is cleared. The
    /// active system is deactivated if it was `id`. Returns `false`
    /// when `id` was already unloaded. Panics on an id this session
    /// never issued.
    pub fn unload(&mut self, id: SystemId) -> bool {
        let idx = id.0;
        assert!(idx < self.residents.len(), "unknown SystemId");
        let Some(r) = self.residents[idx].take() else {
            return false;
        };
        self.arena.free(r.regions.0);
        self.arena.free(r.regions.1);
        if self.active == Some(idx) {
            self.active = None;
        }
        self.evictions += 1;
        true
    }

    /// Whether `id` is still resident (not unloaded).
    pub fn is_resident(&self, id: SystemId) -> bool {
        self.residents.get(id.0).is_some_and(|r| r.is_some())
    }

    /// Unloads performed over the session's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Residency pressure: resident constant bytes over the device
    /// budget, in `[0, 1]`. A cache evicts when a prospective load
    /// would push this past `1`.
    pub fn residency_pressure(&self) -> f64 {
        if self.arena.budget() == 0 {
            return 0.0;
        }
        self.arena.used() as f64 / self.arena.budget() as f64
    }

    /// Make `id` the active system (one modeled command-queue round
    /// trip when it changes, free when it is already active) and
    /// borrow its evaluator for the stage. Every call is one "stage"
    /// in the amortization accounting.
    ///
    /// `id` must come from **this** session's [`Session::load`]
    /// (handles are not transferable between sessions); an id this
    /// session never issued is a caller bug and panics.
    pub fn activate(&mut self, id: SystemId) -> &mut dyn AnyEvaluator<R> {
        let idx = id.0;
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
        &mut r.engine
    }

    /// The active system's evaluator, if any (no stage is charged).
    pub fn active(&mut self) -> Option<&mut dyn AnyEvaluator<R>> {
        let idx = self.active?;
        let r = self.residents[idx].as_mut()?;
        Some(&mut r.engine as &mut dyn AnyEvaluator<R>)
    }

    /// Systems currently resident.
    pub fn resident_count(&self) -> usize {
        self.residents.iter().flatten().count()
    }

    /// Bytes of the shared constant arena in use (all residents).
    pub fn constant_bytes_used(&self) -> usize {
        self.arena.used()
    }

    /// The device's constant-memory budget.
    pub fn constant_budget(&self) -> usize {
        self.arena.budget()
    }

    /// The residency table (one row per resident system).
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

    /// Modeled setup-cost accounting against the re-encoding baseline.
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
    use polygpu_polysys::{random_point, random_points, random_system, BenchmarkParams};

    fn params(n: usize, m: usize, k: usize, d: u16, seed: u64) -> BenchmarkParams {
        BenchmarkParams { n, m, k, d, seed }
    }

    /// `unwrap_err` without requiring `Debug` on the boxed evaluator.
    fn err_of<T>(r: Result<T, BuildError>) -> BuildError {
        match r {
            Ok(_) => panic!("expected a build error"),
            Err(e) => e,
        }
    }

    #[test]
    fn builder_validates_specs() {
        let sys = random_system::<f64>(&params(4, 3, 2, 2, 1));
        let err = err_of(
            Engine::builder()
                .backend(Backend::GpuBatch { capacity: 0 })
                .build(&sys),
        );
        assert!(matches!(err, BuildError::ZeroCapacity), "{err}");

        let err = err_of(
            Engine::builder()
                .backend(Backend::Cluster {
                    devices: vec![],
                    shard: ClusterPolicy::RoundRobin.into(),
                })
                .build(&sys),
        );
        assert!(matches!(err, BuildError::NoDevices), "{err}");

        let err = err_of(Engine::builder().block_dim(0).build(&sys));
        assert!(matches!(err, BuildError::BlockDim { got: 0, .. }), "{err}");
        let err = err_of(Engine::builder().block_dim(4096).build(&sys));
        assert!(
            matches!(
                err,
                BuildError::BlockDim {
                    got: 4096,
                    max: 1024
                }
            ),
            "{err}"
        );

        let err = err_of(
            Engine::builder()
                .overlap_chunks(0)
                .backend(Backend::GpuBatch { capacity: 4 })
                .build(&sys),
        );
        assert!(matches!(err, BuildError::ZeroOverlapChunks), "{err}");

        let err = err_of(
            Engine::builder()
                .backend(Backend::Cluster {
                    devices: vec![DeviceSpec::tesla_c2050()],
                    shard: ClusterPolicy::WorkStealing { chunk: 0 }.into(),
                })
                .build(&sys),
        );
        assert!(matches!(err, BuildError::ZeroStealChunk), "{err}");

        // The core builder has no cluster provider.
        let err = err_of(
            Engine::builder()
                .backend(Backend::Cluster {
                    devices: vec![DeviceSpec::tesla_c2050()],
                    shard: ShardMode::default(),
                })
                .build(&sys),
        );
        assert!(matches!(err, BuildError::ClusterUnavailable), "{err}");

        // Device-capacity failures surface as Setup errors.
        let big = random_system::<f64>(&params(32, 64, 16, 10, 3));
        let err = err_of(Engine::builder().build(&big));
        assert!(matches!(err, BuildError::Setup(_)), "{err}");
        // And every variant prints through Display + Error.
        let e: Box<dyn std::error::Error> = Box::new(err);
        assert!(e.to_string().contains("device setup"));
        assert!(e.source().is_some());
    }

    #[test]
    fn backends_are_bit_identical_through_one_spec() {
        let prm = params(8, 4, 3, 2, 5);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 6, 11);
        let builder = Engine::builder();
        let mut engines: Vec<Box<dyn AnyEvaluator<f64>>> = vec![
            builder
                .clone()
                .backend(Backend::CpuReference)
                .build(&sys)
                .unwrap(),
            builder.clone().backend(Backend::Gpu).build(&sys).unwrap(),
            builder
                .clone()
                .backend(Backend::GpuBatch { capacity: 6 })
                .build(&sys)
                .unwrap(),
        ];
        let want = engines[0].try_evaluate_batch(&points).unwrap();
        for engine in engines.iter_mut().skip(1) {
            let got = engine.try_evaluate_batch(&points).unwrap();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                let name = engine.caps().backend;
                assert_eq!(g.values, w.values, "{name}, point {i}");
                assert_eq!(
                    g.jacobian.as_slice(),
                    w.jacobian.as_slice(),
                    "{name}, point {i}"
                );
            }
        }
    }

    #[test]
    fn trait_reports_caps_stats_and_typed_errors() {
        let sys = random_system::<f64>(&params(6, 3, 2, 2, 9));
        let mut engine: Box<dyn AnyEvaluator<f64>> = Engine::builder()
            .backend(Backend::GpuBatch { capacity: 4 })
            .build(&sys)
            .unwrap();
        assert_eq!(engine.caps().backend, "gpu-batch");
        assert_eq!(engine.caps().capacity, 4);
        assert_eq!(engine.max_batch(), 4);
        assert!(engine.caps().batched);
        assert!(engine.caps().constant_bytes > 0);

        let points = random_points::<f64>(6, 5, 3);
        assert!(matches!(
            AnyEvaluator::try_evaluate_batch(&mut *engine, &points),
            Err(BatchError::CapacityExceeded { .. })
        ));
        assert!(matches!(
            AnyEvaluator::try_evaluate_batch(&mut *engine, &[]),
            Err(BatchError::Empty)
        ));
        let ok = AnyEvaluator::try_evaluate_batch(&mut *engine, &points[..4]).unwrap();
        assert_eq!(ok.len(), 4);
        assert_eq!(engine.engine_stats().evaluations, 4);
        engine.reset_engine_stats();
        assert_eq!(engine.engine_stats().evaluations, 0);

        // The CPU engine reports through the same surface.
        let mut cpu: Box<dyn AnyEvaluator<f64>> = Engine::builder()
            .backend(Backend::CpuReference)
            .build(&sys)
            .unwrap();
        assert_eq!(cpu.caps().devices, 0);
        let _ = cpu.evaluate(&points[0]);
        assert_eq!(cpu.engine_stats().evaluations, 1);
        assert!(matches!(
            AnyEvaluator::try_evaluate_batch(&mut *cpu, &[vec![]]),
            Err(BatchError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn dd_engine_from_the_same_spec() {
        use polygpu_qd::Dd;
        let prm = params(6, 3, 3, 3, 13);
        let sys = random_system::<f64>(&prm);
        let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 4 });
        let mut f64_engine = builder.build(&sys).unwrap();
        let mut dd_engine = builder.build(&sys.convert::<Dd>()).unwrap();
        let x = random_point::<f64>(6, 3);
        let x_dd: Vec<Complex<Dd>> = x.iter().map(|z| z.convert()).collect();
        let a = f64_engine.evaluate(&x);
        let b = dd_engine.evaluate(&x_dd);
        // The dd run refines the f64 run: equal after rounding back.
        for (va, vb) in a.values.iter().zip(&b.values) {
            let vb64: Complex<f64> = Complex::from_f64(vb.re.to_f64(), vb.im.to_f64());
            assert!((*va - vb64).abs() < 1e-12);
        }
    }

    #[test]
    fn session_switches_cheaper_than_reencoding() {
        let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 8 });
        let mut session = builder.session::<f64>().unwrap();
        let sys_a = random_system::<f64>(&params(8, 4, 3, 2, 1));
        let sys_b = random_system::<f64>(&params(8, 6, 4, 3, 2));
        let sys_c = random_system::<f64>(&params(8, 3, 2, 2, 3));
        let a = session.load("stage-a", &sys_a).unwrap();
        let b = session.load("stage-b", &sys_b).unwrap();
        let c = session.load("stage-c", &sys_c).unwrap();
        assert_eq!(session.resident_count(), 3);
        let expected_bytes: usize = session.residency().iter().map(|r| r.constant_bytes).sum();
        assert_eq!(session.constant_bytes_used(), expected_bytes);
        assert!(session.constant_bytes_used() <= session.constant_budget());

        // Drive four rounds of three homotopy stages.
        let points = random_points::<f64>(8, 4, 7);
        for _ in 0..4 {
            for id in [a, b, c] {
                let engine = session.activate(id);
                let evals = engine.try_evaluate_batch(&points).unwrap();
                assert_eq!(evals.len(), 4);
            }
        }
        let am = session.amortization();
        assert_eq!(am.stages, 12);
        // The acceptance bar: once resident, a stage costs >= 5x less
        // than re-encoding its system.
        assert!(
            am.steady_state_ratio >= 5.0,
            "steady-state amortization too weak: {:.2}x",
            am.steady_state_ratio
        );
        assert!(am.cumulative_ratio() > 1.0, "{am:?}");
        assert!(am.reencode_seconds > am.session_seconds);

        // Residency is bit-identical to a standalone engine of the
        // same spec, even after switching back and forth.
        let mut standalone = builder.build(&sys_b).unwrap();
        let want = standalone.try_evaluate_batch(&points).unwrap();
        let got = session.activate(b).try_evaluate_batch(&points).unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.values, w.values);
            assert_eq!(g.jacobian.as_slice(), w.jacobian.as_slice());
        }
        // A resident engine reports its *own* constant footprint, not
        // the whole shared arena it snapshot.
        let row_b_bytes = session.residency()[1].constant_bytes;
        assert_eq!(session.activate(b).caps().constant_bytes, row_b_bytes);
    }

    /// The session's closed-form setup model prices the validation
    /// probe at exactly the launch overheads one probe evaluation of the
    /// same engine pays: setup is the supports and coefficient uploads
    /// plus one P = 1 round's launches and transfers.
    #[test]
    fn session_setup_charges_the_launches_of_one_probe() {
        let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 8 });
        let sys = random_system::<f64>(&params(8, 4, 3, 2, 1));
        let mut session = builder.session::<f64>().unwrap();
        session.load("stage", &sys).unwrap();
        let setup = session.residency()[0].setup_seconds;

        let mut probe = builder.build(&sys).unwrap();
        probe.reset_engine_stats();
        probe
            .try_evaluate_batch(&[vec![Complex::one(); 8]])
            .unwrap();
        let round = probe.engine_stats();
        let device = DeviceSpec::tesla_c2050();
        let shape = sys.uniform_shape().unwrap();
        let uploads = transfer_seconds(
            &device,
            EncodedSupports::bytes_needed(&shape, EncodingKind::Direct),
        ) + transfer_seconds(&device, shape.total_monomials() * (shape.k + 1) * 16);
        let charged = (setup - uploads - round.transfer_seconds) / device.launch_overhead;
        let paid = round.overhead_seconds / device.launch_overhead;
        assert!((charged - paid).abs() < 1e-6, "{charged} vs {paid}");
        assert!((paid - 2.0).abs() < 1e-9, "{paid}");
    }

    #[test]
    fn session_enforces_joint_constant_budget() {
        let builder = Engine::builder().backend(Backend::GpuBatch { capacity: 2 });
        let mut session = builder.session::<f64>().unwrap();
        // One 1,536-monomial k = 16 system fits (Table 2's largest
        // point)…
        let big = random_system::<f64>(&params(32, 48, 16, 10, 1));
        session.load("big", &big).unwrap();
        // …but a second one next to it exceeds the shared budget, with
        // the same typed error the paper's 2,048-monomial wall hits.
        let err = match session.load("too-much", &big) {
            Ok(_) => panic!("two 1,536-monomial systems cannot co-reside"),
            Err(e) => e,
        };
        assert!(
            matches!(
                err,
                BuildError::Setup(SetupError::Encode(
                    crate::layout::encoding::EncodeError::Constant(_)
                ))
            ),
            "{err}"
        );
        // The failed load costs nothing and leaves the session usable.
        assert_eq!(session.resident_count(), 1);
        let x = random_point::<f64>(32, 5);
        let id = SystemId(0);
        let _ = session.activate(id).evaluate(&x);
    }

    #[test]
    fn rejected_session_loads_leave_the_arena_as_they_found_it() {
        use crate::layout::encoding::EncodeError;
        // The toy device's 1,024-byte budget, fragmented: 500 freed
        // bytes at the front, 500 live ones after them.
        let builder = Engine::builder()
            .device(DeviceSpec::toy(32))
            .backend(Backend::GpuBatch { capacity: 1 });
        let mut session = builder.session::<f64>().unwrap();
        let a = session
            .load("a", &random_system::<f64>(&params(10, 5, 5, 2, 1)))
            .unwrap();
        session
            .load("b", &random_system::<f64>(&params(10, 5, 5, 2, 2)))
            .unwrap();
        assert!(session.unload(a));
        assert_eq!(session.constant_bytes_used(), 500);
        // 520 bytes more fit the budget, and the 260 bytes of positions
        // fit the freed region, but the exponents then fit nowhere.
        let c = random_system::<f64>(&params(13, 4, 5, 2, 3));
        let err = err_of(session.load("c", &c));
        assert!(
            matches!(
                err,
                BuildError::Setup(SetupError::Encode(EncodeError::Constant(_)))
            ),
            "{err}"
        );
        assert_eq!(session.constant_bytes_used(), 500);
        assert_eq!(session.resident_count(), 1);

        // A load whose supports fit but whose validation probe fails
        // (a 512-thread block needs 4,616 shared elements at k = 8)
        // returns its regions too.
        let builder = Engine::builder()
            .backend(Backend::GpuBatch { capacity: 1 })
            .block_dim(512);
        let mut session = builder.session::<f64>().unwrap();
        let err = err_of(session.load("wide", &random_system::<f64>(&params(8, 4, 8, 2, 4))));
        assert!(
            matches!(
                err,
                BuildError::Setup(SetupError::Launch(LaunchError::SharedOverflow { .. }))
            ),
            "{err}"
        );
        assert_eq!(session.constant_bytes_used(), 0);
        assert_eq!(session.resident_count(), 0);
    }

    #[test]
    fn an_emptied_session_arena_takes_any_load_the_budget_holds() {
        let builder = Engine::builder()
            .device(DeviceSpec::toy(32))
            .backend(Backend::GpuBatch { capacity: 1 });
        let mut session = builder.session::<f64>().unwrap();
        let a = session
            .load("a", &random_system::<f64>(&params(10, 5, 5, 2, 1)))
            .unwrap();
        assert!(session.unload(a));
        assert_eq!(session.constant_bytes_used(), 0);
        // Two 510-byte regions: 1,020 of the toy device's 1,024 bytes,
        // which neither fits the 500 bytes freed above nor an arena
        // that still ends where the unloaded system did.
        let b = random_system::<f64>(&params(17, 6, 5, 2, 2));
        session.load("b", &b).unwrap();
        assert_eq!(session.constant_bytes_used(), 1020);
    }

    #[test]
    fn session_requires_a_gpu_backend() {
        let err = match Engine::builder()
            .backend(Backend::CpuReference)
            .session::<f64>()
        {
            Ok(_) => panic!("cpu backend must not open a session"),
            Err(e) => e,
        };
        assert!(matches!(err, BuildError::SessionBackend { .. }), "{err}");
    }
}
