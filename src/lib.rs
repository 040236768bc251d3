//! # polygpu — evaluating polynomials in several variables and their
//! derivatives on a (simulated) GPU computing processor
//!
//! A comprehensive Rust reproduction of Verschelde & Yoffe,
//! *"Evaluating polynomials in several variables and their derivatives
//! on a GPU computing processor"* (2012): massively parallel evaluation
//! and algorithmic differentiation of sparse polynomial systems — the
//! inner loop of Newton's method in polynomial homotopy continuation —
//! on a functionally-exact, performance-modeled SIMT simulator of the
//! paper's NVIDIA Tesla C2050.
//!
//! This facade re-exports the workspace crates:
//!
//! | crate | role |
//! |-------|------|
//! | [`qd`] | double-double / quad-double arithmetic (the QD library) |
//! | [`complex`] | generic complex numbers and matrices |
//! | [`polysys`] | sparse polynomial systems, generators, CPU evaluators |
//! | [`gpusim`] | the trace-based SIMT GPU simulator |
//! | [`core`] | **the paper's contribution**: the kernels (1 and 2 fused, then sums) + pipeline |
//! | [`cluster`] | multi-device sharding with stream-overlapped transfers |
//! | [`polyhedral`] | mixed-cell (polyhedral) start systems for sparse targets |
//! | [`homotopy`] | Newton's method and path tracking on top |
//! | [`obs`] | deterministic tracing and metrics over the modeled timeline |
//! | [`serve`] | multi-tenant solve service: fair queuing, admission control, encoded-system cache |
//!
//! The public surface is the unified solving API: a
//! [`SolveRequest`](polygpu_homotopy::solve::SolveRequest) (target,
//! start points, tolerances, precision policy, scheduler) submitted to
//! a [`Solver`] that owns an engine spec and provisions backends per
//! precision, returning one
//! [`SolveReport`](polygpu_homotopy::solve::SolveReport) whatever the
//! scheduler × backend × precision combination. Underneath sits the
//! [`engine`] API: one [`engine::Engine::builder`] selects the backend
//! (CPU reference, single-point GPU, batched GPU, or a device
//! cluster), the precision, and the tuning; every backend implements
//! the object-safe [`engine::AnyEvaluator`] trait and produces
//! **bit-identical** results; an [`engine::Session`] keeps several
//! encoded systems resident in one device's constant memory so
//! successive homotopy stages switch systems without re-paying setup.
//!
//! Every solve can be observed without perturbing it: install a
//! [`Tracer`](obs::Tracer) via
//! [`SolveRequest::with_tracer`](polygpu_homotopy::solve::SolveRequest::with_tracer)
//! to record spans timestamped by the *simulated* clock (same seed ⇒
//! byte-identical [`chrome_trace_json`](obs::chrome_trace_json)
//! export), and read the unified
//! [`TelemetrySnapshot`](obs::TelemetrySnapshot) on every
//! [`SolveReport`](polygpu_homotopy::solve::SolveReport).
//!
//! To share one fleet between workloads, front it with a
//! [`SolveService`](serve::SolveService): tenants submit
//! `SolveRequest`s with a priority, a weighted fair queue apportions
//! service, admission control sizes every request against the
//! constant-memory budget before touching device state, and repeat
//! targets are served from an encoded-system cache — all on the
//! modeled clock, so the service trace is byte-identical across runs.
//!
//! ## Quickstart
//!
//! ```
//! use polygpu::prelude::*;
//!
//! // A random benchmark system in the paper's regular shape.
//! let params = BenchmarkParams { n: 16, m: 4, k: 3, d: 2, seed: 1 };
//! let system = random_system::<f64>(&params);
//!
//! // One builder, every backend. Pick the batched engine…
//! let mut engine = Engine::builder()
//!     .backend(Backend::GpuBatch { capacity: 32 })
//!     .build(&system)
//!     .unwrap();
//!
//! // …evaluate the system and its Jacobian at many points in one
//! // modeled round trip…
//! let points = random_points::<f64>(16, 8, 2);
//! let evals = engine.try_evaluate_batch(&points).unwrap();
//!
//! // …and check it against the CPU reference from the same spec:
//! // bit-identical, like every backend reachable from the builder.
//! let mut cpu = Engine::builder()
//!     .backend(Backend::CpuReference)
//!     .build(&system)
//!     .unwrap();
//! assert_eq!(evals[0].values, cpu.evaluate(&points[0]).values);
//!
//! // The device cost model behind the paper's tables:
//! println!("modeled time/eval: {:.1} us",
//!          engine.engine_stats().seconds_per_eval() * 1e6);
//! ```

pub use polygpu_cluster as cluster;
pub use polygpu_complex as complex;
pub use polygpu_core as core;
pub use polygpu_gpusim as gpusim;
pub use polygpu_homotopy as homotopy;
pub use polygpu_obs as obs;
pub use polygpu_polyhedral as polyhedral;
pub use polygpu_polysys as polysys;
pub use polygpu_qd as qd;
pub use polygpu_serve as serve;

/// The unified engine API with **every** backend available:
/// [`Engine::builder`](engine::Engine::builder) here (unlike the
/// core-layer builder) has the cluster backend wired to
/// [`polygpu_cluster::Sharded`].
pub mod engine {
    pub use polygpu_cluster::{ClusterSession, Sharded};
    pub use polygpu_core::engine::{
        AnyEvaluator, Backend, BuildError, ClusterPolicy, ClusterProvider, ClusterSpec,
        CpuReferenceEngine, EngineBuilder, EngineCaps, NoCluster, ResidencyRow, Session,
        SessionAmortization, ShardMode, SystemId, SystemShardPolicy,
    };

    /// The facade's unified entry point: every backend, one builder.
    ///
    /// ```
    /// use polygpu::engine::{Backend, ClusterPolicy, Engine};
    /// use polygpu::gpusim::prelude::DeviceSpec;
    /// use polygpu::polysys::{random_system, BenchmarkParams};
    ///
    /// let sys = random_system::<f64>(&BenchmarkParams { n: 8, m: 3, k: 2, d: 2, seed: 7 });
    /// let cluster = Engine::builder()
    ///     .backend(Backend::Cluster {
    ///         devices: vec![DeviceSpec::tesla_c2050(); 2],
    ///         shard: ClusterPolicy::default().into(),
    ///     })
    ///     .per_device_capacity(16)
    ///     .build(&sys)
    ///     .unwrap();
    /// assert_eq!(cluster.caps().devices, 2);
    /// ```
    ///
    /// **Row sharding** (`ShardMode::Rows`) splits the *system* instead
    /// of the points, so encodings too large for any single device's
    /// constant memory still build — the paper's 2,048-monomial wall,
    /// lifted `D`-fold:
    ///
    /// ```
    /// use polygpu::engine::{Backend, Engine, SystemShardPolicy};
    /// use polygpu::gpusim::prelude::DeviceSpec;
    /// use polygpu::polysys::{random_system, BenchmarkParams};
    ///
    /// // 2,048 monomials at k = 16: over one device's 65,536-byte
    /// // constant memory — no single-device backend accepts it.
    /// let big = random_system::<f64>(&BenchmarkParams { n: 32, m: 64, k: 16, d: 10, seed: 3 });
    /// assert!(Engine::builder().build(&big).is_err());
    ///
    /// // Row-sharded over two devices, each encodes half the rows.
    /// let cluster = Engine::builder()
    ///     .backend(Backend::Cluster {
    ///         devices: vec![DeviceSpec::tesla_c2050(); 2],
    ///         shard: SystemShardPolicy::Contiguous.into(),
    ///     })
    ///     .per_device_capacity(4)
    ///     .build(&big)
    ///     .unwrap();
    /// assert_eq!(cluster.caps().backend, "cluster-rows");
    /// assert_eq!(cluster.caps().constant_bytes, 65_536);
    /// ```
    pub struct Engine;

    impl Engine {
        /// A validated, fluent builder over every backend
        /// ([`Backend::CpuReference`] | [`Backend::Gpu`] |
        /// [`Backend::GpuBatch`] | [`Backend::Cluster`]), precision
        /// chosen per [`EngineBuilder::build`] call.
        pub fn builder() -> EngineBuilder<Sharded> {
            polygpu_cluster::engine_builder()
        }
    }
}

/// The unified solving API: one [`Solver::solve`] call covers every
/// scheduler (per-path / queue), backend and precision
/// policy. This alias fixes the solver's cluster provider to
/// [`polygpu_cluster::Sharded`], so a solver built from this facade's
/// [`engine::Engine::builder`] reaches the cluster backend too:
///
/// ```
/// use polygpu::prelude::*;
///
/// let sys = random_system::<f64>(&BenchmarkParams { n: 2, m: 2, k: 2, d: 2, seed: 7 });
/// let solver = Solver::from_builder(
///     Engine::builder().backend(Backend::Cluster {
///         devices: vec![DeviceSpec::tesla_c2050(); 2],
///         shard: ClusterPolicy::default().into(),
///     }),
/// );
/// let report = solver
///     .solve(&SolveRequest::new(sys).with_start(StartSystem::uniform(2, 2)))
///     .unwrap();
/// assert_eq!(report.backend, "cluster");
/// assert_eq!(report.caps.devices, 2);
/// ```
pub type Solver = polygpu_homotopy::solve::Solver<polygpu_cluster::Sharded>;

/// Everything a typical user needs in one import.
pub mod prelude {
    pub use crate::engine::{
        AnyEvaluator, Backend, BuildError, ClusterPolicy, Engine, EngineCaps, Session, ShardMode,
        SystemShardPolicy,
    };
    pub use crate::Solver;
    pub use polygpu_cluster::{
        ClusterOptions, ClusterSession, ClusterStats, RowClusterOptions, RowClusterStats,
        RowShardedEvaluator, ShardPolicy, ShardedBatchEvaluator, TransferPath,
    };
    pub use polygpu_complex::{CDd, CMat, CQd, Complex, C64};
    pub use polygpu_core::pipeline::{GpuEvaluator, GpuOptions, PipelineStats};
    pub use polygpu_core::{
        drive_correct, BatchError, BatchGpuEvaluator, BatchLayout, CombineMap, CorrectOps,
        CorrectParams, CorrectStatus, CorrectStop, CorrectorMode, EncodeError, EncodingKind,
        IdentityCombine, OffsetCombine, SetupError, FLAG_BYTES,
    };
    pub use polygpu_gpusim::prelude::{
        Bound, Counters, DeviceSpec, FaultError, FaultKind, FaultPlan, FaultStats, LaunchConfig,
        LaunchOptions, LaunchReport, RecoveryPolicy,
    };
    pub use polygpu_homotopy::prelude::*;
    pub use polygpu_obs::{
        chrome_trace_json, phase_rollup, CollectingTracer, MetricDelta, MetricValue,
        MetricsRegistry, NoopTracer, Span, SpanKind, TelemetrySnapshot, TraceSink, Tracer,
    };
    pub use polygpu_polyhedral::{mixed_cell_starts, BinomialStart, CellError, MixedCellStarts};
    pub use polygpu_polysys::{
        cost, random_point, random_points, random_sparse_system, random_system, AdEvaluator,
        BatchSystemEvaluator, BenchmarkParams, Monomial, NaiveEvaluator, OpCounts, Polynomial,
        SparseBenchmarkParams, System, SystemEval, SystemEvaluator, Term, UniformShape,
    };
    pub use polygpu_qd::{Dd, Qd, Real};
    pub use polygpu_serve::{
        CacheStats, Priority, ServeError, ServeReport, SolveService, TenantId, TenantSpec,
    };
}
