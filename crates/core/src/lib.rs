//! # polygpu-core — massively parallel polynomial evaluation and
//! differentiation
//!
//! The primary contribution of the reproduced paper (Verschelde &
//! Yoffe, 2012): evaluating a sparse polynomial system **and its full
//! Jacobian** with divergence-free SIMT kernels. The paper's three
//! kernels run here as two launches:
//!
//! 1. [`kernels::MonomialKernel`] — the paper's kernels 1 and 2 fused.
//!    Each block builds the powers of its point's variables in shared
//!    memory (§3.1, stage 1); each thread forms its monomial's common
//!    factor `x^{a−1}` from that table in a register (§3.1, stage 2),
//!    then computes all partial derivatives of the monomial's
//!    Speelpenning product in `3k − 6` multiplications, combined with
//!    the common factor and coefficients (`5k − 4` per thread, §3.2).
//!    The common factor never round-trips through global memory.
//! 2. [`kernels::SumKernel`] — kernel 3: branch-free summation over the
//!    zero-padded `Mons` layout with fully coalesced reads (§3.3).
//!
//! Fusing kernels 1 and 2 changes where a value waits, not what is
//! computed: every thread performs the same multiplications in the
//! same order as the separate kernels did.
//!
//! Both run `P` points per launch, one block program per point, so a
//! point's results never depend on the batch it rides in.
//!
//! One engine, [`batch::BatchGpuEvaluator`], owns device memory and
//! runs the two launches per round trip, for uniform systems and — on
//! packed exponent keys with per-monomial headers — for ragged ones:
//! both kernels read either kind of supports through
//! [`layout::Supports`]. The paper's single-point
//! [`pipeline::GpuEvaluator`] is that engine at capacity one, looped
//! point by point. Both implement the same
//! [`polygpu_polysys::SystemEvaluator`] interface as the CPU
//! evaluators — in double precision their results are
//! **bit-identical** to the sequential algorithm
//! ([`polygpu_polysys::AdEvaluator`], or
//! [`polygpu_polysys::SparseAdEvaluator`] for ragged systems),
//! because both execute the same multiplications in the same order.
//!
//! ```
//! use polygpu_core::pipeline::{GpuEvaluator, GpuOptions};
//! use polygpu_polysys::{random_system, random_point, BenchmarkParams, SystemEvaluator};
//!
//! let params = BenchmarkParams { n: 8, m: 4, k: 3, d: 2, seed: 42 };
//! let system = random_system::<f64>(&params);
//! let mut gpu = GpuEvaluator::new(&system, GpuOptions::default()).unwrap();
//! let x = random_point(8, 7);
//! let eval = gpu.evaluate(&x);
//! assert_eq!(eval.values.len(), 8);
//! // Modeled device-time accounting for the paper's tables:
//! assert!(gpu.stats().seconds_per_eval() > 0.0);
//! ```

//! A batch of `P` points pays **one** pair of launches and one
//! transfer each way, amortizing launch overhead and PCIe latency
//! `P`-fold while staying bit-for-bit equal to `P` single-point
//! evaluations.

//! The unified public surface is the [`engine`] module: one
//! [`engine::Engine::builder`] for every backend and precision, one
//! object-safe [`engine::AnyEvaluator`] trait, and multi-system device
//! residency via [`engine::Session`].

pub mod batch;
pub mod correct;
pub mod engine;
pub mod kernels;
pub mod layout;
pub mod pipeline;

pub use batch::{expect_batch, BatchError, BatchGpuEvaluator};
pub use correct::{
    drive_correct, host_correct, CombineMap, CorrectCharge, CorrectOps, CorrectParams,
    CorrectStatus, CorrectStop, CorrectorMode, IdentityCombine, OffsetCombine, FLAG_BYTES,
};
pub use engine::{
    AdmissionBudget, AnyEvaluator, Backend, BuildError, ClusterPolicy, ClusterProvider,
    ClusterSpec, Engine, EngineBuilder, EngineCaps, NoCluster, ResidencyRow, Session,
    SessionAmortization, ShardMode, SystemId, SystemShardPolicy,
};
pub use kernels::batch::BatchLayout;
pub use layout::encoding::{
    packed_geometry, EncodeError, EncodedSupports, EncodingKind, PackedGeometry,
};
pub use layout::packed::{sparse_packed_bytes, PackedSupports};
pub use pipeline::{
    FaultConfig, GpuEvaluator, GpuOptions, PipelineStats, SetupError, EVAL_LAUNCHES,
};
// The fault-model vocabulary, so fault-aware callers (schedulers,
// cluster recovery, chaos harnesses) need not depend on the simulator
// crate directly.
pub use polygpu_gpusim::fault::{
    FaultError, FaultKind, FaultPlan, FaultStats, OpClass, RecoveryPolicy,
};
