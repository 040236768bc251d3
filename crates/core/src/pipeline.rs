//! The host-side pipeline: its options, its modeled-cost statistics,
//! and the paper's single-point evaluator.
//!
//! Mirrors the paper's host flow: supports and coefficients are
//! uploaded once ("the information … does not change along the path
//! tracking"); per evaluation only the point travels to the device and
//! the `n² + n` results travel back. [`GpuEvaluator`] runs that round
//! trip one point at a time on a capacity-1
//! [`BatchGpuEvaluator`], the engine every device backend shares.

use crate::batch::{expect_batch, BatchError, BatchGpuEvaluator};
use crate::layout::encoding::{EncodeError, EncodingKind};
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_obs::{Lane, MetaValue, MetricsRegistry, SpanKind, TraceSink};
use polygpu_polysys::{BatchSystemEvaluator, System, SystemEval, SystemEvaluator};
use std::fmt;

/// Deterministic fault injection for one modeled device: the seeded
/// [`FaultPlan`] plus the fleet index its schedule is keyed on (so a
/// cluster's devices draw decorrelated schedules from one plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    pub plan: FaultPlan,
    /// Fleet index of this device in the plan's keying (0 for
    /// single-device engines; the cluster provider sets it per shard).
    pub device_index: usize,
}

/// Configuration of the GPU evaluator.
#[derive(Debug, Clone)]
pub struct GpuOptions {
    pub device: DeviceSpec,
    /// Threads per block; the paper uses 32 ("the number of threads in
    /// each block was 32 for all three kernels"), as do both launches
    /// here.
    pub block_dim: u32,
    /// Support encoding in constant memory.
    pub encoding: EncodingKind,
    /// Form common factors without the shared power table (ablation
    /// A1: the monomial kernel's table-free common-factor stage), for
    /// uniform and ragged supports alike.
    pub from_scratch_cf: bool,
    /// Stream-overlap model for the batched engine: split each batch
    /// into this many chunks and schedule upload/kernels/download on a
    /// double-buffered [`polygpu_gpusim::stream::Timeline`], so modeled
    /// transfers overlap modeled compute. `Some(1)` keeps the original
    /// fully-serialized accounting (the default); `None` picks the
    /// chunk count **adaptively** per batch from the modeled
    /// kernel-time/transfer-time ratio, never scheduling worse than a
    /// single chunk. Functional results are identical in every mode —
    /// only [`PipelineStats::wall_seconds`] changes.
    pub overlap_chunks: Option<usize>,
    /// Host-side launch options.
    pub launch: LaunchOptions,
    /// Deterministic fault injection (`None` — the default — models a
    /// fault-free device). Injection arms only after the construction
    /// validation probe, so setup never faults; armed, each modeled
    /// operation consults the seeded schedule and a struck operation
    /// surfaces as [`BatchError::Fault`] with its detection latency
    /// charged to the wall clock.
    pub fault: Option<FaultConfig>,
    /// Observability sink this engine emits its device-op spans into
    /// (uploads, launches, downloads, fault-detection windows), on the
    /// modeled clock. The default no-op sink records nothing and
    /// changes nothing — modeled timings and results stay bit-identical
    /// to an untraced run.
    pub trace: TraceSink,
}

impl Default for GpuOptions {
    fn default() -> Self {
        GpuOptions {
            device: DeviceSpec::tesla_c2050(),
            block_dim: 32,
            encoding: EncodingKind::Direct,
            from_scratch_cf: false,
            overlap_chunks: Some(1),
            launch: LaunchOptions::default(),
            fault: None,
            trace: TraceSink::noop(),
        }
    }
}

/// Kernel launches one evaluation round pays: the monomial kernel and
/// the sum kernel. [`setup_seconds`] prices the validation probe with
/// it; engines charge the launches they actually ran.
pub const EVAL_LAUNCHES: usize = 2;

/// Modeled seconds of making an engine ready on `device`: the upload of
/// `support_bytes` of supports and `coeff_bytes` of coefficients, then
/// the validation probe's [`EVAL_LAUNCHES`] launches with its one
/// `n`-element point up and its `outputs` result elements down, each
/// element `elem` bytes. Residency sessions price a load with it and a
/// row fleet prices its failover re-encode with it.
pub fn setup_seconds(
    device: &DeviceSpec,
    support_bytes: usize,
    coeff_bytes: usize,
    n: usize,
    outputs: usize,
    elem: usize,
) -> f64 {
    transfer_seconds(device, support_bytes)
        + transfer_seconds(device, coeff_bytes)
        + EVAL_LAUNCHES as f64 * device.launch_overhead
        + transfer_seconds(device, n * elem)
        + transfer_seconds(device, outputs * elem)
}

/// Setup failure: the system does not fit the device or the encoding,
/// a batched engine was asked for no capacity or for more than the
/// card's global memory holds, or a fleet for no devices.
#[derive(Debug)]
#[non_exhaustive]
pub enum SetupError {
    Encode(EncodeError),
    Launch(LaunchError),
    /// A batched engine needs room for at least one point.
    ZeroCapacity,
    /// A fleet needs at least one device.
    NoDevices,
    /// The engine's device buffers for its capacity need `needed` bytes
    /// (`usize::MAX` when the sum overflows) of the card's `budget`
    /// bytes of global memory ([`DeviceSpec::global_mem`]).
    GlobalOverflow {
        needed: usize,
        budget: usize,
    },
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetupError::Encode(e) => write!(f, "encoding: {e}"),
            SetupError::Launch(e) => write!(f, "launch validation: {e}"),
            SetupError::ZeroCapacity => write!(f, "batch capacity must be at least 1"),
            SetupError::NoDevices => write!(f, "a fleet needs at least one device"),
            SetupError::GlobalOverflow { needed, budget } => write!(
                f,
                "global memory exhausted: need {needed} bytes, budget is {budget} bytes"
            ),
        }
    }
}

impl std::error::Error for SetupError {}

impl From<EncodeError> for SetupError {
    fn from(e: EncodeError) -> Self {
        SetupError::Encode(e)
    }
}

impl From<LaunchError> for SetupError {
    fn from(e: LaunchError) -> Self {
        SetupError::Launch(e)
    }
}

/// Accumulated modeled cost of the pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Evaluations performed (points; a batch of `P` counts `P`).
    pub evaluations: u64,
    /// Batched round trips (two launches + two transfers each). For
    /// the single-point pipeline this equals `evaluations`; for the
    /// batch engine it is the number of `evaluate_batch` calls — the
    /// denominator of the launch/transfer amortization.
    pub batches: u64,
    /// Counters summed over all launches.
    pub counters: Counters,
    /// Modeled kernel execution seconds.
    pub kernel_seconds: f64,
    /// Modeled launch overhead seconds.
    pub overhead_seconds: f64,
    /// Modeled PCIe transfer seconds (points up, results down).
    pub transfer_seconds: f64,
    /// Modeled host→device bytes behind `transfer_seconds` — the
    /// numerator of the per-iteration traffic comparison between the
    /// host and device-resident correctors.
    pub h2d_bytes: u64,
    /// Modeled device→host bytes. Under `CorrectorMode::DeviceResident`
    /// the per-iteration share of this is the `O(P)` convergence-flag
    /// download only.
    pub d2h_bytes: u64,
    /// Modeled kernel seconds of the elimination phase of the
    /// device-resident corrector's factor-and-solve launches.
    pub factor_seconds: f64,
    /// Modeled kernel seconds of their back-substitution and update
    /// phase; with `factor_seconds`, the launches' kernel time.
    pub backsub_seconds: f64,
    /// Fused device-resident corrector calls, in points (a call over
    /// `P` points counts `P`).
    pub corrections: u64,
    /// Newton iterations executed inside fused corrector calls, summed
    /// over points.
    pub corrector_iterations: u64,
    /// Modeled wall-clock seconds. Without stream overlap this equals
    /// [`PipelineStats::total_seconds`]; with
    /// [`GpuOptions::overlap_chunks`] `> 1` it is the makespan of the
    /// double-buffered copy/compute timeline, which is smaller because
    /// transfers hide under kernels.
    pub wall_seconds: f64,
    /// Injected-fault and recovery accounting. Faults charge their
    /// detection latency (and any recovery work above this engine) to
    /// `wall_seconds` but never touch `evaluations`: a struck call
    /// delivers no results.
    pub fault: FaultStats,
}

impl PipelineStats {
    /// Add `other`'s counts, seconds and bytes to these, field by field
    /// (the fault counts through [`FaultStats::merge`]).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.evaluations += other.evaluations;
        self.batches += other.batches;
        self.counters += other.counters;
        self.kernel_seconds += other.kernel_seconds;
        self.overhead_seconds += other.overhead_seconds;
        self.transfer_seconds += other.transfer_seconds;
        self.h2d_bytes += other.h2d_bytes;
        self.d2h_bytes += other.d2h_bytes;
        self.factor_seconds += other.factor_seconds;
        self.backsub_seconds += other.backsub_seconds;
        self.corrections += other.corrections;
        self.corrector_iterations += other.corrector_iterations;
        self.wall_seconds += other.wall_seconds;
        self.fault.merge(&other.fault);
    }

    /// Total modeled resource seconds (kernels + overhead + transfers,
    /// summed as if fully serialized).
    pub fn total_seconds(&self) -> f64 {
        self.kernel_seconds + self.overhead_seconds + self.transfer_seconds
    }

    /// Modeled wall-clock seconds: the stream-timeline makespan when
    /// overlap was modeled, the serialized sum otherwise (also the
    /// fallback for stats that never accumulated a wall clock).
    pub fn wall_clock_seconds(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.wall_seconds
        } else {
            self.total_seconds()
        }
    }

    /// Seconds shaved off the serialized sum by copy/compute overlap.
    pub fn overlap_savings(&self) -> f64 {
        (self.total_seconds() - self.wall_clock_seconds()).max(0.0)
    }

    /// Modeled seconds per evaluation.
    pub fn seconds_per_eval(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            self.total_seconds() / self.evaluations as f64
        }
    }

    /// Modeled fixed-cost (launch overhead + PCIe) seconds per
    /// evaluation — the share a batched engine amortizes `P`-fold.
    pub fn overhead_transfer_per_eval(&self) -> f64 {
        if self.evaluations == 0 {
            0.0
        } else {
            (self.overhead_seconds + self.transfer_seconds) / self.evaluations as f64
        }
    }

    /// Modeled evaluation throughput in evaluations per second, on the
    /// wall clock (so stream overlap shows up as higher throughput).
    pub fn throughput_evals_per_sec(&self) -> f64 {
        let t = self.wall_clock_seconds();
        if t > 0.0 {
            self.evaluations as f64 / t
        } else {
            0.0
        }
    }

    /// Record these stats into a metrics registry under `prefix`
    /// (`{prefix}.evaluations`, `{prefix}.wall_seconds`, …).
    pub fn record_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.evaluations"), self.evaluations);
        reg.counter(&format!("{prefix}.batches"), self.batches);
        reg.counter(&format!("{prefix}.flops"), self.counters.flops);
        reg.counter(
            &format!("{prefix}.global_bytes"),
            self.counters.global_bytes,
        );
        reg.counter(&format!("{prefix}.h2d_bytes"), self.h2d_bytes);
        reg.counter(&format!("{prefix}.d2h_bytes"), self.d2h_bytes);
        reg.counter(&format!("{prefix}.corrections"), self.corrections);
        reg.counter(
            &format!("{prefix}.corrector_iterations"),
            self.corrector_iterations,
        );
        reg.gauge(&format!("{prefix}.factor_seconds"), self.factor_seconds);
        reg.gauge(&format!("{prefix}.backsub_seconds"), self.backsub_seconds);
        reg.gauge(&format!("{prefix}.kernel_seconds"), self.kernel_seconds);
        reg.gauge(&format!("{prefix}.overhead_seconds"), self.overhead_seconds);
        reg.gauge(&format!("{prefix}.transfer_seconds"), self.transfer_seconds);
        reg.gauge(&format!("{prefix}.wall_seconds"), self.wall_clock_seconds());
        reg.gauge(&format!("{prefix}.overlap_savings"), self.overlap_savings());
        self.fault.record_metrics(reg, &format!("{prefix}.fault"));
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  evaluations           {:>12}", self.evaluations)?;
        writeln!(f, "  batches               {:>12}", self.batches)?;
        writeln!(f, "  kernel seconds        {:>12.3e}", self.kernel_seconds)?;
        writeln!(
            f,
            "  overhead seconds      {:>12.3e}",
            self.overhead_seconds
        )?;
        writeln!(
            f,
            "  transfer seconds      {:>12.3e}",
            self.transfer_seconds
        )?;
        writeln!(
            f,
            "  h2d / d2h bytes       {:>12} / {}",
            self.h2d_bytes, self.d2h_bytes
        )?;
        if self.corrections > 0 {
            writeln!(
                f,
                "  fused corrections     {:>12} ({} iterations)",
                self.corrections, self.corrector_iterations
            )?;
            writeln!(
                f,
                "  factor / backsub s    {:>12.3e} / {:.3e}",
                self.factor_seconds, self.backsub_seconds
            )?;
        }
        writeln!(
            f,
            "  wall-clock seconds    {:>12.3e}",
            self.wall_clock_seconds()
        )?;
        write!(
            f,
            "  throughput (evals/s)  {:>12.3e}",
            self.throughput_evals_per_sec()
        )
    }
}

/// Consult `injector` (if any) for the next modeled operation; on a
/// strike, charge the serialized time of the operations already
/// completed this round trip (`elapsed`) plus the fault's detection
/// latency to the wall clock — the honest cost of a failed round trip —
/// and surface the typed error. Shared by the engine's round trips and
/// the fused corrector.
pub(crate) fn inject(
    injector: &mut Option<FaultInjector>,
    stats: &mut PipelineStats,
    device: &DeviceSpec,
    class: OpClass,
    op_seconds: f64,
    elapsed: f64,
    trace: &TraceSink,
) -> Result<(), BatchError> {
    if let Some(inj) = injector.as_mut() {
        if let Some(fe) = inj.check(class, device, op_seconds) {
            // The detection window starts where the struck operation
            // would have: after the ops already completed this round
            // trip, on this device's clock.
            trace.lane(Lane::Fault).emit(
                SpanKind::Detect,
                stats.wall_seconds + elapsed,
                fe.detection_seconds,
                5,
                &[
                    ("device", MetaValue::U64(fe.device as u64)),
                    ("op", MetaValue::U64(fe.op_index)),
                ],
            );
            stats.fault.faults += 1;
            stats.fault.recovery_seconds += fe.detection_seconds;
            stats.wall_seconds += elapsed + fe.detection_seconds;
            return Err(BatchError::Fault(fe));
        }
    }
    Ok(())
}

/// The paper's GPU evaluator on the simulated device: a capacity-1
/// [`BatchGpuEvaluator`] looped point by point, so every evaluation is
/// its own round trip — one upload, two launches, one download — for
/// uniform and (under [`EncodingKind::Packed`]) ragged systems alike.
pub struct GpuEvaluator<R: Real>(BatchGpuEvaluator<R>);

impl<R: Real> GpuEvaluator<R> {
    /// Validate, encode and upload `system`; run one throw-away
    /// evaluation so every configuration error surfaces here rather
    /// than inside `evaluate`.
    pub fn new(system: &System<R>, opts: GpuOptions) -> Result<Self, SetupError> {
        Ok(GpuEvaluator(BatchGpuEvaluator::new(system, 1, opts)?))
    }

    /// Arm or disarm fault injection (no-op without a configured
    /// [`GpuOptions::fault`]).
    pub fn set_fault_armed(&mut self, armed: bool) {
        self.0.set_fault_armed(armed);
    }

    pub fn device(&self) -> &DeviceSpec {
        self.0.device()
    }

    /// Modeled-cost statistics accumulated so far.
    pub fn stats(&self) -> PipelineStats {
        self.0.stats()
    }

    pub fn reset_stats(&mut self) {
        self.0.reset_stats();
    }

    /// Launch reports of the most recent evaluation (the monomial
    /// kernel, then the sum kernel).
    pub fn last_reports(&self) -> &[LaunchReport] {
        self.0.last_reports()
    }

    /// Bytes of constant memory the system's supports occupy (the
    /// capacity the paper's §4 discussion revolves around).
    pub fn constant_bytes_used(&self) -> usize {
        self.0.constant_bytes_used()
    }

    /// Evaluate at `x` with typed errors: dimension violations,
    /// launch failures and injected faults all surface as
    /// [`BatchError`] values — the non-panicking sibling of
    /// [`SystemEvaluator::evaluate`]. A faulted round trip delivers no
    /// results but charges the completed operations plus the fault's
    /// detection latency to the modeled wall clock.
    pub fn try_evaluate(&mut self, x: &[Complex<R>]) -> Result<SystemEval<R>, BatchError> {
        self.0.try_evaluate(x)
    }
}

impl<R: Real> SystemEvaluator<R> for GpuEvaluator<R> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    /// Evaluate at `x`. Configuration errors were ruled out by the
    /// validation pass in [`GpuEvaluator::new`]; use
    /// [`GpuEvaluator::try_evaluate`] to handle injected faults as
    /// typed errors instead of panics.
    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        expect_batch(self.try_evaluate(x))
    }

    fn name(&self) -> &str {
        "gpu-sim"
    }
}

impl<R: Real> BatchSystemEvaluator<R> for GpuEvaluator<R> {
    /// The loop accepts any batch size — but each point still costs a
    /// full round trip (two launches, two transfers); batching here
    /// amortizes nothing (`EngineCaps::batched` is `false`).
    fn max_batch(&self) -> usize {
        usize::MAX
    }

    /// Loops the single-point pipeline.
    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        points.iter().map(|x| self.evaluate(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_polysys::{
        random_point, random_system, AdEvaluator, BenchmarkParams, NaiveEvaluator,
    };

    fn params(n: usize, m: usize, k: usize, d: u16, seed: u64) -> BenchmarkParams {
        BenchmarkParams { n, m, k, d, seed }
    }

    #[test]
    fn gpu_matches_cpu_ad_bit_for_bit_in_double() {
        // Same algorithm, same operation order: results must be
        // *identical*, not merely close.
        for p in [
            params(4, 3, 2, 2, 1),
            params(8, 5, 3, 4, 2),
            params(32, 4, 9, 2, 3),
            params(32, 4, 16, 10, 4),
            params(33, 3, 5, 3, 5), // n not a multiple of the block
        ] {
            let sys = random_system::<f64>(&p);
            let mut gpu = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
            let mut ad = AdEvaluator::new(sys).unwrap();
            let x = random_point::<f64>(p.n, p.seed ^ 0xFEED);
            let a = gpu.evaluate(&x);
            let b = ad.evaluate(&x);
            assert_eq!(a.values, b.values, "values differ for {p:?}");
            assert_eq!(
                a.jacobian.as_slice(),
                b.jacobian.as_slice(),
                "jacobians differ for {p:?}"
            );
        }
    }

    #[test]
    fn gpu_matches_naive_oracle_numerically() {
        let p = params(12, 6, 4, 5, 9);
        let sys = random_system::<f64>(&p);
        let mut gpu = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
        let mut naive = NaiveEvaluator::new(sys);
        let x = random_point::<f64>(p.n, 44);
        let a = gpu.evaluate(&x);
        let b = naive.evaluate(&x);
        assert!(a.max_difference(&b) < 1e-11, "{:e}", a.max_difference(&b));
    }

    #[test]
    fn double_double_pipeline_works() {
        use polygpu_qd::Dd;
        let p = params(6, 3, 3, 3, 13);
        let sys = random_system::<f64>(&p);
        let sys_dd = sys.convert::<Dd>();
        let mut gpu = GpuEvaluator::new(&sys_dd, GpuOptions::default()).unwrap();
        let mut ad = AdEvaluator::new(sys_dd.clone()).unwrap();
        let x = random_point::<f64>(6, 3);
        let x_dd: Vec<Complex<Dd>> = x.iter().map(|z| z.convert()).collect();
        let a = gpu.evaluate(&x_dd);
        let b = ad.evaluate(&x_dd);
        assert_eq!(a.values, b.values, "dd values must match bitwise too");
    }

    #[test]
    fn no_divergence_and_stats_accumulate() {
        let p = params(32, 22, 9, 2, 7);
        let sys = random_system::<f64>(&p);
        let mut gpu = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
        let x = random_point::<f64>(32, 1);
        let _ = gpu.evaluate(&x);
        let _ = gpu.evaluate(&x);
        let s = gpu.stats();
        assert_eq!(s.evaluations, 2);
        assert_eq!(s.counters.divergent_segments, 0);
        assert!(s.kernel_seconds > 0.0);
        assert!(s.overhead_seconds > 0.0);
        assert!(s.transfer_seconds > 0.0);
        assert!(s.seconds_per_eval() > 0.0);
        assert_eq!(gpu.last_reports().len(), 2);
        gpu.reset_stats();
        assert_eq!(gpu.stats().evaluations, 0);
    }

    #[test]
    fn from_scratch_ablation_gives_same_values() {
        let p = params(16, 4, 4, 6, 17);
        let sys = random_system::<f64>(&p);
        let mut a = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
        let mut b = GpuEvaluator::new(
            &sys,
            GpuOptions {
                from_scratch_cf: true,
                ..Default::default()
            },
        )
        .unwrap();
        let x = random_point::<f64>(16, 2);
        let ra = a.evaluate(&x);
        let rb = b.evaluate(&x);
        // Same math, different op order in the powers: equal to rounding.
        assert!(ra.max_difference(&rb) < 1e-12);
        // The ablation diverges; the paper's kernel does not.
        assert!(b.stats().counters.divergent_segments > 0);
        assert_eq!(a.stats().counters.divergent_segments, 0);
    }

    #[test]
    fn compact_encoding_same_results() {
        let p = params(10, 4, 3, 8, 23);
        let sys = random_system::<f64>(&p);
        let mut direct = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
        let mut compact = GpuEvaluator::new(
            &sys,
            GpuOptions {
                encoding: EncodingKind::Compact,
                ..Default::default()
            },
        )
        .unwrap();
        let x = random_point::<f64>(10, 5);
        assert_eq!(direct.evaluate(&x).values, compact.evaluate(&x).values);
        assert!(compact.constant_bytes_used() < direct.constant_bytes_used());
    }

    #[test]
    fn oversized_system_fails_at_setup_not_evaluate() {
        // E3: the 2,048-monomial k=16 system must be rejected here.
        let p = params(32, 64, 16, 10, 3);
        let sys = random_system::<f64>(&p);
        let err = match GpuEvaluator::new(&sys, GpuOptions::default()) {
            Ok(_) => panic!("2,048-monomial k=16 system must not fit"),
            Err(e) => e,
        };
        assert!(
            matches!(err, SetupError::Encode(EncodeError::Constant(_))),
            "{err}"
        );
    }
}
