//! The device engine: the system and its Jacobian at `P` points with
//! **one** pair of kernel launches (the fused monomial kernel, then the
//! sum kernel) and **one** transfer in each direction.
//!
//! The paper's host flow uploads supports and coefficients once; per
//! evaluation the point goes up, the kernels run and the `n² + n`
//! results come back. Run one point at a time, that round trip pays two
//! launch overheads and two PCIe latencies *per evaluation* — exactly
//! the fixed costs that dominate path tracking, where thousands of
//! corrector steps run across many concurrent paths. Following the
//! batching design of the authors' follow-up work on GPU Newton's
//! method, this engine lays the grid out point-major
//! ([`LaunchConfig::cover_batch`]): `P × inner` blocks, each running the
//! same program against its point's pitched region of the batched
//! buffers. Consequences:
//!
//! * launch overhead and PCIe latency are amortized `P`-fold (the
//!   modeled `overhead_seconds`/`transfer_seconds` per evaluation drop
//!   accordingly — see `PipelineStats::overhead_transfer_per_eval`);
//! * a point's results are **bit-for-bit identical** whatever batch it
//!   rides in (same operations in the same order per point), so the
//!   paper's determinism guarantees extend to batches unchanged;
//! * the paper's single-point pipeline,
//!   [`GpuEvaluator`](crate::pipeline::GpuEvaluator), is this engine at
//!   capacity one, looped point by point.
//!
//! **Uniform and ragged systems.** A uniform system runs the paper's
//! kernels ([`crate::kernels::batch`]) over whichever encoding
//! [`GpuOptions::encoding`] names. A ragged system — per-equation
//! monomial counts, per-monomial variable counts, constants included —
//! runs under [`EncodingKind::Packed`] with the uniform encoding swapped
//! for [`PackedSupports`] and the dense kernels for their ragged
//! variants ([`crate::kernels::sparse`]); the uniform encodings reject
//! it typed. The ragged per-point floating-point programs are identical
//! to the CPU sparse reference ([`polygpu_polysys::SparseAdEvaluator`]),
//! so results are **bit-for-bit equal** to the reference in every
//! precision — the same determinism contract the dense kernels carry,
//! extended to ragged supports. Everything else — transfers, fault
//! checks, the stream-overlap timing model, trace spans and the fused
//! corrector — is one code path for both kernel pairs.

use crate::correct::{
    correct_resident, Charges, CombineMap, CorrectParams, CorrectStatus, FusedEngine,
};
use crate::engine::validate_batch;
use crate::kernels::batch::{BatchLayout, BatchMonomialKernel, BatchSumKernel};
use crate::kernels::sparse::{SparseMonomialKernel, SparseSumKernel};
use crate::layout::coeffs::build_coeffs;
use crate::layout::encoding::{EncodedSupports, EncodingKind};
use crate::layout::mons::unpack_eval;
use crate::layout::packed::PackedSupports;
use crate::pipeline::{inject, GpuOptions, PipelineStats, SetupError};
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::obs::emit_timeline;
use polygpu_gpusim::prelude::*;
use polygpu_gpusim::stream::pipeline_timeline;
use polygpu_obs::{Lane, MetaValue, SpanKind, TraceSink};
use polygpu_polysys::{
    BatchSystemEvaluator, SparseShape, System, SystemError, SystemEval, SystemEvaluator,
};
use std::fmt;

/// A batch call violated the engine's contract, or a launch failed.
///
/// The capacity contract: a [`BatchGpuEvaluator`] sizes its device
/// buffers for `capacity` points at construction, so one call accepts
/// `1..=capacity` points, each of dimension `n`. Violations surface
/// here as typed errors instead of panics.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BatchError {
    /// `points.len()` exceeds the construction-time capacity.
    CapacityExceeded { points: usize, capacity: usize },
    /// The batch was empty.
    Empty,
    /// Point `point` has `got` coordinates; the system has dimension
    /// `expected`.
    DimensionMismatch {
        point: usize,
        got: usize,
        expected: usize,
    },
    /// A kernel launch failed (post-validation this indicates a broken
    /// internal invariant).
    Launch(LaunchError),
    /// An injected fault struck a modeled operation; the detection
    /// latency was charged to the wall clock and no results were
    /// delivered. See `polygpu_gpusim::fault`.
    Fault(FaultError),
    /// Fleet recovery was exhausted: after retries and failover
    /// re-planning, `lost` of the fleet's `devices` devices are gone
    /// and the policy forbids the CPU-reference fallback.
    DegradedFleet { devices: usize, lost: usize },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::CapacityExceeded { points, capacity } => {
                write!(f, "batch of {points} points exceeds capacity {capacity}")
            }
            BatchError::Empty => write!(f, "batch is empty"),
            BatchError::DimensionMismatch {
                point,
                got,
                expected,
            } => write!(
                f,
                "point {point} has dimension {got}, system has dimension {expected}"
            ),
            BatchError::Launch(e) => write!(f, "launch failed: {e}"),
            BatchError::Fault(e) => write!(f, "{e}"),
            BatchError::DegradedFleet { devices, lost } => write!(
                f,
                "fleet degraded: {lost} of {devices} devices lost and recovery exhausted"
            ),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LaunchError> for BatchError {
    fn from(e: LaunchError) -> Self {
        BatchError::Launch(e)
    }
}

impl From<FaultError> for BatchError {
    fn from(e: FaultError) -> Self {
        BatchError::Fault(e)
    }
}

/// The batched two-launch evaluator on the simulated device, for
/// uniform and ragged systems alike.
///
/// Device buffers are sized for `capacity` points at construction; any
/// batch of `1..=capacity` points evaluates with one round trip.
pub struct BatchGpuEvaluator<R: Real> {
    device: DeviceSpec,
    opts: GpuOptions,
    /// Sizes of one point's problem; a uniform system's is the special
    /// case `max_m == m`, `max_k == k`.
    shape: SparseShape,
    layout: BatchLayout,
    global: GlobalMem<Complex<R>>,
    constant: ConstantMemory,
    vars: BufferId,
    out: BufferId,
    kernels: Kernels,
    stats: PipelineStats,
    last_reports: Vec<LaunchReport>,
    /// Reusable host staging for the batched point upload.
    vars_scratch: Vec<Complex<R>>,
    injector: Option<FaultInjector>,
}

/// The supports an engine is assembled from: a uniform encoding, or
/// the packed keys of a ragged system.
enum Supports {
    Uniform(EncodedSupports),
    Ragged(PackedSupports),
}

/// The kernel pair an engine launches: the paper's kernels over a
/// uniform encoding, or their ragged variants over packed keys.
enum Kernels {
    Uniform(BatchMonomialKernel, BatchSumKernel),
    Ragged(SparseMonomialKernel, SparseSumKernel),
}

/// The two launches of an evaluation round.
#[derive(Clone, Copy)]
enum Stage {
    Monomial,
    Sum,
}

impl<R: Real> BatchGpuEvaluator<R> {
    /// Validate, encode and upload `system`, sizing the device buffers
    /// for batches of up to `capacity` points; runs one throw-away
    /// evaluation so every configuration error surfaces here rather
    /// than inside `evaluate_batch`.
    ///
    /// A ragged system under [`EncodingKind::Packed`] gets packed keys
    /// and the ragged kernels. Everything else gets the paper's
    /// kernels — a uniform system under any encoding (`Packed`
    /// included, which encodes uniform supports header-free), while a
    /// ragged one under a uniform encoding fails with the encoder's
    /// typed shape error.
    pub fn new(system: &System<R>, capacity: usize, opts: GpuOptions) -> Result<Self, SetupError> {
        let mut constant = ConstantMemory::new(&opts.device);
        let ragged = matches!(system.uniform_shape(), Err(SystemError::NotUniform(_)));
        if ragged && opts.encoding == EncodingKind::Packed {
            let sup = PackedSupports::upload(system, &mut constant)?;
            Self::assemble(system, Supports::Ragged(sup), constant, capacity, opts)
        } else {
            let enc = EncodedSupports::upload(system, &mut constant, opts.encoding)?;
            Self::from_encoded(system, enc, constant, capacity, opts)
        }
    }

    /// Assemble an engine from supports that are **already resident** in
    /// `constant` (which may hold other systems' encodings too — the
    /// basis of multi-system residency, see `engine::Session`). The
    /// arena is taken by value: it snapshots the shared constant memory
    /// at load time, so this engine's offsets stay valid no matter what
    /// is loaded later. A `capacity` of zero is
    /// [`SetupError::ZeroCapacity`].
    pub fn from_encoded(
        system: &System<R>,
        enc: EncodedSupports,
        constant: ConstantMemory,
        capacity: usize,
        opts: GpuOptions,
    ) -> Result<Self, SetupError> {
        Self::assemble(system, Supports::Uniform(enc), constant, capacity, opts)
    }

    fn assemble(
        system: &System<R>,
        supports: Supports,
        constant: ConstantMemory,
        capacity: usize,
        opts: GpuOptions,
    ) -> Result<Self, SetupError> {
        if capacity == 0 {
            return Err(SetupError::ZeroCapacity);
        }
        let device = opts.device.clone();
        let shape = system.sparse_shape();
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let layout = BatchLayout::new(
            &shape,
            capacity,
            opts.block_dim,
            elem,
            device.coalesce_segment,
        );
        let mut global = GlobalMem::new();
        let vars = global.alloc(capacity * layout.vars_stride);
        let coeffs = global.alloc(shape.total_monomials * (shape.max_k + 1));
        let mons = global.alloc(capacity * layout.mons_stride);
        let out = global.alloc(capacity * layout.out_stride);
        global.host_write(coeffs, 0, &build_coeffs(system, &shape));
        let kernels = match supports {
            Supports::Uniform(enc) => Kernels::Uniform(
                BatchMonomialKernel {
                    enc,
                    vars,
                    coeffs,
                    mons,
                    layout,
                    from_scratch_cf: opts.from_scratch_cf,
                },
                BatchSumKernel {
                    shape: enc.shape,
                    mons,
                    out,
                    layout,
                },
            ),
            Supports::Ragged(sup) => Kernels::Ragged(
                SparseMonomialKernel {
                    sup,
                    vars,
                    coeffs,
                    mons,
                    layout,
                },
                SparseSumKernel {
                    shape,
                    mons,
                    out,
                    layout,
                },
            ),
        };
        let injector = opts
            .fault
            .map(|f| FaultInjector::new(f.plan, f.device_index));
        let mut me = BatchGpuEvaluator {
            device,
            shape,
            layout,
            vars,
            out,
            injector,
            kernels,
            global,
            constant,
            stats: PipelineStats::default(),
            last_reports: Vec::new(),
            vars_scratch: Vec::new(),
            opts,
        };
        // Validation pass: exercises both batched launches. One
        // point suffices — every launch-validity constraint (shared
        // memory, occupancy, block limits) is per block, and a larger
        // point-major grid only adds more identical blocks.
        let probe = vec![vec![Complex::<R>::one(); shape.n]];
        // The injector is disarmed during construction, so the probe
        // cannot fault; the trace sink is detached so the probe leaves
        // no spans behind.
        let sink = std::mem::take(&mut me.opts.trace);
        me.try_evaluate_batch(&probe).map_err(|e| match e {
            BatchError::Launch(l) => SetupError::Launch(l),
            other => unreachable!("validation probe is within the batch contract: {other}"),
        })?;
        me.stats = PipelineStats::default();
        me.set_fault_armed(true);
        me.opts.trace = sink;
        Ok(me)
    }

    /// Replace this engine's trace sink — how the cluster detaches
    /// tracing around calibration probes and retargets per-device sinks
    /// after failover rebuilds.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.opts.trace = sink;
    }

    /// This engine's current trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.opts.trace
    }

    /// Arm or disarm fault injection (no-op without a configured
    /// [`GpuOptions::fault`]). Disarmed operations neither fault nor
    /// advance the schedule, so calibration probes leave the fault
    /// schedule seen by user work untouched.
    pub fn set_fault_armed(&mut self, armed: bool) {
        if let Some(inj) = self.injector.as_mut() {
            if armed {
                inj.arm();
            } else {
                inj.disarm();
            }
        }
    }

    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Largest batch one call accepts.
    pub fn capacity(&self) -> usize {
        self.layout.capacity
    }

    /// Per-point strides and block counts of the batched buffers.
    pub fn layout(&self) -> BatchLayout {
        self.layout
    }

    /// Modeled-cost statistics accumulated so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
    }

    /// Launch reports of the most recent batch (the monomial kernel,
    /// then the sum kernel).
    pub fn last_reports(&self) -> &[LaunchReport] {
        &self.last_reports
    }

    /// Bytes of constant memory **this system's** supports occupy
    /// (shared by all points). Deliberately not the whole arena: a
    /// session-resident engine's arena snapshot also holds the systems
    /// loaded before it (see `engine::Session`), which are accounted
    /// to their own engines.
    pub fn constant_bytes_used(&self) -> usize {
        match &self.kernels {
            Kernels::Uniform(monomial, _) => monomial.enc.constant_bytes(),
            Kernels::Ragged(monomial, _) => monomial.sup.constant_bytes(),
        }
    }

    /// Evaluate the system and Jacobian at every point of the batch
    /// with one pair of launches.
    ///
    /// Contract: `1 <= points.len() <= self.capacity()` and every point
    /// has dimension `n`; violations return a typed [`BatchError`]
    /// without touching device state.
    pub fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        let shape = self.shape;
        let p = points.len();
        validate_batch(shape.n, self.layout.capacity, points)?;
        // This device's clock before the round trip — the origin of the
        // spans emitted below.
        let wall0 = self.stats.wall_seconds;
        let (evals, _) = self.round(points, true)?;
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let h2d = transfer_seconds(&self.device, p * shape.n * elem);
        let d2h = transfer_seconds(&self.device, p * shape.outputs() * elem);
        self.stats.h2d_bytes += (p * shape.n * elem) as u64;
        self.stats.d2h_bytes += (p * shape.outputs() * elem) as u64;
        let kernel_total = self.last_kernel_seconds();
        let overhead = self.last_overhead_seconds();

        let chunks = match self.opts.overlap_chunks {
            Some(c) => c.clamp(1, p),
            None => self.planned_overlap_chunks(p, kernel_total),
        };
        if chunks <= 1 {
            // Original fully-serialized accounting: one upload, the
            // launches, one download, summed.
            let transfer = h2d + d2h;
            self.stats.overhead_seconds += overhead;
            self.stats.transfer_seconds += transfer;
            self.stats.wall_seconds += transfer + kernel_total + overhead;
            if self.opts.trace.enabled() {
                let tr = &self.opts.trace;
                tr.lane(Lane::H2D)
                    .emit(SpanKind::Upload, wall0, h2d, 4, &[]);
                let t = self.trace_launches(wall0 + h2d);
                tr.lane(Lane::D2H).emit(SpanKind::Download, t, d2h, 4, &[]);
            }
        } else {
            // Stream-overlap model: the batch is split into `chunks`
            // near-equal slices; each slice's upload, launches and
            // download are scheduled on a double-buffered timeline, so
            // transfers hide under the kernels of neighboring slices.
            // Splitting pays per-chunk PCIe latency and per-chunk launch
            // overhead — both charged honestly below.
            let (h2d, compute, d2h) = self.chunk_durations(p, chunks, kernel_total);
            let tl = pipeline_timeline(&h2d, &compute, &d2h, 2);
            self.stats.overhead_seconds += chunks as f64 * overhead;
            self.stats.transfer_seconds += h2d.iter().sum::<f64>() + d2h.iter().sum::<f64>();
            self.stats.wall_seconds += tl.elapsed_seconds();
            emit_timeline(&self.opts.trace, &tl, wall0, 4);
        }
        self.opts.trace.emit(
            SpanKind::Batch,
            wall0,
            self.stats.wall_seconds - wall0,
            3,
            &[("points", MetaValue::U64(p as u64))],
        );
        Ok(evals)
    }

    /// One evaluation round — the launch sequence both
    /// [`try_evaluate_batch`](Self::try_evaluate_batch) and the fused
    /// corrector's resident rounds run: stage `points` into the pitched
    /// vars buffer, launch the monomial kernel and the sum kernel, and
    /// unpack the results. Over `pcie` the round is a host round trip,
    /// the point upload and the result download fault-checked around
    /// the launches; without, the staging models a device-side gather
    /// and nothing crosses the bus. Returns the results and the
    /// serialized modeled seconds from the round's start to the end of
    /// its last launch. On success the launch reports are in
    /// `last_reports`, and their counters and kernel seconds in the
    /// stats; the caller charges overhead, transfers and wall clock.
    fn round(
        &mut self,
        points: &[Vec<Complex<R>>],
        pcie: bool,
    ) -> Result<(Vec<SystemEval<R>>, f64), BatchError> {
        let shape = self.shape;
        let p = points.len();
        // Stage all points into one pitched buffer (reused across
        // calls).
        self.vars_scratch.clear();
        self.vars_scratch
            .resize(p * self.layout.vars_stride, Complex::zero());
        for (i, x) in points.iter().enumerate() {
            let base = i * self.layout.vars_stride;
            self.vars_scratch[base..base + shape.n].copy_from_slice(x);
        }
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let mut elapsed = 0.0;
        if pcie {
            let h2d = transfer_seconds(&self.device, p * shape.n * elem);
            self.fault_check(OpClass::HostToDevice, h2d, elapsed)?;
            elapsed += h2d;
        }
        self.global.host_write(self.vars, 0, &self.vars_scratch);

        // Clear before launching (reusing the vector's storage) so a
        // failed launch leaves no stale reports behind.
        self.last_reports.clear();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let monomial = self.launch_stage(p, Stage::Monomial)?;
        elapsed += monomial.timing.total_seconds();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let sum = self.launch_stage(p, Stage::Sum)?;
        elapsed += sum.timing.total_seconds();
        if pcie {
            // One transfer brings all P·(n² + n) results back.
            let d2h = transfer_seconds(&self.device, p * shape.outputs() * elem);
            self.fault_check(OpClass::DeviceToHost, d2h, elapsed)?;
        }

        let raw = self.global.host_read(self.out);
        let evals = (0..p)
            .map(|i| unpack_eval(raw, i * self.layout.out_stride, shape.rows, shape.n))
            .collect();
        self.stats.evaluations += p as u64;
        self.stats.batches += 1;
        self.last_reports.push(monomial);
        self.last_reports.push(sum);
        for r in &self.last_reports {
            self.stats.counters += r.counters;
        }
        self.stats.kernel_seconds += self.last_kernel_seconds();
        Ok((evals, elapsed))
    }

    /// Launch one kernel of this engine's pair over `p` points.
    fn launch_stage(&mut self, p: usize, stage: Stage) -> Result<LaunchReport, LaunchError> {
        let block_dim = self.opts.block_dim;
        let cfg = match stage {
            Stage::Monomial => self.layout.monomial_cfg(p, &self.shape, block_dim),
            Stage::Sum => self.layout.output_cfg(p, &self.shape, block_dim),
        };
        let (device, global, constant, opts) = (
            &self.device,
            &mut self.global,
            &self.constant,
            self.opts.launch,
        );
        match (&self.kernels, stage) {
            (Kernels::Uniform(k, _), Stage::Monomial) => {
                launch(device, k, cfg, global, constant, opts)
            }
            (Kernels::Uniform(_, k), Stage::Sum) => launch(device, k, cfg, global, constant, opts),
            (Kernels::Ragged(k, _), Stage::Monomial) => {
                launch(device, k, cfg, global, constant, opts)
            }
            (Kernels::Ragged(_, k), Stage::Sum) => launch(device, k, cfg, global, constant, opts),
        }
    }

    /// Emit the most recent round's launch spans back to back from
    /// `t0`; returns where the last one ends.
    fn trace_launches(&self, t0: f64) -> f64 {
        let lane = self.opts.trace.lane(Lane::Compute);
        let mut t = t0;
        for r in &self.last_reports {
            let d = r.timing.total_seconds();
            lane.emit(SpanKind::Launch, t, d, 4, &[]);
            t += d;
        }
        t
    }

    /// Per-chunk upload/compute/download durations for a `p`-point batch
    /// split into `chunks` near-equal slices — the inputs of both the
    /// overlap timeline and the adaptive chunk-count search.
    fn chunk_durations(
        &self,
        p: usize,
        chunks: usize,
        kernel_total: f64,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let shape = self.shape;
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let overhead = self.last_overhead_seconds();
        let base = p / chunks;
        let extra = p % chunks;
        let mut h2d = Vec::with_capacity(chunks);
        let mut compute = Vec::with_capacity(chunks);
        let mut d2h = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let pc = base + usize::from(c < extra);
            h2d.push(transfer_seconds(&self.device, pc * shape.n * elem));
            compute.push(overhead + kernel_total * pc as f64 / p as f64);
            d2h.push(transfer_seconds(&self.device, pc * shape.outputs() * elem));
        }
        (h2d, compute, d2h)
    }

    /// The chunk count the adaptive mode (`overlap_chunks: None`) picks
    /// for a `p`-point batch whose kernels take `kernel_total` modeled
    /// seconds, each chunk paying the launch overheads of the most
    /// recent round: the candidate whose double-buffered timeline has
    /// the smallest modeled makespan. A single chunk (the serialized
    /// schedule) is always a candidate, so the adaptive schedule is
    /// **never worse than `overlap_chunks = 1`**; the search balances
    /// overlap gains against the per-chunk PCIe latency and launch
    /// overhead that splitting pays.
    pub fn planned_overlap_chunks(&self, p: usize, kernel_total: f64) -> usize {
        let mut best = (1usize, f64::INFINITY);
        for &c in &[1usize, 2, 3, 4, 6, 8, 12, 16, 24, 32] {
            if c > p {
                break;
            }
            let (h2d, compute, d2h) = self.chunk_durations(p, c, kernel_total);
            let makespan = pipeline_timeline(&h2d, &compute, &d2h, 2).elapsed_seconds();
            // Strict improvement required: ties go to fewer chunks.
            if makespan < best.1 {
                best = (c, makespan);
            }
        }
        best.0
    }

    /// Single-point evaluation as a batch of one, with contract
    /// violations (wrong dimension; a capacity of zero cannot occur)
    /// surfacing as typed [`BatchError`]s instead of aborting — the
    /// non-panicking sibling of [`SystemEvaluator::evaluate`].
    pub fn try_evaluate(&mut self, x: &[Complex<R>]) -> Result<SystemEval<R>, BatchError> {
        let mut out = self.try_evaluate_batch(std::slice::from_ref(&x.to_vec()))?;
        Ok(out.pop().expect("batch of one returns one result"))
    }

    /// Fused device-resident Newton correction: upload the iterates
    /// once, then per iteration evaluate → factor → back-substitute →
    /// update entirely on the (simulated) device, downloading only the
    /// `O(P)` convergence-flag vector
    /// ([`FLAG_BYTES`](crate::correct::FLAG_BYTES) per live point); the
    /// corrected endpoints come back in one final transfer.
    ///
    /// Endpoints and statuses are **bit-identical** to the host
    /// corrector (the trait default of
    /// [`crate::engine::AnyEvaluator::try_correct_batch`]): both run
    /// [`drive_correct`](crate::correct::drive_correct), which factors
    /// through the shared [`polygpu_complex::lu`] routine — same
    /// pivoting order, same arithmetic, different cost charges. Each
    /// iteration's factor, back-substitution and update are one launch
    /// costed by [`factor_solve_cost`] and subject to fault injection
    /// like every other modeled kernel; a fault aborts the call with
    /// `points` untouched, so a retry replays bit-identically. A system
    /// too large for that launch's pivot panel surfaces
    /// [`BatchError::Launch`], again with `points` untouched.
    pub fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        correct_resident(self, points, combine, params)
    }

    /// Modeled kernel seconds of the most recent batch (the adaptive
    /// chunk search input; exposed for tests and benches).
    pub fn last_kernel_seconds(&self) -> f64 {
        self.last_reports
            .iter()
            .map(|r| r.timing.kernel_seconds)
            .sum()
    }

    /// Launch overheads of the most recent batch: what one round's
    /// launches cost on top of their kernels.
    fn last_overhead_seconds(&self) -> f64 {
        self.last_reports
            .iter()
            .map(|r| r.timing.overhead_seconds)
            .sum()
    }

    /// Device bytes the batched buffers occupy (grows with capacity).
    pub fn allocated_bytes(&self) -> usize {
        self.global.allocated_bytes()
    }

    fn fault_check(
        &mut self,
        class: OpClass,
        op_seconds: f64,
        elapsed: f64,
    ) -> Result<(), BatchError> {
        inject(
            &mut self.injector,
            &mut self.stats,
            &self.device,
            class,
            op_seconds,
            elapsed,
            &self.opts.trace,
        )
    }
}

/// Unwrap a batch result at the panicking trait boundary. The
/// `SystemEvaluator`/`BatchSystemEvaluator` traits return values, not
/// `Result`s, so a contract violation reaching them is a **caller
/// bug** — but the typed error is always reachable first through
/// `try_evaluate`/`try_evaluate_batch`, which propagate [`BatchError`]s
/// without aborting (what the conformance suite exercises). Every
/// evaluator in the workspace funnels its trait boundary through this
/// one helper.
pub fn expect_batch<T>(result: Result<T, BatchError>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => panic!("batch contract violated (use try_evaluate_batch to handle this): {e}"),
    }
}

impl<R: Real> FusedEngine<R> for BatchGpuEvaluator<R> {
    /// One evaluation round of the fused corrector: the two batched
    /// launches against the **resident** live iterates. Staging the
    /// compacted live subset into the pitched vars buffer models a
    /// device-side gather (no PCIe traffic); results are decoded from
    /// the simulated global memory without a download — only the
    /// round's flag read crosses the bus.
    fn eval_resident(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        let wall0 = self.stats.wall_seconds;
        let (evals, elapsed) = self.round(points, false)?;
        self.stats.overhead_seconds += self.last_overhead_seconds();
        self.stats.wall_seconds += elapsed;
        if self.opts.trace.enabled() {
            self.trace_launches(wall0);
        }
        Ok(evals)
    }

    fn charges(&mut self) -> Charges<'_> {
        Charges {
            device: &self.device,
            stats: &mut self.stats,
            injector: &mut self.injector,
            trace: &self.opts.trace,
        }
    }
}

impl<R: Real> SystemEvaluator<R> for BatchGpuEvaluator<R> {
    fn dim(&self) -> usize {
        self.shape.n
    }

    /// Single-point evaluation as a batch of one — the panicking trait
    /// boundary over [`BatchGpuEvaluator::try_evaluate`], which returns
    /// the typed error instead.
    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        expect_batch(self.try_evaluate(x))
    }

    fn name(&self) -> &str {
        "gpu-sim-batch"
    }
}

impl<R: Real> BatchSystemEvaluator<R> for BatchGpuEvaluator<R> {
    fn max_batch(&self) -> usize {
        self.layout.capacity
    }

    /// Panicking trait boundary over
    /// [`BatchGpuEvaluator::try_evaluate_batch`] (the trait contract
    /// makes violations caller bugs); use the `try_` method to handle
    /// [`BatchError`] values instead.
    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        expect_batch(self.try_evaluate_batch(points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AnyEvaluator;
    use crate::pipeline::GpuEvaluator;
    use polygpu_complex::C64;
    use polygpu_polysys::{
        random_point, random_points, random_sparse_system, random_system, BenchmarkParams,
        Monomial, Polynomial, SparseAdEvaluator, SparseBenchmarkParams, Term,
    };

    fn params(n: usize, m: usize, k: usize, d: u16, seed: u64) -> BenchmarkParams {
        BenchmarkParams { n, m, k, d, seed }
    }

    fn packed() -> GpuOptions {
        GpuOptions {
            encoding: EncodingKind::Packed,
            ..Default::default()
        }
    }

    /// A deliberately ragged system: mixed per-monomial k (including a
    /// constant term), mixed per-equation m.
    fn ragged() -> System<f64> {
        let p0 = Polynomial::new(vec![
            Term {
                coeff: C64::from_f64(1.5, -0.5),
                monomial: Monomial::new(vec![(0, 2), (2, 1)]).unwrap(),
            },
            Term {
                coeff: C64::from_f64(-2.0, 1.0),
                monomial: Monomial::var(1),
            },
            Term {
                coeff: C64::from_f64(3.0, 0.25),
                monomial: Monomial::constant(),
            },
        ]);
        let p1 = Polynomial::new(vec![Term {
            coeff: C64::from_f64(0.75, 2.0),
            monomial: Monomial::new(vec![(0, 1), (1, 3), (2, 2)]).unwrap(),
        }]);
        let p2 = Polynomial::new(vec![
            Term {
                coeff: C64::from_f64(-1.0, 0.0),
                monomial: Monomial::new(vec![(2, 4)]).unwrap(),
            },
            Term {
                coeff: C64::from_f64(0.5, 0.5),
                monomial: Monomial::new(vec![(0, 1), (1, 1)]).unwrap(),
            },
        ]);
        System::new(3, vec![p0, p1, p2]).unwrap()
    }

    /// A ragged family at Table 1's dimension, with enough monomials
    /// that a 64-point batch is kernel-bound.
    fn kernel_bound_ragged() -> System<f64> {
        random_sparse_system::<f64>(&SparseBenchmarkParams {
            n: 32,
            m_min: 2,
            m_max: 6,
            k_min: 0,
            k_max: 9,
            d: 2,
            seed: 3,
        })
    }

    /// Batch-of-P results must be bit-for-bit equal to P single-point
    /// evaluations — including shapes where neither P, n·m nor n²+n is
    /// a multiple of the block size.
    #[test]
    fn batch_bitwise_equals_singles_in_double() {
        for (p, prm) in [
            (5, params(4, 3, 2, 2, 1)),
            (3, params(8, 5, 3, 4, 2)),
            (7, params(33, 3, 5, 3, 5)),  // n·m = 99, outputs = 1122
            (13, params(32, 4, 9, 2, 3)), // odd batch against block 32
        ] {
            let sys = random_system::<f64>(&prm);
            let points = random_points::<f64>(prm.n, p, prm.seed ^ 0xFEED);
            let mut batch = BatchGpuEvaluator::new(&sys, p, GpuOptions::default()).unwrap();
            let mut single = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
            let got = batch.evaluate_batch(&points);
            assert_eq!(got.len(), p);
            for (i, x) in points.iter().enumerate() {
                let want = single.evaluate(x);
                assert_eq!(got[i].values, want.values, "values, point {i} of {prm:?}");
                assert_eq!(
                    got[i].jacobian.as_slice(),
                    want.jacobian.as_slice(),
                    "jacobian, point {i} of {prm:?}"
                );
            }
        }
    }

    #[test]
    fn batch_bitwise_equals_singles_in_double_double() {
        use polygpu_qd::Dd;
        let prm = params(6, 3, 3, 3, 13);
        let sys = random_system::<f64>(&prm).convert::<Dd>();
        let points: Vec<Vec<Complex<Dd>>> = random_points::<f64>(6, 5, 21)
            .into_iter()
            .map(|x| x.into_iter().map(|z| z.convert()).collect())
            .collect();
        let mut batch = BatchGpuEvaluator::new(&sys, 5, GpuOptions::default()).unwrap();
        let mut single = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
        let got = batch.evaluate_batch(&points);
        for (i, x) in points.iter().enumerate() {
            let want = single.evaluate(x);
            assert_eq!(
                got[i].values, want.values,
                "dd values must match bitwise, point {i}"
            );
            assert_eq!(
                got[i].jacobian.as_slice(),
                want.jacobian.as_slice(),
                "dd jacobian must match bitwise, point {i}"
            );
        }
    }

    /// A batch of one is the single-point pipeline, which wraps a
    /// capacity-1 engine: identical per-launch counters, kernel
    /// seconds, overhead and transfers.
    #[test]
    fn p1_batch_degenerates_to_single_point_pipeline() {
        let prm = params(33, 3, 5, 3, 5); // deliberately off the block grid
        let sys = random_system::<f64>(&prm);
        let x = random_point::<f64>(33, 77);
        let mut batch = BatchGpuEvaluator::new(&sys, 1, GpuOptions::default()).unwrap();
        let mut single = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
        let got = batch.evaluate_batch(std::slice::from_ref(&x));
        let want = single.evaluate(&x);
        assert_eq!(got[0].values, want.values);
        let (bs, ss) = (batch.stats(), single.stats());
        assert_eq!(bs.evaluations, 1);
        assert_eq!(bs.batches, 1);
        assert_eq!(
            bs.counters, ss.counters,
            "P=1 counters must be the single-point counters"
        );
        assert_eq!(bs.kernel_seconds, ss.kernel_seconds);
        assert_eq!(bs.overhead_seconds, ss.overhead_seconds);
        assert_eq!(bs.transfer_seconds, ss.transfer_seconds);
        assert_eq!(batch.last_reports().len(), 2);
        for (br, sr) in batch.last_reports().iter().zip(single.last_reports()) {
            assert_eq!(br.config.grid_dim, sr.config.grid_dim);
            assert_eq!(br.counters, sr.counters);
        }
    }

    /// The acceptance criterion: a P = 64 batch pays one round's fixed
    /// costs — its launch overheads and one PCIe latency each way —
    /// where 64 single-point evaluations pay 64 rounds', and moves the
    /// same bytes; the outputs are bit-for-bit the same.
    #[test]
    fn p64_amortizes_launch_overhead_and_pcie_latency_64x() {
        let prm = params(32, 4, 9, 2, 3);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(32, 64, 99);
        let mut batch = BatchGpuEvaluator::new(&sys, 64, GpuOptions::default()).unwrap();
        let mut single = GpuEvaluator::new(&sys, GpuOptions::default()).unwrap();

        let got = batch.evaluate_batch(&points);
        let mut want = Vec::with_capacity(64);
        for x in &points {
            want.push(single.evaluate(x));
        }
        for i in 0..64 {
            assert_eq!(got[i].values, want[i].values, "point {i}");
            assert_eq!(
                got[i].jacobian.as_slice(),
                want[i].jacobian.as_slice(),
                "point {i}"
            );
        }

        let (bs, ss) = (batch.stats(), single.stats());
        assert_eq!(bs.evaluations, 64);
        assert_eq!(ss.evaluations, 64);
        assert_eq!(bs.batches, 1);
        assert_eq!(ss.batches, 64);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b;
        assert!(
            close(64.0 * bs.overhead_seconds, ss.overhead_seconds),
            "launch overhead not amortized 64-fold: batch {:.3e} s, singles {:.3e} s",
            bs.overhead_seconds,
            ss.overhead_seconds
        );
        assert_eq!(bs.h2d_bytes, ss.h2d_bytes);
        assert_eq!(bs.d2h_bytes, ss.d2h_bytes);
        let latency = batch.device().pcie_latency;
        assert!(
            close(
                bs.transfer_seconds + 2.0 * 63.0 * latency,
                ss.transfer_seconds
            ),
            "PCIe latency not amortized 64-fold: batch {:.3e} s, singles {:.3e} s",
            bs.transfer_seconds,
            ss.transfer_seconds
        );
        // Throughput must improve accordingly.
        assert!(bs.throughput_evals_per_sec() > ss.throughput_evals_per_sec());
    }

    #[test]
    fn batch_supports_ablation_and_compact_options() {
        let prm = params(16, 4, 4, 6, 17);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(16, 4, 5);
        for opts in [
            GpuOptions {
                from_scratch_cf: true,
                ..Default::default()
            },
            GpuOptions {
                encoding: EncodingKind::Compact,
                ..Default::default()
            },
        ] {
            let mut batch = BatchGpuEvaluator::new(&sys, 4, opts.clone()).unwrap();
            let mut single = GpuEvaluator::new(&sys, opts).unwrap();
            let got = batch.evaluate_batch(&points);
            for (i, x) in points.iter().enumerate() {
                let want = single.evaluate(x);
                assert_eq!(got[i].values, want.values, "point {i}");
            }
        }
    }

    #[test]
    fn partial_batches_and_stat_accounting() {
        let prm = params(8, 5, 3, 4, 2);
        let sys = random_system::<f64>(&prm);
        let mut batch = BatchGpuEvaluator::new(&sys, 16, GpuOptions::default()).unwrap();
        let points = random_points::<f64>(8, 16, 4);
        // Partial batch below capacity.
        let r = batch.evaluate_batch(&points[..5]);
        assert_eq!(r.len(), 5);
        // Single-point path through the SystemEvaluator interface.
        let one = batch.evaluate(&points[0]);
        assert_eq!(
            one.values, r[0].values,
            "batch reuse must not corrupt results"
        );
        let s = batch.stats();
        assert_eq!(s.evaluations, 6);
        assert_eq!(s.batches, 2);
        assert!(s.throughput_evals_per_sec() > 0.0);
        assert!(s.seconds_per_eval() > 0.0);
        assert_eq!(
            s.counters.divergent_segments, 0,
            "batched kernels stay uniform"
        );
        batch.reset_stats();
        assert_eq!(batch.stats().evaluations, 0);
        assert_eq!(batch.max_batch(), 16);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn oversized_batch_panics() {
        let prm = params(4, 3, 2, 2, 1);
        let sys = random_system::<f64>(&prm);
        let mut batch = BatchGpuEvaluator::new(&sys, 2, GpuOptions::default()).unwrap();
        let points = random_points::<f64>(4, 3, 9);
        let _ = batch.evaluate_batch(&points);
    }

    /// Contract violations surface as typed errors from the `try_`
    /// path, leaving the engine usable.
    #[test]
    fn contract_violations_return_typed_errors() {
        let prm = params(4, 3, 2, 2, 1);
        let sys = random_system::<f64>(&prm);
        let mut batch = BatchGpuEvaluator::new(&sys, 2, GpuOptions::default()).unwrap();
        let points = random_points::<f64>(4, 3, 9);
        assert_eq!(
            batch.try_evaluate_batch(&points).unwrap_err(),
            BatchError::CapacityExceeded {
                points: 3,
                capacity: 2
            }
        );
        assert_eq!(
            batch.try_evaluate_batch(&[]).unwrap_err(),
            BatchError::Empty
        );
        let short = vec![vec![Complex::<f64>::one(); 3]];
        assert_eq!(
            batch.try_evaluate_batch(&short).unwrap_err(),
            BatchError::DimensionMismatch {
                point: 0,
                got: 3,
                expected: 4
            }
        );
        // The engine still works after rejected calls, and rejected
        // calls cost nothing in the model.
        assert_eq!(batch.stats().evaluations, 0);
        let ok = batch.try_evaluate_batch(&points[..2]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    /// Stream overlap is a timing-model transformation only: results
    /// stay bit-identical while the modeled wall clock drops below the
    /// serialized sum by the overlap saving — on the paper's kernels
    /// and on the ragged ones alike.
    #[test]
    fn overlap_keeps_results_and_shaves_wall_clock() {
        let dense = random_system::<f64>(&params(32, 4, 9, 2, 3));
        for (sys, base) in [
            (dense, GpuOptions::default()),
            (kernel_bound_ragged(), packed()),
        ] {
            let points = random_points::<f64>(32, 64, 99);
            let mut serial = BatchGpuEvaluator::new(&sys, 64, base.clone()).unwrap();
            let mut overlapped = BatchGpuEvaluator::new(
                &sys,
                64,
                GpuOptions {
                    overlap_chunks: Some(4),
                    ..base.clone()
                },
            )
            .unwrap();
            let enc = base.encoding;
            let a = serial.evaluate_batch(&points);
            let b = overlapped.evaluate_batch(&points);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.values, y.values, "{enc:?}, point {i}");
                assert_eq!(
                    x.jacobian.as_slice(),
                    y.jacobian.as_slice(),
                    "{enc:?}, point {i}"
                );
            }
            let (ss, os) = (serial.stats(), overlapped.stats());
            assert_eq!(ss.counters, os.counters, "{enc:?}: same launches");
            assert_eq!(ss.kernel_seconds, os.kernel_seconds, "{enc:?}");
            // Serialized accounting: wall == sum (up to summation-order
            // rounding), no savings.
            assert!(
                (ss.wall_clock_seconds() - ss.total_seconds()).abs() < 1e-15,
                "{enc:?}"
            );
            assert!(ss.overlap_savings() < 1e-15, "{enc:?}");
            // Overlapped: wall < its own serialized sum, savings
            // positive, and the wall clock beats the non-overlapped wall
            // clock even though chunking pays extra PCIe latency and
            // launch overhead.
            assert!(os.wall_clock_seconds() < os.total_seconds(), "{enc:?}");
            assert!(os.overlap_savings() > 0.0, "{enc:?}");
            assert!(
                os.wall_clock_seconds() < ss.wall_clock_seconds(),
                "{enc:?}: overlap must win at P = 64: {} vs {}",
                os.wall_clock_seconds(),
                ss.wall_clock_seconds()
            );
            assert!(
                os.throughput_evals_per_sec() > ss.throughput_evals_per_sec(),
                "{enc:?}"
            );
        }
    }

    /// `overlap_chunks` beyond the point count degenerates gracefully
    /// (clamped to P), and a P = 1 overlapped batch matches the serial
    /// wall clock.
    #[test]
    fn overlap_clamps_to_batch_size() {
        let prm = params(8, 5, 3, 4, 2);
        let sys = random_system::<f64>(&prm);
        let opts = GpuOptions {
            overlap_chunks: Some(16),
            ..Default::default()
        };
        let mut batch = BatchGpuEvaluator::new(&sys, 4, opts).unwrap();
        let mut serial = BatchGpuEvaluator::new(&sys, 4, GpuOptions::default()).unwrap();
        let points = random_points::<f64>(8, 1, 4);
        let _ = batch.evaluate_batch(&points);
        let _ = serial.evaluate_batch(&points);
        assert_eq!(
            batch.stats().wall_clock_seconds(),
            serial.stats().wall_clock_seconds(),
            "a single point has nothing to overlap with"
        );
    }

    /// Adaptive chunking (`overlap_chunks: None`) keeps results
    /// bit-identical and never schedules worse than a single chunk —
    /// the serialized schedule is always among the candidates.
    #[test]
    fn adaptive_overlap_never_worse_than_one_chunk() {
        for (p, prm) in [
            (1, params(8, 5, 3, 4, 2)),    // nothing to overlap
            (5, params(8, 5, 3, 4, 2)),    // latency-bound small batch
            (64, params(32, 4, 9, 2, 3)),  // kernel-bound Table-1 shape
            (256, params(32, 4, 9, 2, 3)), // large batch
        ] {
            let sys = random_system::<f64>(&prm);
            let points = random_points::<f64>(prm.n, p, 99);
            let mut serial = BatchGpuEvaluator::new(&sys, p, GpuOptions::default()).unwrap();
            let mut adaptive = BatchGpuEvaluator::new(
                &sys,
                p,
                GpuOptions {
                    overlap_chunks: None,
                    ..Default::default()
                },
            )
            .unwrap();
            let a = serial.evaluate_batch(&points);
            let b = adaptive.evaluate_batch(&points);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.values, y.values, "P = {p}, point {i}");
                assert_eq!(
                    x.jacobian.as_slice(),
                    y.jacobian.as_slice(),
                    "P = {p}, point {i}"
                );
            }
            let (ss, aa) = (serial.stats(), adaptive.stats());
            assert!(
                aa.wall_clock_seconds() <= ss.wall_clock_seconds() * (1.0 + 1e-12),
                "adaptive schedule worse than 1 chunk at P = {p}: {} vs {}",
                aa.wall_clock_seconds(),
                ss.wall_clock_seconds()
            );
            let planned = adaptive.planned_overlap_chunks(p, adaptive.last_kernel_seconds());
            assert!(planned >= 1 && planned <= p.max(1), "P = {p}: {planned}");
        }
    }

    /// On a kernel-bound batch the adaptive mode actually overlaps: it
    /// picks more than one chunk and beats the serialized wall clock.
    #[test]
    fn adaptive_overlap_beats_serial_when_kernels_dominate() {
        let prm = params(32, 4, 9, 2, 3);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(32, 64, 99);
        let mut serial = BatchGpuEvaluator::new(&sys, 64, GpuOptions::default()).unwrap();
        let mut adaptive = BatchGpuEvaluator::new(
            &sys,
            64,
            GpuOptions {
                overlap_chunks: None,
                ..Default::default()
            },
        )
        .unwrap();
        let _ = serial.evaluate_batch(&points);
        let _ = adaptive.evaluate_batch(&points);
        let planned = adaptive.planned_overlap_chunks(64, adaptive.last_kernel_seconds());
        assert!(planned > 1, "kernel-bound batch must split: {planned}");
        assert!(
            adaptive.stats().wall_clock_seconds() < serial.stats().wall_clock_seconds(),
            "adaptive must beat serial here"
        );
        assert!(adaptive.stats().overlap_savings() > 0.0);
    }

    /// A rectangular row block evaluates exactly its rows of the full
    /// system — bit for bit, values and Jacobian rows alike. This is
    /// the kernel-level invariant row sharding rests on: each row's
    /// arithmetic touches only its own supports and coefficients.
    #[test]
    fn rectangular_row_block_matches_full_system_rows_bitwise() {
        let prm = params(8, 5, 3, 4, 2);
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 6, 11);
        let mut full = BatchGpuEvaluator::new(&sys, 6, GpuOptions::default()).unwrap();
        let want = full.evaluate_batch(&points);
        for rows in [vec![0usize, 1, 2], vec![3, 4, 5, 6, 7], vec![5], vec![7, 2]] {
            let block = sys.row_block(&rows);
            let mut shard = BatchGpuEvaluator::new(&block, 6, GpuOptions::default()).unwrap();
            assert_eq!(shard.dim(), 8);
            let got = shard.evaluate_batch(&points);
            for (i, eval) in got.iter().enumerate() {
                assert_eq!(eval.values.len(), rows.len());
                for (local, &global) in rows.iter().enumerate() {
                    assert_eq!(
                        eval.values[local], want[i].values[global],
                        "value row {global}, point {i}"
                    );
                    for v in 0..8 {
                        assert_eq!(
                            eval.jacobian[(local, v)],
                            want[i].jacobian[(global, v)],
                            "jacobian ({global}, {v}), point {i}"
                        );
                    }
                }
            }
        }
    }

    /// The non-panicking single-point path propagates typed errors —
    /// what lets the conformance suite exercise contract violations
    /// without aborting the process.
    #[test]
    fn try_evaluate_propagates_typed_errors() {
        let prm = params(4, 3, 2, 2, 1);
        let sys = random_system::<f64>(&prm);
        let mut batch = BatchGpuEvaluator::new(&sys, 2, GpuOptions::default()).unwrap();
        let short = vec![Complex::<f64>::one(); 3];
        assert_eq!(
            batch.try_evaluate(&short).unwrap_err(),
            BatchError::DimensionMismatch {
                point: 0,
                got: 3,
                expected: 4
            }
        );
        // The engine stays usable and the rejected call cost nothing.
        assert_eq!(batch.stats().evaluations, 0);
        let x = random_points::<f64>(4, 1, 9).pop().unwrap();
        let ok = batch.try_evaluate(&x).unwrap();
        assert_eq!(ok.values.len(), 4);
    }

    /// A capacity of zero is a typed setup error, through `new` on
    /// either kernel pair and through the resident-supports constructor.
    #[test]
    fn zero_capacity_is_a_typed_setup_error() {
        let sys = random_system::<f64>(&params(4, 3, 2, 2, 1));
        let opts = GpuOptions::default();
        assert!(matches!(
            BatchGpuEvaluator::new(&sys, 0, opts.clone()),
            Err(SetupError::ZeroCapacity)
        ));
        assert!(matches!(
            BatchGpuEvaluator::new(&ragged(), 0, packed()),
            Err(SetupError::ZeroCapacity)
        ));
        let mut constant = ConstantMemory::new(&opts.device);
        let enc = EncodedSupports::upload(&sys, &mut constant, opts.encoding).unwrap();
        assert!(matches!(
            BatchGpuEvaluator::from_encoded(&sys, enc, constant, 0, opts),
            Err(SetupError::ZeroCapacity)
        ));
    }

    #[test]
    fn oversized_system_fails_at_setup() {
        let prm = params(32, 64, 16, 10, 3);
        let sys = random_system::<f64>(&prm);
        assert!(BatchGpuEvaluator::new(&sys, 8, GpuOptions::default()).is_err());
    }

    #[test]
    fn ragged_batch_bitwise_equals_cpu_sparse_reference() {
        let sys = ragged();
        let mut cpu = SparseAdEvaluator::new(sys.clone());
        let points = random_points::<f64>(3, 7, 0xBEEF);
        let mut gpu = BatchGpuEvaluator::new(&sys, 7, packed()).unwrap();
        let got = gpu.evaluate_batch(&points);
        for (i, x) in points.iter().enumerate() {
            let want = cpu.evaluate(x);
            assert_eq!(got[i].values, want.values, "values, point {i}");
            assert_eq!(
                got[i].jacobian.as_slice(),
                want.jacobian.as_slice(),
                "jacobian, point {i}"
            );
        }
    }

    #[test]
    fn random_sparse_families_match_reference_bitwise() {
        for seed in [1u64, 2, 3] {
            let params = SparseBenchmarkParams {
                n: 6,
                m_min: 1,
                m_max: 5,
                k_min: 0,
                k_max: 4,
                d: 3,
                seed,
            };
            let sys = random_sparse_system::<f64>(&params);
            let mut cpu = SparseAdEvaluator::new(sys.clone());
            let points = random_points::<f64>(6, 5, seed ^ 0xFEED);
            let mut gpu = BatchGpuEvaluator::new(&sys, 5, packed()).unwrap();
            let got = gpu.evaluate_batch(&points);
            for (i, x) in points.iter().enumerate() {
                let want = cpu.evaluate(x);
                assert_eq!(got[i].values, want.values, "seed {seed}, point {i}");
                assert_eq!(
                    got[i].jacobian.as_slice(),
                    want.jacobian.as_slice(),
                    "seed {seed}, point {i}"
                );
            }
        }
    }

    #[test]
    fn ragged_matches_reference_in_double_double() {
        use polygpu_qd::Dd;
        let sys = ragged().convert::<Dd>();
        let mut cpu = SparseAdEvaluator::new(sys.clone());
        let points: Vec<Vec<Complex<Dd>>> = random_points::<f64>(3, 4, 11)
            .into_iter()
            .map(|x| x.into_iter().map(|z| z.convert()).collect())
            .collect();
        let mut gpu = BatchGpuEvaluator::new(&sys, 4, packed()).unwrap();
        let got = gpu.evaluate_batch(&points);
        for (i, x) in points.iter().enumerate() {
            let want = cpu.evaluate(x);
            assert_eq!(got[i].values, want.values, "dd values, point {i}");
            assert_eq!(
                got[i].jacobian.as_slice(),
                want.jacobian.as_slice(),
                "dd jacobian, point {i}"
            );
        }
    }

    /// The single-point pipeline runs ragged systems through the same
    /// capacity-1 engine, bit-identical to a batch, with typed errors.
    #[test]
    fn ragged_single_point_pipeline_matches_batch_and_reports_typed_errors() {
        let sys = ragged();
        let mut single = GpuEvaluator::new(&sys, packed()).unwrap();
        let mut batch = BatchGpuEvaluator::new(&sys, 4, packed()).unwrap();
        let points = random_points::<f64>(3, 4, 21);
        let a = single.evaluate_batch(&points);
        let b = batch.evaluate_batch(&points);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.values, y.values, "point {i}");
            assert_eq!(x.jacobian.as_slice(), y.jacobian.as_slice(), "point {i}");
        }
        assert_eq!(
            AnyEvaluator::try_evaluate_batch(&mut single, &[]).unwrap_err(),
            BatchError::Empty
        );
        let short = vec![Complex::<f64>::one(); 2];
        assert_eq!(
            single.try_evaluate(&short).unwrap_err(),
            BatchError::DimensionMismatch {
                point: 0,
                got: 2,
                expected: 3
            }
        );
        assert_eq!(
            batch
                .try_evaluate_batch(&random_points::<f64>(3, 5, 1))
                .unwrap_err(),
            BatchError::CapacityExceeded {
                points: 5,
                capacity: 4
            }
        );
    }

    /// Reused buffers must not leak state between evaluations: a batch,
    /// then a different batch, then the first again — all bit-stable.
    #[test]
    fn buffer_reuse_is_stateless() {
        let sys = ragged();
        let mut gpu = BatchGpuEvaluator::new(&sys, 4, packed()).unwrap();
        let p1 = random_points::<f64>(3, 4, 1);
        let p2 = random_points::<f64>(3, 2, 2);
        let first = gpu.evaluate_batch(&p1);
        let _ = gpu.evaluate_batch(&p2);
        let again = gpu.evaluate_batch(&p1);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.values, b.values);
            assert_eq!(a.jacobian.as_slice(), b.jacobian.as_slice());
        }
        let s = gpu.stats();
        assert_eq!(s.evaluations, 10);
        assert_eq!(s.batches, 3);
        assert!(s.seconds_per_eval() > 0.0);
    }
}
