//! The batched evaluation engine for **ragged** (sparse) systems on the
//! packed exponent-key encoding.
//!
//! Structurally this is [`BatchGpuEvaluator`](crate::batch::BatchGpuEvaluator)
//! with the uniform encoding swapped for [`PackedSupports`] and the
//! dense kernels for their ragged variants
//! ([`crate::kernels::sparse`]). The per-point floating-point programs
//! are identical to the CPU sparse reference
//! ([`polygpu_polysys::SparseAdEvaluator`]), so results are
//! **bit-for-bit equal** to the reference in every precision — the same
//! determinism contract the dense engines carry, extended to ragged
//! supports.
//!
//! The timing model is the serialized batched schedule (one upload,
//! three launches, one download); the dense engine's stream-overlap
//! ablation is deliberately not duplicated here.

use crate::batch::{expect_batch, BatchError};
use crate::correct::{
    correct_resident, Charges, CombineMap, CorrectParams, CorrectStatus, FusedEngine,
};
use crate::kernels::sparse::{
    SparseBatchLayout, SparseCommonFactorKernel, SparseSpeelpenningKernel, SparseSumKernel,
};
use crate::layout::coeffs::build_sparse_coeffs;
use crate::layout::mons::{q_deriv, q_value};
use crate::layout::packed::PackedSupports;
use crate::pipeline::{inject, GpuOptions, PipelineStats, SetupError};
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_obs::{Lane, MetaValue, SpanKind, TraceSink};
use polygpu_polysys::{BatchSystemEvaluator, SparseShape, System, SystemEval, SystemEvaluator};

/// The batched three-kernel evaluator for ragged systems. Device
/// buffers are sized for `capacity` points at construction; any batch
/// of `1..=capacity` points evaluates with one round trip.
pub struct SparseBatchGpuEvaluator<R: Real> {
    device: DeviceSpec,
    opts: GpuOptions,
    shape: SparseShape,
    layout: SparseBatchLayout,
    global: GlobalMem<Complex<R>>,
    constant: ConstantMemory,
    vars: BufferId,
    out: BufferId,
    k1: SparseCommonFactorKernel,
    k2: SparseSpeelpenningKernel,
    k3: SparseSumKernel,
    stats: PipelineStats,
    last_reports: Vec<LaunchReport>,
    vars_scratch: Vec<Complex<R>>,
    injector: Option<FaultInjector>,
}

impl<R: Real> SparseBatchGpuEvaluator<R> {
    /// Validate, encode and upload `system` (uniform or ragged), sizing
    /// the device buffers for batches of up to `capacity` points; runs
    /// one throw-away evaluation so every configuration error surfaces
    /// here rather than inside `evaluate_batch`.
    pub fn new(system: &System<R>, capacity: usize, opts: GpuOptions) -> Result<Self, SetupError> {
        let mut constant = ConstantMemory::new(&opts.device);
        let sup = PackedSupports::upload(system, &mut constant)?;
        Self::from_packed(system, sup, constant, capacity, opts)
    }

    /// Assemble an engine from supports **already resident** in
    /// `constant` — the ragged sibling of
    /// [`BatchGpuEvaluator::from_encoded`](crate::batch::BatchGpuEvaluator::from_encoded).
    pub fn from_packed(
        system: &System<R>,
        sup: PackedSupports,
        constant: ConstantMemory,
        capacity: usize,
        opts: GpuOptions,
    ) -> Result<Self, SetupError> {
        assert!(capacity >= 1, "batch capacity must be at least 1");
        let device = opts.device.clone();
        let shape = sup.shape;
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let layout = SparseBatchLayout::new(
            &shape,
            capacity,
            opts.block_dim,
            elem,
            device.coalesce_segment,
        );
        let mut global = GlobalMem::new();
        let vars = global.alloc(capacity * layout.vars_stride);
        let cf = global.alloc(capacity * layout.cf_stride);
        let coeffs = global.alloc(shape.total_monomials * (shape.max_k + 1));
        let mons = global.alloc(capacity * layout.mons_stride);
        let out = global.alloc(capacity * layout.out_stride);
        global.host_write(coeffs, 0, &build_sparse_coeffs(system, &shape));
        let injector = opts
            .fault
            .map(|f| FaultInjector::new(f.plan, f.device_index));
        let mut me = SparseBatchGpuEvaluator {
            device,
            shape,
            layout,
            vars,
            out,
            injector,
            k1: SparseCommonFactorKernel {
                sup,
                vars,
                out: cf,
                layout,
            },
            k2: SparseSpeelpenningKernel {
                sup,
                vars,
                common_factors: cf,
                coeffs,
                mons,
                layout,
            },
            k3: SparseSumKernel {
                shape,
                mons,
                out,
                layout,
            },
            global,
            constant,
            stats: PipelineStats::default(),
            last_reports: Vec::new(),
            vars_scratch: Vec::new(),
            opts,
        };
        // Validation pass (see `BatchGpuEvaluator::from_encoded`): one
        // point exercises every per-block launch-validity constraint.
        // The injector starts disarmed and the sink is detached, so the
        // probe neither faults nor leaves spans behind.
        let probe = vec![vec![Complex::<R>::one(); shape.n]];
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

    /// Replace this engine's trace sink.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.opts.trace = sink;
    }

    /// This engine's current trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.opts.trace
    }

    /// Arm or disarm fault injection (no-op without a configured
    /// [`GpuOptions::fault`]).
    pub fn set_fault_armed(&mut self, armed: bool) {
        if let Some(inj) = self.injector.as_mut() {
            if armed {
                inj.arm();
            } else {
                inj.disarm();
            }
        }
    }

    pub fn shape(&self) -> SparseShape {
        self.shape
    }

    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// Largest batch one call accepts.
    pub fn capacity(&self) -> usize {
        self.layout.capacity
    }

    /// Per-point strides and block counts of the batched buffers.
    pub fn layout(&self) -> SparseBatchLayout {
        self.layout
    }

    /// Modeled-cost statistics accumulated so far.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
    }

    /// Launch reports of the most recent batch (kernel 1, 2, 3).
    pub fn last_reports(&self) -> &[LaunchReport] {
        &self.last_reports
    }

    /// Bytes of constant memory this system's supports occupy.
    pub fn constant_bytes_used(&self) -> usize {
        self.k1.sup.constant_bytes()
    }

    /// Device bytes the batched buffers occupy.
    pub fn allocated_bytes(&self) -> usize {
        self.global.allocated_bytes()
    }

    /// Evaluate the system and Jacobian at every point of the batch
    /// with one set of three launches. Same contract and typed errors
    /// as the dense batched engine.
    pub fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        let shape = self.shape;
        let p = points.len();
        if p == 0 {
            return Err(BatchError::Empty);
        }
        if p > self.layout.capacity {
            return Err(BatchError::CapacityExceeded {
                points: p,
                capacity: self.layout.capacity,
            });
        }
        for (i, x) in points.iter().enumerate() {
            if x.len() != shape.n {
                return Err(BatchError::DimensionMismatch {
                    point: i,
                    got: x.len(),
                    expected: shape.n,
                });
            }
        }
        self.vars_scratch.clear();
        self.vars_scratch
            .resize(p * self.layout.vars_stride, Complex::zero());
        for (i, x) in points.iter().enumerate() {
            let base = i * self.layout.vars_stride;
            self.vars_scratch[base..base + shape.n].copy_from_slice(x);
        }
        let elem = <Complex<R> as DeviceValue>::DEVICE_BYTES;
        let h2d = transfer_seconds(&self.device, p * shape.n * elem);
        let wall0 = self.stats.wall_seconds;
        let mut elapsed = 0.0;
        self.fault_check(OpClass::HostToDevice, h2d, elapsed)?;
        self.global.host_write(self.vars, 0, &self.vars_scratch);
        elapsed += h2d;
        let mut transfer = h2d;

        let monomial_cfg = self.layout.monomial_cfg(p, &shape, self.opts.block_dim);
        let output_cfg = self.layout.output_cfg(p, &shape, self.opts.block_dim);
        self.last_reports.clear();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let r1 = launch(
            &self.device,
            &self.k1,
            monomial_cfg,
            &mut self.global,
            &self.constant,
            self.opts.launch,
        )?;
        elapsed += r1.timing.total_seconds();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let r2 = launch(
            &self.device,
            &self.k2,
            monomial_cfg,
            &mut self.global,
            &self.constant,
            self.opts.launch,
        )?;
        elapsed += r2.timing.total_seconds();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let r3 = launch(
            &self.device,
            &self.k3,
            output_cfg,
            &mut self.global,
            &self.constant,
            self.opts.launch,
        )?;
        elapsed += r3.timing.total_seconds();

        let d2h = transfer_seconds(&self.device, p * shape.outputs() * elem);
        self.fault_check(OpClass::DeviceToHost, d2h, elapsed)?;
        transfer += d2h;
        let raw = self.global.host_read(self.out);
        let mut evals = Vec::with_capacity(p);
        for i in 0..p {
            let base = i * self.layout.out_stride;
            let mut eval = SystemEval::zeros_rect(shape.rows, shape.n);
            for q in 0..shape.rows {
                eval.values[q] = raw[base + q_value(q)];
                for v in 0..shape.n {
                    eval.jacobian[(q, v)] = raw[base + q_deriv(shape.rows, q, v)];
                }
            }
            evals.push(eval);
        }

        self.stats.evaluations += p as u64;
        self.stats.batches += 1;
        self.stats.h2d_bytes += (p * shape.n * elem) as u64;
        self.stats.d2h_bytes += (p * shape.outputs() * elem) as u64;
        self.last_reports.push(r1);
        self.last_reports.push(r2);
        self.last_reports.push(r3);
        let mut kernel_total = 0.0;
        for r in &self.last_reports {
            self.stats.counters += r.counters;
            kernel_total += r.timing.kernel_seconds;
        }
        self.stats.kernel_seconds += kernel_total;

        // Serialized accounting: one upload, three launches, one
        // download, summed.
        let overhead = 3.0 * self.device.launch_overhead;
        self.stats.overhead_seconds += overhead;
        self.stats.transfer_seconds += transfer;
        self.stats.wall_seconds += transfer + kernel_total + overhead;
        if self.opts.trace.enabled() {
            let tr = &self.opts.trace;
            tr.lane(Lane::H2D)
                .emit(SpanKind::Upload, wall0, h2d, 4, &[]);
            let mut t = wall0 + h2d;
            for r in &self.last_reports {
                let d = r.timing.total_seconds();
                tr.lane(Lane::Compute).emit(SpanKind::Launch, t, d, 4, &[]);
                t += d;
            }
            tr.lane(Lane::D2H).emit(SpanKind::Download, t, d2h, 4, &[]);
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

    /// Single-point evaluation as a batch of one, with typed errors.
    pub fn try_evaluate(&mut self, x: &[Complex<R>]) -> Result<SystemEval<R>, BatchError> {
        let mut out = self.try_evaluate_batch(std::slice::from_ref(&x.to_vec()))?;
        Ok(out.pop().expect("batch of one returns one result"))
    }

    /// Fused device-resident Newton correction — the ragged sibling of
    /// [`BatchGpuEvaluator::try_correct_batch`](crate::batch::BatchGpuEvaluator::try_correct_batch):
    /// one iterate upload, per-iteration evaluate/factor/back-substitute
    /// on the device with only the `O(P)` flag download, one endpoint
    /// download. Endpoints are bit-identical to the host corrector.
    pub fn try_correct_batch(
        &mut self,
        points: &mut [Vec<Complex<R>>],
        combine: &mut dyn CombineMap<R>,
        params: &CorrectParams,
    ) -> Result<Vec<CorrectStatus>, BatchError> {
        correct_resident(self, points, combine, params)
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

impl<R: Real> FusedEngine<R> for SparseBatchGpuEvaluator<R> {
    /// One evaluation round of the fused corrector against the
    /// resident live iterates (staging models a device-side gather;
    /// no PCIe traffic).
    fn eval_resident(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        let shape = self.shape;
        let p = points.len();
        self.vars_scratch.clear();
        self.vars_scratch
            .resize(p * self.layout.vars_stride, Complex::zero());
        for (i, x) in points.iter().enumerate() {
            let base = i * self.layout.vars_stride;
            self.vars_scratch[base..base + shape.n].copy_from_slice(x);
        }
        let wall0 = self.stats.wall_seconds;
        let mut elapsed = 0.0;
        self.global.host_write(self.vars, 0, &self.vars_scratch);

        let monomial_cfg = self.layout.monomial_cfg(p, &shape, self.opts.block_dim);
        let output_cfg = self.layout.output_cfg(p, &shape, self.opts.block_dim);
        self.last_reports.clear();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let r1 = launch(
            &self.device,
            &self.k1,
            monomial_cfg,
            &mut self.global,
            &self.constant,
            self.opts.launch,
        )?;
        elapsed += r1.timing.total_seconds();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let r2 = launch(
            &self.device,
            &self.k2,
            monomial_cfg,
            &mut self.global,
            &self.constant,
            self.opts.launch,
        )?;
        elapsed += r2.timing.total_seconds();
        self.fault_check(OpClass::Kernel, self.device.launch_overhead, elapsed)?;
        let r3 = launch(
            &self.device,
            &self.k3,
            output_cfg,
            &mut self.global,
            &self.constant,
            self.opts.launch,
        )?;
        elapsed += r3.timing.total_seconds();

        let raw = self.global.host_read(self.out);
        let mut evals = Vec::with_capacity(p);
        for i in 0..p {
            let base = i * self.layout.out_stride;
            let mut eval = SystemEval::zeros_rect(shape.rows, shape.n);
            for q in 0..shape.rows {
                eval.values[q] = raw[base + q_value(q)];
                for v in 0..shape.n {
                    eval.jacobian[(q, v)] = raw[base + q_deriv(shape.rows, q, v)];
                }
            }
            evals.push(eval);
        }

        self.stats.evaluations += p as u64;
        self.stats.batches += 1;
        self.last_reports.push(r1);
        self.last_reports.push(r2);
        self.last_reports.push(r3);
        let mut kernel_total = 0.0;
        for r in &self.last_reports {
            self.stats.counters += r.counters;
            kernel_total += r.timing.kernel_seconds;
        }
        self.stats.kernel_seconds += kernel_total;
        self.stats.overhead_seconds += 3.0 * self.device.launch_overhead;
        self.stats.wall_seconds += elapsed;
        if self.opts.trace.enabled() {
            let tr = &self.opts.trace;
            let mut t = wall0;
            for r in &self.last_reports {
                let d = r.timing.total_seconds();
                tr.lane(Lane::Compute).emit(SpanKind::Launch, t, d, 4, &[]);
                t += d;
            }
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

impl<R: Real> SystemEvaluator<R> for SparseBatchGpuEvaluator<R> {
    fn dim(&self) -> usize {
        self.shape.n
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        expect_batch(self.try_evaluate(x))
    }

    fn name(&self) -> &str {
        "gpu-sim-sparse-batch"
    }
}

impl<R: Real> BatchSystemEvaluator<R> for SparseBatchGpuEvaluator<R> {
    fn max_batch(&self) -> usize {
        self.layout.capacity
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        expect_batch(self.try_evaluate_batch(points))
    }
}

/// The single-point ragged pipeline: a capacity-1 batched engine looped
/// point by point — what [`Backend::Gpu`](crate::engine::Backend::Gpu)
/// builds for a ragged system under the packed encoding.
pub struct SparseGpuEvaluator<R: Real>(SparseBatchGpuEvaluator<R>);

impl<R: Real> SparseGpuEvaluator<R> {
    pub fn new(system: &System<R>, opts: GpuOptions) -> Result<Self, SetupError> {
        Ok(SparseGpuEvaluator(SparseBatchGpuEvaluator::new(
            system, 1, opts,
        )?))
    }

    pub fn stats(&self) -> PipelineStats {
        self.0.stats()
    }

    pub fn reset_stats(&mut self) {
        self.0.reset_stats()
    }

    pub fn shape(&self) -> SparseShape {
        self.0.shape()
    }

    pub fn constant_bytes_used(&self) -> usize {
        self.0.constant_bytes_used()
    }

    /// The wrapped capacity-1 batch engine — how the unified trait's
    /// device-resident corrector forwards point-by-point.
    pub(crate) fn inner_mut(&mut self) -> &mut SparseBatchGpuEvaluator<R> {
        &mut self.0
    }

    /// Loop the typed single-point path so contract violations and
    /// injected faults surface as [`BatchError`] values.
    pub fn try_evaluate_batch(
        &mut self,
        points: &[Vec<Complex<R>>],
    ) -> Result<Vec<SystemEval<R>>, BatchError> {
        if points.is_empty() {
            return Err(BatchError::Empty);
        }
        points.iter().map(|x| self.0.try_evaluate(x)).collect()
    }

    pub fn try_evaluate(&mut self, x: &[Complex<R>]) -> Result<SystemEval<R>, BatchError> {
        self.0.try_evaluate(x)
    }
}

impl<R: Real> SystemEvaluator<R> for SparseGpuEvaluator<R> {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        expect_batch(self.0.try_evaluate(x))
    }

    fn name(&self) -> &str {
        "gpu-sim-sparse"
    }
}

impl<R: Real> BatchSystemEvaluator<R> for SparseGpuEvaluator<R> {
    fn max_batch(&self) -> usize {
        usize::MAX
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        expect_batch(self.try_evaluate_batch(points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;
    use polygpu_polysys::{
        random_points, random_sparse_system, Monomial, Polynomial, SparseAdEvaluator,
        SparseBenchmarkParams, Term,
    };

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

    #[test]
    fn ragged_batch_bitwise_equals_cpu_sparse_reference() {
        let sys = ragged();
        let mut cpu = SparseAdEvaluator::new(sys.clone());
        let points = random_points::<f64>(3, 7, 0xBEEF);
        let mut gpu = SparseBatchGpuEvaluator::new(&sys, 7, GpuOptions::default()).unwrap();
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
            let mut gpu = SparseBatchGpuEvaluator::new(&sys, 5, GpuOptions::default()).unwrap();
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
        let mut gpu = SparseBatchGpuEvaluator::new(&sys, 4, GpuOptions::default()).unwrap();
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

    #[test]
    fn single_point_wrapper_matches_batch_and_reports_typed_errors() {
        let sys = ragged();
        let mut single = SparseGpuEvaluator::new(&sys, GpuOptions::default()).unwrap();
        let mut batch = SparseBatchGpuEvaluator::new(&sys, 4, GpuOptions::default()).unwrap();
        let points = random_points::<f64>(3, 4, 21);
        let a = single.evaluate_batch(&points);
        let b = batch.evaluate_batch(&points);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.values, y.values, "point {i}");
            assert_eq!(x.jacobian.as_slice(), y.jacobian.as_slice(), "point {i}");
        }
        assert_eq!(
            single.try_evaluate_batch(&[]).unwrap_err(),
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

    /// A uniform system evaluated through the sparse pipeline matches
    /// the dense batched engine bit for bit — the shared-op-order
    /// invariant across the dense/sparse split.
    #[test]
    fn uniform_system_through_sparse_pipeline_matches_dense_bitwise() {
        use crate::batch::BatchGpuEvaluator;
        use polygpu_polysys::{random_system, BenchmarkParams};
        let prm = BenchmarkParams {
            n: 8,
            m: 5,
            k: 3,
            d: 4,
            seed: 2,
        };
        let sys = random_system::<f64>(&prm);
        let points = random_points::<f64>(8, 6, 33);
        let mut dense = BatchGpuEvaluator::new(&sys, 6, GpuOptions::default()).unwrap();
        let mut sparse = SparseBatchGpuEvaluator::new(&sys, 6, GpuOptions::default()).unwrap();
        let a = dense.evaluate_batch(&points);
        let b = sparse.evaluate_batch(&points);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.values, y.values, "point {i}");
            assert_eq!(x.jacobian.as_slice(), y.jacobian.as_slice(), "point {i}");
        }
    }

    /// Reused buffers must not leak state between evaluations: a batch,
    /// then a different batch, then the first again — all bit-stable.
    #[test]
    fn buffer_reuse_is_stateless() {
        let sys = ragged();
        let mut gpu = SparseBatchGpuEvaluator::new(&sys, 4, GpuOptions::default()).unwrap();
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
