//! The evaluation kernels at **`P` points**: the fused monomial kernel
//! and the sum kernel, two launches for the system and its Jacobian.
//!
//! The grid is linearized point-major ([`LaunchConfig::cover_batch`]):
//! block `b` serves point `b / inner` at inner block index `b % inner`,
//! where `inner` is the block count one point needs. Every block runs
//! the same program against its point's region of the batched
//! buffers, so a point's results do not depend on the batch it rides
//! in, and a `P = 1` launch is the paper's single-point launch.
//!
//! Per-point regions are **pitched**: strides are rounded up to the
//! device's coalescing segment ([`BatchLayout::new`]), so every point's
//! access pattern (and hence its transaction count) is the one point 0
//! has, whatever its position in the batch.
//!
//! The support encoding in constant memory and the `Coeffs` array are
//! shared by all points — "the information … does not change along the
//! path tracking" holds across paths too.

use crate::kernels::monomial;
use crate::layout::coeffs::coeff_index;
use crate::layout::encoding::EncodedSupports;
use crate::layout::mons::{q_deriv, q_value, term_slot};
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_polysys::{SparseShape, UniformShape};

/// Per-point strides and inner block counts of a batched launch, for
/// the dense and the ragged kernel pairs alike.
#[derive(Debug, Clone, Copy)]
pub struct BatchLayout {
    /// Points the device buffers are sized for.
    pub capacity: usize,
    /// Elements between consecutive points' variable vectors.
    pub vars_stride: usize,
    /// Elements between consecutive points' `Mons` regions.
    pub mons_stride: usize,
    /// Elements between consecutive points' output regions.
    pub out_stride: usize,
    /// Single-point block count over the `n·m` monomials.
    pub mon_blocks: u32,
    /// Single-point block count over the `n² + n` outputs.
    pub out_blocks: u32,
}

impl BatchLayout {
    /// Compute the layout for `capacity` points of `shape` with
    /// `elem_bytes`-sized device elements and the device's coalescing
    /// `segment` (bytes). A uniform system's shape is the special case
    /// `max_m == m`, `max_k == k`.
    pub fn new(
        shape: &SparseShape,
        capacity: usize,
        block_dim: u32,
        elem_bytes: usize,
        segment: usize,
    ) -> Self {
        let pitch = |len: usize| {
            let seg_elems = (segment / elem_bytes).max(1);
            len.next_multiple_of(seg_elems)
        };
        BatchLayout {
            capacity,
            vars_stride: pitch(shape.n),
            mons_stride: pitch(shape.mons_len()),
            out_stride: pitch(shape.outputs()),
            mon_blocks: LaunchConfig::blocks_for(shape.total_monomials, block_dim),
            out_blocks: LaunchConfig::blocks_for(shape.outputs(), block_dim),
        }
    }

    /// Grid covering `points` batch entries of the monomial kernel.
    pub fn monomial_cfg(&self, points: usize, shape: &SparseShape, block_dim: u32) -> LaunchConfig {
        LaunchConfig::cover_batch(points, shape.total_monomials, block_dim)
    }

    /// Grid covering `points` batch entries of the sum kernel.
    pub fn output_cfg(&self, points: usize, shape: &SparseShape, block_dim: u32) -> LaunchConfig {
        LaunchConfig::cover_batch(points, shape.outputs(), block_dim)
    }
}

/// The batched monomial kernel: kernels 1 and 2 of the paper fused
/// into one launch ([`crate::kernels::monomial`] describes the phases)
/// — every monomial's value and derivatives, times coefficients,
/// scattered into `Mons`, at every point.
pub struct BatchMonomialKernel {
    pub enc: EncodedSupports,
    /// Input points (`capacity × vars_stride` elements).
    pub vars: BufferId,
    /// Shared (not per-point) derivative-major coefficient array.
    pub coeffs: BufferId,
    /// Output terms (`capacity × mons_stride` elements).
    pub mons: BufferId,
    pub layout: BatchLayout,
    /// Use the table-free common-factor stage (ablation A1).
    pub from_scratch_cf: bool,
}

impl<R: Real> Kernel<Complex<R>> for BatchMonomialKernel {
    fn name(&self) -> &str {
        "monomial"
    }

    /// `max(d·n, n + B·(k+1))`: the power table, or the staged
    /// variables plus Speelpenning scratch that reuse its rows (the
    /// table-free stage needs only the latter).
    fn shared_elems(&self, block_dim: u32) -> usize {
        let shape = self.enc.shape;
        monomial::shared_elems(
            shape.n,
            shape.k,
            shape.d as usize,
            block_dim,
            !self.from_scratch_cf,
        )
    }

    // Mirrors the paper-notation loops of §3.2.
    #[allow(clippy::needless_range_loop)]
    fn run_block(&self, blk: &mut BlockCtx<'_, Complex<R>>) {
        let shape = self.enc.shape;
        let (n, m, k) = (shape.n, shape.m, shape.k);
        let total = shape.total_monomials();
        let block_dim = blk.block_dim() as usize;
        // Point-major grid decode; uniform per block, so not traced
        // (on hardware this is hoisted into two registers).
        let point = (blk.block_id() / self.layout.mon_blocks) as usize;
        let chunk = (blk.block_id() % self.layout.mon_blocks) as usize;
        let mbase = point * self.layout.mons_stride;
        let work = monomial::BlockWork {
            vars: self.vars,
            vbase: point * self.layout.vars_stride,
            n,
            first: chunk * block_dim,
            total,
        };

        // Phases 1-3: common factors into registers, this point's
        // variables into shared memory.
        let rows = (!self.from_scratch_cf).then_some(shape.d as usize);
        let cfs = monomial::common_factor_phases(
            blk,
            work,
            rows,
            |_, _| k,
            |t, g, j| self.enc.read_factor(t, g, j),
        );

        // Phase 4: one monomial per thread, exactly the single-point
        // program with offset global accesses.
        blk.threads(|t| {
            let tid = t.tid() as usize;
            let g = chunk * block_dim + tid;
            if g >= total {
                return;
            }
            let p = g / m;
            let j = g % m;
            t.iops(2);

            let mut vs = [0usize; 256];
            for i in 0..k {
                vs[i] = self.enc.read_position(t, g, i);
            }
            let lbase = n + tid * (k + 1);
            let l = |i: usize| lbase + i - 1;
            macro_rules! xi {
                ($t:expr, $idx:expr) => {
                    $t.sload(vs[$idx])
                };
            }

            match k {
                1 => {
                    t.sstore(l(1), Complex::one());
                }
                2 => {
                    let x2 = xi!(t, 1);
                    t.sstore(l(1), x2);
                    let x1 = xi!(t, 0);
                    t.sstore(l(2), x1);
                }
                _ => {
                    let x1 = xi!(t, 0);
                    t.sstore(l(2), x1);
                    for r in 1..=k - 2 {
                        let prev = t.sload(l(r + 1));
                        let xr = xi!(t, r);
                        let f = t.mul(prev, xr);
                        t.sstore(l(r + 2), f);
                    }
                    let mut q = xi!(t, k - 1);
                    let lk1 = t.sload(l(k - 1));
                    let d = t.mul(lk1, q);
                    t.sstore(l(k - 1), d);
                    for r in 1..=k.saturating_sub(3) {
                        let xv = xi!(t, k - 1 - r);
                        q = t.mul(q, xv);
                        let prev = t.sload(l(k - r - 1));
                        let d = t.mul(prev, q);
                        t.sstore(l(k - r - 1), d);
                    }
                    let x2 = xi!(t, 1);
                    q = t.mul(q, x2);
                    t.sstore(l(1), q);
                }
            }

            let cf = cfs[tid];
            for i in 1..=k {
                let d = t.sload(l(i));
                let d = t.mul(d, cf);
                t.sstore(l(i), d);
            }
            let dk = t.sload(l(k));
            let xik = xi!(t, k - 1);
            let mv = t.mul(dk, xik);
            t.sstore(l(k + 1), mv);

            let c = t.gload(self.coeffs, coeff_index(&shape, k, g));
            let lv = t.sload(l(k + 1));
            let val = t.mul(lv, c);
            t.gstore(self.mons, mbase + term_slot(&shape, j, q_value(p)), val);
            for i in 0..k {
                let c = t.gload(self.coeffs, coeff_index(&shape, i, g));
                let d = t.sload(l(i + 1));
                let dv = t.mul(d, c);
                // Derivative groups stride by the block's row count
                // (== n for square systems, the paper's layout).
                t.gstore(
                    self.mons,
                    mbase + term_slot(&shape, j, q_deriv(shape.rows, p, vs[i])),
                    dv,
                );
            }
        });
    }
}

/// The sum kernel — the paper's kernel 3 (§3.3): one thread per
/// combined polynomial of one point (the `n` system values plus the
/// `n²` Jacobian entries). Every thread adds **exactly `m` terms** —
/// including the pre-zeroed slots standing in for derivatives of
/// monomials that do not contain the variable — so all lanes follow one
/// execution path, and at every step `j` the warp reads consecutive
/// `Mons` elements: perfectly coalesced input, bought by the monomial
/// kernel's scattered output.
pub struct BatchSumKernel {
    pub shape: UniformShape,
    pub mons: BufferId,
    pub out: BufferId,
    pub layout: BatchLayout,
}

impl<R: Real> Kernel<Complex<R>> for BatchSumKernel {
    fn name(&self) -> &str {
        "sum"
    }

    fn shared_elems(&self, _block_dim: u32) -> usize {
        0
    }

    fn run_block(&self, blk: &mut BlockCtx<'_, Complex<R>>) {
        let shape = self.shape;
        let outputs = shape.outputs();
        let block_dim = blk.block_dim() as usize;
        let point = (blk.block_id() / self.layout.out_blocks) as usize;
        let chunk = (blk.block_id() % self.layout.out_blocks) as usize;
        let mbase = point * self.layout.mons_stride;
        let obase = point * self.layout.out_stride;
        blk.threads(|t| {
            let q = chunk * block_dim + t.tid() as usize;
            if q >= outputs {
                return;
            }
            let mut acc = Complex::<R>::zero();
            for j in 0..shape.m {
                let term = t.gload(self.mons, mbase + term_slot(&shape, j, q));
                acc = t.add(acc, term);
            }
            t.gstore(self.out, obase + q, acc);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;

    /// The layout shape of a uniform `rows × n` system with `m`
    /// monomials of `k` variables per equation.
    fn uniform(n: usize, rows: usize, m: usize, k: usize) -> SparseShape {
        SparseShape {
            n,
            rows,
            total_monomials: rows * m,
            max_m: m,
            max_k: k,
            d: 2,
            uniform: true,
        }
    }

    #[test]
    fn layout_pitches_to_the_coalescing_segment() {
        let shape = uniform(33, 33, 3, 5);
        let l = BatchLayout::new(&shape, 4, 32, 16, 128);
        assert_eq!(l.capacity, 4);
        assert_eq!(l.vars_stride, 40); // 33 -> next multiple of 8
        assert_eq!(l.mons_stride, ((33 * 33 + 33) * 3usize).next_multiple_of(8));
        assert_eq!(l.out_stride, (33 * 33 + 33usize).next_multiple_of(8));
        assert_eq!(l.mon_blocks, LaunchConfig::blocks_for(99, 32));
        assert_eq!(l.out_blocks, LaunchConfig::blocks_for(33 * 34, 32));
    }

    #[test]
    fn layout_grids_scale_with_points() {
        let shape = uniform(8, 8, 4, 2);
        let l = BatchLayout::new(&shape, 16, 32, 16, 128);
        assert_eq!(l.monomial_cfg(1, &shape, 32).grid_dim, l.mon_blocks);
        assert_eq!(l.monomial_cfg(16, &shape, 32).grid_dim, 16 * l.mon_blocks);
        assert_eq!(l.output_cfg(7, &shape, 32).grid_dim, 7 * l.out_blocks);
    }

    #[test]
    fn double_double_elements_pitch_wider() {
        let shape = uniform(6, 6, 2, 2);
        // 32-byte complex double-doubles: 4 elements per 128-byte
        // segment.
        let l = BatchLayout::new(&shape, 2, 32, 32, 128);
        assert_eq!(l.vars_stride, 8);
        assert_eq!(l.out_stride, (6 * 7usize).next_multiple_of(4));
    }

    /// Launch the sum kernel once, for one point, over `mons` holding
    /// `data` in the `Mons` layout of a square `n`-variable system with
    /// `m` terms per sum.
    fn run_sum(n: usize, m: usize, data: &[C64]) -> (Vec<C64>, LaunchReport) {
        let shape = UniformShape::square(n, m, 2, 2);
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::<C64>::new();
        let mons = g.alloc(shape.outputs() * m);
        let out = g.alloc(shape.outputs());
        g.host_write(mons, 0, data);
        let layout = BatchLayout::new(&uniform(n, n, m, 2), 1, 32, 16, 128);
        let k = BatchSumKernel {
            shape,
            mons,
            out,
            layout,
        };
        let cfg = LaunchConfig::cover(shape.outputs(), 32);
        let cm = ConstantMemory::new(&dev);
        let rep = launch(&dev, &k, cfg, &mut g, &cm, LaunchOptions::default()).unwrap();
        (g.host_read(out, ..).to_vec(), rep)
    }

    #[test]
    fn sums_each_combined_polynomial() {
        let s = UniformShape::square(4, 3, 2, 2);
        // term j of polynomial q := (q + 1) * 10^j (easy to verify sums)
        let mut data = vec![C64::zero(); s.outputs() * s.m];
        for q in 0..s.outputs() {
            for j in 0..s.m {
                data[term_slot(&s, j, q)] =
                    C64::from_f64((q + 1) as f64 * 10f64.powi(j as i32), 0.0);
            }
        }
        let (out, rep) = run_sum(4, 3, &data);
        for (q, got) in out.iter().enumerate() {
            let want = (q + 1) as f64 * 111.0;
            assert_eq!(*got, C64::from_f64(want, 0.0), "q = {q}");
        }
        assert_eq!(rep.counters.divergent_segments, 0);
    }

    #[test]
    fn each_thread_adds_exactly_m_terms() {
        let (_, rep) = run_sum(8, 5, &vec![C64::zero(); 72 * 5]);
        // outputs = 72 threads, each m complex adds of 2 flops.
        assert_eq!(rep.counters.flops, 72 * 5 * 2);
    }

    #[test]
    fn sum_reads_are_fully_coalesced() {
        // 32-wide warps reading consecutive 16-byte elements: every load
        // slot is exactly 4 transactions; totals must match that bound.
        let (n, m) = (32, 4);
        let outputs = n * n + n;
        let (_, rep) = run_sum(n, m, &vec![C64::zero(); outputs * m]);
        let warps = (outputs / 32) as u64;
        // per warp: m load slots + 1 store slot, 4 transactions each.
        assert_eq!(rep.counters.global_transactions, warps * (m as u64 + 1) * 4);
    }
}
