//! Batched launches at **`P` points**: the layout both kernels share
//! (the fused [`MonomialKernel`](crate::kernels::MonomialKernel) and
//! this module's [`SumKernel`]), two launches for the system and its
//! Jacobian.
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

use crate::layout::mons::term_slot;
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_polysys::SparseShape;

/// Per-point strides and inner block counts of a batched launch, for
/// uniform and ragged supports alike.
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

/// The sum kernel — the paper's kernel 3 (§3.3): one thread per
/// combined polynomial of one point (the `rows` system values plus the
/// `rows × n` Jacobian entries). Every thread adds **exactly `max_m`
/// terms** — including the pre-zeroed slots standing in for derivatives
/// of monomials that do not contain the variable, and a ragged
/// equation's padding — so all lanes follow one execution path, and at
/// every step `j` the warp reads consecutive `Mons` elements: perfectly
/// coalesced input, bought by the monomial kernel's scattered output.
pub struct SumKernel {
    pub shape: SparseShape,
    pub mons: BufferId,
    pub out: BufferId,
    pub layout: BatchLayout,
}

impl<R: Real> Kernel<Complex<R>> for SumKernel {
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
            for j in 0..shape.max_m {
                let term = t.gload(self.mons, mbase + term_slot(outputs, j, q));
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
        let shape = uniform(n, n, m, 2);
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::<C64>::new();
        let mons = g.alloc(shape.mons_len());
        let out = g.alloc(shape.outputs());
        g.host_write(mons, 0, data);
        let layout = BatchLayout::new(&shape, 1, 32, 16, 128);
        let k = SumKernel {
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
        let s = uniform(4, 4, 3, 2);
        // term j of polynomial q := (q + 1) * 10^j (easy to verify sums)
        let mut data = vec![C64::zero(); s.mons_len()];
        for q in 0..s.outputs() {
            for j in 0..s.max_m {
                data[term_slot(s.outputs(), j, q)] =
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
