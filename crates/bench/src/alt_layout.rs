//! Ablation A2: the other side of the §3.3 layout tradeoff.
//!
//! The paper chose to write kernel 2's output *uncoalesced* so that
//! kernel 3 reads it *coalesced*. The rejected alternative stores each
//! combined polynomial's terms contiguously ("row major"): kernel 2's
//! writes would then be friendlier, but kernel 3's lanes would stride
//! `m` elements apart at every step. This module implements the
//! rejected summation layout so the simulator can price both.

use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_polysys::{SparseShape, UniformShape};

/// Element index of term `j` of combined polynomial `q` in the
/// *row-major* (rejected) layout.
#[inline]
pub fn row_major_slot(shape: &UniformShape, j: usize, q: usize) -> usize {
    q * shape.m + j
}

/// Summation kernel over the row-major layout: mathematically identical
/// to `polygpu_core`'s `SumKernel`, but each warp's loads scatter with
/// stride `m`.
pub struct RowMajorSumKernel {
    pub shape: UniformShape,
    pub mons: BufferId,
    pub out: BufferId,
}

impl<R: Real> Kernel<Complex<R>> for RowMajorSumKernel {
    fn name(&self) -> &str {
        "sum_row_major"
    }

    fn shared_elems(&self, _block_dim: u32) -> usize {
        0
    }

    fn run_block(&self, blk: &mut BlockCtx<'_, Complex<R>>) {
        let shape = self.shape;
        let outputs = shape.outputs();
        blk.threads(|t| {
            let q = t.global_tid() as usize;
            if q >= outputs {
                return;
            }
            let mut acc = Complex::<R>::zero();
            for j in 0..shape.m {
                let term = t.gload(self.mons, row_major_slot(&shape, j, q));
                acc = t.add(acc, term);
            }
            t.gstore(self.out, q, acc);
        });
    }
}

/// Run both summation layouts over identical data and return
/// `(paper_layout_report, row_major_report)`. The values produced are
/// asserted identical; only the memory behaviour differs.
pub fn compare_sum_layouts(shape: UniformShape, seed: u64) -> (LaunchReport, LaunchReport) {
    use polygpu_core::kernels::{BatchLayout, SumKernel};
    use polygpu_core::layout::mons::term_slot;

    let device = DeviceSpec::tesla_c2050();
    let cm = ConstantMemory::new(&device);
    let cfg = LaunchConfig::cover(shape.outputs(), 32);

    // Deterministic pseudo-random terms.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let mut terms = vec![Complex::<f64>::zero(); shape.outputs() * shape.m];
    for v in terms.iter_mut() {
        *v = Complex::new(next(), next());
    }

    // Paper layout.
    let mut g1 = GlobalMem::new();
    let mons1 = g1.alloc(shape.outputs() * shape.m);
    let out1 = g1.alloc(shape.outputs());
    let mut data1 = vec![Complex::<f64>::zero(); shape.outputs() * shape.m];
    for q in 0..shape.outputs() {
        for j in 0..shape.m {
            data1[term_slot(shape.outputs(), j, q)] = terms[q * shape.m + j];
        }
    }
    g1.host_write(mons1, 0, &data1);
    // One point: the layout's strides never apply.
    let sparse = SparseShape {
        n: shape.n,
        rows: shape.rows,
        total_monomials: shape.total_monomials(),
        max_m: shape.m,
        max_k: shape.k,
        d: shape.d,
        uniform: true,
    };
    let layout = BatchLayout::new(
        &sparse,
        1,
        cfg.block_dim,
        <Complex<f64> as DeviceValue>::DEVICE_BYTES,
        device.coalesce_segment,
    );
    let r1 = launch(
        &device,
        &SumKernel {
            shape: sparse,
            mons: mons1,
            out: out1,
            layout,
        },
        cfg,
        &mut g1,
        &cm,
        LaunchOptions::default(),
    )
    .expect("paper layout launch");

    // Row-major layout (terms already in q-major order).
    let mut g2 = GlobalMem::new();
    let mons2 = g2.alloc(shape.outputs() * shape.m);
    let out2 = g2.alloc(shape.outputs());
    g2.host_write(mons2, 0, &terms);
    let r2 = launch(
        &device,
        &RowMajorSumKernel {
            shape,
            mons: mons2,
            out: out2,
        },
        cfg,
        &mut g2,
        &cm,
        LaunchOptions::default(),
    )
    .expect("row-major layout launch");

    assert_eq!(
        g1.host_read(out1, ..),
        g2.host_read(out2, ..),
        "both layouts must sum to identical values"
    );
    (r1, r2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_needs_fewer_transactions() {
        let shape = UniformShape::square(32, 22, 9, 2);
        let (paper, row_major) = compare_sum_layouts(shape, 42);
        assert!(
            paper.counters.global_transactions < row_major.counters.global_transactions / 4,
            "coalescing advantage missing: {} vs {}",
            paper.counters.global_transactions,
            row_major.counters.global_transactions
        );
        // Same arithmetic on both sides.
        assert_eq!(paper.counters.flops, row_major.counters.flops);
    }

    #[test]
    fn modeled_time_favors_paper_layout() {
        let shape = UniformShape::square(32, 48, 9, 2);
        let (paper, row_major) = compare_sum_layouts(shape, 7);
        assert!(
            paper.timing.kernel_seconds <= row_major.timing.kernel_seconds,
            "paper {} vs row-major {}",
            paper.timing.kernel_seconds,
            row_major.timing.kernel_seconds
        );
    }
}
