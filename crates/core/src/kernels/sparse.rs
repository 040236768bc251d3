//! The evaluation kernels for **ragged** systems on the packed
//! exponent-key encoding, at `P` points.
//!
//! Each kernel is the dense batch kernel with the uniform `k`/`m`
//! replaced by the per-monomial `k_g` (from the packed header) and the
//! zero-padded `max_m`-slot `Mons` layout. The floating-point operation
//! order per monomial is **identical** to the dense kernels' — and to
//! [`SparseAdEvaluator`](polygpu_polysys::SparseAdEvaluator), the CPU
//! reference — so sparse results are bit-for-bit equal to the reference
//! on every backend. Constant terms (`k_g == 0`) contribute their
//! coefficient to the value slot directly and no derivative slots.
//!
//! `Mons` slots a monomial does not own are never written: they keep
//! their zero initialization across evaluations (the write pattern is a
//! pure function of the supports), so the branch-free sum over all
//! `max_m` slots reads exactly the zero padding the CPU reference adds.

use crate::kernels::batch::BatchLayout;
use crate::kernels::monomial;
use crate::layout::coeffs::sparse_coeff_index;
use crate::layout::packed::PackedSupports;
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_polysys::SparseShape;

/// Slot of monomial-slot `j`'s contribution to output `q` in a point's
/// sparse `Mons` region.
#[inline]
fn term_slot(outputs: usize, j: usize, q: usize) -> usize {
    j * outputs + q
}

#[inline]
fn q_value(p: usize) -> usize {
    p
}

#[inline]
fn q_deriv(rows: usize, p: usize, v: usize) -> usize {
    rows * (1 + v) + p
}

/// The sparse monomial kernel: the dense fused program
/// ([`crate::kernels::monomial`]) with per-monomial `k`.
pub struct SparseMonomialKernel {
    pub sup: PackedSupports,
    pub vars: BufferId,
    pub coeffs: BufferId,
    pub mons: BufferId,
    pub layout: BatchLayout,
}

impl<R: Real> Kernel<Complex<R>> for SparseMonomialKernel {
    fn name(&self) -> &str {
        "sparse_monomial"
    }

    /// The `d × n` power table, or `n` staged variables plus
    /// `B·(max_k + 1)` per-thread scratch if that is larger.
    fn shared_elems(&self, block_dim: u32) -> usize {
        let shape = self.sup.shape;
        monomial::shared_elems(shape.n, shape.max_k, shape.d as usize, block_dim, true)
    }

    #[allow(clippy::needless_range_loop)]
    fn run_block(&self, blk: &mut BlockCtx<'_, Complex<R>>) {
        let shape = self.sup.shape;
        let n = shape.n;
        let max_k = shape.max_k;
        let total = shape.total_monomials;
        let outputs = shape.outputs();
        let block_dim = blk.block_dim() as usize;
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

        // Phases 1-3, exactly as the dense kernel runs them; the
        // factor count comes from the monomial's header, and a constant
        // term keeps the unit common factor phase 4 never reads.
        let cfs = monomial::common_factor_phases(
            blk,
            work,
            Some(shape.d as usize),
            |t, g| self.sup.read_header(t, g).0,
            |t, g, j| self.sup.read_factor(t, g, j),
        );

        // Phase 4: one monomial per thread — the dense program with
        // this monomial's own k.
        blk.threads(|t| {
            let tid = t.tid() as usize;
            let g = chunk * block_dim + tid;
            if g >= total {
                return;
            }
            let (k, p, j) = self.sup.read_header(t, g);
            if k == 0 {
                // Constant term: value slot takes the coefficient
                // verbatim, no derivatives.
                let c = t.gload(self.coeffs, sparse_coeff_index(total, max_k, g));
                t.gstore(self.mons, mbase + term_slot(outputs, j, q_value(p)), c);
                return;
            }

            let mut vs = [0usize; 256];
            for i in 0..k {
                vs[i] = self.sup.read_position(t, g, i);
            }
            let lbase = n + tid * (max_k + 1);
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

            let c = t.gload(self.coeffs, sparse_coeff_index(total, max_k, g));
            let lv = t.sload(l(k + 1));
            let val = t.mul(lv, c);
            t.gstore(self.mons, mbase + term_slot(outputs, j, q_value(p)), val);
            for i in 0..k {
                let c = t.gload(self.coeffs, sparse_coeff_index(total, i, g));
                let d = t.sload(l(i + 1));
                let dv = t.mul(d, c);
                t.gstore(
                    self.mons,
                    mbase + term_slot(outputs, j, q_deriv(shape.rows, p, vs[i])),
                    dv,
                );
            }
        });
    }
}

/// The sparse sum kernel: branch-free sums over all `max_m` slots (zero
/// padding included — those additions matter bitwise).
pub struct SparseSumKernel {
    pub shape: SparseShape,
    pub mons: BufferId,
    pub out: BufferId,
    pub layout: BatchLayout,
}

impl<R: Real> Kernel<Complex<R>> for SparseSumKernel {
    fn name(&self) -> &str {
        "sparse_sum"
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
