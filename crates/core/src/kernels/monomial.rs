//! The monomial kernel: the paper's kernels 1 (common factors, §3.1)
//! and 2 (Speelpenning products, §3.2) fused into one launch.
//!
//! One thread per monomial, one block per `B` monomials of one point.
//! Each block runs four barrier-separated phases:
//!
//! 1. **Power table (§3.1, stage 1).** Each of the first `n` threads
//!    loads one variable of the block's point from global memory,
//!    coalesced, and computes its powers `x_v^0 … x_v^{d−1}`
//!    *sequentially* into the shared `Powers` table, row `r` at `r·n`
//!    (row-major by power, so concurrent writes land in different
//!    banks). Rows 0 (`x^0 = 1`) and 1 (`x^1`) are materialized so
//!    phase 2 is branch-free even when exponents are 1. The thread keeps
//!    the variable it loaded in a register.
//! 2. **Common factor (§3.1, stage 2).** Each thread multiplies the `k`
//!    table entries of its monomial's common factor
//!    `x_{i1}^{a1−1} · … · x_{ik}^{ak−1}` (`k − 1` multiplications) and
//!    keeps the product in a register. The paper's kernel 1 wrote it to
//!    global memory for kernel 2 to read back on the same
//!    thread-to-monomial map; here it never leaves the thread.
//! 3. **Variables (§3.2's memory consideration).** Once every common
//!    factor is formed the table is dead, and the staging threads write
//!    their variables from registers into shared `[0, n)`, where all of
//!    the block's threads read them.
//! 4. **Speelpenning product (§3.2).** Each thread computes the `k`
//!    partial derivatives of its Speelpenning product `x_{i1}···x_{ik}`
//!    in `3k − 6` multiplications (forward products in shared scratch
//!    `L2…Lk` past the variables, backward product in the register
//!    `Q`), multiplies them by the common factor (`k`), recovers the
//!    monomial value (1), multiplies all `k + 1` values by their
//!    coefficients from the derivative-major `Coeffs` array (`k + 1`,
//!    coalesced reads) and scatters them into the `Mons` array — the
//!    deliberately uncoalesced side of the §3.3 tradeoff that buys the
//!    sum kernel its coalesced reads.
//!
//! Per thread that is `(k − 1) + (5k − 4)` multiplications, plus
//! `n·(d − 2)` per block for the table; on uniform supports every lane
//! of a warp executes the same instruction sequence (`k` is fixed
//! system-wide), hence no divergence. A ragged monomial runs the same
//! program at its own `k_g` ([`MonomialKernel`]), so lanes diverge only
//! where those counts differ. The scratch of phase 4 reuses the table's
//! rows, so a block needs `max(d·n, n + B·(max_k + 1))` shared elements
//! — the larger of the two separate kernels' blocks, never their sum.
//!
//! **Why results cannot change.** Every thread performs the same
//! multiplications on the same operands in the same order as the two
//! separate kernels did: phase 2 is kernel 1's second stage and phase 4
//! is kernel 2's program. Only where the common factor waits between
//! them moved, from global memory to a register, and storing a value
//! does not round it. The outputs therefore stay bit-identical to the
//! sequential CPU algorithm ([`polygpu_polysys::AdEvaluator`]).
//!
//! The fusion removes one launch per evaluation, and one global store
//! plus one global load per monomial, plus kernel 2's second load of
//! the variables.
//!
//! **Ablation A1.** The paper argues that recomputing the power table
//! in every block beats the alternatives. The *table-free* common-factor
//! stage ([`GpuOptions::from_scratch_cf`](crate::pipeline::GpuOptions))
//! implements the rejected one of §3.1 — every thread exponentiates its
//! own variables from scratch, in registers — exhibiting the warp
//! divergence the paper predicts: "this would introduce branching in
//! execution of threads of a warp when monomials would have different
//! tuples of exponents". It stages the variables first (phase 3 moves
//! ahead of phase 2) and builds no table.

use crate::kernels::batch::BatchLayout;
use crate::layout::coeffs::coeff_index;
use crate::layout::mons::{q_deriv, q_value, term_slot};
use crate::layout::Supports;
use polygpu_complex::{Complex, Real};
use polygpu_gpusim::prelude::*;
use polygpu_polysys::SparseShape;

/// Shared elements of a monomial-kernel block: the `n` staged
/// variables plus `B·(k + 1)` Speelpenning scratch, or the `d × n`
/// power table if that is larger — phase 4 reuses the table's rows.
fn shared_elems(n: usize, k: usize, d: usize, block_dim: u32, table: bool) -> usize {
    let speelpenning = n + block_dim as usize * (k + 1);
    if table {
        speelpenning.max(d * n)
    } else {
        speelpenning
    }
}

/// The monomial kernel: kernels 1 and 2 of the paper fused into one
/// launch (the module docs describe the phases) — every monomial's
/// value and derivatives, times coefficients, scattered into `Mons`,
/// at every point. One program serves every kind of [`Supports`]: a
/// uniform encoding gives all threads the shape's `k`, a ragged
/// monomial brings its own `k_g` in its header.
///
/// A ragged monomial's operation order is the uniform program's at its
/// own `k_g`, and that of
/// [`SparseAdEvaluator`](polygpu_polysys::SparseAdEvaluator), the CPU
/// reference. A constant term (`k_g == 0`) stores its coefficient in
/// its value slot and no derivatives. `Mons` slots no monomial owns are
/// never written: they keep their zero initialization across
/// evaluations (the write pattern is a pure function of the supports),
/// so the sum over all `max_m` slots reads exactly the zero padding the
/// reference adds.
pub struct MonomialKernel {
    pub supports: Supports,
    /// Sizes of one point's problem; uniform supports have
    /// `max_m == m` and `max_k == k`.
    pub shape: SparseShape,
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

impl MonomialKernel {
    /// Phases 1–3: every thread's common factor, in a register (one for
    /// threads past the last monomial and for constant terms, which
    /// phase 4 never reads), with the block's point — at `vbase` in
    /// `vars` — staged in shared `[0, n)` for phase 4. The block serves
    /// monomials `first ..`, one per thread.
    fn common_factors<R: Real>(
        &self,
        blk: &mut BlockCtx<'_, Complex<R>>,
        vbase: usize,
        first: usize,
    ) -> Vec<Complex<R>> {
        let (n, total, vars) = (self.shape.n, self.shape.total_monomials, self.vars);
        let block_dim = blk.block_dim() as usize;
        let mut cf = vec![Complex::<R>::one(); block_dim];
        if self.from_scratch_cf {
            // Table-free: stage the variables first, then let every
            // thread exponentiate its own.
            blk.threads(|t| {
                let mut v = t.tid() as usize;
                while v < n {
                    let xv = t.gload(vars, vbase + v);
                    t.sstore(v, xv);
                    v += block_dim;
                }
            });
            blk.threads(|t| {
                let g = first + t.tid() as usize;
                if g >= total {
                    return;
                }
                let mut c = Complex::<R>::one();
                for j in 0..self.supports.factors(t, g) {
                    let (v, e_m1) = self.supports.read_factor(t, g, j);
                    let xv = t.sload(v);
                    let mut pw = Complex::<R>::one();
                    for _ in 0..e_m1 {
                        pw = t.mul(pw, xv);
                    }
                    c = t.mul(c, pw);
                }
                cf[t.tid() as usize] = c;
            });
            return cf;
        }
        let rows = self.shape.d as usize;

        // Phase 1: the power table; each staging thread keeps its
        // variables in registers.
        let mut x = vec![Complex::<R>::zero(); n];
        blk.threads(|t| {
            let mut v = t.tid() as usize;
            while v < n {
                let xv = t.gload(vars, vbase + v);
                x[v] = xv;
                t.sstore(v, Complex::one());
                if rows > 1 {
                    t.sstore(n + v, xv);
                    let mut cur = xv;
                    for r in 2..rows {
                        cur = t.mul(cur, xv);
                        t.sstore(r * n + v, cur);
                    }
                }
                v += block_dim;
            }
        });

        // Phase 2: one common factor per thread, into its register.
        blk.threads(|t| {
            let g = first + t.tid() as usize;
            if g >= total {
                return;
            }
            let k = self.supports.factors(t, g);
            if k == 0 {
                return;
            }
            let (v0, e0) = self.supports.read_factor(t, g, 0);
            let mut c = t.sload(e0 * n + v0);
            for j in 1..k {
                let (v, e) = self.supports.read_factor(t, g, j);
                let p = t.sload(e * n + v);
                c = t.mul(c, p);
            }
            cf[t.tid() as usize] = c;
        });

        // Phase 3: the table is dead; the variables take its first row.
        blk.threads(|t| {
            let mut v = t.tid() as usize;
            while v < n {
                t.sstore(v, x[v]);
                v += block_dim;
            }
        });
        cf
    }
}

impl<R: Real> Kernel<Complex<R>> for MonomialKernel {
    fn name(&self) -> &str {
        "monomial"
    }

    /// `max(d·n, n + B·(max_k + 1))`: the power table, or the staged
    /// variables plus Speelpenning scratch that reuse its rows (the
    /// table-free stage needs only the latter).
    fn shared_elems(&self, block_dim: u32) -> usize {
        let shape = self.shape;
        shared_elems(
            shape.n,
            shape.max_k,
            shape.d as usize,
            block_dim,
            !self.from_scratch_cf,
        )
    }

    // Mirrors the paper-notation loops of §3.2.
    #[allow(clippy::needless_range_loop)]
    fn run_block(&self, blk: &mut BlockCtx<'_, Complex<R>>) {
        let shape = self.shape;
        let (n, max_k) = (shape.n, shape.max_k);
        let total = shape.total_monomials;
        let outputs = shape.outputs();
        let block_dim = blk.block_dim() as usize;
        // Point-major grid decode; uniform per block, so not traced
        // (on hardware this is hoisted into two registers).
        let point = (blk.block_id() / self.layout.mon_blocks) as usize;
        let chunk = (blk.block_id() % self.layout.mon_blocks) as usize;
        let mbase = point * self.layout.mons_stride;

        // Phases 1-3: common factors into registers, this point's
        // variables into shared memory.
        let cfs = self.common_factors(blk, point * self.layout.vars_stride, chunk * block_dim);

        // Phase 4: one monomial per thread, exactly the single-point
        // program with offset global accesses.
        blk.threads(|t| {
            let tid = t.tid() as usize;
            let g = chunk * block_dim + tid;
            if g >= total {
                return;
            }
            let (k, p, j) = self.supports.owner(t, g);
            if k == 0 {
                // Constant term: the value slot takes the coefficient
                // verbatim, no derivatives.
                let c = t.gload(self.coeffs, coeff_index(total, max_k, g));
                t.gstore(self.mons, mbase + term_slot(outputs, j, q_value(p)), c);
                return;
            }

            let mut vs = [0usize; 256];
            for i in 0..k {
                vs[i] = self.supports.read_position(t, g, i);
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

            let c = t.gload(self.coeffs, coeff_index(total, max_k, g));
            let lv = t.sload(l(k + 1));
            let val = t.mul(lv, c);
            t.gstore(self.mons, mbase + term_slot(outputs, j, q_value(p)), val);
            for i in 0..k {
                let c = t.gload(self.coeffs, coeff_index(total, i, g));
                let d = t.sload(l(i + 1));
                let dv = t.mul(d, c);
                // Derivative groups stride by the block's row count
                // (== n for square systems, the paper's layout).
                t.gstore(
                    self.mons,
                    mbase + term_slot(outputs, j, q_deriv(shape.rows, p, vs[i])),
                    dv,
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::coeffs::build_coeffs;
    use crate::layout::encoding::{EncodedSupports, EncodingKind};
    use polygpu_complex::C64;
    use polygpu_polysys::cost;
    use polygpu_polysys::{random_point, random_system, BenchmarkParams, System};

    struct Rig {
        dev: DeviceSpec,
        sys: System<f64>,
        x: Vec<C64>,
        g: GlobalMem<C64>,
        cm: ConstantMemory,
        kernel: MonomialKernel,
    }

    fn rig(params: &BenchmarkParams, from_scratch_cf: bool) -> Rig {
        let dev = DeviceSpec::tesla_c2050();
        let sys = random_system::<f64>(params);
        let mut cm = ConstantMemory::new(&dev);
        let enc = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Direct).unwrap();
        let shape = sys.sparse_shape();
        let mut g = GlobalMem::new();
        let vars = g.alloc(shape.n);
        let coeffs = g.alloc(shape.total_monomials * (shape.max_k + 1));
        let mons = g.alloc(shape.mons_len());
        let x = random_point::<f64>(shape.n, 123);
        g.host_write(vars, 0, &x);
        g.host_write(coeffs, 0, &build_coeffs(&sys, &shape));
        // One point at offset zero: the paper's single-point launch.
        let layout = BatchLayout::new(&shape, 1, 32, 16, 128);
        Rig {
            dev,
            sys,
            x,
            g,
            cm,
            kernel: MonomialKernel {
                supports: Supports::Uniform(enc),
                shape,
                vars,
                coeffs,
                mons,
                layout,
                from_scratch_cf,
            },
        }
    }

    fn run(rig: &mut Rig) -> LaunchReport {
        let cfg = LaunchConfig::cover(rig.kernel.shape.total_monomials, 32);
        launch(
            &rig.dev,
            &rig.kernel,
            cfg,
            &mut rig.g,
            &rig.cm,
            LaunchOptions::default(),
        )
        .unwrap()
    }

    /// Every value and derivative slot of `Mons` against `c·x^a` and its
    /// partials, computed directly.
    fn assert_mons_correct(rig: &Rig, tol: f64) {
        let (n, outputs) = (rig.kernel.shape.n, rig.kernel.shape.outputs());
        let x = &rig.x;
        let mons = rig.g.host_read(rig.kernel.mons, ..);
        for (p, poly) in rig.sys.polys().iter().enumerate() {
            for (j, term) in poly.terms().iter().enumerate() {
                let mut want = term.coeff;
                for &(v, e) in term.monomial.factors() {
                    want *= x[v as usize].powi(e as i32);
                }
                let got = mons[term_slot(outputs, j, q_value(p))];
                assert!((got - want).abs() < tol, "value ({p},{j})");
                for &(v, e) in term.monomial.factors() {
                    let mut dwant = term.coeff.scale(e as f64);
                    for &(w, f) in term.monomial.factors() {
                        let fe = if w == v { f - 1 } else { f };
                        dwant *= x[w as usize].powi(fe as i32);
                    }
                    let got = mons[term_slot(outputs, j, q_deriv(n, p, v as usize))];
                    assert!((got - dwant).abs() < tol, "deriv ({p},{j},{v})");
                }
            }
        }
    }

    #[test]
    fn evaluates_monomials_divergence_free_at_degree_four() {
        let mut r = rig(
            &BenchmarkParams {
                n: 32,
                m: 4,
                k: 9,
                d: 4,
                seed: 3,
            },
            false,
        );
        let report = run(&mut r);
        assert_eq!(
            report.counters.divergent_segments, 0,
            "paper's design is uniform"
        );
        assert_mons_correct(&r, 1e-12);
    }

    #[test]
    fn mons_gets_monomial_values_and_derivatives() {
        let mut r = rig(
            &BenchmarkParams {
                n: 6,
                m: 3,
                k: 3,
                d: 4,
                seed: 31,
            },
            false,
        );
        run(&mut r);
        assert_mons_correct(&r, 1e-12);
    }

    #[test]
    fn multiplication_count_matches_model() {
        // Table: n·(d − 2) per block; per monomial (k − 1) for the
        // common factor plus 5k − 4 for the Speelpenning program.
        let mut r = rig(
            &BenchmarkParams {
                n: 32,
                m: 2, // 64 monomials, 2 blocks
                k: 5,
                d: 6,
                seed: 9,
            },
            false,
        );
        let report = run(&mut r);
        assert_eq!(r.kernel.shape.d, 6);
        let expected_muls = 2 * cost::power_stage_muls_per_block(32, 6)
            + 64 * (cost::common_factor_muls(5) + cost::kernel2_muls(5));
        assert_eq!(expected_muls, 2 * 32 * 4 + 64 * (4 + 21));
        // 6 f64 flops per complex multiplication.
        assert_eq!(report.counters.flops, expected_muls * 6);
    }

    #[test]
    fn per_thread_multiplications_are_k_minus_1_plus_5k_minus_4() {
        for k in [2usize, 3, 5, 9, 16] {
            let mut r = rig(
                &BenchmarkParams {
                    n: 32,
                    m: 1, // one full block of monomials
                    k,
                    d: 3,
                    seed: k as u64,
                },
                false,
            );
            let rep = run(&mut r);
            assert_eq!(r.kernel.shape.d, 3, "k = {k}");
            // One block: 32 table multiplications (d = 3), then 32
            // threads x ((k − 1) + (5k − 4)) complex muls, 6 flops each.
            let expect = (32 + 32 * (k as u64 - 1 + cost::kernel2_muls(k))) * 6;
            assert_eq!(
                rep.counters.flops, expect,
                "k = {k}: flops {} != {}",
                rep.counters.flops, expect
            );
            assert_eq!(rep.counters.divergent_segments, 0, "k = {k}");
        }
    }

    #[test]
    fn table_free_stage_matches_values_but_diverges() {
        let params = BenchmarkParams {
            n: 16,
            m: 4,
            k: 4,
            d: 5,
            seed: 21,
        };
        let mut r = rig(&params, true);
        let report = run(&mut r);
        // Same math, different operation order in the powers: equal to
        // rounding.
        assert_mons_correct(&r, 1e-12);
        // Random exponents in 1..=5 across a warp: divergence is
        // practically certain at this size.
        assert!(
            report.counters.divergent_segments > 0,
            "expected the paper's predicted divergence"
        );
    }

    #[test]
    fn table_beats_table_free_on_multiplications_at_high_degree() {
        // The design-choice ablation (A1) in miniature: with d large and
        // exponents varied, the table amortizes exponentiation.
        let params = BenchmarkParams {
            n: 32,
            m: 16,
            k: 8,
            d: 12,
            seed: 4,
        };
        let table = run(&mut rig(&params, false));
        let scratch = run(&mut rig(&params, true));
        assert!(
            scratch.counters.flops > table.counters.flops,
            "from-scratch redoes exponentiations: {} vs {}",
            scratch.counters.flops,
            table.counters.flops
        );
    }

    #[test]
    fn d1_systems_have_unit_common_factors() {
        // All exponents are 1: both common-factor stages form exactly
        // one (a product of ones from the table's row 0, or of empty
        // powers), so their Mons agree bit for bit, and each value slot
        // is the coefficient times the plain product.
        let params = BenchmarkParams {
            n: 8,
            m: 2,
            k: 3,
            d: 1,
            seed: 2,
        };
        let mut table = rig(&params, false);
        let mut scratch = rig(&params, true);
        run(&mut table);
        run(&mut scratch);
        assert_eq!(
            table.g.host_read(table.kernel.mons, ..),
            scratch.g.host_read(scratch.kernel.mons, ..)
        );
        assert_mons_correct(&table, 1e-13);
    }

    #[test]
    fn zero_slots_stay_zero() {
        let mut r = rig(
            &BenchmarkParams {
                n: 6,
                m: 3,
                k: 2, // k << n: most derivative slots must remain zero
                d: 2,
                seed: 5,
            },
            false,
        );
        run(&mut r);
        let outputs = r.kernel.shape.outputs();
        let mons = r.g.host_read(r.kernel.mons, ..);
        let mut zero_slots = 0;
        for (p, poly) in r.sys.polys().iter().enumerate() {
            for (j, term) in poly.terms().iter().enumerate() {
                for v in 0..6u16 {
                    if !term.monomial.contains(v) {
                        let got = mons[term_slot(outputs, j, q_deriv(6, p, v as usize))];
                        assert_eq!(got, C64::zero(), "slot ({p},{j},{v}) must stay zero");
                        zero_slots += 1;
                    }
                }
            }
        }
        // n*m*(n-k) zero derivative slots.
        assert_eq!(zero_slots, 6 * 3 * (6 - 2));
    }

    #[test]
    fn coefficient_reads_are_coalesced_and_mons_writes_are_not() {
        // The paper's 1,024-monomial configuration: each warp covers
        // exactly one polynomial (m = 32), so every Mons store slot is
        // 32 single-lane transactions while every load slot (the
        // variables once per block, the coefficients) coalesces into 4.
        // The common factor no longer crosses global memory.
        let mut r = rig(
            &BenchmarkParams {
                n: 32,
                m: 32,
                k: 9,
                d: 2,
                seed: 1,
            },
            false,
        );
        let rep = run(&mut r);
        let warps = 32u64; // 1024 monomials / 32 lanes, one warp a block
        let per_warp_loads = 1 + 10; // variables + (k+1) coeffs
        let per_warp_stores = 10u64; // k+1 scattered Mons writes
        let expect = warps * (per_warp_loads * 4 + per_warp_stores * 32);
        assert_eq!(
            rep.counters.global_transactions, expect,
            "coalescing accounting changed: {} vs {}",
            rep.counters.global_transactions, expect
        );
        assert_eq!(rep.counters.divergent_segments, 0);
    }

    #[test]
    fn shared_block_is_the_larger_of_table_and_scratch() {
        // Kernel 2's block dominates at low degree, the table at high.
        assert_eq!(shared_elems(32, 9, 2, 32, true), 32 + 32 * 10);
        assert_eq!(shared_elems(32, 2, 12, 32, true), 12 * 32);
        assert_eq!(shared_elems(32, 2, 12, 32, false), 32 + 32 * 3);
    }
}
