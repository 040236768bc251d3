//! The `Mons` global-memory layout (paper §3.3).
//!
//! The monomial kernel writes the evaluated, coefficient-multiplied
//! monomials and monomial derivatives into `Mons`; the sum kernel reads
//! them back with perfectly coalesced accesses. The array represents
//! `n² + n` summations (the `n` polynomial values plus the `n × n`
//! Jacobian entries) of exactly `m` terms each:
//!
//! * element `j · (n² + n) + q` is the `j`-th additive term of combined
//!   polynomial `q`;
//! * `q ∈ 0..n` are the system values `f_q`;
//! * `q = n·(1 + v) + p` is `∂f_p/∂x_v` ("the second n elements are the
//!   derivatives of the first monomials with respect to x1, …").
//!
//! Slots for derivatives with respect to variables *absent* from a
//! monomial are never written; the buffer is zero-initialized once and
//! those `(n² + n)·m − n·m·(k + 1)` zero slots "represent the zero
//! monomial derivatives", letting kernel 3 add exactly `m` terms with
//! no branching.
//!
//! The layout generalizes to **rectangular row blocks** (a device's
//! share of a row-sharded system): with `rows` polynomials in `n`
//! variables there are `rows·n + rows` combined polynomials, and the
//! stride between consecutive derivative groups is `rows` instead of
//! `n`. Square systems (`rows == n`) reproduce the paper's indices
//! exactly.

use polygpu_complex::{Complex, Real};
use polygpu_polysys::SystemEval;

/// Unpack one point's summed outputs, `raw[base ..]` in combined
/// polynomial order, into the values and the `rows × n` Jacobian.
pub(crate) fn unpack_eval<R: Real>(
    raw: &[Complex<R>],
    base: usize,
    rows: usize,
    n: usize,
) -> SystemEval<R> {
    let mut eval = SystemEval::zeros_rect(rows, n);
    for q in 0..rows {
        eval.values[q] = raw[base + q_value(q)];
        for v in 0..n {
            eval.jacobian[(q, v)] = raw[base + q_deriv(rows, q, v)];
        }
    }
    eval
}

/// Combined-polynomial index of the system value `f_p`.
#[inline]
pub fn q_value(p: usize) -> usize {
    p
}

/// Combined-polynomial index of the Jacobian entry `∂f_p/∂x_v`, where
/// `rows` is the number of polynomials in the (possibly rectangular)
/// block — `n` for the paper's square systems.
#[inline]
pub fn q_deriv(rows: usize, p: usize, v: usize) -> usize {
    rows * (1 + v) + p
}

/// `Mons` element index for the `j`-th term of combined polynomial `q`
/// among `outputs` combined polynomials.
#[inline]
pub fn term_slot(outputs: usize, j: usize, q: usize) -> usize {
    debug_assert!(q < outputs);
    j * outputs + q
}

/// Decompose a combined-polynomial index back into what it denotes —
/// used by tests and by the host-side result unpacking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombinedIndex {
    /// `f_p`.
    Value { p: usize },
    /// `∂f_p/∂x_v`.
    Deriv { p: usize, v: usize },
}

#[inline]
pub fn decompose_q(rows: usize, q: usize) -> CombinedIndex {
    if q < rows {
        CombinedIndex::Value { p: q }
    } else {
        let r = q - rows;
        CombinedIndex::Deriv {
            p: r % rows,
            v: r / rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_polysys::UniformShape;

    fn shape() -> UniformShape {
        UniformShape::square(32, 22, 9, 2)
    }

    #[test]
    fn q_round_trips() {
        let n = 32;
        for p in 0..n {
            assert_eq!(decompose_q(n, q_value(p)), CombinedIndex::Value { p });
            for v in 0..n {
                assert_eq!(
                    decompose_q(n, q_deriv(n, p, v)),
                    CombinedIndex::Deriv { p, v }
                );
            }
        }
    }

    #[test]
    fn q_indices_are_a_bijection_onto_outputs() {
        let n = 7;
        let mut seen = vec![false; n * n + n];
        for p in 0..n {
            seen[q_value(p)] = true;
            for v in 0..n {
                seen[q_deriv(n, p, v)] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "some q never produced");
    }

    #[test]
    fn rectangular_q_indices_are_a_bijection_onto_outputs() {
        // A 3-row block of a 7-variable system: 3 + 3·7 combined
        // polynomials, every slot produced exactly once.
        let (rows, n) = (3usize, 7usize);
        let mut seen = vec![false; rows * n + rows];
        for p in 0..rows {
            assert!(!seen[q_value(p)]);
            seen[q_value(p)] = true;
            for v in 0..n {
                let q = q_deriv(rows, p, v);
                assert!(!seen[q], "q {q} produced twice");
                seen[q] = true;
                assert_eq!(decompose_q(rows, q), CombinedIndex::Deriv { p, v });
            }
        }
        assert!(seen.iter().all(|&b| b), "some q never produced");
    }

    #[test]
    fn kernel3_reads_are_unit_stride_in_q() {
        // For a fixed term j, consecutive q map to consecutive slots:
        // the coalescing property of kernel 3.
        let s = shape();
        for j in 0..s.m {
            for q in 0..s.outputs() - 1 {
                assert_eq!(
                    term_slot(s.outputs(), j, q + 1),
                    term_slot(s.outputs(), j, q) + 1
                );
            }
        }
    }

    #[test]
    fn kernel2_writes_are_scattered_across_terms() {
        // For one monomial (fixed j), different q are adjacent, but the
        // thread's k+1 writes go to q values n apart: the uncoalesced
        // side of the paper's §3.3 tradeoff.
        let outputs = shape().outputs();
        let a = term_slot(outputs, 3, q_deriv(32, 5, 0));
        let b = term_slot(outputs, 3, q_deriv(32, 5, 1));
        assert_eq!(b - a, 32);
    }
}
