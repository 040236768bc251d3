//! The `Coeffs` global-memory layout (paper §3.3).
//!
//! All `n·m·(k+1)` coefficients of the system *and its Jacobian* are
//! stored derivative-portion-major so that warp `j`-th-coefficient
//! reads are coalesced:
//!
//! * portion `j ∈ 0..k`: the coefficient of the derivative of monomial
//!   `g` (in `Sm` order) with respect to its `j`-th *own* variable —
//!   numerically `c_g · a_j` where `a_j` is that variable's exponent
//!   (the factor is folded in host-side because "the information about
//!   positions of variables and their exponents does not change along
//!   the path tracking");
//! * portion `k`: the plain coefficients `c_g` of the system.
//!
//! Element index: `portion · (n·m) + g`.

use polygpu_complex::{Complex, Real};
use polygpu_polysys::{SparseShape, System};

/// Index of the coefficient for derivative portion `j < k_g` (or the
/// value portion `max_k`) of monomial `g` among `total` monomials.
#[inline]
pub fn coeff_index(total: usize, portion: usize, g: usize) -> usize {
    debug_assert!(g < total);
    portion * total + g
}

/// Build the `Coeffs` array of any system: the layout above with
/// `max_k + 1` portions, which for a uniform system is exactly the
/// paper's `n·m·(k+1)` array. A ragged monomial with `k_g` variables
/// fills portions `0..k_g` (derivative coefficients `c · a_j`) and the
/// value portion `max_k`; the portions in between stay zero and are
/// never read.
///
/// Returns a vector of length `total · (max_k + 1)`.
pub fn build_coeffs<R: Real>(system: &System<R>, shape: &SparseShape) -> Vec<Complex<R>> {
    let total = shape.total_monomials;
    let mut coeffs = vec![Complex::<R>::zero(); total * (shape.max_k + 1)];
    let mut g = 0usize;
    for poly in system.polys() {
        for term in poly.terms() {
            for (j, &(_, e)) in term.monomial.factors().iter().enumerate() {
                coeffs[coeff_index(total, j, g)] = term.coeff.scale(R::from_u32(e as u32));
            }
            coeffs[coeff_index(total, shape.max_k, g)] = term.coeff;
            g += 1;
        }
    }
    coeffs
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;
    use polygpu_polysys::{random_system, BenchmarkParams};

    #[test]
    fn layout_places_value_coeffs_last() {
        let params = BenchmarkParams {
            n: 4,
            m: 3,
            k: 2,
            d: 3,
            seed: 11,
        };
        let sys = random_system::<f64>(&params);
        let shape = sys.uniform_shape().unwrap();
        let coeffs = build_coeffs(&sys, &sys.sparse_shape());
        assert_eq!(coeffs.len(), 4 * 3 * 3);
        let total = shape.total_monomials();
        let mut g = 0;
        for poly in sys.polys() {
            for term in poly.terms() {
                // value portion holds the raw coefficient
                assert_eq!(coeffs[coeff_index(total, shape.k, g)], term.coeff);
                // derivative portions hold c * a_j
                for (j, &(_, e)) in term.monomial.factors().iter().enumerate() {
                    let expect = term.coeff.scale(e as f64);
                    assert_eq!(coeffs[j * total + g], expect, "monomial {g} portion {j}");
                }
                g += 1;
            }
        }
    }

    #[test]
    fn derivative_coefficients_fold_exponent() {
        use polygpu_polysys::{Monomial, Polynomial, System, Term};
        // f0 = 2 * x0^3 * x1 : d/dx0 coefficient must be 6, d/dx1 must be 2.
        let p0 = Polynomial::new(vec![Term {
            coeff: C64::from_f64(2.0, 0.0),
            monomial: Monomial::new(vec![(0, 3), (1, 1)]).unwrap(),
        }]);
        let p1 = Polynomial::new(vec![Term {
            coeff: C64::from_f64(5.0, 0.0),
            monomial: Monomial::new(vec![(0, 1), (1, 2)]).unwrap(),
        }]);
        let sys = System::new(2, vec![p0, p1]).unwrap();
        let total = sys.uniform_shape().unwrap().total_monomials();
        let coeffs = build_coeffs(&sys, &sys.sparse_shape());
        // monomial g = 0 (poly 0)
        assert_eq!(coeffs[coeff_index(total, 0, 0)], C64::from_f64(6.0, 0.0));
        assert_eq!(coeffs[coeff_index(total, 1, 0)], C64::from_f64(2.0, 0.0));
        assert_eq!(coeffs[coeff_index(total, 2, 0)], C64::from_f64(2.0, 0.0));
        // monomial g = 1 (poly 1): d/dx0 -> 5, d/dx1 -> 10, value -> 5
        assert_eq!(coeffs[coeff_index(total, 0, 1)], C64::from_f64(5.0, 0.0));
        assert_eq!(coeffs[coeff_index(total, 1, 1)], C64::from_f64(10.0, 0.0));
        assert_eq!(coeffs[coeff_index(total, 2, 1)], C64::from_f64(5.0, 0.0));
    }

    #[test]
    fn consecutive_monomials_are_adjacent_within_a_portion() {
        // The coalescing property: for fixed portion, monomial index g
        // maps to consecutive elements.
        let total = 32 * 22;
        for portion in 0..=9 {
            for g in 0..total - 1 {
                assert_eq!(
                    coeff_index(total, portion, g + 1),
                    coeff_index(total, portion, g) + 1
                );
            }
        }
    }
}
