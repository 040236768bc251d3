//! Polynomial systems, the uniform benchmark shape, and the evaluator
//! interface shared by CPU and GPU implementations.

use crate::monomial::Exp;
use crate::polynomial::Polynomial;
use polygpu_complex::{CMat, Complex, Real};
use std::fmt;

/// A system `f(x) = 0` of polynomials in `n` variables.
///
/// [`System::new`] builds the paper's **square** system (`n`
/// polynomials in `n` variables — what the solvers require);
/// [`System::rectangular`] admits any number of rows in `n` variables,
/// which is how a *row shard* of a square system travels to one device
/// of a row-sharded cluster (each device encodes only its rows'
/// supports). [`System::row_block`] cuts those shards.
#[derive(Debug, Clone, PartialEq)]
pub struct System<R> {
    n: usize,
    polys: Vec<Polynomial<R>>,
}

/// Errors constructing or validating a [`System`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemError {
    /// Number of polynomials differs from the declared dimension.
    NotSquare { n: usize, polys: usize },
    /// A polynomial references a variable outside `0..n`.
    VariableOutOfRange { poly: usize, var: usize, n: usize },
    /// The system does not have the uniform `(m, k, d)` shape the GPU
    /// pipeline requires (the paper's regularity assumption).
    NotUniform(String),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::NotSquare { n, polys } => {
                write!(
                    f,
                    "system declared dimension {n} but has {polys} polynomials"
                )
            }
            SystemError::VariableOutOfRange { poly, var, n } => {
                write!(f, "polynomial {poly} uses x{var} outside dimension {n}")
            }
            SystemError::NotUniform(msg) => write!(f, "system is not uniform: {msg}"),
        }
    }
}

impl std::error::Error for SystemError {}

/// The regular benchmark shape of the paper's §2: every polynomial has
/// exactly `m` monomials, every monomial exactly `k` variables, and no
/// variable exceeds degree `d`.
///
/// Generalized to **rectangular** row blocks: `rows` is the number of
/// polynomials, `n` the number of variables. The paper's square systems
/// have `rows == n`; a row shard of a square system keeps `n` and
/// carries only its own `rows`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformShape {
    /// Number of variables (the dimension points live in).
    pub n: usize,
    /// Number of polynomials — `n` for a square system, the shard's
    /// row count for a row block.
    pub rows: usize,
    /// Monomials per polynomial.
    pub m: usize,
    /// Variables per monomial.
    pub k: usize,
    /// Maximal exponent of any variable in any monomial.
    pub d: Exp,
}

impl UniformShape {
    /// A square shape (`rows == n`) — the paper's benchmark family.
    pub fn square(n: usize, m: usize, k: usize, d: Exp) -> Self {
        UniformShape {
            n,
            rows: n,
            m,
            k,
            d,
        }
    }

    /// Whether this shape is square (`rows == n`).
    pub fn is_square(&self) -> bool {
        self.rows == self.n
    }

    /// Total number of monomials in the system: `rows·m`.
    pub fn total_monomials(&self) -> usize {
        self.rows * self.m
    }

    /// Total number of values produced per evaluation: the `rows`
    /// polynomial values plus the `rows × n` Jacobian.
    pub fn outputs(&self) -> usize {
        self.rows * self.n + self.rows
    }
}

impl<R: Real> System<R> {
    pub fn new(n: usize, polys: Vec<Polynomial<R>>) -> Result<Self, SystemError> {
        if polys.len() != n {
            return Err(SystemError::NotSquare {
                n,
                polys: polys.len(),
            });
        }
        System::rectangular(n, polys)
    }

    /// A (possibly) rectangular system: any number of polynomials in
    /// `n` variables. Row shards of a square system are built this way;
    /// the solvers still require square systems, but evaluators accept
    /// rectangular ones (values of length [`System::rows`], Jacobian
    /// `rows × n`).
    pub fn rectangular(n: usize, polys: Vec<Polynomial<R>>) -> Result<Self, SystemError> {
        for (p, poly) in polys.iter().enumerate() {
            let dim = poly.min_dimension();
            if dim > n {
                let var = poly
                    .terms()
                    .iter()
                    .flat_map(|t| t.monomial.factors())
                    .map(|&(v, _)| v as usize)
                    .max()
                    .unwrap_or(0);
                return Err(SystemError::VariableOutOfRange { poly: p, var, n });
            }
        }
        Ok(System { n, polys })
    }

    /// The rectangular subsystem holding the polynomials whose indices
    /// appear in `rows`, in the given order — one device's share under
    /// row sharding. Panics if an index is out of range.
    pub fn row_block(&self, rows: &[usize]) -> System<R> {
        let polys = rows.iter().map(|&r| self.polys[r].clone()).collect();
        System { n: self.n, polys }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of polynomials (equals [`System::dim`] for square
    /// systems).
    #[inline]
    pub fn rows(&self) -> usize {
        self.polys.len()
    }

    /// Whether the system is square (`rows == dim`), as the solvers
    /// require.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.polys.len() == self.n
    }

    #[inline]
    pub fn polys(&self) -> &[Polynomial<R>] {
        &self.polys
    }

    /// Check the paper's regularity assumptions and return the shape.
    pub fn uniform_shape(&self) -> Result<UniformShape, SystemError> {
        let first = self
            .polys
            .first()
            .ok_or_else(|| SystemError::NotUniform("empty system".into()))?;
        let m = first.num_terms();
        let k = first
            .terms()
            .first()
            .map(|t| t.monomial.num_vars())
            .ok_or_else(|| SystemError::NotUniform("polynomial with no terms".into()))?;
        let mut d: Exp = 0;
        for (p, poly) in self.polys.iter().enumerate() {
            if poly.num_terms() != m {
                return Err(SystemError::NotUniform(format!(
                    "polynomial {p} has {} monomials, expected m = {m}",
                    poly.num_terms()
                )));
            }
            for (j, t) in poly.terms().iter().enumerate() {
                if t.monomial.num_vars() != k {
                    return Err(SystemError::NotUniform(format!(
                        "monomial {j} of polynomial {p} has {} variables, expected k = {k}",
                        t.monomial.num_vars()
                    )));
                }
                d = d.max(t.monomial.max_exponent());
            }
        }
        Ok(UniformShape {
            n: self.n,
            rows: self.polys.len(),
            m,
            k,
            d,
        })
    }

    /// Map coefficients into another precision.
    pub fn convert<S: Real>(&self) -> System<S> {
        System {
            n: self.n,
            polys: self.polys.iter().map(|p| p.convert()).collect(),
        }
    }

    /// A stable 64-bit hash of the system's **encoding-relevant
    /// structure**: the dimension, the row count, and — per polynomial,
    /// in row order — each monomial's sorted `(variable, exponent)`
    /// factors. This is exactly the information a device encoding
    /// (supports + positions + the `(k + 1)`-wide coefficient layout)
    /// derives from, and *nothing else*:
    ///
    /// * **coefficient values are excluded** — two systems with the
    ///   same supports but different coefficients hash equal (their
    ///   encoded support arrays are byte-identical; only the
    ///   coefficient upload differs), so a cache keyed by this hash
    ///   must still compare the systems for full equality before
    ///   reusing a coefficient upload;
    /// * **row order is included** — permuting the polynomials changes
    ///   the hash, because the encoded layout strides by row;
    /// * the hash is a pure function of the structure: it is identical
    ///   across runs, platforms and coefficient precisions
    ///   (`System<f64>` and its `convert::<Dd>()` image hash equal).
    ///
    /// Algorithm (documented so the value is stable forever): FNV-1a
    /// over the little-endian `u64` stream
    /// `n, rows, [m_i, [k_ij, [(var, exp)…]…]…]`. Not cryptographic —
    /// collisions are possible and callers keying storage on it must
    /// verify equality on hit.
    pub fn support_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.n as u64);
        eat(self.polys.len() as u64);
        for poly in &self.polys {
            eat(poly.num_terms() as u64);
            for t in poly.terms() {
                eat(t.monomial.num_vars() as u64);
                // Monomial factors are stored sorted by variable, so
                // the stream is canonical per monomial.
                for &(v, e) in t.monomial.factors() {
                    eat(u64::from(v));
                    eat(u64::from(e));
                }
            }
        }
        h
    }

    /// [`System::support_hash`] extended with a caller-supplied tag —
    /// the hook residency caches use to keep *distinct encodings of the
    /// same support* apart (a dense `Direct` upload and a packed-key
    /// upload are different constant-memory residents). The tag is
    /// folded into the FNV stream after the support bytes, so any tag
    /// (including 0) yields a hash distinct from the untagged one, and
    /// different tags yield different hashes for the same support.
    pub fn support_hash_tagged(&self, tag: u64) -> u64 {
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.support_hash();
        for b in tag.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }
}

impl<R: Real> fmt::Display for System<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.polys.iter().enumerate() {
            writeln!(f, "f{i} = {p}")?;
        }
        Ok(())
    }
}

/// The result of evaluating a system and its Jacobian at one point.
///
/// For a square system `values` has length `n` and the Jacobian is
/// `n × n`; for a rectangular row block they are `rows` and `rows × n`.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemEval<R> {
    /// `f_i(x)` for `i in 0..rows`.
    pub values: Vec<Complex<R>>,
    /// `J[(i, j)] = ∂f_i/∂x_j (x)`.
    pub jacobian: CMat<R>,
}

impl<R: Real> SystemEval<R> {
    pub fn zeros(n: usize) -> Self {
        SystemEval::zeros_rect(n, n)
    }

    /// A zeroed evaluation of a rectangular row block: `rows` values
    /// and a `rows × n` Jacobian.
    pub fn zeros_rect(rows: usize, n: usize) -> Self {
        SystemEval {
            values: vec![Complex::zero(); rows],
            jacobian: CMat::zeros(rows, n),
        }
    }

    /// Max-norm of the residual vector.
    pub fn residual_norm(&self) -> R {
        let mut m = R::zero();
        for v in &self.values {
            m = m.max_val(v.abs());
        }
        m
    }

    /// Largest absolute difference against another evaluation (both
    /// values and Jacobian entries) — used by equivalence tests.
    pub fn max_difference(&self, other: &SystemEval<R>) -> R {
        let mut m = R::zero();
        for (a, b) in self.values.iter().zip(&other.values) {
            m = m.max_val((*a - *b).abs());
        }
        for (a, b) in self
            .jacobian
            .as_slice()
            .iter()
            .zip(other.jacobian.as_slice())
        {
            m = m.max_val((*a - *b).abs());
        }
        m
    }
}

/// Anything that can evaluate a system and its Jacobian at a point:
/// the naive CPU oracle, the paper's sequential AD algorithm, or the
/// simulated-GPU pipeline. `&mut self` lets implementations keep scratch
/// buffers and accumulate performance counters.
pub trait SystemEvaluator<R: Real> {
    /// Dimension `n` of the system.
    fn dim(&self) -> usize;

    /// Evaluate values and Jacobian at `x` (`x.len() == self.dim()`).
    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R>;

    /// Short name for reports.
    fn name(&self) -> &str {
        "evaluator"
    }
}

/// An evaluator that can amortize fixed costs (kernel launches, host to
/// device transfers) across **many points at once**. The contract mirrors
/// [`SystemEvaluator::evaluate`] point-wise: `evaluate_batch(points)[i]`
/// must equal `evaluate(&points[i])` **bit for bit** — batching is a
/// performance transformation, never a numerical one.
///
/// # Capacity contract
///
/// Implementations size their resources (e.g. device buffers) for at
/// most [`BatchSystemEvaluator::max_batch`] points; one call must
/// satisfy `1 <= points.len() <= max_batch()` with every point of
/// dimension [`SystemEvaluator::dim`]. A violating call is a **caller
/// bug**: `evaluate_batch` may panic on it. Implementations that can
/// report violations gracefully expose a `try_`-prefixed variant
/// returning a typed error (e.g. `BatchGpuEvaluator::try_evaluate_batch`
/// and `ShardedBatchEvaluator::try_evaluate_batch`); drivers that loop
/// batches of caller-controlled size should prefer those. Callers with
/// more than `max_batch()` points split into chunks (as the path-queue
/// tracker does).
pub trait BatchSystemEvaluator<R: Real>: SystemEvaluator<R> {
    /// Largest number of points one `evaluate_batch` call accepts.
    fn max_batch(&self) -> usize;

    /// Evaluate values and Jacobian at every point of the batch
    /// (`1 <= points.len() <= self.max_batch()`, each of length
    /// `self.dim()` — see the capacity contract above).
    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>>;
}

// --- Forwarding impls -------------------------------------------------
//
// `&mut E` and `Box<E>` forward both evaluator traits (including for
// unsized `E`), so trait objects flow through every generic driver:
// `Box<dyn AnyEvaluator<R>>` or `&mut dyn AnyEvaluator<R>` (the unified
// engine interface of `polygpu-core`) can sit directly in a `Homotopy`
// or `BatchHomotopy` endpoint.

impl<R: Real, E: SystemEvaluator<R> + ?Sized> SystemEvaluator<R> for &mut E {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        (**self).evaluate(x)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<R: Real, E: BatchSystemEvaluator<R> + ?Sized> BatchSystemEvaluator<R> for &mut E {
    fn max_batch(&self) -> usize {
        (**self).max_batch()
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        (**self).evaluate_batch(points)
    }
}

impl<R: Real, E: SystemEvaluator<R> + ?Sized> SystemEvaluator<R> for Box<E> {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn evaluate(&mut self, x: &[Complex<R>]) -> SystemEval<R> {
        (**self).evaluate(x)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<R: Real, E: BatchSystemEvaluator<R> + ?Sized> BatchSystemEvaluator<R> for Box<E> {
    fn max_batch(&self) -> usize {
        (**self).max_batch()
    }

    fn evaluate_batch(&mut self, points: &[Vec<Complex<R>>]) -> Vec<SystemEval<R>> {
        (**self).evaluate_batch(points)
    }
}

/// Batch a single-point evaluator by looping — the canonical
/// [`BatchSystemEvaluator::evaluate_batch`] body for CPU evaluators,
/// whose batch is a performance no-op.
pub fn loop_evaluate_batch<R: Real, E: SystemEvaluator<R> + ?Sized>(
    eval: &mut E,
    points: &[Vec<Complex<R>>],
) -> Vec<SystemEval<R>> {
    points.iter().map(|x| eval.evaluate(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use crate::polynomial::Term;
    use polygpu_complex::C64;

    fn term(c: f64, factors: Vec<(u16, u16)>) -> Term<f64> {
        Term {
            coeff: C64::from_f64(c, 0.0),
            monomial: Monomial::new(factors).unwrap(),
        }
    }

    #[test]
    fn square_validation() {
        let p = Polynomial::new(vec![term(1.0, vec![(0, 1), (1, 1)])]);
        assert!(System::new(2, vec![p.clone()]).is_err());
        assert!(System::new(2, vec![p.clone(), p.clone()]).is_ok());
        // variable out of range
        let bad = Polynomial::new(vec![term(1.0, vec![(5, 1), (0, 1)])]);
        let err = System::new(2, vec![p, bad]).unwrap_err();
        assert!(matches!(
            err,
            SystemError::VariableOutOfRange {
                poly: 1,
                var: 5,
                n: 2
            }
        ));
    }

    #[test]
    fn uniform_shape_detects_shape() {
        let p1 = Polynomial::new(vec![
            term(1.0, vec![(0, 2), (1, 1)]),
            term(2.0, vec![(0, 1), (1, 3)]),
        ]);
        let p2 = Polynomial::new(vec![
            term(3.0, vec![(0, 1), (1, 1)]),
            term(4.0, vec![(0, 3), (1, 2)]),
        ]);
        let sys = System::new(2, vec![p1, p2]).unwrap();
        let shape = sys.uniform_shape().unwrap();
        assert_eq!(
            shape,
            UniformShape {
                n: 2,
                rows: 2,
                m: 2,
                k: 2,
                d: 3
            }
        );
        assert!(shape.is_square());
        assert_eq!(shape.total_monomials(), 4);
        assert_eq!(shape.outputs(), 6);
    }

    #[test]
    fn uniform_shape_rejects_ragged() {
        let p1 = Polynomial::new(vec![
            term(1.0, vec![(0, 1), (1, 1)]),
            term(2.0, vec![(0, 1), (1, 2)]),
        ]);
        let p2 = Polynomial::new(vec![term(3.0, vec![(0, 1), (1, 1)])]);
        let sys = System::new(2, vec![p1.clone(), p2]).unwrap();
        assert!(matches!(
            sys.uniform_shape(),
            Err(SystemError::NotUniform(_))
        ));
        // ragged k
        let p3 = Polynomial::new(vec![
            term(1.0, vec![(0, 1)]),
            term(2.0, vec![(0, 1), (1, 2)]),
        ]);
        let sys = System::new(2, vec![p1, p3]).unwrap();
        assert!(matches!(
            sys.uniform_shape(),
            Err(SystemError::NotUniform(_))
        ));
    }

    #[test]
    fn row_blocks_are_rectangular_views() {
        let p1 = Polynomial::new(vec![
            term(1.0, vec![(0, 2), (1, 1)]),
            term(2.0, vec![(0, 1), (1, 3)]),
        ]);
        let p2 = Polynomial::new(vec![
            term(3.0, vec![(0, 1), (1, 1)]),
            term(4.0, vec![(0, 3), (1, 2)]),
        ]);
        let sys = System::new(2, vec![p1.clone(), p2.clone()]).unwrap();
        let block = sys.row_block(&[1]);
        assert_eq!(block.dim(), 2);
        assert_eq!(block.rows(), 1);
        assert!(!block.is_square());
        assert_eq!(block.polys()[0], p2);
        let shape = block.uniform_shape().unwrap();
        assert_eq!(shape.rows, 1);
        assert_eq!(shape.n, 2);
        assert_eq!(shape.total_monomials(), 2);
        assert_eq!(shape.outputs(), 3); // 1 value + 1×2 Jacobian
                                        // Out-of-order row selections preserve the given order.
        let swapped = sys.row_block(&[1, 0]);
        assert_eq!(swapped.polys()[0], p2);
        assert_eq!(swapped.polys()[1], p1);
        assert!(swapped.is_square());
        // Rectangular construction still validates variable ranges.
        let bad = Polynomial::new(vec![term(1.0, vec![(5, 1), (0, 1)])]);
        assert!(matches!(
            System::rectangular(2, vec![bad]),
            Err(SystemError::VariableOutOfRange { .. })
        ));
    }

    #[test]
    fn support_hash_ignores_coefficients_but_not_structure() {
        let p1 = Polynomial::new(vec![
            term(1.0, vec![(0, 2), (1, 1)]),
            term(2.0, vec![(0, 1), (1, 3)]),
        ]);
        let p2 = Polynomial::new(vec![
            term(3.0, vec![(0, 1), (1, 1)]),
            term(4.0, vec![(0, 3), (1, 2)]),
        ]);
        let sys = System::new(2, vec![p1.clone(), p2.clone()]).unwrap();

        // Same supports, different coefficients: equal hashes (it is a
        // *support* hash — cache implementations must still compare
        // the systems before reusing a coefficient upload).
        let q1 = Polynomial::new(vec![
            term(-7.5, vec![(0, 2), (1, 1)]),
            term(0.25, vec![(0, 1), (1, 3)]),
        ]);
        let q2 = Polynomial::new(vec![
            term(9.0, vec![(0, 1), (1, 1)]),
            term(-1.0, vec![(0, 3), (1, 2)]),
        ]);
        let recoeffed = System::new(2, vec![q1, q2]).unwrap();
        assert_ne!(sys, recoeffed, "coefficients differ");
        assert_eq!(sys.support_hash(), recoeffed.support_hash());

        // Row permutation changes the encoded layout, so the hash.
        let permuted = System::new(2, vec![p2.clone(), p1.clone()]).unwrap();
        assert_ne!(sys.support_hash(), permuted.support_hash());

        // A different exponent anywhere changes the hash.
        let p1_bumped = Polynomial::new(vec![
            term(1.0, vec![(0, 2), (1, 2)]),
            term(2.0, vec![(0, 1), (1, 3)]),
        ]);
        let bumped = System::new(2, vec![p1_bumped, p2.clone()]).unwrap();
        assert_ne!(sys.support_hash(), bumped.support_hash());

        // A row block hashes differently from its parent (row count is
        // part of the stream), and identically to itself.
        let block = sys.row_block(&[1]);
        assert_ne!(sys.support_hash(), block.support_hash());
        assert_eq!(block.support_hash(), sys.row_block(&[1]).support_hash());

        // Precision conversion preserves the structure stream.
        let dd = sys.convert::<polygpu_qd::Dd>();
        assert_eq!(sys.support_hash(), dd.support_hash());

        // Stable across clones and repeated calls.
        assert_eq!(sys.support_hash(), sys.clone().support_hash());
    }

    #[test]
    fn system_eval_difference() {
        let mut a = SystemEval::<f64>::zeros(2);
        let b = SystemEval::<f64>::zeros(2);
        a.values[1] = C64::from_f64(0.0, 3.0);
        a.jacobian[(1, 0)] = C64::from_f64(4.0, 0.0);
        assert_eq!(a.max_difference(&b), 4.0);
        assert_eq!(a.residual_norm(), 3.0);
    }

    /// The CPU evaluators batch by looping (`loop_evaluate_batch`), so
    /// their batch interface is point-wise identical to single-point
    /// evaluation — the contract the removed `SingleBatch` adapter
    /// used to provide.
    #[test]
    fn loop_batching_matches_pointwise_evaluation() {
        use crate::eval::AdEvaluator;
        use crate::generator::{random_points, random_system, BenchmarkParams};
        let params = BenchmarkParams {
            n: 5,
            m: 3,
            k: 2,
            d: 2,
            seed: 9,
        };
        let sys = random_system::<f64>(&params);
        let points = random_points::<f64>(5, 4, 3);
        let mut single = AdEvaluator::new(sys.clone()).unwrap();
        let mut batch = AdEvaluator::new(sys).unwrap();
        assert_eq!(batch.dim(), 5);
        assert_eq!(batch.max_batch(), usize::MAX);
        let batched = batch.evaluate_batch(&points);
        assert_eq!(batched.len(), 4);
        for (x, got) in points.iter().zip(&batched) {
            let want = single.evaluate(x);
            assert_eq!(got.values, want.values);
            assert_eq!(got.jacobian.as_slice(), want.jacobian.as_slice());
        }
    }
}
