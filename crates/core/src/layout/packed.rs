//! Constant-memory encoding of **ragged** supports: packed exponent
//! keys plus per-monomial headers.
//!
//! The uniform encodings derive every decode parameter from the
//! `UniformShape`, so they store nothing but the factor streams. A
//! ragged system has no such shape: each monomial carries its own
//! variable count `k_g` and owner `(p, j)`. [`PackedSupports`] stores
//! one `u32` header per monomial — `k` in the low 8 bits, the equation
//! index `p` in the next 12, the within-equation slot `j` in the top
//! 12 — alongside the same radix exponent keys the uniform
//! [`EncodingKind::Packed`](crate::layout::encoding::EncodingKind)
//! uses, strided uniformly at `words_per_monomial` words (sized by the
//! system-wide `max_k`) so the kernels index keys without a prefix sum.
//! The header fields cap ragged systems at 4,096 rows, 4,096 monomials
//! per equation and 255 variables per monomial; violations reject with
//! a typed [`EncodeError::SupportTooLarge`] at encode time.

use super::alloc_pair;
use crate::layout::encoding::{packed_geometry, EncodeError, PackedGeometry};
use polygpu_complex::Real;
use polygpu_gpusim::prelude::*;
use polygpu_polysys::{SparseShape, System};

/// Header-field limits (12 / 12 / 8 bits).
pub const MAX_ROWS: usize = 4096;
pub const MAX_M: usize = 4096;
pub const MAX_K: usize = 255;

/// A ragged system's supports resident in constant memory: one header
/// word and `words_per_monomial` key words per monomial, in term order
/// (equation-major, the ragged analogue of the paper's `Sm` order).
#[derive(Debug, Clone, Copy)]
pub struct PackedSupports {
    pub shape: SparseShape,
    pub geo: PackedGeometry,
    headers: ConstId,
    keys: ConstId,
}

/// Bytes of constant memory the ragged packed encoding of `shape`
/// requires: 4 header bytes plus the key words per monomial.
pub fn sparse_packed_bytes(shape: &SparseShape) -> usize {
    let geo = packed_geometry(shape.n, shape.d as usize, shape.max_k);
    4 * shape.total_monomials + geo.key_bytes(shape.total_monomials)
}

impl PackedSupports {
    /// Validate and upload the (possibly ragged) supports of `system`.
    pub fn upload<R: Real>(
        system: &System<R>,
        constant: &mut ConstantMemory,
    ) -> Result<Self, EncodeError> {
        let shape = system.sparse_shape();
        if shape.rows > MAX_ROWS {
            return Err(EncodeError::SupportTooLarge {
                what: "rows",
                got: shape.rows,
                limit: MAX_ROWS,
            });
        }
        if shape.max_m > MAX_M {
            return Err(EncodeError::SupportTooLarge {
                what: "monomials per equation",
                got: shape.max_m,
                limit: MAX_M,
            });
        }
        if shape.max_k > MAX_K {
            return Err(EncodeError::SupportTooLarge {
                what: "variables per monomial",
                got: shape.max_k,
                limit: MAX_K,
            });
        }
        let geo = packed_geometry(shape.n, shape.d as usize, shape.max_k);
        let width = geo.bits_pos + geo.bits_exp;
        let mut headers = Vec::with_capacity(4 * shape.total_monomials);
        let mut keys = Vec::with_capacity(geo.key_bytes(shape.total_monomials));
        for (p, poly) in system.polys().iter().enumerate() {
            for (j, term) in poly.terms().iter().enumerate() {
                let factors = term.monomial.factors();
                let header = factors.len() as u32 | ((p as u32) << 8) | ((j as u32) << 20);
                headers.extend_from_slice(&header.to_le_bytes());
                let mut words = vec![0u64; geo.words_per_monomial];
                for (i, &(v, e)) in factors.iter().enumerate() {
                    let key = v as u64 | (((e - 1) as u64) << geo.bits_pos);
                    words[i / geo.factors_per_word] |= key << ((i % geo.factors_per_word) * width);
                }
                for w in words {
                    keys.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
        let (headers, keys) = alloc_pair(constant, &headers, &keys)?;
        Ok(PackedSupports {
            shape,
            geo,
            headers,
            keys,
        })
    }

    /// Bytes of constant memory this encoding occupies.
    pub fn constant_bytes(&self) -> usize {
        self.headers.len() + self.keys.len()
    }

    /// The two constant-memory regions (`headers`, `keys`) — freed by a
    /// residency layer when the system is unloaded.
    pub fn regions(&self) -> (ConstId, ConstId) {
        (self.headers, self.keys)
    }

    /// Device-side header read of monomial `g`: returns
    /// `(k, p, j)` — its variable count, equation and slot. One `u32`
    /// constant load plus three field extracts.
    #[inline]
    pub fn read_header<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
    ) -> (usize, usize, usize) {
        let header = t.cload_u32(self.headers, g);
        t.iops(3);
        (
            (header & 0xFF) as usize,
            ((header >> 8) & 0xFFF) as usize,
            (header >> 20) as usize,
        )
    }

    /// Device-side read of factor `i` of monomial `g`: returns
    /// `(variable, exponent − 1)`. One `u64` constant load plus the
    /// key-select and two field extracts.
    #[inline]
    pub fn read_factor<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
        i: usize,
    ) -> (usize, usize) {
        let word = t.cload_u64(
            self.keys,
            g * self.geo.words_per_monomial + i / self.geo.factors_per_word,
        );
        t.iops(3);
        let key =
            word >> ((i % self.geo.factors_per_word) * (self.geo.bits_pos + self.geo.bits_exp));
        let var = (key & ((1u64 << self.geo.bits_pos) - 1)) as usize;
        let em1 = ((key >> self.geo.bits_pos) & ((1u64 << self.geo.bits_exp) - 1)) as usize;
        (var, em1)
    }

    /// Variable position of factor `i` of monomial `g` only.
    #[inline]
    pub fn read_position<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
        i: usize,
    ) -> usize {
        let word = t.cload_u64(
            self.keys,
            g * self.geo.words_per_monomial + i / self.geo.factors_per_word,
        );
        t.iops(2);
        let key =
            word >> ((i % self.geo.factors_per_word) * (self.geo.bits_pos + self.geo.bits_exp));
        (key & ((1u64 << self.geo.bits_pos) - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;
    use polygpu_polysys::{
        random_sparse_system, Monomial, Polynomial, SparseBenchmarkParams, Term,
    };

    fn ragged() -> System<f64> {
        let p0 = Polynomial::new(vec![
            Term {
                coeff: C64::one(),
                monomial: Monomial::new(vec![(0, 2), (1, 1)]).unwrap(),
            },
            Term {
                coeff: C64::one(),
                monomial: Monomial::var(1),
            },
            Term {
                coeff: C64::from_f64(3.0, 0.0),
                monomial: Monomial::constant(),
            },
        ]);
        let p1 = Polynomial::new(vec![Term {
            coeff: C64::one(),
            monomial: Monomial::new(vec![(0, 1), (1, 3)]).unwrap(),
        }]);
        System::new(2, vec![p0, p1]).unwrap()
    }

    #[test]
    fn upload_round_trips_headers_and_factors() {
        let sys = ragged();
        let dev = DeviceSpec::tesla_c2050();
        let mut cm = ConstantMemory::new(&dev);
        let sup = PackedSupports::upload(&sys, &mut cm).unwrap();
        assert_eq!(
            sup.constant_bytes(),
            sparse_packed_bytes(&sys.sparse_shape())
        );
        assert_eq!(cm.used(), sup.constant_bytes());

        #[allow(clippy::type_complexity)] // test probe: (k, p, j, factors) per monomial
        struct Probe {
            sup: PackedSupports,
            want: Vec<(usize, usize, usize, Vec<(usize, usize)>)>,
        }
        impl Kernel<C64> for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn shared_elems(&self, _b: u32) -> usize {
                0
            }
            fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
                blk.threads(|t| {
                    if t.tid() != 0 {
                        return;
                    }
                    for (g, (k, p, j, factors)) in self.want.iter().enumerate() {
                        assert_eq!(self.sup.read_header(t, g), (*k, *p, *j));
                        for (i, &(v, em1)) in factors.iter().enumerate() {
                            assert_eq!(self.sup.read_factor(t, g, i), (v, em1));
                            assert_eq!(self.sup.read_position(t, g, i), v);
                        }
                    }
                });
            }
        }
        let want = vec![
            (2, 0, 0, vec![(0usize, 1usize), (1, 0)]),
            (1, 0, 1, vec![(1, 0)]),
            (0, 0, 2, vec![]),
            (2, 1, 0, vec![(0, 0), (1, 2)]),
        ];
        let mut global = GlobalMem::<C64>::new();
        launch(
            &dev,
            &Probe { sup, want },
            LaunchConfig::cover(1, 32),
            &mut global,
            &cm,
            LaunchOptions::default(),
        )
        .unwrap();
    }

    #[test]
    fn sizing_beats_a_direct_equivalent_on_sparse_families() {
        // The ragged Table-1 cousin: even with the 4-byte headers the
        // packed footprint undercuts what a direct encoding of the
        // padded uniform hull would cost.
        let sys = random_sparse_system::<f64>(&SparseBenchmarkParams::table1_sparse(1));
        let shape = sys.sparse_shape();
        let packed = sparse_packed_bytes(&shape);
        let padded_direct = shape.rows * shape.max_m * 2 * shape.max_k;
        assert!(
            packed * 2 <= padded_direct,
            "packed {packed} vs padded direct {padded_direct}"
        );
    }

    #[test]
    fn header_caps_reject_typed() {
        // 4,097 rows of one linear monomial each exceeds the p field.
        let polys: Vec<Polynomial<f64>> = (0..4097)
            .map(|v| {
                Polynomial::new(vec![Term {
                    coeff: C64::one(),
                    monomial: Monomial::var((v % 4097) as u16),
                }])
            })
            .collect();
        let sys = System::new(4097, polys).unwrap();
        let dev = DeviceSpec::tesla_c2050();
        let mut cm = ConstantMemory::new(&dev);
        let err = PackedSupports::upload(&sys, &mut cm).unwrap_err();
        assert_eq!(
            err,
            EncodeError::SupportTooLarge {
                what: "rows",
                got: 4097,
                limit: MAX_ROWS
            }
        );
        assert_eq!(cm.used(), 0, "rejected upload leaves no allocation");
    }
}
