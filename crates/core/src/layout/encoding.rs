//! Constant-memory encoding of the system's supports: the `Positions`
//! and `Exponents` arrays of the paper (§3.1).
//!
//! The **direct** encoding is the paper's: one `u8` per variable
//! position ("a position of a variable from 0 to 255") and one `u8`
//! per exponent, stored as `exponent − 1` ("giving us opportunity to
//! work with variables appearing in degrees up to 255"). Its capacity
//! wall — `2·k` bytes per monomial against the 65,536-byte constant
//! memory — is what stopped the paper at 1,536 monomials (§4).
//!
//! The **compact** encoding implements the paper's proposed future work
//! ("more compact encodings for storing the positions and exponents…
//! so to be working with higher dimensions"): exponents are
//! nibble-packed (two per byte, requiring `d <= 16`), cutting the
//! per-monomial cost from `2k` to `1.5k` bytes at the price of a couple
//! of integer decode operations per access — which, as the paper
//! predicts, are dominated by the multiplications that follow.
//!
//! The **packed** encoding takes that idea to its limit: each factor's
//! `(position, exponent − 1)` pair becomes one radix key of
//! `⌈log₂ n⌉ + ⌈log₂ d⌉` bits and consecutive keys are bit-packed into
//! little-endian `u64` words ([`packed_geometry`]). All decode
//! parameters derive from the shape, so no header is stored; the
//! device-side decode (one `u64` constant load plus shift/mask integer
//! ops per factor) is charged honestly through the thread context. For
//! the paper's Table 1 shape (`n = 32, k = 9, d = 2`) a monomial costs
//! 8 bytes against the direct encoding's 18 — a 2.25× footprint cut —
//! and the 2,048-monomial `k = 16, d = 10` system that overflows the
//! direct encoding fits in 49,152 bytes.

use super::alloc_pair;
use polygpu_complex::Real;
use polygpu_gpusim::prelude::*;
use polygpu_polysys::{System, SystemError, UniformShape};
use std::fmt;

/// Which support encoding to place in constant memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingKind {
    /// The paper's layout: `u8` position + `u8` (exponent − 1) per
    /// variable.
    #[default]
    Direct,
    /// Nibble-packed exponents (`d <= 16`): the paper's proposed
    /// compression.
    Compact,
    /// Radix exponent keys bit-packed into `u64` words: each factor
    /// costs `⌈log₂ n⌉ + ⌈log₂ d⌉` bits instead of 16. The only
    /// encoding that also expresses **ragged** supports (via the
    /// header-carrying [`PackedSupports`](crate::layout::packed::PackedSupports)
    /// layout); on uniform shapes it stays header-free, and the
    /// monomial kernel decodes it in place, bit-identically to
    /// `Direct`. Both layouts decode their keys through one
    /// [`PackedGeometry`].
    Packed,
}

/// Smallest field width (in bits, at least 1) that represents every
/// value in `0..=max_value`.
pub(crate) fn bits_for(max_value: usize) -> usize {
    ((usize::BITS - max_value.leading_zeros()) as usize).max(1)
}

/// Decode parameters of the packed exponent-key encoding — a pure
/// function of `(n, d, k)`, so nothing but the keys themselves is
/// stored. Each factor's key is `position | (exponent − 1) << bits_pos`;
/// consecutive keys of one monomial fill little-endian `u64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedGeometry {
    /// Bits of the position field: `⌈log₂ n⌉` (min 1).
    pub bits_pos: usize,
    /// Bits of the exponent field: `⌈log₂ d⌉` (min 1); stores `e − 1`.
    pub bits_exp: usize,
    /// Whole keys per 64-bit word.
    pub factors_per_word: usize,
    /// Words per monomial: `⌈k / factors_per_word⌉`.
    pub words_per_monomial: usize,
}

impl PackedGeometry {
    /// Key-payload bytes for `total` monomials.
    pub fn key_bytes(&self, total: usize) -> usize {
        total * self.words_per_monomial * 8
    }

    /// Append one monomial's key words to `out`, little-endian: the
    /// key of factor `j`, `(variable, exponent − 1)`, fills bits
    /// `(j mod f)·w ..` of word `j / f`, where `f` is
    /// [`factors_per_word`](Self::factors_per_word) and `w` the key
    /// width.
    pub fn pack(&self, factors: impl IntoIterator<Item = (usize, usize)>, out: &mut Vec<u8>) {
        let mut words = vec![0u64; self.words_per_monomial];
        for (j, (v, em1)) in factors.into_iter().enumerate() {
            let key = v as u64 | ((em1 as u64) << self.bits_pos);
            words[j / self.factors_per_word] |= key << self.key_shift(j);
        }
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Bit offset of factor `j`'s key within its word.
    #[inline]
    fn key_shift(&self, j: usize) -> usize {
        (j % self.factors_per_word) * (self.bits_pos + self.bits_exp)
    }

    /// The word of `keys` that holds factor `j` of monomial `g`: one
    /// `u64` constant load, charged through the thread context.
    #[inline]
    fn load_key<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        keys: ConstId,
        g: usize,
        j: usize,
    ) -> u64 {
        let word = t.cload_u64(
            keys,
            g * self.words_per_monomial + j / self.factors_per_word,
        );
        word >> self.key_shift(j)
    }

    /// Device-side read of factor `j` of monomial `g` from the key words
    /// in `keys`: returns `(variable, exponent − 1)`. The word load plus
    /// the key select and two field extracts, charged as 3 integer ops.
    #[inline]
    pub fn read_factor<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        keys: ConstId,
        g: usize,
        j: usize,
    ) -> (usize, usize) {
        let key = self.load_key(t, keys, g, j);
        t.iops(3);
        let var = (key & ((1u64 << self.bits_pos) - 1)) as usize;
        let em1 = ((key >> self.bits_pos) & ((1u64 << self.bits_exp) - 1)) as usize;
        (var, em1)
    }

    /// Variable position of factor `j` of monomial `g` only: the word
    /// load plus the key select and position mask (2 integer ops).
    #[inline]
    pub fn read_position<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        keys: ConstId,
        g: usize,
        j: usize,
    ) -> usize {
        let key = self.load_key(t, keys, g, j);
        t.iops(2);
        (key & ((1u64 << self.bits_pos) - 1)) as usize
    }
}

/// Packed-key geometry for supports of dimension `n`, maximal exponent
/// `d` and (maximal) `k` variables per monomial. `Var` is `u16`, so
/// `bits_pos <= 16` and `bits_exp <= 16`: a key always fits a word.
pub fn packed_geometry(n: usize, d: usize, k: usize) -> PackedGeometry {
    let bits_pos = bits_for(n.saturating_sub(1));
    let bits_exp = bits_for(d.saturating_sub(1));
    let factors_per_word = 64 / (bits_pos + bits_exp);
    PackedGeometry {
        bits_pos,
        bits_exp,
        factors_per_word,
        words_per_monomial: k.div_ceil(factors_per_word),
    }
}

/// Errors encoding a system's supports.
#[derive(Debug, Clone, PartialEq)]
pub enum EncodeError {
    /// The system failed the uniform-shape validation.
    Shape(SystemError),
    /// A variable index does not fit the `u8` position field.
    PositionTooLarge { var: usize },
    /// An exponent does not fit the encoding's field.
    ExponentTooLarge { exp: usize, limit: usize },
    /// A ragged support exceeds a packed-header field (`rows` and
    /// per-equation monomial counts carry 12 bits, variable counts 8).
    SupportTooLarge {
        what: &'static str,
        got: usize,
        limit: usize,
    },
    /// Constant memory exhausted — the paper's observed failure mode at
    /// 2,048 monomials.
    Constant(ConstantOverflow),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Shape(e) => write!(f, "shape: {e}"),
            EncodeError::PositionTooLarge { var } => {
                write!(f, "variable index {var} exceeds the u8 position field")
            }
            EncodeError::ExponentTooLarge { exp, limit } => {
                write!(f, "exponent {exp} exceeds the encoding limit {limit}")
            }
            EncodeError::SupportTooLarge { what, got, limit } => {
                write!(f, "{what} {got} exceeds the packed-header limit {limit}")
            }
            EncodeError::Constant(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EncodeError {}

impl From<ConstantOverflow> for EncodeError {
    fn from(e: ConstantOverflow) -> Self {
        EncodeError::Constant(e)
    }
}

/// The system's supports resident in constant memory, plus the shape.
///
/// Monomials are indexed in the paper's `Sm` order: monomial `j` of
/// polynomial `p` has global index `g = p·m + j`.
#[derive(Debug, Clone, Copy)]
pub struct EncodedSupports {
    pub kind: EncodingKind,
    pub shape: UniformShape,
    positions: ConstId,
    exponents: ConstId,
}

impl EncodedSupports {
    /// Bytes of constant memory the encoding of `shape` requires.
    pub fn bytes_needed(shape: &UniformShape, kind: EncodingKind) -> usize {
        let entries = shape.total_monomials() * shape.k;
        match kind {
            EncodingKind::Direct => 2 * entries,
            EncodingKind::Compact => entries + entries.div_ceil(2),
            EncodingKind::Packed => packed_geometry(shape.n, shape.d as usize, shape.k)
                .key_bytes(shape.total_monomials()),
        }
    }

    /// Validate and upload the supports of `system` into `constant`.
    pub fn upload<R: Real>(
        system: &System<R>,
        constant: &mut ConstantMemory,
        kind: EncodingKind,
    ) -> Result<Self, EncodeError> {
        let shape = system.uniform_shape().map_err(EncodeError::Shape)?;
        // The packed fields are sized by the shape itself (`bits_pos`
        // from n, `bits_exp` from the observed d), so only the
        // byte-wide encodings carry fixed field limits.
        let (pos_limit, exp_limit) = match kind {
            EncodingKind::Direct => (255usize, 256usize), // stores exp-1 in u8
            EncodingKind::Compact => (255, 16),           // stores exp-1 in a nibble
            EncodingKind::Packed => (usize::MAX, usize::MAX),
        };
        let entries = shape.total_monomials() * shape.k;
        let mut flat = Vec::with_capacity(entries);
        for poly in system.polys() {
            for term in poly.terms() {
                for &(v, e) in term.monomial.factors() {
                    if v as usize > pos_limit {
                        return Err(EncodeError::PositionTooLarge { var: v as usize });
                    }
                    if e as usize > exp_limit {
                        return Err(EncodeError::ExponentTooLarge {
                            exp: e as usize,
                            limit: exp_limit,
                        });
                    }
                    flat.push((v as usize, (e - 1) as usize));
                }
            }
        }
        let (positions, exponents) = match kind {
            EncodingKind::Direct => {
                let pos: Vec<u8> = flat.iter().map(|&(v, _)| v as u8).collect();
                let exp: Vec<u8> = flat.iter().map(|&(_, e)| e as u8).collect();
                alloc_pair(constant, &pos, &exp)?
            }
            EncodingKind::Compact => {
                let pos: Vec<u8> = flat.iter().map(|&(v, _)| v as u8).collect();
                let mut packed = vec![0u8; entries.div_ceil(2)];
                for (i, &(_, e)) in flat.iter().enumerate() {
                    if i % 2 == 0 {
                        packed[i / 2] |= (e as u8) & 0x0F;
                    } else {
                        packed[i / 2] |= ((e as u8) & 0x0F) << 4;
                    }
                }
                alloc_pair(constant, &pos, &packed)?
            }
            EncodingKind::Packed => {
                let geo = packed_geometry(shape.n, shape.d as usize, shape.k);
                let mut keys = Vec::with_capacity(geo.key_bytes(shape.total_monomials()));
                for mon in flat.chunks(shape.k) {
                    geo.pack(mon.iter().copied(), &mut keys);
                }
                // Keys live in the `exponents` region; `positions` is a
                // zero-length placeholder (free of an empty region is a
                // no-op, so `regions()` round-trips unchanged).
                alloc_pair(constant, &[], &keys)?
            }
        };
        Ok(EncodedSupports {
            kind,
            shape,
            positions,
            exponents,
        })
    }

    /// Bytes of constant memory **this encoding** occupies (its own
    /// positions + exponents regions only — not the whole arena, which
    /// may hold other resident systems too).
    pub fn constant_bytes(&self) -> usize {
        self.positions.len() + self.exponents.len()
    }

    /// The two constant-memory regions this encoding occupies
    /// (`positions`, `exponents`) — what a residency session hands back
    /// to [`ConstantMemory::free`] when it unloads the system.
    pub fn regions(&self) -> (ConstId, ConstId) {
        (self.positions, self.exponents)
    }

    /// The packed-key geometry of this shape (meaningful under
    /// [`EncodingKind::Packed`]).
    #[inline]
    fn geometry(&self) -> PackedGeometry {
        packed_geometry(self.shape.n, self.shape.d as usize, self.shape.k)
    }

    /// Device-side read of factor `j` (0-based) of monomial `g`:
    /// returns `(variable, exponent - 1)`. Performs the constant loads
    /// and decode integer ops through the thread context so the
    /// simulator charges them.
    #[inline]
    pub fn read_factor<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
        j: usize,
    ) -> (usize, usize) {
        let idx = g * self.shape.k + j;
        match self.kind {
            EncodingKind::Direct => {
                let var = t.cload_u8(self.positions, idx) as usize;
                let em1 = t.cload_u8(self.exponents, idx) as usize;
                (var, em1)
            }
            EncodingKind::Compact => {
                let var = t.cload_u8(self.positions, idx) as usize;
                let byte = t.cload_u8(self.exponents, idx / 2);
                // Nibble select: shift + mask, charged as 2 integer ops
                // (the decode cost the paper reasons about).
                t.iops(2);
                let em1 = if idx.is_multiple_of(2) {
                    (byte & 0x0F) as usize
                } else {
                    (byte >> 4) as usize
                };
                (var, em1)
            }
            EncodingKind::Packed => self.geometry().read_factor(t, self.exponents, g, j),
        }
    }

    /// Variable position only (used where the exponent is not needed,
    /// e.g. kernel 2's Speelpenning stage: "the array Positions … is
    /// used in this kernel as well").
    #[inline]
    pub fn read_position<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
        j: usize,
    ) -> usize {
        match self.kind {
            EncodingKind::Direct | EncodingKind::Compact => {
                t.cload_u8(self.positions, g * self.shape.k + j) as usize
            }
            EncodingKind::Packed => self.geometry().read_position(t, self.exponents, g, j),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_polysys::{random_system, BenchmarkParams};

    fn params(n: usize, m: usize, k: usize, d: u16) -> BenchmarkParams {
        BenchmarkParams {
            n,
            m,
            k,
            d,
            seed: 5,
        }
    }

    #[test]
    fn bytes_needed_matches_paper_arithmetic() {
        // Paper §3.1: "for dimension 30 we would have 900 monomials,
        // with a need of 900 × 2 × 15 <= 30,000 bytes".
        let shape = UniformShape {
            n: 30,
            rows: 30,
            m: 30,
            k: 15,
            d: 5,
        };
        assert_eq!(
            EncodedSupports::bytes_needed(&shape, EncodingKind::Direct),
            27_000
        );
        // "for dimension 40 we would have 1,600 monomials, with a need
        // of 1,600 × 2 × 20 = 64,000 bytes".
        let shape40 = UniformShape {
            n: 40,
            rows: 40,
            m: 40,
            k: 20,
            d: 5,
        };
        assert_eq!(
            EncodedSupports::bytes_needed(&shape40, EncodingKind::Direct),
            64_000
        );
        // Compact: 1.5 bytes per entry.
        assert_eq!(
            EncodedSupports::bytes_needed(&shape40, EncodingKind::Compact),
            48_000
        );
    }

    #[test]
    fn capacity_wall_at_2048_monomials_k16() {
        // E3: 2,048 monomials at k=16 need exactly 65,536 bytes of
        // payload, which cannot fit alongside the reserved region.
        let dev = DeviceSpec::tesla_c2050();
        let sys = random_system::<f64>(&params(32, 64, 16, 10));
        let mut cm = ConstantMemory::new(&dev);
        let err = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Direct).unwrap_err();
        assert!(matches!(err, EncodeError::Constant(_)), "{err}");
        // 1,536 monomials fit (Table 2's largest point).
        let sys = random_system::<f64>(&params(32, 48, 16, 10));
        let mut cm = ConstantMemory::new(&dev);
        assert!(EncodedSupports::upload(&sys, &mut cm, EncodingKind::Direct).is_ok());
    }

    #[test]
    fn compact_encoding_lifts_the_wall() {
        // X1: the same 2,048-monomial system fits with nibble packing:
        // 2048*16*1.5 = 49,152 bytes.
        let dev = DeviceSpec::tesla_c2050();
        let sys = random_system::<f64>(&params(32, 64, 16, 10));
        let mut cm = ConstantMemory::new(&dev);
        let enc = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Compact).unwrap();
        assert_eq!(cm.used(), 49_152);
        assert_eq!(enc.shape.total_monomials(), 2048);
    }

    #[test]
    fn packed_geometry_matches_hand_arithmetic() {
        // Table 1 shape: n = 32 -> 5 position bits, d = 2 -> 1 exponent
        // bit, 6-bit keys, 10 per word, k = 9 -> one word = 8 bytes per
        // monomial (the direct encoding spends 18).
        let g = packed_geometry(32, 2, 9);
        assert_eq!((g.bits_pos, g.bits_exp), (5, 1));
        assert_eq!(g.factors_per_word, 10);
        assert_eq!(g.words_per_monomial, 1);
        let t1 = UniformShape {
            n: 32,
            rows: 32,
            m: 22,
            k: 9,
            d: 2,
        };
        let direct = EncodedSupports::bytes_needed(&t1, EncodingKind::Direct);
        let packed = EncodedSupports::bytes_needed(&t1, EncodingKind::Packed);
        assert_eq!(direct, 704 * 18);
        assert_eq!(packed, 704 * 8);
        assert!(direct as f64 / packed as f64 >= 2.0);

        // Table 2 shape: 5 + 4 = 9-bit keys, 7 per word, k = 16 -> 3
        // words = 24 bytes per monomial; 2,048 monomials fit in 49,152
        // bytes where the direct encoding needs 65,536.
        let g2 = packed_geometry(32, 10, 16);
        assert_eq!((g2.bits_pos, g2.bits_exp), (5, 4));
        assert_eq!(g2.factors_per_word, 7);
        assert_eq!(g2.words_per_monomial, 3);
        let t2 = UniformShape {
            n: 32,
            rows: 32,
            m: 64,
            k: 16,
            d: 10,
        };
        assert_eq!(
            EncodedSupports::bytes_needed(&t2, EncodingKind::Direct),
            65_536
        );
        assert_eq!(
            EncodedSupports::bytes_needed(&t2, EncodingKind::Packed),
            49_152
        );
    }

    #[test]
    fn packed_encoding_fits_where_direct_overflows() {
        // The 2,048-monomial k = 16 wall again (E3), lifted by packing.
        let dev = DeviceSpec::tesla_c2050();
        let sys = random_system::<f64>(&params(32, 64, 16, 10));
        let mut cm = ConstantMemory::new(&dev);
        let err = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Direct).unwrap_err();
        assert!(matches!(err, EncodeError::Constant(_)), "{err}");
        let mut cm = ConstantMemory::new(&dev);
        let enc = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Packed).unwrap();
        assert_eq!(cm.used(), 49_152);
        assert_eq!(enc.constant_bytes(), 49_152);
        // The placeholder positions region is empty; freeing both
        // regions drains the arena.
        let (pos, keys) = enc.regions();
        assert_eq!(pos.len(), 0);
        assert_eq!(keys.len(), 49_152);
        cm.free(pos);
        cm.free(keys);
        assert_eq!(cm.used(), 0);
    }

    #[test]
    fn packed_round_trips_factors_bit_exactly() {
        // Decode through a real thread context must reproduce exactly
        // what the direct encoding stores, factor by factor.
        use polygpu_complex::C64;
        let dev = DeviceSpec::tesla_c2050();
        for p in [
            params(32, 4, 9, 2),
            params(32, 4, 16, 10),
            params(7, 3, 2, 5),
        ] {
            let sys = random_system::<f64>(&p);
            struct Probe {
                a: EncodedSupports,
                b: EncodedSupports,
            }
            impl Kernel<C64> for Probe {
                fn name(&self) -> &str {
                    "probe"
                }
                fn shared_elems(&self, _b: u32) -> usize {
                    0
                }
                fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
                    let shape = self.a.shape;
                    blk.threads(|t| {
                        if t.tid() != 0 {
                            return;
                        }
                        for g in 0..shape.total_monomials() {
                            for j in 0..shape.k {
                                assert_eq!(
                                    self.a.read_factor(t, g, j),
                                    self.b.read_factor(t, g, j),
                                    "factor ({g}, {j})"
                                );
                                assert_eq!(
                                    self.a.read_position(t, g, j),
                                    self.b.read_position(t, g, j)
                                );
                            }
                        }
                    });
                }
            }
            // Both encodings share one arena so one launch sees both.
            let mut cm = ConstantMemory::new(&dev);
            let a = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Direct).unwrap();
            let b = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Packed).unwrap();
            let mut global = GlobalMem::<C64>::new();
            launch(
                &dev,
                &Probe { a, b },
                LaunchConfig::cover(1, 32),
                &mut global,
                &cm,
                LaunchOptions::default(),
            )
            .unwrap();
        }
    }

    #[test]
    fn compact_boundary_exponent_16_encodes_17_rejects() {
        // Satellite: the nibble stores exp − 1, so 16 is the exact cap —
        // it must encode (as 15), and 17 must reject typed, never
        // truncate.
        use polygpu_complex::C64;
        use polygpu_polysys::{Monomial, Polynomial, System, Term};
        let dev = DeviceSpec::tesla_c2050();
        let at = |e: u16| {
            let p0 = Polynomial::new(vec![Term {
                coeff: C64::one(),
                monomial: Monomial::new(vec![(0, e)]).unwrap(),
            }]);
            let p1 = Polynomial::new(vec![Term {
                coeff: C64::one(),
                monomial: Monomial::new(vec![(1, e)]).unwrap(),
            }]);
            System::new(2, vec![p0, p1]).unwrap()
        };
        let mut cm = ConstantMemory::new(&dev);
        let enc = EncodedSupports::upload(&at(16), &mut cm, EncodingKind::Compact).unwrap();
        assert_eq!(enc.shape.d, 16);
        let mut cm = ConstantMemory::new(&dev);
        let err = EncodedSupports::upload(&at(17), &mut cm, EncodingKind::Compact).unwrap_err();
        assert_eq!(err, EncodeError::ExponentTooLarge { exp: 17, limit: 16 });
        // Nothing was left allocated by the rejected upload's positions.
        assert_eq!(cm.used(), 0);
        // Direct and packed both take the same system.
        let mut cm = ConstantMemory::new(&dev);
        assert!(EncodedSupports::upload(&at(17), &mut cm, EncodingKind::Direct).is_ok());
        let mut cm = ConstantMemory::new(&dev);
        assert!(EncodedSupports::upload(&at(17), &mut cm, EncodingKind::Packed).is_ok());
    }

    #[test]
    fn compact_rejects_large_exponents() {
        let dev = DeviceSpec::tesla_c2050();
        let sys = random_system::<f64>(&BenchmarkParams {
            n: 8,
            m: 2,
            k: 2,
            d: 30,
            seed: 1,
        });
        // d up to 30 -> exponent-1 up to 29 > 15.
        let mut cm = ConstantMemory::new(&dev);
        let r = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Compact);
        assert!(matches!(r, Err(EncodeError::ExponentTooLarge { .. })));
        // Direct handles it.
        let mut cm = ConstantMemory::new(&dev);
        assert!(EncodedSupports::upload(&sys, &mut cm, EncodingKind::Direct).is_ok());
    }

    #[test]
    fn non_uniform_rejected() {
        use polygpu_complex::C64;
        use polygpu_polysys::{Monomial, Polynomial, System, Term};
        let p1 = Polynomial::new(vec![Term {
            coeff: C64::one(),
            monomial: Monomial::new(vec![(0, 1), (1, 1)]).unwrap(),
        }]);
        let p2 = Polynomial::new(vec![Term {
            coeff: C64::one(),
            monomial: Monomial::new(vec![(0, 2)]).unwrap(),
        }]);
        let sys = System::new(2, vec![p1, p2]).unwrap();
        let dev = DeviceSpec::tesla_c2050();
        let mut cm = ConstantMemory::new(&dev);
        let r = EncodedSupports::upload(&sys, &mut cm, EncodingKind::Direct);
        assert!(matches!(r, Err(EncodeError::Shape(_))));
    }
}
