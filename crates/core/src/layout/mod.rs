//! Device memory layouts: constant-memory support encodings (uniform
//! and ragged packed-key), the derivative-major `Coeffs` array, and the
//! summation-friendly `Mons` array.

pub mod coeffs;
pub mod encoding;
pub mod mons;
pub mod packed;

use encoding::EncodedSupports;
use packed::PackedSupports;
use polygpu_gpusim::prelude::*;

/// The supports a monomial kernel reads: a uniform encoding, or the
/// packed keys and headers of a ragged system. The decoders charge
/// each kind's own device work, so one kernel program serves both.
#[derive(Debug, Clone, Copy)]
pub enum Supports {
    Uniform(EncodedSupports),
    Ragged(PackedSupports),
}

impl Supports {
    /// Monomial `g`'s factor count: the shape's `k`, known to every
    /// thread, for a uniform encoding; a header load for a ragged one.
    #[inline]
    pub fn factors<T: DeviceValue>(&self, t: &mut ThreadCtx<'_, T>, g: usize) -> usize {
        match self {
            Supports::Uniform(enc) => enc.shape.k,
            Supports::Ragged(sup) => sup.read_header(t, g).0,
        }
    }

    /// Monomial `g`'s `(k, p, j)`: its factor count, equation and slot
    /// in the equation. A uniform encoding divides by `m` (2 integer
    /// ops); a ragged one reads the header.
    #[inline]
    pub fn owner<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
    ) -> (usize, usize, usize) {
        match self {
            Supports::Uniform(enc) => {
                t.iops(2);
                (enc.shape.k, g / enc.shape.m, g % enc.shape.m)
            }
            Supports::Ragged(sup) => sup.read_header(t, g),
        }
    }

    /// Factor `j` of monomial `g` as `(variable, exponent − 1)`.
    #[inline]
    pub fn read_factor<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
        j: usize,
    ) -> (usize, usize) {
        match self {
            Supports::Uniform(enc) => enc.read_factor(t, g, j),
            Supports::Ragged(sup) => sup.read_factor(t, g, j),
        }
    }

    /// The variable of factor `j` of monomial `g`.
    #[inline]
    pub fn read_position<T: DeviceValue>(
        &self,
        t: &mut ThreadCtx<'_, T>,
        g: usize,
        j: usize,
    ) -> usize {
        match self {
            Supports::Uniform(enc) => enc.read_position(t, g, j),
            Supports::Ragged(sup) => sup.read_position(t, g, j),
        }
    }

    /// Bytes of constant memory these supports occupy.
    pub fn constant_bytes(&self) -> usize {
        match self {
            Supports::Uniform(enc) => enc.constant_bytes(),
            Supports::Ragged(sup) => sup.constant_bytes(),
        }
    }
}

/// Allocate two constant regions, or neither: when the second does not
/// fit, the first goes back to the arena, so a rejected upload leaves
/// [`ConstantMemory::used`] where it was.
fn alloc_pair(
    constant: &mut ConstantMemory,
    first: &[u8],
    second: &[u8],
) -> Result<(ConstId, ConstId), ConstantOverflow> {
    let a = constant.alloc(first)?;
    match constant.alloc(second) {
        Ok(b) => Ok((a, b)),
        Err(e) => {
            constant.free(a);
            Err(e)
        }
    }
}
