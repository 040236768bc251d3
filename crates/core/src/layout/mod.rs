//! Device memory layouts: constant-memory support encodings (uniform
//! and ragged packed-key), the derivative-major `Coeffs` array, and the
//! summation-friendly `Mons` array.

pub mod coeffs;
pub mod encoding;
pub mod mons;
pub mod packed;

use polygpu_gpusim::{ConstId, ConstantMemory, ConstantOverflow};

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
