//! The evaluation kernels: the paper's kernels 1 and 2 fused into one
//! monomial kernel, and kernel 3 (sums) — each at `P` points per
//! launch, over the uniform encodings ([`batch`]) and over ragged
//! supports on packed keys ([`sparse`]).

pub mod batch;
pub mod monomial;
pub mod sparse;

pub use batch::{BatchLayout, BatchMonomialKernel, BatchSumKernel};
pub use sparse::{SparseMonomialKernel, SparseSumKernel};
