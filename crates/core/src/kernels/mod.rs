//! The evaluation kernels: the paper's kernels 1 and 2 fused into one
//! monomial kernel, and kernel 3 (sums) — each at `P` points per
//! launch, one program for uniform and ragged supports
//! ([`crate::layout::Supports`]).

pub mod batch;
pub mod monomial;

pub use batch::{BatchLayout, SumKernel};
pub use monomial::MonomialKernel;
