//! Two-clock benchmark of polygpu. See `src/main.rs` for the command
//! line and `BENCHMARK.json` at the repository root for the workloads.

pub mod account;
pub mod clock;
pub mod inputs;
// Written by `examples/freeze.rs`, one entry a line.
#[rustfmt::skip]
pub mod pool;
pub mod probe;
pub mod replay;
pub mod run;
