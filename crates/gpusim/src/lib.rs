//! # polygpu-gpusim — a trace-based SIMT GPU simulator
//!
//! The hardware substitution of this reproduction: the paper ran its
//! kernels on a physical NVIDIA Tesla C2050; this crate provides a
//! functionally exact, performance-modeled stand-in.
//!
//! * **Functional**: kernels are Rust closures over a
//!   [`kernel::ThreadCtx`]; they produce real numeric results
//!   (validated against CPU references bit for bit in double).
//! * **Performance-modeled**: every traced memory access and arithmetic
//!   op is replayed warp-wide ([`analysis`]) — coalescing into 128-byte
//!   transactions, shared-memory bank conflicts, constant-memory
//!   broadcast, divergence detection — and fed to an analytic
//!   latency/throughput/bandwidth model ([`timing`]) with the Fermi
//!   figures of the paper's card ([`device::DeviceSpec::tesla_c2050`]).
//!
//! The simulator executes blocks in parallel on the host with rayon,
//! except a grid of fewer than `rayon::INLINE_BELOW` (16) blocks, which
//! runs on the calling thread; blocks are independent within a launch
//! (as on the device), so the results are the same either way. Writes
//! are buffered and applied post-launch, and cross-block write
//! conflicts are detected (one bitset per buffer) and reported instead
//! of being silent UB. The host work of a launch is its blocks' run,
//! one pass of the warp analyzer over each slot of their traces, and
//! one pass over their stores.
//!
//! ```
//! use polygpu_gpusim::prelude::*;
//! use polygpu_complex::C64;
//!
//! struct Doubler { buf: BufferId, n: usize }
//! impl Kernel<C64> for Doubler {
//!     fn name(&self) -> &str { "doubler" }
//!     fn shared_elems(&self, _b: u32) -> usize { 0 }
//!     fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
//!         let (buf, n) = (self.buf, self.n);
//!         blk.threads(|t| {
//!             let i = t.global_tid() as usize;
//!             if i < n {
//!                 let v = t.gload(buf, i);
//!                 let d = t.add(v, v);
//!                 t.gstore(buf, i, d);
//!             }
//!         });
//!     }
//! }
//!
//! let device = DeviceSpec::tesla_c2050();
//! let mut global = GlobalMem::new();
//! let buf = global.alloc(64);
//! global.host_write(buf, 0, &vec![C64::from_f64(1.5, -2.0); 64]);
//! let constant = ConstantMemory::new(&device);
//! let report = launch(
//!     &device,
//!     &Doubler { buf, n: 64 },
//!     LaunchConfig::cover(64, 32),
//!     &mut global,
//!     &constant,
//!     LaunchOptions::default(),
//! ).unwrap();
//! assert_eq!(global.host_read(buf)[7], C64::from_f64(3.0, -4.0));
//! assert_eq!(report.counters.divergent_segments, 0);
//! ```

pub mod analysis;
pub mod device;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod linalg;
pub mod mem;
pub mod obs;
pub mod occupancy;
pub mod stats;
pub mod stream;
pub mod timing;
pub mod trace;
pub mod value;

/// The commonly-needed surface in one import.
pub mod prelude {
    pub use crate::device::DeviceSpec;
    pub use crate::exec::{launch, LaunchError, LaunchOptions, LaunchReport};
    pub use crate::fault::{
        FaultError, FaultInjector, FaultKind, FaultPlan, FaultStats, OpClass, RecoveryPolicy,
    };
    pub use crate::kernel::{BlockCtx, Kernel, LaunchConfig, ThreadCtx};
    pub use crate::linalg::{
        backsub_cost, factor_solve_cost, lu_factor_cost, mgs_factor_cost, FactorSolveCost,
        LinalgCost, Staging,
    };
    pub use crate::mem::{BufferId, ConstId, ConstantMemory, ConstantOverflow, GlobalMem};
    pub use crate::obs::emit_timeline;
    pub use crate::occupancy::{occupancy, Limiter, Occupancy};
    pub use crate::stats::Counters;
    pub use crate::stream::{pipeline_timeline, Engine, Event, Stream, Timeline, TransferPath};
    pub use crate::timing::{transfer_seconds, Bound, LaunchTiming};
    pub use crate::value::DeviceValue;
}

pub use prelude::*;
