//! The launch executor: runs a kernel's blocks (in parallel on the
//! host via rayon — blocks are independent within a launch, exactly as
//! on the device), analyzes traces, applies buffered writes, and models
//! the launch time.

use crate::analysis::Analyzer;
use crate::device::DeviceSpec;
use crate::kernel::{BlockCtx, Kernel, LaunchConfig};
use crate::mem::{BufferId, ConstantMemory, GlobalMem};
use crate::occupancy::{occupancy, Occupancy};
use crate::stats::Counters;
use crate::timing::{model_launch, LaunchTiming};
use crate::trace::ThreadTrace;
use crate::value::DeviceValue;
use rayon::prelude::*;
use std::fmt;

/// Errors that abort a launch before any block runs (the CUDA
/// equivalents are `cudaErrorInvalidConfiguration` and friends).
#[derive(Debug, Clone, PartialEq)]
pub enum LaunchError {
    /// Block exceeds device limits or zero-sized.
    BadConfig(String),
    /// One block's shared memory exceeds the SM's capacity.
    SharedOverflow { needed: usize, capacity: usize },
    /// Two threads (possibly of different blocks) stored to the same
    /// global element in one launch — undefined behaviour on hardware,
    /// reported deterministically here.
    WriteConflict { buffer: usize, index: usize },
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::BadConfig(msg) => write!(f, "invalid launch configuration: {msg}"),
            LaunchError::SharedOverflow { needed, capacity } => write!(
                f,
                "shared memory per block ({needed} B) exceeds SM capacity ({capacity} B)"
            ),
            LaunchError::WriteConflict { buffer, index } => write!(
                f,
                "global write conflict on buffer {buffer} element {index}"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Options controlling a launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchOptions {
    /// Detect duplicate global stores: one pass over the launch's
    /// stores, marking each in a bitset per buffer.
    pub check_write_conflicts: bool,
    /// Run blocks on host threads (rayon). A grid of fewer than
    /// [`rayon::INLINE_BELOW`] blocks runs on the calling thread either
    /// way; disable for strictly serial debugging of larger grids.
    pub parallel_host: bool,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            check_write_conflicts: true,
            parallel_host: true,
        }
    }
}

/// The result of one launch: counters and modeled timing.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    pub kernel_name: String,
    pub config: LaunchConfig,
    pub shared_bytes_per_block: usize,
    pub counters: Counters,
    pub occupancy: Occupancy,
    pub timing: LaunchTiming,
}

impl fmt::Display for LaunchReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "kernel `{}`: grid {} x block {}, {} B shared/block, {} blocks/SM ({:?}-limited)",
            self.kernel_name,
            self.config.grid_dim,
            self.config.block_dim,
            self.shared_bytes_per_block,
            self.occupancy.blocks_per_sm,
            self.occupancy.limiter,
        )?;
        writeln!(f, "{}", self.counters)?;
        write!(
            f,
            "  modeled: {:.3} us kernel + {:.3} us overhead, {} wave(s), {:?}-bound",
            self.timing.kernel_seconds * 1e6,
            self.timing.overhead_seconds * 1e6,
            self.timing.waves,
            self.timing.bound
        )
    }
}

/// What one host thread keeps from block to block of a launch: the
/// warp analyzer and the threads' trace buffers, which later blocks
/// reuse instead of growing their own.
#[derive(Default)]
struct Worker {
    analyzer: Analyzer,
    traces: Vec<ThreadTrace>,
}

/// Execute `kernel` over `cfg` against `global`/`constant`.
///
/// Functionally: all blocks run, buffered global stores are applied
/// after every block finishes (CUDA guarantees no inter-block write
/// visibility within a launch; none of the paper's kernels relies on
/// it). Performance-wise: traces are analyzed per block and reduced
/// into launch counters, then fed to the timing model.
pub fn launch<T: DeviceValue, K: Kernel<T>>(
    device: &DeviceSpec,
    kernel: &K,
    cfg: LaunchConfig,
    global: &mut GlobalMem<T>,
    constant: &ConstantMemory,
    opts: LaunchOptions,
) -> Result<LaunchReport, LaunchError> {
    if cfg.block_dim == 0 || cfg.grid_dim == 0 {
        return Err(LaunchError::BadConfig(format!(
            "grid {} x block {}",
            cfg.grid_dim, cfg.block_dim
        )));
    }
    if cfg.block_dim > device.max_threads_per_block {
        return Err(LaunchError::BadConfig(format!(
            "block of {} threads exceeds device limit {}",
            cfg.block_dim, device.max_threads_per_block
        )));
    }
    let shared_elems = kernel.shared_elems(cfg.block_dim);
    let shared_bytes = shared_elems * T::DEVICE_BYTES;
    if shared_bytes > device.shared_mem_per_sm {
        return Err(LaunchError::SharedOverflow {
            needed: shared_bytes,
            capacity: device.shared_mem_per_sm,
        });
    }
    let occ = occupancy(
        device,
        cfg.block_dim,
        shared_bytes,
        kernel.regs_per_thread(),
    )
    .ok_or_else(|| {
        LaunchError::BadConfig("kernel does not fit on an SM at any occupancy".into())
    })?;

    type BlockOutcome<T> = (Counters, Vec<(BufferId, usize, T)>);
    let run_block = |worker: &mut Worker, block_id: u32| -> BlockOutcome<T> {
        let traces = std::mem::take(&mut worker.traces);
        let mut blk = BlockCtx::new(block_id, cfg, shared_elems, global, constant, traces);
        kernel.run_block(&mut blk);
        let counters = worker.analyzer.block::<T>(device, &blk.traces);
        worker.traces = blk.traces;
        (counters, blk.writes)
    };

    // Blocks are independent; run them on host threads, each with its
    // own buffers. Results are collected in block order, so everything
    // downstream is deterministic regardless of scheduling.
    let results: Vec<BlockOutcome<T>> = if opts.parallel_host {
        (0..cfg.grid_dim)
            .into_par_iter()
            .map_init(Worker::default, run_block)
            .collect()
    } else {
        let mut worker = Worker::default();
        (0..cfg.grid_dim)
            .map(|b| run_block(&mut worker, b))
            .collect()
    };

    let mut counters = Counters::default();
    for (c, _) in &results {
        counters += *c;
    }

    if opts.check_write_conflicts {
        // One bit per element stored to, per buffer, marked in block
        // order: the first element marked twice is the conflict.
        let mut marked: Vec<Vec<u64>> = Vec::new();
        for (_, writes) in &results {
            for &(buf, idx, _) in writes {
                if marked.len() <= buf.0 {
                    marked.resize_with(buf.0 + 1, Vec::new);
                }
                let bits = &mut marked[buf.0];
                let (word, bit) = (idx / 64, 1u64 << (idx % 64));
                if bits.len() <= word {
                    bits.resize(word + 1, 0);
                }
                if bits[word] & bit != 0 {
                    return Err(LaunchError::WriteConflict {
                        buffer: buf.0,
                        index: idx,
                    });
                }
                bits[word] |= bit;
            }
        }
    }

    for (_, writes) in results {
        for (buf, idx, v) in writes {
            global.write(buf, idx, v);
        }
    }

    let timing = model_launch(device, cfg, occ, &counters);
    Ok(LaunchReport {
        kernel_name: kernel.name().to_string(),
        config: cfg,
        shared_bytes_per_block: shared_bytes,
        counters,
        occupancy: occ,
        timing,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::C64;

    /// y[i] = a*x[i] + y[i] over complex doubles: one coalesced load
    /// pair, a multiply-add, one coalesced store.
    struct Caxpy {
        a: C64,
        x: BufferId,
        y: BufferId,
        n: usize,
    }

    impl Kernel<C64> for Caxpy {
        fn name(&self) -> &str {
            "caxpy"
        }
        fn shared_elems(&self, _b: u32) -> usize {
            0
        }
        fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
            let (a, x, y, n) = (self.a, self.x, self.y, self.n);
            blk.threads(|t| {
                let i = t.global_tid() as usize;
                if i < n {
                    let xv = t.gload(x, i);
                    let yv = t.gload(y, i);
                    let ax = t.mul(a, xv);
                    let s = t.add(ax, yv);
                    t.gstore(y, i, s);
                }
            });
        }
    }

    fn setup(n: usize) -> (DeviceSpec, GlobalMem<C64>, ConstantMemory, Caxpy) {
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::new();
        let x = g.alloc(n);
        let y = g.alloc(n);
        let xs: Vec<C64> = (0..n).map(|i| C64::from_f64(i as f64, 1.0)).collect();
        let ys: Vec<C64> = (0..n).map(|i| C64::from_f64(0.5, -(i as f64))).collect();
        g.host_write(x, 0, &xs);
        g.host_write(y, 0, &ys);
        let cm = ConstantMemory::new(&dev);
        let k = Caxpy {
            a: C64::from_f64(2.0, 1.0),
            x,
            y,
            n,
        };
        (dev, g, cm, k)
    }

    #[test]
    fn caxpy_computes_correct_values() {
        let n = 100;
        let (dev, mut g, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        let report = launch(&dev, &k, cfg, &mut g, &cm, LaunchOptions::default()).unwrap();
        let a = C64::from_f64(2.0, 1.0);
        for i in 0..n {
            let want = a * C64::from_f64(i as f64, 1.0) + C64::from_f64(0.5, -(i as f64));
            assert_eq!(g.host_read(k.y)[i], want, "element {i}");
        }
        assert_eq!(report.counters.divergent_segments, 0);
        // 4 warps minus masked tail: grid covers 128 threads for n=100.
        assert_eq!(report.counters.warps, 4);
    }

    #[test]
    fn serial_and_parallel_execution_agree() {
        let n = 600;
        let (dev, mut g1, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        // Large enough that the parallel launch really runs on threads.
        assert!(cfg.grid_dim as usize >= rayon::INLINE_BELOW);
        let r1 = launch(&dev, &k, cfg, &mut g1, &cm, LaunchOptions::default()).unwrap();
        let (_, mut g2, cm2, k2) = setup(n);
        let r2 = launch(
            &dev,
            &k2,
            cfg,
            &mut g2,
            &cm2,
            LaunchOptions {
                parallel_host: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g1.host_read(k.y), g2.host_read(k2.y));
        assert_eq!(r1.counters, r2.counters);
    }

    #[test]
    fn coalescing_counted_for_unit_stride() {
        let n = 128;
        let (dev, mut g, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        let report = launch(&dev, &k, cfg, &mut g, &cm, LaunchOptions::default()).unwrap();
        // Per warp: 2 loads + 1 store, each 4 transactions (32 x 16B /
        // 128B), 4 warps -> 48 transactions.
        assert_eq!(report.counters.global_transactions, 48);
        assert_eq!(report.counters.global_bytes, 48 * 128);
    }

    /// Batched caxpy: `P` independent instances in one launch via a
    /// point-major [`LaunchConfig::cover_batch`] grid.
    struct BatchCaxpy {
        a: C64,
        x: BufferId,
        y: BufferId,
        n: usize,
        inner: u32,
    }

    impl Kernel<C64> for BatchCaxpy {
        fn name(&self) -> &str {
            "batch_caxpy"
        }
        fn shared_elems(&self, _b: u32) -> usize {
            0
        }
        fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
            let (a, x, y, n, inner) = (self.a, self.x, self.y, self.n, self.inner);
            // Per-instance regions are pitched to the coalescing
            // segment (128 B = 8 complex doubles) so each instance's
            // access pattern — and hence its transaction count — is
            // identical to a single-instance launch.
            let stride = n.next_multiple_of(8);
            let point = (blk.block_id() / inner) as usize;
            let chunk = blk.block_id() % inner;
            let block_dim = blk.block_dim() as usize;
            blk.threads(|t| {
                let i = chunk as usize * block_dim + t.tid() as usize;
                if i < n {
                    let xv = t.gload(x, point * stride + i);
                    let yv = t.gload(y, point * stride + i);
                    let ax = t.mul(a, xv);
                    let s = t.add(ax, yv);
                    t.gstore(y, point * stride + i, s);
                }
            });
        }
    }

    #[test]
    fn batched_grid_matches_separate_launches_bitwise() {
        let n = 100usize; // not a multiple of the block
        let stride = n.next_multiple_of(8); // 128 B pitch in C64 elements
        let p = 3;
        let dev = DeviceSpec::tesla_c2050();
        let a = C64::from_f64(2.0, 1.0);
        let xs: Vec<C64> = (0..p * n).map(|i| C64::from_f64(i as f64, 1.0)).collect();
        let ys: Vec<C64> = (0..p * n)
            .map(|i| C64::from_f64(0.5, -(i as f64)))
            .collect();

        // One batched launch over all p instances.
        let mut gb = GlobalMem::new();
        let (xb, yb) = (gb.alloc(p * stride), gb.alloc(p * stride));
        for i in 0..p {
            gb.host_write(xb, i * stride, &xs[i * n..(i + 1) * n]);
            gb.host_write(yb, i * stride, &ys[i * n..(i + 1) * n]);
        }
        let cfg = LaunchConfig::cover_batch(p, n, 32);
        let kb = BatchCaxpy {
            a,
            x: xb,
            y: yb,
            n,
            inner: LaunchConfig::blocks_for(n, 32),
        };
        let rb = launch(
            &dev,
            &kb,
            cfg,
            &mut gb,
            &ConstantMemory::new(&dev),
            LaunchOptions::default(),
        )
        .unwrap();

        // p separate single-instance launches.
        let mut singles: Vec<C64> = Vec::new();
        let mut counters = Counters::default();
        for i in 0..p {
            let mut g = GlobalMem::new();
            let (x, y) = (g.alloc(n), g.alloc(n));
            g.host_write(x, 0, &xs[i * n..(i + 1) * n]);
            g.host_write(y, 0, &ys[i * n..(i + 1) * n]);
            let k = Caxpy { a, x, y, n };
            let r = launch(
                &dev,
                &k,
                LaunchConfig::cover(n, 32),
                &mut g,
                &ConstantMemory::new(&dev),
                LaunchOptions::default(),
            )
            .unwrap();
            counters += r.counters;
            singles.extend_from_slice(g.host_read(y));
        }

        // Bit-for-bit identical results; counters for the larger grid
        // are exactly the sum over the separate launches.
        let batched = gb.host_read(yb);
        for i in 0..p {
            assert_eq!(
                &batched[i * stride..i * stride + n],
                &singles[i * n..(i + 1) * n]
            );
        }
        assert_eq!(rb.counters, counters);
        assert_eq!(rb.config.grid_dim, 3 * 4);
    }

    #[test]
    fn write_conflicts_detected() {
        struct Collider {
            y: BufferId,
        }
        impl Kernel<C64> for Collider {
            fn name(&self) -> &str {
                "collider"
            }
            fn shared_elems(&self, _b: u32) -> usize {
                0
            }
            fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
                let y = self.y;
                blk.threads(|t| {
                    // every thread stores to element 0
                    let v = C64::from_f64(t.tid() as f64, 0.0);
                    t.gstore(y, 0, v);
                });
            }
        }
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::new();
        let y = g.alloc(4);
        let cm = ConstantMemory::new(&dev);
        let err = launch(
            &dev,
            &Collider { y },
            LaunchConfig::new(1, 32),
            &mut g,
            &cm,
            LaunchOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            LaunchError::WriteConflict {
                buffer: 0,
                index: 0
            }
        ));

        // Two blocks store to one element of a second buffer: block 0
        // writes elements 0..32, block 1 writes 31..63. Element 31 is
        // the first stored twice in block order.
        struct Overlap {
            y: BufferId,
        }
        impl Kernel<C64> for Overlap {
            fn name(&self) -> &str {
                "overlap"
            }
            fn shared_elems(&self, _b: u32) -> usize {
                0
            }
            fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
                let (y, base) = (self.y, 31 * blk.block_id() as usize);
                blk.threads(|t| {
                    let v = C64::from_f64(t.tid() as f64, 0.0);
                    t.gstore(y, base + t.tid() as usize, v);
                });
            }
        }
        let mut g = GlobalMem::new();
        let _x = g.alloc(4);
        let y = g.alloc(100);
        let err = launch(
            &dev,
            &Overlap { y },
            LaunchConfig::new(2, 32),
            &mut g,
            &cm,
            LaunchOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            LaunchError::WriteConflict {
                buffer: 1,
                index: 31
            }
        );
        // Without the check the launch runs; the later block's store
        // lands last.
        launch(
            &dev,
            &Overlap { y },
            LaunchConfig::new(2, 32),
            &mut g,
            &cm,
            LaunchOptions {
                check_write_conflicts: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(g.host_read(y)[31], C64::from_f64(0.0, 0.0));
        assert_eq!(g.host_read(y)[30], C64::from_f64(30.0, 0.0));
    }

    #[test]
    fn bad_configs_rejected() {
        let (dev, mut g, cm, k) = setup(4);
        assert!(matches!(
            launch(
                &dev,
                &k,
                LaunchConfig::new(0, 32),
                &mut g,
                &cm,
                LaunchOptions::default()
            ),
            Err(LaunchError::BadConfig(_))
        ));
        assert!(matches!(
            launch(
                &dev,
                &k,
                LaunchConfig::new(1, 0),
                &mut g,
                &cm,
                LaunchOptions::default()
            ),
            Err(LaunchError::BadConfig(_))
        ));
        assert!(matches!(
            launch(
                &dev,
                &k,
                LaunchConfig::new(1, 2048),
                &mut g,
                &cm,
                LaunchOptions::default()
            ),
            Err(LaunchError::BadConfig(_))
        ));
    }

    #[test]
    fn shared_overflow_rejected() {
        struct Hog;
        impl Kernel<C64> for Hog {
            fn name(&self) -> &str {
                "hog"
            }
            fn shared_elems(&self, _b: u32) -> usize {
                4096 // 64 KiB of complex doubles > 48 KiB
            }
            fn run_block(&self, _blk: &mut BlockCtx<'_, C64>) {}
        }
        let dev = DeviceSpec::tesla_c2050();
        let mut g = GlobalMem::<C64>::new();
        let cm = ConstantMemory::new(&dev);
        let err = launch(
            &dev,
            &Hog,
            LaunchConfig::new(1, 32),
            &mut g,
            &cm,
            LaunchOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::SharedOverflow { .. }));
    }

    #[test]
    fn timing_report_is_populated() {
        let n = 1024;
        let (dev, mut g, cm, k) = setup(n);
        let cfg = LaunchConfig::cover(n, 32);
        let report = launch(&dev, &k, cfg, &mut g, &cm, LaunchOptions::default()).unwrap();
        assert!(report.timing.kernel_seconds > 0.0);
        assert!(report.timing.total_seconds() > report.timing.kernel_seconds);
        assert!(report.occupancy.blocks_per_sm >= 1);
        let shown = format!("{report}");
        assert!(shown.contains("caxpy"));
    }
}
