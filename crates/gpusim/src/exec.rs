//! The launch executor: runs a kernel's blocks in waves (each wave in
//! parallel on the host via rayon — blocks are independent within a
//! launch, exactly as on the device), analyzes traces, applies each
//! wave's buffered stores before the next wave runs, and models the
//! launch time.

use crate::analysis::Analyzer;
use crate::device::DeviceSpec;
use crate::kernel::{BlockCtx, Kernel, LaunchConfig};
use crate::mem::{BufferId, ConstantMemory, GlobalMem, StoreMarks};
use crate::occupancy::{occupancy, Occupancy};
use crate::stats::Counters;
use crate::timing::{model_launch, LaunchTiming};
use crate::trace::ThreadTrace;
use crate::value::DeviceValue;
use rayon::prelude::*;
use std::fmt;

/// Errors that fail a launch. The configuration errors come before any
/// block runs (the CUDA equivalents are `cudaErrorInvalidConfiguration`
/// and friends); the two races come from running the blocks.
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
    /// A block loaded a global element that a block of an earlier wave
    /// of the same launch stored: a cross-block race that hardware
    /// leaves undefined, reported here instead of reading a value that
    /// depends on the wave size. The first such load in block order.
    ReadAfterWrite { buffer: usize, index: usize },
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
            LaunchError::ReadAfterWrite { buffer, index } => write!(
                f,
                "global load of buffer {buffer} element {index} after another block of the launch stored it"
            ),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Options controlling a launch.
#[derive(Debug, Clone, Copy)]
pub struct LaunchOptions {
    /// Run blocks on host threads (rayon). A wave of fewer than
    /// [`rayon::INLINE_BELOW`] blocks runs on the calling thread either
    /// way; disable for strictly serial debugging of larger grids.
    pub parallel_host: bool,
}

impl Default for LaunchOptions {
    fn default() -> Self {
        LaunchOptions {
            parallel_host: true,
        }
    }
}

/// Blocks per wave: a launch runs its grid this many blocks at a time
/// and applies each wave's stores before the next, so the host holds
/// at most one wave's stores. Fixed, not tied to the host's thread
/// count, so whether a racy launch fails does not depend on the
/// machine.
///
/// Picked by measurement on a 2-core machine: `eval-table1`'s 3,072-
/// and 2,112-block launches peaked at 63.9 MB resident with 64 blocks
/// per wave, 64.4 MB with 256 and 75.0 MB with 1,024, against 103.1 MB
/// for the whole grid at once; host time did not differ beyond noise.
/// At 256 the smaller workloads' launches are one wave.
const WAVE_BLOCKS: u32 = 256;

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

/// What one block leaves for its wave's end: its counters, its
/// buffered stores and its first load of an element an earlier wave
/// stored.
struct BlockOutcome<T> {
    counters: Counters,
    writes: Vec<(BufferId, usize, T)>,
    stale_load: Option<(BufferId, usize)>,
}

/// Execute `kernel` over `cfg` against `global`/`constant`.
///
/// Functionally: the grid runs in waves of a fixed number of blocks,
/// and each wave's buffered global stores are applied, in block order,
/// before the next wave starts, so the host holds at most one wave's
/// stores. Every load reads the element as it was before the launch
/// (CUDA guarantees no inter-block write visibility within a launch;
/// none of the paper's kernels relies on it): a load of an element that
/// an earlier wave stored fails the launch with
/// [`LaunchError::ReadAfterWrite`], and two stores to one element with
/// [`LaunchError::WriteConflict`], the first in block order either way.
/// A stale load is reported before its wave's stores are checked. Waves
/// cannot be observed otherwise: a launch that succeeds leaves memory,
/// counters and timing as if every block had run before any store
/// landed. A launch that fails may leave earlier waves' stores applied.
///
/// Performance-wise: traces are analyzed per block and reduced into
/// launch counters in block order, then fed to the timing model.
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

    let run_block = |worker: &mut Worker,
                     block_id: u32,
                     global: &GlobalMem<T>,
                     stored: Option<&StoreMarks>|
     -> BlockOutcome<T> {
        let traces = std::mem::take(&mut worker.traces);
        let mut blk = BlockCtx::new(
            block_id,
            cfg,
            shared_elems,
            global,
            constant,
            stored,
            traces,
        );
        kernel.run_block(&mut blk);
        let counters = worker.analyzer.block::<T>(device, &blk.traces);
        worker.traces = blk.traces;
        BlockOutcome {
            counters,
            writes: blk.writes,
            stale_load: blk.stale_load,
        }
    };

    let mut counters = Counters::default();
    let mut stored = StoreMarks::default();
    let mut serial = Worker::default();
    for start in (0..cfg.grid_dim).step_by(WAVE_BLOCKS as usize) {
        let wave = start..cfg.grid_dim.min(start.saturating_add(WAVE_BLOCKS));
        // Blocks are independent; run the wave's on host threads, each
        // with its own buffers. Outcomes are collected in block order,
        // so everything downstream is deterministic regardless of
        // scheduling.
        let earlier = (start > 0).then_some(&stored);
        let outcomes: Vec<BlockOutcome<T>> = if opts.parallel_host {
            wave.into_par_iter()
                .map_init(Worker::default, |w, b| run_block(w, b, global, earlier))
                .collect()
        } else {
            wave.map(|b| run_block(&mut serial, b, global, earlier))
                .collect()
        };
        if let Some((buf, index)) = outcomes.iter().find_map(|o| o.stale_load) {
            return Err(LaunchError::ReadAfterWrite {
                buffer: buf.0,
                index,
            });
        }
        global.apply_stores(&mut stored, outcomes.iter().map(|o| o.writes.as_slice()))?;
        for o in &outcomes {
            counters += o.counters;
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
            assert_eq!(g.host_read(k.y, ..)[i], want, "element {i}");
        }
        assert_eq!(report.counters.divergent_segments, 0);
        // 4 warps minus masked tail: grid covers 128 threads for n=100.
        assert_eq!(report.counters.warps, 4);
    }

    #[test]
    fn serial_and_parallel_execution_agree() {
        // One wave large enough that the parallel launch really runs on
        // threads, and a grid of two waves, the second of two blocks.
        for n in [600, (WAVE_BLOCKS as usize + 1) * 32 + 5] {
            let (dev, mut g1, cm, k) = setup(n);
            let cfg = LaunchConfig::cover(n, 32);
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
                },
            )
            .unwrap();
            assert_eq!(g1.host_read(k.y, ..), g2.host_read(k2.y, ..));
            assert_eq!(r1.counters, r2.counters);
        }
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
            singles.extend_from_slice(&g.host_read(y, ..));
        }

        // Bit-for-bit identical results; counters for the larger grid
        // are exactly the sum over the separate launches.
        let batched = gb.host_read(yb, ..);
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
    }

    /// The all-at-once executor that waves replaced, kept as the
    /// reference they must match: every block runs against the
    /// pre-launch memory, then all stores are applied in block order.
    fn launch_all_at_once<K: Kernel<C64>>(
        dev: &DeviceSpec,
        kernel: &K,
        cfg: LaunchConfig,
        global: &mut GlobalMem<C64>,
        constant: &ConstantMemory,
    ) -> Result<Counters, LaunchError> {
        let shared = kernel.shared_elems(cfg.block_dim);
        let mut analyzer = Analyzer::default();
        let mut counters = Counters::default();
        let mut writes = Vec::new();
        for b in 0..cfg.grid_dim {
            let mut blk = BlockCtx::new(b, cfg, shared, global, constant, None, Vec::new());
            kernel.run_block(&mut blk);
            counters += analyzer.block::<C64>(dev, &blk.traces);
            writes.push(blk.writes);
        }
        global.apply_stores(&mut StoreMarks::default(), writes.iter().map(Vec::as_slice))?;
        Ok(counters)
    }

    /// A kernel that follows a script: global thread `g` loads
    /// `loads[g]`, adds them to a value of its own, and stores the sum
    /// to `stores[g]`, if any.
    struct Scripted {
        loads: Vec<Vec<(BufferId, usize)>>,
        stores: Vec<Option<(BufferId, usize)>>,
    }

    impl Kernel<C64> for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn shared_elems(&self, _b: u32) -> usize {
            0
        }
        fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
            blk.threads(|t| {
                let g = t.global_tid() as usize;
                let mut acc = C64::from_f64(g as f64, 1.0);
                for &(buf, i) in &self.loads[g] {
                    let v = t.gload(buf, i);
                    acc = t.add(acc, v);
                }
                if let Some((buf, i)) = self.stores[g] {
                    t.gstore(buf, i, acc);
                }
            });
        }
    }

    /// Buffers of `len` elements each, the first half host-written (the
    /// rest reads as never-written zero).
    fn scripted_memory(buffers: usize, len: usize) -> (GlobalMem<C64>, Vec<BufferId>) {
        let mut g = GlobalMem::new();
        let ids: Vec<BufferId> = (0..buffers).map(|_| g.alloc(len)).collect();
        for (c, &id) in ids.iter().enumerate() {
            let init: Vec<C64> = (0..len / 2)
                .map(|i| C64::from_f64(i as f64, -(c as f64)))
                .collect();
            g.host_write(id, 0, &init);
        }
        (g, ids)
    }

    /// A launch's result and the memory it left.
    type Run = (Result<Counters, LaunchError>, GlobalMem<C64>);

    /// Run `kernel` through `launch` (in parallel) and through the
    /// all-at-once reference, each on a copy of `global`.
    fn against_the_reference(
        kernel: &Scripted,
        cfg: LaunchConfig,
        global: &GlobalMem<C64>,
    ) -> (Run, Run) {
        let dev = DeviceSpec::toy(4);
        let cm = ConstantMemory::new(&dev);
        let (mut waves, mut reference) = (global.clone(), global.clone());
        let got = launch(&dev, kernel, cfg, &mut waves, &cm, LaunchOptions::default())
            .map(|r| r.counters);
        let want = launch_all_at_once(&dev, kernel, cfg, &mut reference, &cm);
        ((got, waves), (want, reference))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random grids of one block up to three waves plus one, against
        /// the all-at-once reference. Every thread stores at most one
        /// element. Race-free scripts (`race` 0 or 1) load unstored
        /// elements, elements a later block stores and elements their own
        /// block stores, never one an earlier block stores, and store no
        /// element twice: they leave the same memory (values and backing)
        /// and the same counters as the reference. `race` 2 adds two loads
        /// of stored elements by random threads: the launch fails with the
        /// first load in block order of what an earlier wave stores, if
        /// any, and matches the reference otherwise. `race` 3 makes two
        /// threads store one element, and the launch fails with the
        /// reference's conflict.
        #[test]
        fn waves_cannot_be_observed(
            grid in proptest::prop_oneof![
                1u32..=3 * WAVE_BLOCKS + 1,
                proptest::prelude::Just(WAVE_BLOCKS + 1),
                proptest::prelude::Just(3 * WAVE_BLOCKS + 1),
            ],
            block_dim in 1u32..=8,
            buffers in 2usize..=3,
            race in 0u8..4,
            seed in 0u64..u64::MAX,
        ) {
            let threads = (grid * block_dim) as usize;
            let len = threads + 7;
            let (global, ids) = scripted_memory(buffers, len);
            // A splitmix64 stream per (thread, draw).
            let draw = |g: usize, k: usize| {
                let mut z = seed ^ ((g as u64) << 8 | k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize
            };
            let wave_of = |g: usize| g as u32 / block_dim / WAVE_BLOCKS;
            // Thread `g` may store element `(g * step + shift) % len` of
            // one buffer: distinct threads, distinct elements.
            let step = (len / 3 + 1..len).find(|&s| gcd(s, len) == 1).unwrap_or(1);
            let shift = seed as usize % len;
            let mut owner: Vec<Vec<Option<usize>>> = vec![vec![None; len]; buffers];
            let mut stores: Vec<Option<(BufferId, usize)>> = (0..threads)
                .map(|g| {
                    (draw(g, 0) % 4 != 0).then(|| {
                        let (c, i) = (draw(g, 1) % buffers, (g * step + shift) % len);
                        owner[c][i] = Some(g);
                        (ids[c], i)
                    })
                })
                .collect();
            let block_of = |g: usize| g as u32 / block_dim;
            let mut loads: Vec<Vec<(BufferId, usize)>> = (0..threads)
                .map(|g| {
                    let mut loads: Vec<(BufferId, usize)> = (0..draw(g, 2) % 4)
                        .map(|k| (draw(g, 3 + 2 * k) % buffers, draw(g, 4 + 2 * k) % len))
                        .filter(|&(c, i)| owner[c][i].is_none_or(|o| block_of(o) >= block_of(g)))
                        .map(|(c, i)| (ids[c], i))
                        .collect();
                    // A load of what a thread of this block stores.
                    let mate = (block_of(g) * block_dim + draw(g, 11) as u32 % block_dim) as usize;
                    loads.extend(stores[mate]);
                    loads
                })
                .collect();
            let stored: Vec<usize> = (0..threads).filter(|&g| stores[g].is_some()).collect();
            if race == 2 && !stored.is_empty() {
                // Up to two threads load what a random thread stores.
                for k in 0..2 {
                    let (g, o) = (draw(k, 12) % threads, stored[draw(k, 13) % stored.len()]);
                    loads[g].push(stores[o].expect("a storing thread"));
                }
            }
            if race == 3 && stored.len() >= 2 {
                // A storing thread stores what an earlier one stores
                // (whose loads of it stay race-free).
                let (a, b) = (stored[draw(0, 14) % stored.len()], stored[draw(0, 15) % stored.len()]);
                if a != b {
                    stores[a.max(b)] = stores[a.min(b)];
                }
            }
            // The first load in block order of what an earlier wave
            // stores.
            let stale = (0..threads).find_map(|g| {
                loads[g].iter().find_map(|&(buf, i)| {
                    owner[buf.0][i]
                        .is_some_and(|o| wave_of(o) < wave_of(g))
                        .then_some(LaunchError::ReadAfterWrite { buffer: buf.0, index: i })
                })
            });
            let kernel = Scripted { loads, stores };
            let ((got, waves), (want, reference)) =
                against_the_reference(&kernel, LaunchConfig::new(grid, block_dim), &global);
            match stale {
                Some(err) => proptest::prop_assert_eq!(got, Err(err)),
                None => proptest::prop_assert_eq!(&got, &want),
            }
            if race < 2 {
                proptest::prop_assert!(want.is_ok());
                for &id in &ids {
                    proptest::prop_assert_eq!(waves.host_read(id, ..), reference.host_read(id, ..));
                }
                proptest::prop_assert_eq!(waves.backed_bytes(), reference.backed_bytes());
            }
        }
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    /// A script of `grid` one-thread blocks that stores and loads only
    /// what `stores` and `loads` list, by block.
    fn one_thread_blocks(
        grid: u32,
        stores: &[(u32, BufferId, usize)],
        loads: &[(u32, BufferId, usize)],
    ) -> Scripted {
        let mut kernel = Scripted {
            loads: vec![Vec::new(); grid as usize],
            stores: vec![None; grid as usize],
        };
        for &(b, buf, i) in stores {
            kernel.stores[b as usize] = Some((buf, i));
        }
        for &(b, buf, i) in loads {
            kernel.loads[b as usize].push((buf, i));
        }
        kernel
    }

    #[test]
    fn conflicts_across_waves_match_the_reference() {
        let grid = 3 * WAVE_BLOCKS;
        let (global, ids) = scripted_memory(2, 64);
        let (a, b) = (ids[0], ids[1]);
        // Pairs of blocks storing one element: in different waves, in
        // one wave, and two conflicts of which the earlier in block
        // order is reported.
        let cases: [&[(u32, BufferId, usize)]; 3] = [
            &[(0, b, 5), (4, a, 5), (WAVE_BLOCKS, b, 5)],
            &[(3, a, 9), (WAVE_BLOCKS + 3, b, 9), (WAVE_BLOCKS + 7, b, 9)],
            &[
                (1, a, 2),
                (2 * WAVE_BLOCKS, b, 3),
                (WAVE_BLOCKS + 1, b, 3),
                (2 * WAVE_BLOCKS + 9, a, 2),
            ],
        ];
        let wanted = [(1, 5), (1, 9), (1, 3)];
        for (stores, (buffer, index)) in cases.into_iter().zip(wanted) {
            let kernel = one_thread_blocks(grid, stores, &[]);
            let ((got, _), (want, _)) =
                against_the_reference(&kernel, LaunchConfig::new(grid, 1), &global);
            assert_eq!(want, Err(LaunchError::WriteConflict { buffer, index }));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn a_load_of_what_an_earlier_wave_stored_fails_the_launch() {
        let grid = 2 * WAVE_BLOCKS + 1;
        let (global, ids) = scripted_memory(2, 64);
        let b = ids[1];
        // Block 3 stores element 7; block 5 loads it in the same wave
        // (the pre-launch value, as the reference reads), and blocks
        // `WAVE_BLOCKS + 9`, then `+ 2`, load it in the next wave. The
        // first stale load in block order is reported.
        let stores = [(3, b, 7), (WAVE_BLOCKS + 20, b, 8)];
        let loads = [(5, b, 7), (WAVE_BLOCKS + 9, b, 7), (WAVE_BLOCKS + 2, b, 7)];
        let kernel = one_thread_blocks(grid, &stores, &loads);
        let ((got, waves), (want, reference)) =
            against_the_reference(&kernel, LaunchConfig::new(grid, 1), &global);
        assert!(want.is_ok());
        assert_eq!(
            got,
            Err(LaunchError::ReadAfterWrite {
                buffer: 1,
                index: 7
            })
        );
        // The first wave's store stays applied; the failing wave's
        // does not land.
        assert_eq!(waves.host_read(b, 7..9)[0], reference.host_read(b, 7..9)[0]);
        assert_eq!(waves.host_read(b, 7..9)[1], global.host_read(b, 7..9)[1]);
        // Without the stale loads, the launch matches the reference.
        let kernel = one_thread_blocks(grid, &stores, &loads[..1]);
        let ((got, waves), (want, reference)) =
            against_the_reference(&kernel, LaunchConfig::new(grid, 1), &global);
        assert_eq!(got, want);
        assert_eq!(waves.host_read(b, ..), reference.host_read(b, ..));
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
