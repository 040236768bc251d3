//! The kernel authoring interface: [`Kernel`], [`BlockCtx`] and
//! [`ThreadCtx`].
//!
//! A kernel describes the work of one thread *block*, phrased as one or
//! more [`BlockCtx::threads`] segments separated by implicit barriers —
//! the structured equivalent of CUDA code with `__syncthreads()`
//! between phases. Within a segment each thread runs to completion
//! (valid because segments are data-parallel between barriers), while
//! every traced operation carries enough information for the warp
//! analyzer to reconstruct lockstep SIMT execution.

use crate::mem::{BufferId, ConstId, ConstantMemory, GlobalMem};
use crate::trace::{Ev, ThreadTrace};
use crate::value::DeviceValue;

/// Grid/block geometry of a launch (1-D, as in the paper's kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of blocks.
    pub grid_dim: u32,
    /// Threads per block.
    pub block_dim: u32,
}

impl LaunchConfig {
    pub fn new(grid_dim: u32, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
        }
    }

    /// Blocks needed to cover `work` items with `block_dim` threads.
    pub fn cover(work: usize, block_dim: u32) -> Self {
        LaunchConfig {
            grid_dim: Self::blocks_for(work, block_dim),
            block_dim,
        }
    }

    /// Blocks needed to cover `work` items with `block_dim` threads (at
    /// least one, so empty work still launches a guarded block).
    pub fn blocks_for(work: usize, block_dim: u32) -> u32 {
        (work.div_ceil(block_dim.max(1) as usize) as u32).max(1)
    }

    /// A linearized two-dimensional grid: `outer` independent problem
    /// instances ("points"), each covered by
    /// `blocks_for(inner_work, block_dim)` blocks, laid out
    /// **point-major**: block `b` serves instance `b / inner` at inner
    /// block index `b % inner`, where `inner = blocks_for(...)`.
    ///
    /// This is how a batched launch amortizes launch overhead: one grid
    /// of `outer × inner` blocks replaces `outer` separate launches of
    /// `inner` blocks, while each block's program stays identical to
    /// the single-instance kernel — the property that keeps batched
    /// results bit-for-bit equal to single-instance results. Per-launch
    /// counters need no special casing: they are reduced over all
    /// blocks of the (larger) grid in block order.
    pub fn cover_batch(outer: usize, inner_work: usize, block_dim: u32) -> Self {
        let inner = Self::blocks_for(inner_work, block_dim);
        LaunchConfig {
            grid_dim: (outer.max(1) as u32).saturating_mul(inner),
            block_dim,
        }
    }

    pub fn total_threads(&self) -> u64 {
        self.grid_dim as u64 * self.block_dim as u64
    }
}

/// A device kernel, generic over the element type it computes with.
pub trait Kernel<T: DeviceValue>: Sync {
    /// Name for reports.
    fn name(&self) -> &str;

    /// Shared-memory elements (of `T`) each block allocates. The
    /// occupancy model charges `shared_elems * T::DEVICE_BYTES` bytes.
    fn shared_elems(&self, block_dim: u32) -> usize;

    /// Registers per thread (occupancy input); default matches a
    /// typical small kernel.
    fn regs_per_thread(&self) -> u32 {
        24
    }

    /// The block program.
    fn run_block(&self, blk: &mut BlockCtx<'_, T>);
}

/// Per-block execution context handed to [`Kernel::run_block`].
pub struct BlockCtx<'a, T: DeviceValue> {
    pub(crate) block_id: u32,
    pub(crate) block_dim: u32,
    pub(crate) grid_dim: u32,
    pub(crate) global: &'a GlobalMem<T>,
    pub(crate) constant: &'a ConstantMemory,
    pub(crate) shared: Vec<T>,
    pub(crate) traces: Vec<ThreadTrace>,
    pub(crate) writes: Vec<(BufferId, usize, T)>,
}

impl<'a, T: DeviceValue> BlockCtx<'a, T> {
    /// A block that records into `traces`, cleared and resized to one
    /// trace per thread: a launch hands each block the buffers the
    /// previous block on its host thread recorded into.
    pub(crate) fn new(
        block_id: u32,
        cfg: LaunchConfig,
        shared_elems: usize,
        global: &'a GlobalMem<T>,
        constant: &'a ConstantMemory,
        mut traces: Vec<ThreadTrace>,
    ) -> Self {
        traces.truncate(cfg.block_dim as usize);
        traces.iter_mut().for_each(Vec::clear);
        traces.resize_with(cfg.block_dim as usize, Vec::new);
        BlockCtx {
            block_id,
            block_dim: cfg.block_dim,
            grid_dim: cfg.grid_dim,
            global,
            constant,
            shared: vec![T::zero(); shared_elems],
            traces,
            writes: Vec::new(),
        }
    }

    #[inline]
    pub fn block_id(&self) -> u32 {
        self.block_id
    }

    #[inline]
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    #[inline]
    pub fn grid_dim(&self) -> u32 {
        self.grid_dim
    }

    /// Run one barrier-delimited segment: the closure is invoked once
    /// per thread of the block (in thread order), then a barrier marker
    /// is appended to every trace — the `__syncthreads()` at the end of
    /// the phase.
    pub fn threads(&mut self, mut body: impl FnMut(&mut ThreadCtx<'_, T>)) {
        for tid in 0..self.block_dim {
            // Move this thread's trace out for the duration of its run
            // so `shared`/`writes` can be borrowed alongside it.
            let mut trace = std::mem::take(&mut self.traces[tid as usize]);
            let mut ctx = ThreadCtx {
                tid,
                block_id: self.block_id,
                block_dim: self.block_dim,
                global: self.global,
                constant: self.constant,
                shared: &mut self.shared,
                trace: &mut trace,
                writes: &mut self.writes,
            };
            body(&mut ctx);
            self.traces[tid as usize] = trace;
        }
        for t in &mut self.traces {
            t.push(Ev::Sync);
        }
    }
}

/// Per-thread view: every method that touches memory or does arithmetic
/// appends a trace event, mirroring what the hardware would issue.
pub struct ThreadCtx<'a, T: DeviceValue> {
    tid: u32,
    block_id: u32,
    block_dim: u32,
    global: &'a GlobalMem<T>,
    constant: &'a ConstantMemory,
    shared: &'a mut Vec<T>,
    trace: &'a mut ThreadTrace,
    writes: &'a mut Vec<(BufferId, usize, T)>,
}

impl<'a, T: DeviceValue> ThreadCtx<'a, T> {
    /// Thread index within the block.
    #[inline]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    #[inline]
    pub fn block_id(&self) -> u32 {
        self.block_id
    }

    #[inline]
    pub fn block_dim(&self) -> u32 {
        self.block_dim
    }

    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    #[inline]
    pub fn global_tid(&self) -> u32 {
        self.block_id * self.block_dim + self.tid
    }

    /// Global-memory load.
    #[inline]
    pub fn gload(&mut self, buf: BufferId, idx: usize) -> T {
        self.trace.push(Ev::GLoad {
            addr: self.global.addr(buf, idx),
        });
        self.global.read(buf, idx)
    }

    /// Global-memory store (buffered; becomes visible after the launch,
    /// matching CUDA's lack of inter-block ordering within a launch).
    #[inline]
    pub fn gstore(&mut self, buf: BufferId, idx: usize, v: T) {
        self.trace.push(Ev::GStore {
            addr: self.global.addr(buf, idx),
        });
        self.writes.push((buf, idx, v));
    }

    /// Shared-memory load (element index within the block's region).
    #[inline]
    pub fn sload(&mut self, idx: usize) -> T {
        self.trace.push(Ev::SLoad {
            addr: (idx * T::DEVICE_BYTES) as u32,
        });
        self.shared[idx]
    }

    /// Shared-memory store.
    #[inline]
    pub fn sstore(&mut self, idx: usize, v: T) {
        self.trace.push(Ev::SStore {
            addr: (idx * T::DEVICE_BYTES) as u32,
        });
        self.shared[idx] = v;
    }

    /// Constant-memory byte load.
    #[inline]
    pub fn cload_u8(&mut self, id: ConstId, idx: usize) -> u8 {
        self.trace.push(Ev::CLoad {
            addr: (id.offset + idx) as u32,
            bytes: 1,
        });
        self.constant.read_u8(id, idx)
    }

    /// Constant-memory word load (little-endian `u64` at element index
    /// `idx`) — how the packed exponent-key encoding reads a whole
    /// key word in one charged access.
    #[inline]
    pub fn cload_u64(&mut self, id: ConstId, idx: usize) -> u64 {
        self.trace.push(Ev::CLoad {
            addr: (id.offset + idx * 8) as u32,
            bytes: 8,
        });
        self.constant.read_u64(id, idx)
    }

    /// Constant-memory `u32` load (little-endian, element index `idx`)
    /// — how the sparse pipeline reads a ragged monomial header.
    #[inline]
    pub fn cload_u32(&mut self, id: ConstId, idx: usize) -> u32 {
        self.trace.push(Ev::CLoad {
            addr: (id.offset + idx * 4) as u32,
            bytes: 4,
        });
        self.constant.read_u32(id, idx)
    }

    /// Traced multiply.
    #[inline]
    pub fn mul(&mut self, a: T, b: T) -> T {
        self.trace.push(Ev::Flop {
            weight: T::MUL_FLOPS,
        });
        a.dmul(b)
    }

    /// Traced add.
    #[inline]
    pub fn add(&mut self, a: T, b: T) -> T {
        self.trace.push(Ev::Flop {
            weight: T::ADD_FLOPS,
        });
        a.dadd(b)
    }

    /// Traced subtract.
    #[inline]
    pub fn sub(&mut self, a: T, b: T) -> T {
        self.trace.push(Ev::Flop {
            weight: T::ADD_FLOPS,
        });
        a.dsub(b)
    }

    /// Charge `count` integer/address operations (index decoding).
    #[inline]
    pub fn iops(&mut self, count: u32) {
        self.trace.push(Ev::IOp { count });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use polygpu_complex::C64;

    #[test]
    fn launch_config_cover() {
        let c = LaunchConfig::cover(100, 32);
        assert_eq!(c.grid_dim, 4);
        assert_eq!(c.block_dim, 32);
        assert_eq!(c.total_threads(), 128);
        assert_eq!(LaunchConfig::cover(0, 32).grid_dim, 1);
        assert_eq!(LaunchConfig::cover(32, 32).grid_dim, 1);
        assert_eq!(LaunchConfig::cover(33, 32).grid_dim, 2);
    }

    #[test]
    fn cover_batch_is_point_major() {
        // 100 items per point at 32 threads/block -> 4 inner blocks.
        let inner = LaunchConfig::blocks_for(100, 32);
        assert_eq!(inner, 4);
        let c = LaunchConfig::cover_batch(5, 100, 32);
        assert_eq!(c.grid_dim, 20);
        assert_eq!(c.block_dim, 32);
        // Point-major linearization: the first `inner` blocks belong to
        // point 0, the next `inner` to point 1, and so on.
        let decode = |b: u32| (b / inner, b % inner);
        assert_eq!(decode(0), (0, 0));
        assert_eq!(decode(3), (0, 3));
        assert_eq!(decode(4), (1, 0));
        assert_eq!(decode(11), (2, 3));
        assert_eq!(decode(19), (4, 3));
        // Degenerate cases.
        assert_eq!(
            LaunchConfig::cover_batch(1, 100, 32),
            LaunchConfig::cover(100, 32)
        );
        assert_eq!(LaunchConfig::cover_batch(0, 100, 32).grid_dim, 4);
        assert_eq!(LaunchConfig::cover_batch(3, 0, 32).grid_dim, 3);
    }

    #[test]
    fn block_ctx_threads_and_barriers() {
        let dev = DeviceSpec::toy(4);
        let mut g = GlobalMem::<C64>::new();
        let buf = g.alloc(8);
        g.host_write(buf, 0, &[C64::from_f64(5.0, 0.0); 8]);
        let cm = ConstantMemory::new(&dev);
        let cfg = LaunchConfig::new(2, 4);
        let mut blk = BlockCtx::new(0, cfg, 4, &g, &cm, Vec::new());
        // segment 1: each thread loads global, stores to shared
        blk.threads(|t| {
            let v = t.gload(buf, t.tid() as usize);
            t.sstore(t.tid() as usize, v);
        });
        // segment 2: each thread reads neighbor's shared value (needs
        // the barrier to be meaningful) and stores doubled to global
        blk.threads(|t| {
            let neighbor = (t.tid() as usize + 1) % 4;
            let v = t.sload(neighbor);
            let d = t.add(v, v);
            t.gstore(buf, 4 + t.tid() as usize, d);
        });
        // traces: 4 threads, each 2+sync+3+sync events
        assert_eq!(blk.traces.len(), 4);
        for tr in &blk.traces {
            assert_eq!(tr.len(), 7);
            assert_eq!(tr[2], Ev::Sync);
            assert_eq!(tr[6], Ev::Sync);
        }
        // writes buffered, not applied: element 4 still holds its
        // initial value rather than the doubled one
        assert_eq!(blk.writes.len(), 4);
        assert_eq!(g.host_read(buf)[4], C64::from_f64(5.0, 0.0));
        assert_eq!(blk.writes[0].2, C64::from_f64(10.0, 0.0));
    }

    #[test]
    fn global_tid_arithmetic() {
        let dev = DeviceSpec::toy(4);
        let g = GlobalMem::<C64>::new();
        let cm = ConstantMemory::new(&dev);
        let mut blk = BlockCtx::new(3, LaunchConfig::new(5, 4), 0, &g, &cm, Vec::new());
        let mut tids = Vec::new();
        blk.threads(|t| tids.push(t.global_tid()));
        assert_eq!(tids, vec![12, 13, 14, 15]);
    }
}
