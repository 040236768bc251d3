//! Simulated device memory spaces: global (typed buffers with virtual
//! byte addresses) and constant (a capacity-enforced byte arena).

use crate::device::DeviceSpec;
use crate::exec::LaunchError;
use crate::value::DeviceValue;
use std::borrow::Cow;
use std::fmt;
use std::ops::{Bound, RangeBounds};

/// Handle to a global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// Global device memory: a set of typed buffers, each with a virtual
/// 256-byte-aligned base address so the coalescing analyzer can reason
/// about real byte addresses.
///
/// A buffer holds its logical length of elements, all zero until
/// written, but is backed on the host only up to the last element
/// written so far, or its first 128 KiB if that is more: the rest reads
/// as the zero it holds. An engine sized for many points that
/// evaluates a few pays host memory for the few. Nothing observable
/// depends on the backing — lengths, addresses,
/// [`GlobalMem::allocated_bytes`] and every value read are those of an
/// eagerly zero-filled buffer — except [`GlobalMem::backed_bytes`].
///
/// A launch stores into it one wave of blocks at a time
/// ([`launch`](crate::exec::launch)), growing each buffer at most once
/// per wave. A launch that fails may leave its earlier waves' stores
/// here.
#[derive(Debug, Clone)]
pub struct GlobalMem<T> {
    buffers: Vec<Buffer<T>>,
    next_base: u64,
}

/// The least a buffer's first write backs, or its whole length if
/// that is less, so a small buffer is backed whole at once. Backing
/// small buffers point by point saved next to nothing and fragmented
/// the host heap: without this floor, `solve-small`'s peak RSS rose 7%
/// (4.36 → 4.65 MB, medians of ten runs at seed 7 on a 2-core VM).
/// Growth past the floor is exact.
const MIN_BACKING_BYTES: usize = 128 << 10;

#[derive(Debug, Clone)]
struct Buffer<T> {
    /// The first elements of the buffer, at least as far as any was
    /// written.
    backing: Vec<T>,
    len: usize,
    base: u64,
}

impl<T: DeviceValue> Buffer<T> {
    /// Element `idx` past the backed prefix: the zero it holds, or the
    /// panic an out-of-bounds index gives.
    #[cold]
    fn unbacked(&self, idx: usize) -> T {
        assert!(
            idx < self.len,
            "index out of bounds: the len is {} but the index is {idx}",
            self.len
        );
        T::zero()
    }

    /// Back the first `end` elements (at least [`MIN_BACKING_BYTES`]),
    /// growing the host allocation once and exactly. Panics when `end`
    /// passes the logical length, as an out-of-bounds store to a
    /// zero-filled buffer would.
    fn back(&mut self, end: usize) {
        assert!(
            end <= self.len,
            "index out of bounds: the len is {} but the index is {}",
            self.len,
            end - 1
        );
        if end > self.backing.len() {
            let end = end.max(self.len.min(MIN_BACKING_BYTES / T::DEVICE_BYTES));
            self.backing.reserve_exact(end - self.backing.len());
            self.backing.resize(end, T::zero());
        }
    }
}

impl<T: DeviceValue> GlobalMem<T> {
    pub fn new() -> Self {
        GlobalMem {
            buffers: Vec::new(),
            next_base: 0x1000, // device allocations never start at null
        }
    }

    /// Allocate a buffer of `len` elements that reads as zero. Nothing
    /// is backed on the host yet: an element gets host memory when a
    /// host write or a kernel store first reaches it (or one past it).
    pub fn alloc(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.buffers.len());
        let base = self.next_base;
        self.next_base = len
            .checked_mul(T::DEVICE_BYTES)
            .and_then(|b| u64::try_from(b).ok())
            .and_then(|b| b.checked_next_multiple_of(256)) // keep bases 256-aligned
            .and_then(|b| base.checked_add(b))
            .expect("buffer exceeds the device address space");
        self.buffers.push(Buffer {
            backing: Vec::new(),
            len,
            base,
        });
        id
    }

    /// Host-side write (cudaMemcpy host→device); not traced.
    pub fn host_write(&mut self, id: BufferId, offset: usize, data: &[T]) {
        let buf = &mut self.buffers[id.0];
        let end = offset + data.len();
        buf.back(end);
        buf.backing[offset..end].copy_from_slice(data);
    }

    /// Host-side read (device→host) of the elements in `range`; not
    /// traced. Borrowed where the range is backed; unwritten elements
    /// read as zero. Panics when the range passes the buffer's length.
    pub fn host_read(&self, id: BufferId, range: impl RangeBounds<usize>) -> Cow<'_, [T]> {
        let buf = &self.buffers[id.0];
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => buf.len,
        };
        assert!(
            start <= end && end <= buf.len,
            "host read of {start}..{end} out of range for a buffer of {} elements",
            buf.len
        );
        let backed = buf.backing.len();
        if end <= backed {
            return Cow::Borrowed(&buf.backing[start..end]);
        }
        let mut out = buf.backing[start.min(backed)..].to_vec();
        out.resize(end - start, T::zero());
        Cow::Owned(out)
    }

    pub fn len(&self, id: BufferId) -> usize {
        self.buffers[id.0].len
    }

    pub fn is_empty(&self, id: BufferId) -> bool {
        self.buffers[id.0].len == 0
    }

    /// Virtual byte address of element `idx` of buffer `id`.
    #[inline]
    pub fn addr(&self, id: BufferId, idx: usize) -> u64 {
        self.buffers[id.0].base + (idx * T::DEVICE_BYTES) as u64
    }

    #[inline]
    pub(crate) fn read(&self, id: BufferId, idx: usize) -> T {
        let buf = &self.buffers[id.0];
        match buf.backing.get(idx) {
            Some(&v) => v,
            None => buf.unbacked(idx),
        }
    }

    /// Apply one wave of a launch's buffered stores, block by block in
    /// order. One pass finds each buffer's highest stored element and
    /// marks each store in `stored`, which holds one bitset per buffer
    /// for the whole launch: the first element marked twice, by this
    /// wave or an earlier one, is a [`LaunchError::WriteConflict`], and
    /// none of this wave's stores lands. Stores of earlier waves stay
    /// applied. Otherwise each buffer stored to grows once, to exactly
    /// its highest stored element, before any store lands.
    pub(crate) fn apply_stores<'w>(
        &mut self,
        stored: &mut StoreMarks,
        blocks: impl Iterator<Item = &'w [(BufferId, usize, T)]> + Clone,
    ) -> Result<(), LaunchError> {
        let mut ends = vec![0; self.buffers.len()];
        for writes in blocks.clone() {
            for &(buf, idx, _) in writes {
                ends[buf.0] = ends[buf.0].max(idx + 1);
                if !stored.mark(buf, idx) {
                    return Err(LaunchError::WriteConflict {
                        buffer: buf.0,
                        index: idx,
                    });
                }
            }
        }
        for (buf, end) in self.buffers.iter_mut().zip(ends) {
            buf.back(end);
        }
        for writes in blocks {
            for &(buf, idx, v) in writes {
                self.buffers[buf.0].backing[idx] = v;
            }
        }
        Ok(())
    }

    /// Total allocated bytes: the modeled device footprint, every
    /// buffer at its full length.
    pub fn allocated_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.len * T::DEVICE_BYTES).sum()
    }

    /// Bytes backed on the host so far: each buffer up to its last
    /// written element. A diagnostic of what the simulation costs the
    /// host, not of the modeled device.
    pub fn backed_bytes(&self) -> usize {
        self.buffers
            .iter()
            .map(|b| b.backing.len() * T::DEVICE_BYTES)
            .sum()
    }
}

impl<T: DeviceValue> Default for GlobalMem<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The global elements a launch has stored so far: one bitset per
/// buffer, grown on demand, marked as each wave's stores are applied.
#[derive(Debug, Default)]
pub(crate) struct StoreMarks {
    bits: Vec<Vec<u64>>,
}

impl StoreMarks {
    /// Has an applied store of this launch reached element `idx`?
    #[inline]
    pub(crate) fn contains(&self, buf: BufferId, idx: usize) -> bool {
        self.bits
            .get(buf.0)
            .and_then(|bits| bits.get(idx / 64))
            .is_some_and(|word| word & (1 << (idx % 64)) != 0)
    }

    /// Mark element `idx`; `false` if it was marked already.
    fn mark(&mut self, buf: BufferId, idx: usize) -> bool {
        if self.bits.len() <= buf.0 {
            self.bits.resize(buf.0 + 1, Vec::new());
        }
        let bits = &mut self.bits[buf.0];
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if bits.len() <= word {
            bits.resize(word + 1, 0);
        }
        let fresh = bits[word] & bit == 0;
        bits[word] |= bit;
        fresh
    }
}

/// Handle to a constant-memory allocation (byte offset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstId {
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

impl ConstId {
    pub fn len(&self) -> usize {
        self.len
    }
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Error: a constant-memory allocation exceeded the device budget —
/// the failure mode the paper hits at 2,048 monomials ("the capacity of
/// the constant memory was not sufficient to hold the exponents and
/// positions of all 2,048 monomials").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConstantOverflow {
    /// The live bytes the allocation would make; or, when the live
    /// bytes fit but no freed region does, the arena end an appended
    /// region would reach.
    pub requested_total: usize,
    pub budget: usize,
}

impl fmt::Display for ConstantOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "constant memory exhausted: need {} bytes, budget is {} bytes",
            self.requested_total, self.budget
        )
    }
}

impl std::error::Error for ConstantOverflow {}

/// Constant memory: a read-only byte arena with the device's capacity
/// enforced at allocation time.
///
/// Regions can be returned with [`ConstantMemory::free`] (how a
/// residency session evicts an encoded system); freed regions coalesce
/// and are reused first-fit by later allocations, so a long-lived
/// serving arena does not leak budget. [`ConstantMemory::used`] counts
/// **live** bytes only.
#[derive(Debug, Clone)]
pub struct ConstantMemory {
    bytes: Vec<u8>,
    budget: usize,
    /// Free regions `(offset, len)`, sorted by offset, coalesced.
    free: Vec<(usize, usize)>,
    /// Live (allocated, not freed) bytes — the budget denominator.
    live: usize,
}

impl ConstantMemory {
    pub fn new(device: &DeviceSpec) -> Self {
        ConstantMemory {
            bytes: Vec::new(),
            budget: device.constant_budget(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Allocate and fill a region; fails if the live total would
    /// exceed the budget. Freed regions are reused first-fit (lowest
    /// offset wins — deterministic) before the arena grows; it also
    /// fails if none fits and the arena would grow past the budget.
    pub fn alloc(&mut self, data: &[u8]) -> Result<ConstId, ConstantOverflow> {
        let requested_total = self.live + data.len();
        if requested_total > self.budget {
            return Err(ConstantOverflow {
                requested_total,
                budget: self.budget,
            });
        }
        // First fit over the sorted free list.
        if let Some(i) = self.free.iter().position(|&(_, len)| len >= data.len()) {
            let (offset, len) = self.free[i];
            if len == data.len() {
                self.free.remove(i);
            } else {
                self.free[i] = (offset + data.len(), len - data.len());
            }
            self.bytes[offset..offset + data.len()].copy_from_slice(data);
            self.live += data.len();
            return Ok(ConstId {
                offset,
                len: data.len(),
            });
        }
        let offset = self.bytes.len();
        if offset + data.len() > self.budget {
            return Err(ConstantOverflow {
                requested_total: offset + data.len(),
                budget: self.budget,
            });
        }
        self.bytes.extend_from_slice(data);
        self.live += data.len();
        Ok(ConstId {
            offset,
            len: data.len(),
        })
    }

    /// Return a region to the arena: its bytes become reusable by
    /// later allocations and stop counting against the budget. A free
    /// region at the end of the arena is dropped from it, so the arena
    /// ends at its last live byte and an emptied arena is empty.
    /// Zero-length regions are a no-op. Freeing the same region twice
    /// is a caller bug (debug-asserted).
    pub fn free(&mut self, id: ConstId) {
        if id.len == 0 {
            return;
        }
        debug_assert!(
            !self
                .free
                .iter()
                .any(|&(o, l)| id.offset < o + l && o < id.offset + id.len),
            "double free of constant region at offset {}",
            id.offset
        );
        self.live -= id.len;
        let at = self
            .free
            .iter()
            .position(|&(o, _)| o > id.offset)
            .unwrap_or(self.free.len());
        self.free.insert(at, (id.offset, id.len));
        // Coalesce neighbours so big systems can land in reused space.
        let mut i = at.saturating_sub(1);
        while i + 1 < self.free.len() {
            let (o0, l0) = self.free[i];
            let (o1, l1) = self.free[i + 1];
            if o0 + l0 == o1 {
                self.free[i] = (o0, l0 + l1);
                self.free.remove(i + 1);
            } else {
                i += 1;
            }
        }
        if let Some(&(o, l)) = self.free.last() {
            if o + l == self.bytes.len() {
                self.free.pop();
                self.bytes.truncate(o);
            }
        }
    }

    /// Live bytes (allocated and not freed) — what counts against the
    /// budget.
    pub fn used(&self) -> usize {
        self.live
    }

    pub fn budget(&self) -> usize {
        self.budget
    }

    #[inline]
    pub(crate) fn read_u8(&self, id: ConstId, idx: usize) -> u8 {
        debug_assert!(idx < id.len);
        self.bytes[id.offset + idx]
    }

    /// Read a little-endian `u64` word at element index `idx` (byte
    /// offset `8 * idx`) — the packed exponent-key encodings store
    /// whole words.
    #[inline]
    pub(crate) fn read_u64(&self, id: ConstId, idx: usize) -> u64 {
        let at = idx * 8;
        debug_assert!(at + 8 <= id.len);
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.bytes[id.offset + at..id.offset + at + 8]);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian `u32` at element index `idx` (byte offset
    /// `4 * idx`) — the ragged-support monomial headers.
    #[inline]
    pub(crate) fn read_u32(&self, id: ConstId, idx: usize) -> u32 {
        let at = idx * 4;
        debug_assert!(at + 4 <= id.len);
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.bytes[id.offset + at..id.offset + at + 4]);
        u32::from_le_bytes(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{launch, LaunchOptions};
    use crate::kernel::{BlockCtx, Kernel, LaunchConfig};
    use polygpu_complex::C64;
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    /// One block whose first thread loads `loads`, then stores
    /// `stores`.
    struct Touch {
        loads: Vec<(BufferId, usize)>,
        stores: Vec<(BufferId, usize, C64)>,
        seen: Mutex<Vec<C64>>,
    }

    impl Kernel<C64> for Touch {
        fn name(&self) -> &str {
            "touch"
        }
        fn shared_elems(&self, _b: u32) -> usize {
            0
        }
        fn run_block(&self, blk: &mut BlockCtx<'_, C64>) {
            blk.threads(|t| {
                if t.tid() == 0 {
                    for &(b, i) in &self.loads {
                        let v = t.gload(b, i);
                        self.seen.lock().unwrap().push(v);
                    }
                    for &(b, i, v) in &self.stores {
                        t.gstore(b, i, v);
                    }
                }
            });
        }
    }

    /// Launch [`Touch`]; returns the values its loads saw.
    fn touch(
        g: &mut GlobalMem<C64>,
        loads: Vec<(BufferId, usize)>,
        stores: Vec<(BufferId, usize, C64)>,
    ) -> Vec<C64> {
        let dev = DeviceSpec::toy(4);
        let kernel = Touch {
            loads,
            stores,
            seen: Mutex::new(Vec::new()),
        };
        let cfg = LaunchConfig::new(1, 4);
        let opts = LaunchOptions::default();
        launch(&dev, &kernel, cfg, g, &ConstantMemory::new(&dev), opts).unwrap();
        kernel.seen.into_inner().unwrap()
    }

    /// Does `f` panic?
    fn panics(f: impl FnOnce()) -> bool {
        catch_unwind(AssertUnwindSafe(f)).is_err()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random sequences of allocations, host writes, kernel loads
        /// and stores, and host reads give what eagerly zero-filled
        /// buffers give: every value read, every length, address and
        /// `allocated_bytes`. Buffers are small (backed whole on first
        /// write) or up to 3.6 times `MIN_BACKING_BYTES` (backed as far
        /// as written). An index at or past a buffer's length
        /// panics on every path, read as zero on none.
        #[test]
        fn partial_backing_cannot_be_observed(
            ops in prop::collection::vec(
                (0u8..5, 0usize..8, 0usize..300, prop::collection::vec(0usize..40_000, 0..10)),
                1..40,
            )
        ) {
            let mut g = GlobalMem::<C64>::new();
            let mut ids: Vec<BufferId> = Vec::new();
            let mut model: Vec<Vec<C64>> = Vec::new();
            let mut bases: Vec<u64> = Vec::new();
            let mut next_base = 0x1000u64;
            let value = |step: usize, j: usize| C64::from_f64(step as f64 + 1.0, j as f64);
            for (step, (kind, pick, a, idxs)) in ops.into_iter().enumerate() {
                if kind == 0 || ids.is_empty() {
                    let len = if a % 2 == 0 { a } else { 100 * a };
                    ids.push(g.alloc(len));
                    model.push(vec![C64::zero(); len]);
                    bases.push(next_base);
                    next_base += ((len * 16) as u64).next_multiple_of(256);
                    continue;
                }
                let b = pick % ids.len();
                let (id, len) = (ids[b], model[b].len());
                let at = idxs.first().map_or(a, |&i| i) % (len + 1);
                match kind {
                    1 => {
                        // Host write of `idxs.len()` elements at `at`.
                        let offset = at;
                        let count = idxs.len().min(len - offset);
                        let data: Vec<C64> = (0..count).map(|j| value(step, j)).collect();
                        g.host_write(id, offset, &data);
                        model[b][offset..offset + count].copy_from_slice(&data);
                    }
                    2 if len > 0 => {
                        // A launch loading, then storing, elements of
                        // this buffer and of buffer 0.
                        let mut loads = Vec::new();
                        let mut stores: Vec<(BufferId, usize, C64)> = Vec::new();
                        for (j, &i) in idxs.iter().enumerate() {
                            let (bb, i) = if j % 3 == 2 && !model[0].is_empty() {
                                (0, i % model[0].len())
                            } else {
                                (b, i % len)
                            };
                            loads.push((ids[bb], i));
                            if !stores.iter().any(|&(s, k, _)| s == ids[bb] && k == i) {
                                stores.push((ids[bb], i, value(step, j)));
                            }
                        }
                        let want: Vec<C64> = loads
                            .iter()
                            .map(|&(id, i)| model[id.0][i])
                            .collect();
                        prop_assert_eq!(touch(&mut g, loads, stores.clone()), want);
                        for (id, i, v) in stores {
                            model[id.0][i] = v;
                        }
                    }
                    3 => {
                        // Host read of a sub-range.
                        let start = at;
                        let end = start + idxs.last().map_or(0, |&i| i) % (len - start + 1);
                        prop_assert_eq!(&*g.host_read(id, start..end), &model[b][start..end]);
                    }
                    _ => {
                        // At or past the length: every path panics.
                        let past = len + a % 3;
                        prop_assert!(panics(|| {
                            g.host_read(id, ..past + 1);
                        }));
                        prop_assert!(panics(|| g.host_write(id, past, &[C64::one()])));
                        prop_assert!(panics(|| {
                            touch(&mut g, vec![(id, past)], Vec::new());
                        }));
                        prop_assert!(panics(|| {
                            touch(&mut g, Vec::new(), vec![(id, past, C64::one())]);
                        }));
                    }
                }
                for (c, &id) in ids.iter().enumerate() {
                    prop_assert_eq!(g.len(id), model[c].len());
                    prop_assert_eq!(g.addr(id, 0), bases[c]);
                    prop_assert_eq!(g.addr(id, model[c].len()), bases[c] + 16 * model[c].len() as u64);
                }
                for c in [0, b] {
                    prop_assert_eq!(&*g.host_read(ids[c], ..), model[c].as_slice());
                }
                prop_assert_eq!(
                    g.allocated_bytes(),
                    16 * model.iter().map(Vec::len).sum::<usize>()
                );
                prop_assert!(g.backed_bytes() <= g.allocated_bytes());
            }
            for (c, &id) in ids.iter().enumerate() {
                prop_assert_eq!(&*g.host_read(id, ..), model[c].as_slice());
            }
        }
    }

    #[test]
    fn buffers_are_backed_as_far_as_written() {
        let min = MIN_BACKING_BYTES / 16;
        let mut g = GlobalMem::<C64>::new();
        let small = g.alloc(1000);
        let a = g.alloc(10 * min);
        let b = g.alloc(10 * min);
        let footprint = (1000 + 20 * min) * 16;
        assert_eq!((g.allocated_bytes(), g.backed_bytes()), (footprint, 0));
        assert_eq!(g.host_read(a, 9 * min..), vec![C64::zero(); min]);
        // A small buffer's first write backs it whole, a large one's
        // at least `MIN_BACKING_BYTES`.
        g.host_write(small, 10, &[C64::one(); 5]);
        assert_eq!(g.backed_bytes(), 16_000);
        g.host_write(a, 10, &[C64::one(); 5]);
        assert_eq!(g.backed_bytes(), 16_000 + MIN_BACKING_BYTES);
        // Past that, a launch backs each buffer up to its highest
        // store, once.
        let seen = touch(
            &mut g,
            vec![(b, 3 * min + 40), (a, 12)],
            vec![
                (b, 3 * min + 40, C64::one()),
                (b, 7, C64::one()),
                (a, min + 4, C64::one()),
            ],
        );
        assert_eq!(seen, vec![C64::zero(), C64::one()]);
        assert_eq!(g.backed_bytes(), 16_000 + (min + 5 + 3 * min + 41) * 16);
        assert_eq!(
            g.host_read(b, 3 * min + 39..3 * min + 42)[..],
            [C64::zero(), C64::one(), C64::zero()]
        );
        // Reads within the backed prefix borrow it.
        assert!(matches!(g.host_read(a, 10..15), Cow::Borrowed(_)));
        assert_eq!(g.allocated_bytes(), footprint);
    }

    #[test]
    fn buffers_get_disjoint_aligned_bases() {
        let mut g = GlobalMem::<C64>::new();
        let a = g.alloc(3); // 48 bytes
        let b = g.alloc(100);
        assert_eq!(g.addr(a, 0) % 256, 0);
        assert_eq!(g.addr(b, 0) % 256, 0);
        assert!(g.addr(b, 0) >= g.addr(a, 0) + 48);
        assert_eq!(g.addr(a, 2) - g.addr(a, 0), 32);
    }

    #[test]
    fn host_write_read_round_trip() {
        let mut g = GlobalMem::<C64>::new();
        let a = g.alloc(4);
        g.host_write(a, 1, &[C64::from_f64(1.0, 2.0), C64::from_f64(3.0, 4.0)]);
        assert_eq!(g.host_read(a, ..)[0], C64::zero());
        assert_eq!(g.host_read(a, ..)[1], C64::from_f64(1.0, 2.0));
        assert_eq!(g.host_read(a, ..)[2], C64::from_f64(3.0, 4.0));
        assert_eq!(g.len(a), 4);
        assert_eq!(g.allocated_bytes(), 64);
    }

    #[test]
    fn constant_capacity_enforced() {
        let dev = DeviceSpec::toy(4);
        let mut c = ConstantMemory::new(&dev);
        assert_eq!(c.budget(), 1024);
        let a = c.alloc(&[7u8; 1000]).unwrap();
        assert_eq!(c.read_u8(a, 999), 7);
        let err = c.alloc(&[0u8; 100]).unwrap_err();
        assert_eq!(err.requested_total, 1100);
        assert_eq!(err.budget, 1024);
        // exact fit works
        let b = c.alloc(&[1u8; 24]).unwrap();
        assert_eq!(c.used(), 1024);
        assert_eq!(c.read_u8(b, 0), 1);
    }

    #[test]
    fn fragmented_arena_never_grows_past_the_budget() {
        let dev = DeviceSpec::toy(4);
        let mut c = ConstantMemory::new(&dev);
        let a = c.alloc(&[1u8; 500]).unwrap();
        c.alloc(&[2u8; 500]).unwrap();
        c.free(a);
        // 520 live bytes more fit the budget (1,020 of 1,024), but no
        // freed region holds them, and appending would end at byte
        // 1,520.
        let err = c.alloc(&[3u8; 520]).unwrap_err();
        assert_eq!(
            err,
            ConstantOverflow {
                requested_total: 1520,
                budget: 1024
            }
        );
        assert_eq!(c.used(), 500);
        // What fits the freed region or the tail still lands.
        let b = c.alloc(&[4u8; 500]).unwrap();
        assert_eq!((b.offset, c.used()), (0, 1000));
        let t = c.alloc(&[5u8; 24]).unwrap();
        assert_eq!((t.offset, c.used()), (1000, 1024));
    }

    #[test]
    fn freeing_the_end_of_the_arena_shrinks_it() {
        let dev = DeviceSpec::toy(4);
        let mut c = ConstantMemory::new(&dev);
        // An emptied arena takes a load as large as the budget allows.
        let a = c.alloc(&[1u8; 1000]).unwrap();
        c.free(a);
        let b = c.alloc(&[2u8; 1020]).unwrap();
        assert_eq!((b.offset, c.used()), (0, 1020));
        c.free(b);
        // An append starts at the lowest free byte at the end.
        let a = c.alloc(&[3u8; 500]).unwrap();
        c.free(a);
        let b = c.alloc(&[4u8; 510]).unwrap();
        let t = c.alloc(&[5u8; 510]).unwrap();
        assert_eq!((b.offset, t.offset, c.used()), (0, 510, 1020));
        // Freeing the last region also drops the free space before it.
        let d = c.alloc(&[6u8; 4]).unwrap();
        c.free(b);
        c.free(d);
        c.free(t);
        let e = c.alloc(&[7u8; 1024]).unwrap();
        assert_eq!((e.offset, c.used()), (0, 1024));
        assert_eq!(c.read_u8(e, 1023), 7);
    }

    #[test]
    fn c2050_reserved_bytes_shrink_budget() {
        let dev = DeviceSpec::tesla_c2050();
        let mut c = ConstantMemory::new(&dev);
        // The paper's k=16 encoding of 2048 monomials is exactly 65,536
        // payload bytes: it cannot fit alongside the reserved region.
        assert!(c.alloc(&vec![0u8; 65_536]).is_err());
        // 1,536 monomials (Table 2's largest point) fit: 49,152 bytes.
        let mut c2 = ConstantMemory::new(&dev);
        assert!(c2.alloc(&vec![0u8; 1536 * 2 * 16]).is_ok());
    }
}
