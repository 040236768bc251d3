//! Simulated device memory spaces: global (typed buffers with virtual
//! byte addresses) and constant (a capacity-enforced byte arena).

use crate::device::DeviceSpec;
use crate::value::DeviceValue;
use std::fmt;

/// Handle to a global-memory buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub(crate) usize);

/// Global device memory: a set of typed buffers, each with a virtual
/// 256-byte-aligned base address so the coalescing analyzer can reason
/// about real byte addresses.
#[derive(Debug, Clone)]
pub struct GlobalMem<T> {
    buffers: Vec<Vec<T>>,
    bases: Vec<u64>,
    next_base: u64,
}

impl<T: DeviceValue> GlobalMem<T> {
    pub fn new() -> Self {
        GlobalMem {
            buffers: Vec::new(),
            bases: Vec::new(),
            next_base: 0x1000, // device allocations never start at null
        }
    }

    /// Allocate a zero-initialized buffer of `len` elements.
    pub fn alloc(&mut self, len: usize) -> BufferId {
        let id = BufferId(self.buffers.len());
        self.buffers.push(vec![T::zero(); len]);
        self.bases.push(self.next_base);
        let bytes = (len * T::DEVICE_BYTES) as u64;
        self.next_base += (bytes + 255) & !255; // keep bases 256-aligned
        id
    }

    /// Host-side write (cudaMemcpy host→device); not traced.
    pub fn host_write(&mut self, id: BufferId, offset: usize, data: &[T]) {
        self.buffers[id.0][offset..offset + data.len()].copy_from_slice(data);
    }

    /// Host-side read (device→host); not traced.
    pub fn host_read(&self, id: BufferId) -> &[T] {
        &self.buffers[id.0]
    }

    pub fn len(&self, id: BufferId) -> usize {
        self.buffers[id.0].len()
    }

    pub fn is_empty(&self, id: BufferId) -> bool {
        self.buffers[id.0].is_empty()
    }

    /// Virtual byte address of element `idx` of buffer `id`.
    #[inline]
    pub fn addr(&self, id: BufferId, idx: usize) -> u64 {
        self.bases[id.0] + (idx * T::DEVICE_BYTES) as u64
    }

    #[inline]
    pub(crate) fn read(&self, id: BufferId, idx: usize) -> T {
        self.buffers[id.0][idx]
    }

    pub(crate) fn write(&mut self, id: BufferId, idx: usize, v: T) {
        self.buffers[id.0][idx] = v;
    }

    /// Total allocated bytes (device footprint).
    pub fn allocated_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.len() * T::DEVICE_BYTES).sum()
    }
}

impl<T: DeviceValue> Default for GlobalMem<T> {
    fn default() -> Self {
        Self::new()
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
    use polygpu_complex::C64;

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
        assert_eq!(g.host_read(a)[0], C64::zero());
        assert_eq!(g.host_read(a)[1], C64::from_f64(1.0, 2.0));
        assert_eq!(g.host_read(a)[2], C64::from_f64(3.0, 4.0));
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
