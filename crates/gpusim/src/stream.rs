//! Modeled streams and events: concurrent copy/compute scheduling.
//!
//! The original cost model charges every batch `H2D + kernels + D2H` as
//! a straight **sum** — as if the device had a single serial queue. Real
//! Fermi-class hardware (the paper's Tesla C2050 has two copy engines
//! plus the compute engine) overlaps transfers with kernel execution
//! when work is issued on independent *streams*: while chunk `c` is
//! being computed, chunk `c+1` uploads and chunk `c−1` downloads.
//!
//! This module models exactly that, without touching functional
//! execution: a [`Timeline`] schedules abstract operations on the three
//! engines of one device, honoring
//!
//! * **engine serialization** — each engine runs one op at a time;
//! * **stream ordering** — ops on the same [`Stream`] run in issue
//!   order;
//! * **events** — an op can be made to wait on an [`Event`] recorded
//!   after any earlier op (cross-stream dependencies, e.g. "compute of
//!   chunk `c` waits for its upload" or "upload of chunk `c+2` waits
//!   until the double buffer is free").
//!
//! The modeled wall clock is the makespan over all ops; the difference
//! against the serialized sum is the **overlap saving** the batched
//! pipeline reports.
//!
//! A timeline covers one device. Fleets never schedule traffic between
//! devices: every device's round trip downloads its own results to the
//! host, so a fleet batch costs its slowest device's timeline.

/// The three engines of one modeled device. The C2050's dual copy
/// engines mean host-to-device and device-to-host transfers use
/// *different* engines and can themselves overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Host → device DMA engine.
    CopyIn,
    /// Kernel execution engine.
    Compute,
    /// Device → host DMA engine.
    CopyOut,
}

/// An in-order queue of operations; ops on different streams may
/// overlap (subject to engine availability and event waits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream(usize);

/// A completion timestamp recorded after an op; other streams can wait
/// on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event(usize);

/// One scheduled operation (for inspection and tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledOp {
    pub engine: Engine,
    pub stream: Stream,
    pub start: f64,
    pub finish: f64,
}

/// The modeled stream/event timeline of one device.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Next-free time of each engine, indexed by `Engine as usize`.
    engine_free: [f64; 3],
    /// Per-stream cursor: finish time of the stream's last op.
    streams: Vec<f64>,
    /// Recorded event timestamps.
    events: Vec<f64>,
    ops: Vec<ScheduledOp>,
    /// Sum of all op durations — what the serial model would charge.
    busy: f64,
}

impl Timeline {
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Open a new stream (its first op may start at `t = 0`).
    pub fn stream(&mut self) -> Stream {
        self.streams.push(0.0);
        Stream(self.streams.len() - 1)
    }

    /// Schedule an op of `seconds` on `engine` in `stream`, after the
    /// given `waits` events. Returns an [`Event`] that fires at the
    /// op's completion.
    pub fn enqueue(
        &mut self,
        stream: Stream,
        engine: Engine,
        seconds: f64,
        waits: &[Event],
    ) -> Event {
        assert!(seconds >= 0.0, "op duration must be non-negative");
        let e = engine as usize;
        let mut start = self.streams[stream.0].max(self.engine_free[e]);
        for w in waits {
            start = start.max(self.events[w.0]);
        }
        let finish = start + seconds;
        self.streams[stream.0] = finish;
        self.engine_free[e] = finish;
        self.busy += seconds;
        self.ops.push(ScheduledOp {
            engine,
            stream,
            start,
            finish,
        });
        self.events.push(finish);
        Event(self.events.len() - 1)
    }

    /// Makespan: the completion time of the last op (0 when empty).
    pub fn elapsed_seconds(&self) -> f64 {
        self.ops.iter().map(|o| o.finish).fold(0.0, f64::max)
    }

    /// Sum of all op durations — the time the pre-stream model charges
    /// by adding transfers and kernels.
    pub fn busy_seconds(&self) -> f64 {
        self.busy
    }

    /// Seconds saved by overlap relative to full serialization. The
    /// critical path visits each op at most once, so this is ≥ 0.
    pub fn overlap_savings(&self) -> f64 {
        (self.busy - self.elapsed_seconds()).max(0.0)
    }

    /// All scheduled ops in issue order.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }
}

/// Modeled makespan of a double-buffered upload/compute/download
/// pipeline over per-chunk durations, the canonical use of the
/// timeline:
///
/// * chunk `c` computes only after its upload;
/// * chunk `c` downloads only after its compute;
/// * with `buffers` upload buffers, the upload of chunk `c` waits until
///   the compute of chunk `c − buffers` has consumed its buffer.
///
/// Copy-in, compute, and copy-out each serialize on their own engine.
pub fn pipeline_timeline(h2d: &[f64], compute: &[f64], d2h: &[f64], buffers: usize) -> Timeline {
    assert_eq!(h2d.len(), compute.len());
    assert_eq!(h2d.len(), d2h.len());
    assert!(buffers >= 1, "need at least one upload buffer");
    let mut tl = Timeline::new();
    let upload = tl.stream();
    let kernels = tl.stream();
    let download = tl.stream();
    let mut compute_done: Vec<Event> = Vec::with_capacity(compute.len());
    for c in 0..h2d.len() {
        let mut waits: Vec<Event> = Vec::new();
        if c >= buffers {
            waits.push(compute_done[c - buffers]);
        }
        let up = tl.enqueue(upload, Engine::CopyIn, h2d[c], &waits);
        let comp = tl.enqueue(kernels, Engine::Compute, compute[c], &[up]);
        compute_done.push(comp);
        tl.enqueue(download, Engine::CopyOut, d2h[c], &[comp]);
    }
    tl
}

/// How a row-sharded fleet delivers results. There is one way: each
/// device's round trip downloads its own rows to the host, which
/// merges them, so no result crosses between devices and this type
/// changes no modeled figure. It stays only as the type of the inert
/// `gather` fields of the cluster spec and the row-cluster options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferPath {
    /// Every device downloads its own rows over its own PCIe link.
    #[default]
    HostStaged,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn single_chunk_serializes() {
        // One chunk has no overlap partner: makespan = sum.
        let tl = pipeline_timeline(&[2.0], &[5.0], &[1.0], 2);
        close(tl.elapsed_seconds(), 8.0);
        close(tl.busy_seconds(), 8.0);
        close(tl.overlap_savings(), 0.0);
    }

    #[test]
    fn two_chunks_overlap_copies_with_compute() {
        // Uploads 1s, computes 4s, downloads 1s per chunk. Serial sum =
        // 12 s. Overlapped: u0(0-1) k0(1-5) u1(1-2, under k0)
        // k1(5-9) d0(5-6) d1(9-10) → makespan 10 s.
        let tl = pipeline_timeline(&[1.0, 1.0], &[4.0, 4.0], &[1.0, 1.0], 2);
        close(tl.busy_seconds(), 12.0);
        close(tl.elapsed_seconds(), 10.0);
        close(tl.overlap_savings(), 2.0);
    }

    #[test]
    fn compute_bound_pipeline_approaches_kernel_sum() {
        // Many chunks, transfers much cheaper than compute: makespan →
        // first upload + Σ compute + last download.
        let n = 8;
        let tl = pipeline_timeline(&vec![0.1; n], &vec![2.0; n], &vec![0.1; n], 2);
        close(tl.elapsed_seconds(), 0.1 + 2.0 * n as f64 + 0.1);
    }

    #[test]
    fn transfer_bound_pipeline_approaches_copy_sum() {
        // Transfers dominate: the copy-in engine is the bottleneck.
        let n = 6;
        let tl = pipeline_timeline(&vec![3.0; n], &vec![0.2; n], &vec![0.1; n], 2);
        // Copy-in engine busy back-to-back: n*3, then last chunk's
        // compute and download.
        close(tl.elapsed_seconds(), 3.0 * n as f64 + 0.2 + 0.1);
    }

    #[test]
    fn in_and_out_copies_use_separate_engines() {
        // d2h of chunk 0 runs while h2d of chunk 1 runs: dual copy
        // engines. With a single copy engine the makespan would grow.
        let tl = pipeline_timeline(&[1.0, 1.0], &[1.0, 1.0], &[1.0, 1.0], 2);
        // u0(0-1) k0(1-2) u1(1-2) k1(2-3) d0(2-3) d1(3-4).
        close(tl.elapsed_seconds(), 4.0);
    }

    #[test]
    fn single_buffer_blocks_next_upload() {
        // With one upload buffer, u1 waits for k0 to finish; with two
        // it does not.
        let one = pipeline_timeline(&[1.0, 1.0], &[4.0, 4.0], &[0.0, 0.0], 1);
        let two = pipeline_timeline(&[1.0, 1.0], &[4.0, 4.0], &[0.0, 0.0], 2);
        // one: u0(0-1) k0(1-5) u1(5-6) k1(6-10) → 10; two: u1 under k0 → 9.
        close(one.elapsed_seconds(), 10.0);
        close(two.elapsed_seconds(), 9.0);
        assert!(two.overlap_savings() > one.overlap_savings());
    }

    #[test]
    fn events_order_across_streams() {
        let mut tl = Timeline::new();
        let a = tl.stream();
        let b = tl.stream();
        let e = tl.enqueue(a, Engine::Compute, 2.0, &[]);
        // Stream b's copy could start at 0 but waits on the event.
        tl.enqueue(b, Engine::CopyOut, 1.0, &[e]);
        close(tl.elapsed_seconds(), 3.0);
        assert_eq!(tl.ops().len(), 2);
        close(tl.ops()[1].start, 2.0);
    }

    #[test]
    fn engine_serialization_within_kind() {
        let mut tl = Timeline::new();
        let a = tl.stream();
        let b = tl.stream();
        tl.enqueue(a, Engine::Compute, 2.0, &[]);
        tl.enqueue(b, Engine::Compute, 2.0, &[]);
        // Two streams, one compute engine: serialized.
        close(tl.elapsed_seconds(), 4.0);
        close(tl.overlap_savings(), 0.0);
    }

    #[test]
    fn savings_never_negative() {
        let tl = pipeline_timeline(&[5.0], &[0.1], &[0.1], 1);
        assert!(tl.overlap_savings() >= 0.0);
        let empty = Timeline::new();
        close(empty.elapsed_seconds(), 0.0);
        close(empty.overlap_savings(), 0.0);
    }
}
