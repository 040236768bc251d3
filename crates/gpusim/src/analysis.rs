//! Warp-level replay of thread traces: coalescing, bank conflicts,
//! constant broadcast, divergence detection.
//!
//! The traces of the `warp_size` threads of a warp are walked in
//! lockstep, slot by slot within each barrier-delimited segment. Slot
//! `s` across the lanes is one warp-wide instruction; its cost depends
//! on the access pattern:
//!
//! * **global**: the lanes' byte ranges are grouped into aligned
//!   128-byte segments (Fermi L1 lines); one transaction per distinct
//!   segment. A fully coalesced warp-wide load of 16-byte complex
//!   doubles touches 4 segments; a scattered one up to 32.
//! * **shared**: the lanes' words are mapped onto the 32 banks; the
//!   access replays once per distinct word in the most-contended bank.
//! * **constant**: one cycle per distinct address (broadcast is free).
//! * **arithmetic**: `fp64_issue_cycles` per hardware-double flop of
//!   the widest lane.
//!
//! Lanes may be inactive for a whole segment (guarded by `if tid < n`),
//! which models SIMT masking. Any other shape mismatch marks the
//! segment divergent; its cost is the per-kind serialization of the
//! mismatched slots, the conservative SIMT behaviour.

use crate::device::DeviceSpec;
use crate::stats::Counters;
use crate::trace::{Ev, ThreadTrace};
use crate::value::DeviceValue;

/// Analyze all warps of one block. `traces[t]` is thread `t`'s trace.
pub fn analyze_block<T: DeviceValue>(device: &DeviceSpec, traces: &[ThreadTrace]) -> Counters {
    Analyzer::default().block::<T>(device, traces)
}

/// The warp analyzer and the buffers it reuses. A launch keeps one per
/// host thread across its blocks, so that once the buffers have grown,
/// analysis allocates nothing.
#[derive(Default)]
pub(crate) struct Analyzer {
    /// Cursor per lane.
    pos: Vec<usize>,
    /// Length per lane of the current segment.
    lens: Vec<usize>,
    slot: SlotScratch,
}

impl Analyzer {
    /// Analyze all warps of one block. `traces[t]` is thread `t`'s trace.
    pub(crate) fn block<T: DeviceValue>(
        &mut self,
        device: &DeviceSpec,
        traces: &[ThreadTrace],
    ) -> Counters {
        let mut total = Counters::default();
        for warp in traces.chunks(device.warp_size as usize) {
            total += self.warp::<T>(device, warp);
        }
        total
    }

    fn warp<T: DeviceValue>(&mut self, device: &DeviceSpec, lanes: &[ThreadTrace]) -> Counters {
        let mut c = Counters {
            warps: 1,
            ..Default::default()
        };
        self.pos.clear();
        self.pos.resize(lanes.len(), 0);
        self.lens.resize(lanes.len(), 0);
        loop {
            // Segment: events up to the next Sync (exclusive) per lane.
            // Divergence check: every active lane (nonzero segment)
            // must have the same length; inactive lanes are fine
            // (masked).
            let (mut max_len, mut active_len, mut uniform) = (0, 0, true);
            for ((tr, &p), len) in lanes.iter().zip(&self.pos).zip(&mut self.lens) {
                *len = tr[p..]
                    .iter()
                    .position(|e| matches!(e, Ev::Sync))
                    .unwrap_or(tr.len() - p);
                max_len = max_len.max(*len);
                if *len > 0 {
                    if active_len == 0 {
                        active_len = *len;
                    }
                    uniform &= *len == active_len;
                }
            }
            if !uniform {
                c.divergent_segments += 1;
            }
            for slot in 0..max_len {
                // The events at slot `slot` of each lane that has one.
                let evs = lanes
                    .iter()
                    .zip(&self.pos)
                    .zip(&self.lens)
                    .filter(|&(_, &len)| slot < len)
                    .map(|((tr, &p), _)| tr[p + slot]);
                let kinds = self.slot.charge::<T>(device, evs, &mut c);
                // Mixed kinds in one slot: true divergence.
                if kinds > 1 && uniform {
                    c.divergent_segments += 1;
                }
            }
            // Advance cursors past the segment and its Sync.
            let mut all_done = true;
            for ((tr, p), &len) in lanes.iter().zip(&mut self.pos).zip(&self.lens) {
                *p += len;
                if *p < tr.len() {
                    *p += 1; // skip the Sync marker
                }
                all_done &= *p == tr.len();
            }
            if all_done {
                break;
            }
        }
        c
    }
}

/// What one warp-wide slot touches, gathered in one pass over its lanes.
#[derive(Default)]
struct SlotScratch {
    /// 128-byte segments of the global loads, and of the stores.
    gload: Vec<u64>,
    gstore: Vec<u64>,
    /// Shared-memory words of the loads, and of the stores.
    sload: Vec<u64>,
    sstore: Vec<u64>,
    /// Constant-memory addresses.
    cload: Vec<u64>,
    /// Distinct words per shared-memory bank.
    bank_words: Vec<u64>,
}

impl SlotScratch {
    /// Charge one warp-wide slot and return how many event kinds it
    /// mixes. Events may be of mixed kinds under divergence; each kind
    /// group is charged as its own serialized instruction.
    fn charge<T: DeviceValue>(
        &mut self,
        device: &DeviceSpec,
        evs: impl Iterator<Item = Ev>,
        c: &mut Counters,
    ) -> u32 {
        let seg = device.coalesce_segment as u64;
        let bytes = T::DEVICE_BYTES as u64;
        for units in [
            &mut self.gload,
            &mut self.gstore,
            &mut self.sload,
            &mut self.sstore,
            &mut self.cload,
        ] {
            units.clear();
        }
        let (mut kinds, mut max_weight, mut sum_weight, mut max_count) = (0u32, 0u32, 0u64, 0u32);
        for e in evs {
            kinds |= 1 << e.kind() as u32;
            match e {
                // The 128-byte segments a global access spans, and the
                // 4-byte words a shared one does.
                Ev::GLoad { addr } => self.gload.extend(addr / seg..=(addr + bytes - 1) / seg),
                Ev::GStore { addr } => self.gstore.extend(addr / seg..=(addr + bytes - 1) / seg),
                Ev::SLoad { addr } => self.sload.extend(words(addr, bytes)),
                Ev::SStore { addr } => self.sstore.extend(words(addr, bytes)),
                Ev::CLoad { addr, .. } => self.cload.push(addr as u64),
                Ev::Flop { weight } => {
                    max_weight = max_weight.max(weight);
                    sum_weight += weight as u64;
                }
                Ev::IOp { count } => max_count = max_count.max(count),
                Ev::Sync => unreachable!("a segment ends before its Sync"),
            }
        }
        c.warp_instructions += kinds.count_ones() as u64;
        for segments in [&mut self.gload, &mut self.gstore] {
            if !segments.is_empty() {
                let tx = distinct(segments);
                c.global_mem_ops += 1;
                c.global_transactions += tx;
                c.global_bytes += tx * seg;
                c.issue_cycles += 1;
            }
        }
        // Replay count: the most distinct words in any one bank.
        let banks = device.shared_banks as u64;
        for words in [&mut self.sload, &mut self.sstore] {
            if !words.is_empty() {
                distinct(words);
                self.bank_words.clear();
                self.bank_words.resize(banks as usize, 0);
                let mut replay = 1u64;
                for &w in words.iter() {
                    let in_bank = &mut self.bank_words[(w % banks) as usize];
                    *in_bank += 1;
                    replay = replay.max(*in_bank);
                }
                c.shared_accesses += 1;
                c.issue_cycles += replay;
                c.shared_conflict_cycles += replay - 1;
            }
        }
        if !self.cload.is_empty() {
            let distinct = distinct(&mut self.cload);
            c.const_accesses += 1;
            c.issue_cycles += distinct;
            c.const_serializations += distinct - 1;
        }
        // Absent kinds add nothing: their maxima and sum stay zero.
        c.flops += sum_weight;
        c.issue_cycles += max_weight as u64 * device.fp64_issue_cycles as u64;
        c.issue_cycles += max_count as u64 * device.int_issue_cycles as u64;
        kinds.count_ones()
    }
}

/// The 4-byte shared-memory words a `bytes`-byte access at byte offset
/// `addr` spans.
fn words(addr: u32, bytes: u64) -> std::ops::RangeInclusive<u64> {
    (addr / 4) as u64..=((addr + bytes as u32 - 1) / 4) as u64
}

/// Sort and deduplicate `units`; return how many distinct ones remain.
fn distinct(units: &mut Vec<u64>) -> u64 {
    units.sort_unstable();
    units.dedup();
    units.len() as u64
}

/// The analyzer as it was before it charged a slot in one pass: it
/// gathers every slot's events into a vector and filters that once per
/// kind. Kept as the specification the one-pass analyzer must match,
/// counter for counter.
#[cfg(test)]
mod reference {
    use super::*;
    use crate::trace::EvKind;

    pub fn analyze_block<T: DeviceValue>(device: &DeviceSpec, traces: &[ThreadTrace]) -> Counters {
        let mut total = Counters::default();
        for warp in traces.chunks(device.warp_size as usize) {
            total += analyze_warp::<T>(device, warp);
        }
        total
    }

    fn analyze_warp<T: DeviceValue>(device: &DeviceSpec, lanes: &[ThreadTrace]) -> Counters {
        let mut c = Counters {
            warps: 1,
            ..Default::default()
        };
        // Cursor per lane.
        let mut pos = vec![0usize; lanes.len()];
        loop {
            // Segment: events up to the next Sync (exclusive) per lane.
            let seg_lens: Vec<usize> = lanes
                .iter()
                .zip(&pos)
                .map(|(tr, &p)| {
                    tr[p..]
                        .iter()
                        .position(|e| *e == Ev::Sync)
                        .unwrap_or(tr.len() - p)
                })
                .collect();
            let max_len = seg_lens.iter().copied().max().unwrap_or(0);
            // Divergence check: every active lane (nonzero segment) must
            // have the same length; inactive lanes are fine (masked).
            let active_lens: Vec<usize> = seg_lens.iter().copied().filter(|&l| l > 0).collect();
            let uniform = active_lens.windows(2).all(|w| w[0] == w[1]);
            if !uniform {
                c.divergent_segments += 1;
            }
            for s in 0..max_len {
                // Gather the events at slot s of each lane that has one.
                let evs: Vec<Ev> = lanes
                    .iter()
                    .zip(&pos)
                    .zip(&seg_lens)
                    .filter(|&((_tr, &_p), &l)| s < l)
                    .map(|((tr, &p), &_l)| tr[p + s])
                    .collect();
                charge_slot::<T>(device, &evs, &mut c);
                // Mixed kinds in one slot (true divergence): each kind
                // group was charged separately inside charge_slot; flag it.
                let first = evs[0].kind();
                if evs.iter().any(|e| e.kind() != first) && uniform {
                    c.divergent_segments += 1;
                }
            }
            // Advance cursors past the segment and its Sync.
            let mut all_done = true;
            for (lane, p) in pos.iter_mut().enumerate() {
                *p += seg_lens[lane];
                if *p < lanes[lane].len() {
                    *p += 1; // skip the Sync marker
                }
                if *p < lanes[lane].len() {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
        }
        c
    }

    /// Charge one warp-wide slot. Events may be of mixed kinds under
    /// divergence; each kind group is charged as its own serialized
    /// instruction.
    fn charge_slot<T: DeviceValue>(device: &DeviceSpec, evs: &[Ev], c: &mut Counters) {
        use EvKind::*;
        for kind in [GLoad, GStore, SLoad, SStore, CLoad, Flop, IOp] {
            let group: Vec<Ev> = evs.iter().copied().filter(|e| e.kind() == kind).collect();
            if group.is_empty() {
                continue;
            }
            c.warp_instructions += 1;
            match kind {
                GLoad | GStore => {
                    let seg = device.coalesce_segment as u64;
                    let mut segments: Vec<u64> = group
                        .iter()
                        .flat_map(|e| {
                            let addr = match e {
                                Ev::GLoad { addr } | Ev::GStore { addr } => *addr,
                                _ => unreachable!("filtered by kind"),
                            };
                            let first = addr / seg;
                            let last = (addr + T::DEVICE_BYTES as u64 - 1) / seg;
                            first..=last
                        })
                        .collect();
                    segments.sort_unstable();
                    segments.dedup();
                    let tx = segments.len() as u64;
                    c.global_mem_ops += 1;
                    c.global_transactions += tx;
                    c.global_bytes += tx * seg;
                    c.issue_cycles += 1;
                }
                SLoad | SStore => {
                    // Map each lane's word range onto banks; replay count
                    // is the max number of distinct words in any one bank.
                    let banks = device.shared_banks as usize;
                    let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); banks];
                    for e in &group {
                        let addr = match e {
                            Ev::SLoad { addr } | Ev::SStore { addr } => *addr,
                            _ => unreachable!("filtered by kind"),
                        };
                        let first_word = addr / 4;
                        let last_word = (addr + T::DEVICE_BYTES as u32 - 1) / 4;
                        for w in first_word..=last_word {
                            per_bank[(w as usize) % banks].push(w);
                        }
                    }
                    let mut replay = 1u64;
                    for b in &mut per_bank {
                        b.sort_unstable();
                        b.dedup();
                        replay = replay.max(b.len() as u64);
                    }
                    c.shared_accesses += 1;
                    c.issue_cycles += replay;
                    c.shared_conflict_cycles += replay - 1;
                }
                CLoad => {
                    let mut addrs: Vec<u32> = group
                        .iter()
                        .map(|e| match e {
                            Ev::CLoad { addr, .. } => *addr,
                            _ => unreachable!("filtered by kind"),
                        })
                        .collect();
                    addrs.sort_unstable();
                    addrs.dedup();
                    let distinct = addrs.len() as u64;
                    c.const_accesses += 1;
                    c.issue_cycles += distinct;
                    c.const_serializations += distinct - 1;
                }
                Flop => {
                    let max_w = group
                        .iter()
                        .map(|e| match e {
                            Ev::Flop { weight } => *weight,
                            _ => unreachable!("filtered by kind"),
                        })
                        .max()
                        .unwrap_or(0) as u64;
                    let sum_w: u64 = group
                        .iter()
                        .map(|e| match e {
                            Ev::Flop { weight } => *weight as u64,
                            _ => unreachable!("filtered by kind"),
                        })
                        .sum();
                    c.flops += sum_w;
                    c.issue_cycles += max_w * device.fp64_issue_cycles as u64;
                }
                IOp => {
                    let max_n = group
                        .iter()
                        .map(|e| match e {
                            Ev::IOp { count } => *count as u64,
                            _ => unreachable!("filtered by kind"),
                        })
                        .max()
                        .unwrap_or(0);
                    c.issue_cycles += max_n * device.int_issue_cycles as u64;
                }
                Sync => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polygpu_complex::{Complex, C64};
    use polygpu_qd::Dd;
    use proptest::prelude::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    fn trace_of(evs: Vec<Ev>) -> ThreadTrace {
        let mut t = evs;
        t.push(Ev::Sync);
        t
    }

    #[test]
    fn coalesced_load_of_complex_doubles_is_four_transactions() {
        // 32 lanes loading consecutive 16-byte elements: 512 bytes =
        // 4 x 128-byte segments.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                trace_of(vec![Ev::GLoad {
                    addr: 0x1000 + i * 16,
                }])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.global_transactions, 4);
        assert_eq!(c.global_bytes, 512);
        assert_eq!(c.divergent_segments, 0);
        assert_eq!(c.warps, 1);
    }

    #[test]
    fn strided_load_explodes_transactions() {
        // Stride 256 bytes: every lane in its own segment.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                trace_of(vec![Ev::GLoad {
                    addr: 0x1000 + i * 256,
                }])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.global_transactions, 32);
    }

    #[test]
    fn broadcast_load_is_one_transaction() {
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|_| trace_of(vec![Ev::GLoad { addr: 0x2000 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.global_transactions, 1);
    }

    #[test]
    fn shared_conflict_free_when_lanes_hit_distinct_banks() {
        // f64 elements (8 bytes = 2 words): lanes at consecutive
        // elements cover banks 2i, 2i+1 - 16 lanes fill 32 banks once;
        // 32 lanes revisit each bank with a *different* word -> 2-way.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| trace_of(vec![Ev::SStore { addr: i * 16 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        // Complex double = 4 words per lane; 32 lanes x 4 words = 128
        // words over 32 banks = 4 distinct words per bank.
        assert_eq!(c.shared_conflict_cycles, 3);
        assert_eq!(c.shared_accesses, 1);
    }

    #[test]
    fn shared_same_word_broadcast_no_conflict() {
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|_| trace_of(vec![Ev::SLoad { addr: 64 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.shared_conflict_cycles, 0);
    }

    #[test]
    fn constant_broadcast_vs_divergent_addresses() {
        let same: Vec<ThreadTrace> = (0..32)
            .map(|_| trace_of(vec![Ev::CLoad { addr: 10, bytes: 1 }]))
            .collect();
        let c = analyze_block::<C64>(&dev(), &same);
        assert_eq!(c.const_serializations, 0);

        let diff: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                trace_of(vec![Ev::CLoad {
                    addr: i as u32,
                    bytes: 1,
                }])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &diff);
        assert_eq!(c.const_serializations, 31);
    }

    #[test]
    fn masked_lanes_are_not_divergence() {
        // Lanes 0..8 active, rest idle for the whole segment (if tid < 8
        // guard): uniform.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                if i < 8 {
                    trace_of(vec![Ev::Flop { weight: 6 }])
                } else {
                    trace_of(vec![])
                }
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.divergent_segments, 0);
        assert_eq!(c.flops, 48);
        // issue cost is that of a full warp instruction
        assert_eq!(c.issue_cycles, 12);
    }

    #[test]
    fn unequal_active_lengths_flag_divergence() {
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                let n = if i % 2 == 0 { 1 } else { 3 };
                trace_of(vec![Ev::Flop { weight: 1 }; n])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert!(c.divergent_segments > 0);
        // Cost follows the longest lane: 3 slots.
        assert_eq!(c.warp_instructions, 3);
    }

    #[test]
    fn multi_segment_traces_realign_after_sync() {
        // Segment 1: only lane 0 works. Segment 2: all lanes work.
        let traces: Vec<ThreadTrace> = (0..32)
            .map(|i| {
                let mut t = Vec::new();
                if i == 0 {
                    t.push(Ev::Flop { weight: 6 });
                }
                t.push(Ev::Sync);
                t.push(Ev::GLoad {
                    addr: 0x1000 + i * 16,
                });
                t.push(Ev::Sync);
                t
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.divergent_segments, 0);
        assert_eq!(c.global_transactions, 4);
    }

    #[test]
    fn two_warps_counted_separately() {
        let traces: Vec<ThreadTrace> = (0..64)
            .map(|i| {
                trace_of(vec![Ev::GLoad {
                    addr: 0x1000 + (i % 32) * 16,
                }])
            })
            .collect();
        let c = analyze_block::<C64>(&dev(), &traces);
        assert_eq!(c.warps, 2);
        assert_eq!(c.global_transactions, 8);
    }

    /// A splitmix64 stream: the choices that shape one random block.
    struct Dice(u64);

    impl Dice {
        fn roll(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// A random block of one full warp of `ws` lanes and one that may be
    /// partial, for elements of `elem` bytes. Each lane runs one to three segments with a `Sync`
    /// after each (sometimes not after the last). A slot has one kind
    /// and one address pattern across the lanes. Some lanes are masked
    /// for a whole segment; in a ragged segment some stop a slot short
    /// or run a slot long, and in a mixed slot some issue another kind.
    /// Global bases put elements across 128-byte segment boundaries;
    /// shared strides of 128 bytes put every lane in one bank.
    fn random_block(ws: usize, elem: u64, seed: u64) -> Vec<ThreadTrace> {
        let mut d = Dice(seed);
        let lanes = 2 * ws - d.roll(ws as u64) as usize;
        let mut traces: Vec<ThreadTrace> = vec![Vec::new(); lanes];
        let segments = 1 + d.roll(3);
        for seg in 0..segments {
            let len = d.roll(6) as usize;
            let ragged = d.roll(2) == 0;
            let lens: Vec<usize> = (0..lanes)
                .map(|_| match d.roll(8) {
                    0 => 0,
                    1 if ragged => len.saturating_sub(1),
                    2 if ragged => len + 1,
                    _ => len,
                })
                .collect();
            for slot in 0..=len {
                let kind = d.roll(7);
                let pattern = d.roll(5);
                let gbase = [0, 8, 112, 120][d.roll(4) as usize];
                let sbase = [0, 4, 64][d.roll(3) as usize];
                let value = 1 + d.roll(12) as u32;
                let mixed = d.roll(3) == 0;
                for (lane, trace) in traces.iter_mut().enumerate() {
                    if slot >= lens[lane] {
                        continue;
                    }
                    let kind = if mixed && d.roll(8) == 0 {
                        d.roll(7)
                    } else {
                        kind
                    };
                    let idx = match pattern {
                        0 => lane as u64,
                        1 => 0,
                        2 => lane as u64 * 128 / elem,
                        3 => d.roll(8),
                        _ => (lanes - 1 - lane) as u64,
                    };
                    trace.push(match kind {
                        0 => Ev::GLoad {
                            addr: 0x1000 + gbase + idx * elem,
                        },
                        1 => Ev::GStore {
                            addr: 0x1000 + gbase + idx * elem,
                        },
                        2 => Ev::SLoad {
                            addr: (sbase + idx * elem) as u32,
                        },
                        3 => Ev::SStore {
                            addr: (sbase + idx * elem) as u32,
                        },
                        4 => Ev::CLoad {
                            addr: idx as u32,
                            bytes: 1 + d.roll(8) as u8,
                        },
                        5 => Ev::Flop {
                            weight: value + (d.roll(4) == 0) as u32,
                        },
                        _ => Ev::IOp {
                            count: value + (d.roll(4) == 0) as u32,
                        },
                    });
                }
            }
            for trace in &mut traces {
                if seg + 1 < segments || d.roll(4) != 0 {
                    trace.push(Ev::Sync);
                }
            }
        }
        traces
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn one_pass_analyzer_matches_the_reference(
            ws in prop_oneof![Just(4u32), Just(32u32)],
            wide in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let device = if ws == 32 { dev() } else { DeviceSpec::toy(ws) };
            if wide == 0 {
                let block = random_block(ws as usize, 16, seed);
                prop_assert_eq!(
                    analyze_block::<C64>(&device, &block),
                    reference::analyze_block::<C64>(&device, &block)
                );
            } else {
                let block = random_block(ws as usize, 32, seed);
                prop_assert_eq!(
                    analyze_block::<Complex<Dd>>(&device, &block),
                    reference::analyze_block::<Complex<Dd>>(&device, &block)
                );
            }
        }
    }
}
