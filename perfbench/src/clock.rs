//! The set-up clock: process CPU time, scaled to a reference core.
//!
//! On a shared machine the speed of a core drifts with the load of
//! other tenants, by half over minutes, and the CPU time of a fixed
//! piece of work drifts with it. So each set-up repetition is paired
//! with a burst of [`reference_work`], a fixed kernel of this crate
//! that polygpu cannot change, timed just before it. `setup_s` is the
//! set-up's CPU time divided by the kernel's and multiplied by
//! [`REFERENCE_SECONDS`]: seconds on a core that runs the kernel in
//! that time. A change to polygpu's set-up moves it in full; a change
//! in the machine's speed moves set-up and kernel alike and cancels.

use std::time::Instant;

/// CPU seconds of one [`reference_work`] call on the reference core: one
/// vCPU of a quiet two-vCPU x86-64 VM.
pub const REFERENCE_SECONDS: f64 = 4.76e-4;

/// CPU seconds used so far by every thread of this process, ended
/// threads included (Linux `CLOCK_PROCESS_CPUTIME_ID`). CPU rather than
/// wall time, so that waits for a core do not count.
pub fn cpu_seconds() -> f64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec for the call to fill.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Calls `f` until at least `min_wall` wall seconds have passed (once at
/// the least). Returns the CPU seconds per call, the wall seconds of the
/// burst, and what the last call returned.
pub fn burst<T>(min_wall: f64, f: &mut impl FnMut() -> T) -> (f64, f64, T) {
    let t0 = Instant::now();
    let cpu0 = cpu_seconds();
    let mut calls = 0u32;
    let mut last = None;
    while calls == 0 || t0.elapsed().as_secs_f64() < min_wall {
        last = Some(std::hint::black_box(f()));
        calls += 1;
    }
    let cpu = (cpu_seconds() - cpu0) / f64::from(calls);
    let wall = t0.elapsed().as_secs_f64();
    (cpu, wall, last.expect("the call ran at least once"))
}

/// The fixed kernel the set-up clock is scaled by: the kind of host work
/// provisioning does (small allocations, sorting, hashing, float
/// arithmetic) on a fixed xorshift stream.
pub fn reference_work() -> u64 {
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut live: Vec<Vec<f64>> = Vec::new();
    let mut counts = std::collections::BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..1000u64 {
        let len = 8 + (x % 64) as usize;
        let mut v = Vec::with_capacity(len);
        for j in 0..len {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push((x >> 11) as f64 * 1e-16 + j as f64 * 0.5);
        }
        v.sort_by(f64::total_cmp);
        acc = acc.wrapping_add(v[len / 2].to_bits());
        *counts.entry(x % 512).or_insert(0u64) += i;
        live.push(v);
        if live.len() > 256 {
            live.swap_remove((x % 256) as usize);
        }
    }
    acc.wrapping_add(counts.len() as u64)
}
