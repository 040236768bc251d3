//! Deterministic fault injection for the modeled device fleet.
//!
//! Real multi-GPU runs — the multi-hour dd/qd Newton workloads of the
//! paper's follow-ups — see devices drop off the bus, ECC flag
//! corrupted PCIe transfers, and kernels fail or hang at launch. This
//! module models those events **deterministically**: a [`FaultPlan`] is
//! a pure function of `(seed, device, op-index)`, so any chaos run is
//! exactly replayable — same seed, same schedule, byte for byte —
//! independent of host thread timing, wall clocks or RNG state.
//!
//! Injection sits at the modeled operation boundaries (uploads, kernel
//! launches, downloads). A struck operation does not complete: the
//! evaluator charges the modeled **detection latency** (how long until
//! the driver notices — a hang costs its watchdog timeout, an ECC error
//! the transfer plus a round trip) to the wall clock and surfaces a
//! typed [`FaultError`]. Faults cost time, never correctness.
//!
//! ```
//! use polygpu_gpusim::fault::{FaultPlan, OpClass};
//!
//! let plan = FaultPlan::new(7, 200_000); // 20% of ops fault
//! // The schedule is a pure function: replays are identical.
//! for op in 0..64 {
//!     assert_eq!(
//!         plan.fault_at(0, op, OpClass::Kernel),
//!         plan.fault_at(0, op, OpClass::Kernel),
//!     );
//! }
//! ```

use crate::device::DeviceSpec;
use std::fmt;

/// The taxonomy of injected faults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The device fell off the bus. **Sticky**: every later operation
    /// on the same device fails immediately until the fleet fails the
    /// device over.
    DeviceLost,
    /// An ECC-style *detected* transfer error: the data is known-bad,
    /// never silently consumed.
    TransferCorrupt,
    /// The driver rejected the kernel launch (transient).
    LaunchFailed,
    /// The kernel hung; the watchdog kills it after `timeout` modeled
    /// seconds — all charged to the wall clock.
    LaunchHang { timeout: f64 },
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::DeviceLost => write!(f, "device lost"),
            FaultKind::TransferCorrupt => write!(f, "transfer corrupted (ECC)"),
            FaultKind::LaunchFailed => write!(f, "kernel launch failed"),
            FaultKind::LaunchHang { timeout } => {
                write!(f, "kernel hang (watchdog after {timeout:.1e} s)")
            }
        }
    }
}

/// The class of modeled operation a fault strikes. Transfers can lose
/// the device or corrupt data; kernel launches can lose the device,
/// fail, or hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    HostToDevice,
    Kernel,
    DeviceToHost,
}

/// splitmix64 — the avalanche permutation behind the schedule hash.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded fault schedule: whether operation `op` on device `device`
/// faults — and how — is a **pure function** of `(seed, device, op)`.
/// No clocks, no RNG state: replaying a plan reproduces the exact same
/// fault sequence, which is what makes the bit-identity-under-faults
/// invariant testable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Schedule seed.
    pub seed: u64,
    /// Per-operation fault probability in parts per million
    /// (`1_000_000` faults every op, `0` disables injection).
    pub rate_ppm: u32,
}

impl FaultPlan {
    pub fn new(seed: u64, rate_ppm: u32) -> Self {
        FaultPlan { seed, rate_ppm }
    }

    /// The fault (if any) striking operation `op` on `device`. The
    /// *whether* depends only on `(seed, device, op)`; the *kind* is
    /// drawn from the class-legal subset of the taxonomy, so e.g. a
    /// transfer never "hangs at launch".
    pub fn fault_at(&self, device: usize, op: u64, class: OpClass) -> Option<FaultKind> {
        if self.rate_ppm == 0 {
            return None;
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64(device as u64 ^ 0xD1B5_4A32_D192_ED03)
                ^ splitmix64(op ^ 0x8CB9_2BA7_2F3D_8DD7),
        );
        if h % 1_000_000 >= u64::from(self.rate_ppm) {
            return None;
        }
        let selector = (h >> 32) % 8;
        Some(match class {
            // Device loss is the rarest event (1 in 8 faults).
            OpClass::HostToDevice | OpClass::DeviceToHost => {
                if selector == 0 {
                    FaultKind::DeviceLost
                } else {
                    FaultKind::TransferCorrupt
                }
            }
            OpClass::Kernel => match selector {
                0 => FaultKind::DeviceLost,
                1..=4 => FaultKind::LaunchFailed,
                _ => FaultKind::LaunchHang {
                    timeout: (1.0 + ((h >> 40) % 8) as f64) * 1e-3,
                },
            },
        })
    }
}

/// A modeled operation was struck by an injected fault. Carries the
/// honestly modeled **detection latency** — the wall-clock seconds
/// between issuing the operation and the driver reporting the failure —
/// which the evaluator charges before surfacing this error.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultError {
    /// Fleet index of the struck device.
    pub device: usize,
    /// The device-local operation index the plan struck.
    pub op_index: u64,
    pub kind: FaultKind,
    /// Modeled seconds until the fault was detected.
    pub detection_seconds: f64,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected fault on device {} at op {}: {} (detected after {:.1e} s)",
            self.device, self.op_index, self.kind, self.detection_seconds
        )
    }
}

impl std::error::Error for FaultError {}

/// Per-device injection state: the plan, a monotone operation counter,
/// and the sticky lost flag. Starts **disarmed** so construction-time
/// validation probes (which the engines run before any user work) never
/// fault — and disarmed operations do not advance the counter, so the
/// schedule seen by user work is independent of how many probes
/// construction ran.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    device: usize,
    op: u64,
    lost: bool,
    armed: bool,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan, device: usize) -> Self {
        FaultInjector {
            plan,
            device,
            op: 0,
            lost: false,
            armed: false,
        }
    }

    /// Enable injection (engines call this after their validation
    /// probe).
    pub fn arm(&mut self) {
        self.armed = true;
    }

    /// Disable injection (operations stop advancing the schedule).
    pub fn disarm(&mut self) {
        self.armed = false;
    }

    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Fleet index this injector's schedule is keyed on.
    pub fn device(&self) -> usize {
        self.device
    }

    /// Whether a sticky [`FaultKind::DeviceLost`] has fired.
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// Consult the schedule for the next operation of `class`, whose
    /// successful execution would take `op_seconds` modeled seconds.
    /// Returns the fault (with its detection latency priced against
    /// `spec`) or `None` when the operation proceeds normally.
    pub fn check(
        &mut self,
        class: OpClass,
        spec: &DeviceSpec,
        op_seconds: f64,
    ) -> Option<FaultError> {
        if !self.armed {
            return None;
        }
        if self.lost {
            // A lost device fails every operation instantly — the
            // driver already knows; only a command-queue round trip is
            // charged.
            return Some(FaultError {
                device: self.device,
                op_index: self.op,
                kind: FaultKind::DeviceLost,
                detection_seconds: spec.pcie_latency,
            });
        }
        let op_index = self.op;
        self.op += 1;
        let kind = self.plan.fault_at(self.device, op_index, class)?;
        if matches!(kind, FaultKind::DeviceLost) {
            self.lost = true;
        }
        let detection_seconds = match kind {
            // The op runs to its (doomed) end, then teardown + bus
            // re-probe round trips confirm the device is gone.
            FaultKind::DeviceLost => op_seconds + 4.0 * spec.pcie_latency,
            // ECC reports at transfer completion, plus one round trip.
            FaultKind::TransferCorrupt => op_seconds + spec.pcie_latency,
            // The driver rejects at submission.
            FaultKind::LaunchFailed => spec.launch_overhead,
            // The watchdog waits out the full timeout.
            FaultKind::LaunchHang { timeout } => timeout,
        };
        Some(FaultError {
            device: self.device,
            op_index,
            kind,
            detection_seconds,
        })
    }
}

/// Fault/recovery accounting, accumulated wherever faults are handled
/// (engine, fleet, scheduler) and surfaced through `PipelineStats`,
/// `ClusterStats` and the solver's `FaultReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Injected faults observed.
    pub faults: u64,
    /// Retry attempts issued by recovery.
    pub retries: u64,
    /// Shards/loads re-planned onto surviving devices.
    pub failovers: u64,
    /// Modeled wall-clock seconds spent on detection, backoff and
    /// recovery re-execution.
    pub recovery_seconds: f64,
}

impl FaultStats {
    pub fn merge(&mut self, other: &FaultStats) {
        self.faults += other.faults;
        self.retries += other.retries;
        self.failovers += other.failovers;
        self.recovery_seconds += other.recovery_seconds;
    }

    /// Share of `wall_seconds` spent detecting and recovering from
    /// faults (0 when no wall clock accumulated).
    pub fn recovery_share(&self, wall_seconds: f64) -> f64 {
        if wall_seconds > 0.0 {
            (self.recovery_seconds / wall_seconds).min(1.0)
        } else {
            0.0
        }
    }

    /// Record these stats into a metrics registry under `prefix`.
    pub fn record_metrics(&self, reg: &mut polygpu_obs::MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}.faults"), self.faults);
        reg.counter(&format!("{prefix}.retries"), self.retries);
        reg.counter(&format!("{prefix}.failovers"), self.failovers);
        reg.gauge(&format!("{prefix}.recovery_seconds"), self.recovery_seconds);
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  faults                {:>12}", self.faults)?;
        writeln!(f, "  retries               {:>12}", self.retries)?;
        writeln!(f, "  failovers             {:>12}", self.failovers)?;
        write!(
            f,
            "  recovery seconds      {:>12.3e}",
            self.recovery_seconds
        )
    }
}

/// How a fleet (or scheduler) recovers from injected faults: retry the
/// struck work with exponential backoff in **modeled** time, then fail
/// over, then — when permitted — fall back to the bit-identical CPU
/// reference. All knobs are deterministic; there is no jitter.
///
/// [`RecoveryPolicy::retry_backoff`] is the one retry decision every
/// recovering caller makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Retries per struck shard/round before failover (0 = fail over
    /// immediately).
    pub max_retries: u32,
    /// Backoff before the first retry, modeled seconds.
    pub backoff_base: f64,
    /// Multiplier applied per subsequent retry.
    pub backoff_factor: f64,
    /// Permit the final degradation rung: evaluate on the CPU
    /// reference (bit-identical, but unaccelerated) when every device
    /// path is exhausted. When `false` the fleet returns a typed
    /// `DegradedFleet` error instead.
    pub cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 2,
            backoff_base: 1e-4,
            backoff_factor: 2.0,
            cpu_fallback: false,
        }
    }
}

impl RecoveryPolicy {
    /// No retries, no fallback: every fault propagates immediately.
    pub fn none() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            backoff_base: 0.0,
            backoff_factor: 1.0,
            cpu_fallback: false,
        }
    }

    /// Modeled backoff before retry number `attempt` (0-based).
    pub fn backoff_seconds(&self, attempt: u32) -> f64 {
        self.backoff_base * self.backoff_factor.powi(attempt as i32)
    }

    /// Whether work struck by a fault of `kind` on its `attempt`-th
    /// retry (0-based) runs again, and the modeled backoff to wait
    /// first. [`FaultKind::DeviceLost`] is never retried — a lost
    /// device stays lost, so a retry could only fail identically — and
    /// no work retries more than `max_retries` times.
    pub fn retry_backoff(&self, kind: FaultKind, attempt: u32) -> Option<f64> {
        (kind != FaultKind::DeviceLost && attempt < self.max_retries)
            .then(|| self.backoff_seconds(attempt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function() {
        let plan = FaultPlan::new(42, 300_000);
        for device in 0..4 {
            for op in 0..256 {
                for class in [
                    OpClass::HostToDevice,
                    OpClass::Kernel,
                    OpClass::DeviceToHost,
                ] {
                    assert_eq!(
                        plan.fault_at(device, op, class),
                        plan.fault_at(device, op, class),
                    );
                }
            }
        }
    }

    #[test]
    fn devices_get_independent_schedules() {
        let plan = FaultPlan::new(7, 500_000);
        let a: Vec<_> = (0..128)
            .map(|op| plan.fault_at(0, op, OpClass::Kernel))
            .collect();
        let b: Vec<_> = (0..128)
            .map(|op| plan.fault_at(1, op, OpClass::Kernel))
            .collect();
        assert_ne!(a, b, "device schedules must decorrelate");
    }

    #[test]
    fn rate_controls_density() {
        let none = FaultPlan::new(3, 0);
        let all = FaultPlan::new(3, 1_000_000);
        for op in 0..64 {
            assert_eq!(none.fault_at(0, op, OpClass::Kernel), None);
            assert!(all.fault_at(0, op, OpClass::Kernel).is_some());
        }
        let some = FaultPlan::new(3, 100_000);
        let hits = (0..1000)
            .filter(|&op| some.fault_at(0, op, OpClass::Kernel).is_some())
            .count();
        assert!(
            (50..250).contains(&hits),
            "10% rate wildly off: {hits}/1000"
        );
    }

    #[test]
    fn classes_restrict_kinds() {
        let plan = FaultPlan::new(11, 1_000_000);
        for op in 0..256 {
            match plan.fault_at(2, op, OpClass::HostToDevice) {
                Some(FaultKind::DeviceLost | FaultKind::TransferCorrupt) => {}
                other => panic!("transfer op produced {other:?}"),
            }
            match plan.fault_at(2, op, OpClass::Kernel) {
                Some(
                    FaultKind::DeviceLost | FaultKind::LaunchFailed | FaultKind::LaunchHang { .. },
                ) => {}
                other => panic!("kernel op produced {other:?}"),
            }
        }
    }

    #[test]
    fn injector_is_sticky_after_device_loss() {
        let spec = DeviceSpec::tesla_c2050();
        let plan = FaultPlan::new(1, 1_000_000);
        let mut inj = FaultInjector::new(plan, 0);
        inj.arm();
        // Walk until the first DeviceLost...
        let mut lost_at = None;
        for op in 0..64u64 {
            let fe = inj
                .check(OpClass::Kernel, &spec, 1e-5)
                .expect("rate 100% must fault");
            if matches!(fe.kind, FaultKind::DeviceLost) {
                lost_at = Some(op);
                break;
            }
        }
        let lost_at = lost_at.expect("a 100% plan hits DeviceLost eventually");
        assert!(inj.is_lost());
        // ...after which every op fails instantly as DeviceLost.
        for _ in 0..8 {
            let fe = inj.check(OpClass::HostToDevice, &spec, 1e-5).unwrap();
            assert_eq!(fe.kind, FaultKind::DeviceLost);
            assert_eq!(fe.detection_seconds, spec.pcie_latency);
        }
        assert!(lost_at < 64);
    }

    #[test]
    fn disarmed_ops_neither_fault_nor_advance() {
        let spec = DeviceSpec::tesla_c2050();
        let plan = FaultPlan::new(5, 1_000_000);
        let mut probed = FaultInjector::new(plan, 0);
        // Construction probes: disarmed, no schedule consumed.
        for _ in 0..10 {
            assert!(probed.check(OpClass::Kernel, &spec, 1e-5).is_none());
        }
        probed.arm();
        let mut fresh = FaultInjector::new(plan, 0);
        fresh.arm();
        // Both see the identical post-arm schedule.
        for _ in 0..16 {
            assert_eq!(
                probed.check(OpClass::Kernel, &spec, 1e-5).map(|f| f.kind),
                fresh.check(OpClass::Kernel, &spec, 1e-5).map(|f| f.kind),
            );
        }
    }

    #[test]
    fn detection_latency_is_honest() {
        let spec = DeviceSpec::tesla_c2050();
        let plan = FaultPlan::new(9, 1_000_000);
        let mut inj = FaultInjector::new(plan, 1);
        inj.arm();
        for _ in 0..64 {
            if inj.is_lost() {
                break;
            }
            let op_seconds = 3e-4;
            if let Some(fe) = inj.check(OpClass::Kernel, &spec, op_seconds) {
                match fe.kind {
                    FaultKind::DeviceLost => {
                        assert_eq!(fe.detection_seconds, op_seconds + 4.0 * spec.pcie_latency)
                    }
                    FaultKind::TransferCorrupt => {
                        assert_eq!(fe.detection_seconds, op_seconds + spec.pcie_latency)
                    }
                    FaultKind::LaunchFailed => {
                        assert_eq!(fe.detection_seconds, spec.launch_overhead)
                    }
                    FaultKind::LaunchHang { timeout } => {
                        assert_eq!(fe.detection_seconds, timeout);
                        assert!(timeout > 0.0);
                    }
                }
                assert!(fe.detection_seconds > 0.0);
            }
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let p = RecoveryPolicy::default();
        assert_eq!(p.backoff_seconds(0), p.backoff_base);
        assert_eq!(p.backoff_seconds(2), p.backoff_base * 4.0);
        assert_eq!(RecoveryPolicy::none().backoff_seconds(5), 0.0);
        // The retry decision: backoff per attempt until the budget is
        // spent, and never for a lost device.
        let corrupt = FaultKind::TransferCorrupt;
        assert_eq!(p.retry_backoff(corrupt, 1), Some(p.backoff_seconds(1)));
        assert_eq!(p.retry_backoff(corrupt, p.max_retries), None);
        assert_eq!(p.retry_backoff(FaultKind::DeviceLost, 0), None);
        assert_eq!(RecoveryPolicy::none().retry_backoff(corrupt, 0), None);
    }

    #[test]
    fn stats_merge_and_share() {
        let mut a = FaultStats {
            faults: 2,
            retries: 3,
            failovers: 1,
            recovery_seconds: 0.5,
        };
        let b = FaultStats {
            faults: 1,
            retries: 0,
            failovers: 0,
            recovery_seconds: 0.25,
        };
        a.merge(&b);
        assert_eq!(a.faults, 3);
        assert_eq!(a.retries, 3);
        assert_eq!(a.failovers, 1);
        assert_eq!(a.recovery_seconds, 0.75);
        assert!((a.recovery_share(3.0) - 0.25).abs() < 1e-15);
        assert_eq!(FaultStats::default().recovery_share(0.0), 0.0);
    }
}
