//! Analytic kernel cost entries for batched on-device dense linear
//! algebra: the fused factor-and-solve launch of the device-resident
//! corrector, plus LU with partial pivoting, modified Gram–Schmidt and
//! back-substitution as separate launches for cost comparisons.
//!
//! Verschelde–Yu run the entire Newton step — evaluation, Jacobian,
//! factorization, back-substitution — on the device so the corrector
//! loop never round-trips over PCIe. These routines extend the
//! simulator's cost model to that regime. Unlike the evaluation
//! kernels, which are executed functionally through [`crate::exec`]
//! and costed from their warp traces, the factorization is modeled
//! *analytically*: the numeric work itself runs host-side through the
//! shared `polygpu_complex::lu` routine (so pivoting order — and every
//! endpoint — stays bit-identical to the host corrector), while these
//! entries charge the modeled kernel time of the equivalent batched
//! device launch.
//!
//! Geometry follows the batched small-matrix idiom sized for the
//! paper's 30–70-dimensional Jacobians: **one block per matrix** (one
//! path's Jacobian each), `n` threads rounded up to a warp multiple.
//!
//! # The fused factor-and-solve launch
//!
//! [`factor_solve_cost`] prices one Newton update per matrix in **one**
//! launch: each block eliminates the augmented matrix `[J | −F]` with
//! partial pivoting, back-substitutes and applies `x += dx`, so the LU
//! factors never wait in global memory for a second launch. The launch
//! comes in two variants, and the entry picks whichever the model
//! prices lower for the `n`, element size, batch size and device at
//! hand:
//!
//! * [`Staging::Shared`] keeps the whole `n × (n + 1)` augmented matrix
//!   plus the `2n`-element pivot panel in shared memory. Global traffic
//!   drops to `[J | −F]` in and `x` in and out, but one block needs
//!   `n(n + 3)` elements of shared memory — 35,840 of the C2050's
//!   49,152 B at `n = 32` in double double — so at most one block is
//!   resident per SM. It wins on small batches, where each block's
//!   chain of global-memory latencies sets the time.
//! * [`Staging::Global`] streams the trailing update through global
//!   memory as the separate LU and back-substitution launches do,
//!   staging only the pivot panel: the factors go out to global memory
//!   and come back in, but many blocks fit on an SM. It wins once the
//!   batch fills the device in waves.
//!
//! The launch's kernel time splits into two phases, reported as
//! [`FactorSolveCost::factor_seconds`] (the elimination) and
//! [`FactorSolveCost::backsub_seconds`] (back-substitution and the
//! update); they sum to the launch's kernel seconds. When not even the
//! pivot panel fits one SM's shared memory (`n ≥ 769` in double double
//! on a C2050) every entry returns [`LaunchError::SharedOverflow`]
//! instead of a cost.

use crate::device::DeviceSpec;
use crate::exec::LaunchError;
use crate::kernel::LaunchConfig;
use crate::occupancy::{occupancy, Occupancy};
use crate::stats::Counters;
use crate::timing::{model_launch, LaunchTiming};
use std::ops::Add;

/// Modeled cost of one batched linear-algebra launch.
#[derive(Debug, Clone, Copy)]
pub struct LinalgCost {
    /// Timing from the analytic launch model.
    pub timing: LaunchTiming,
    /// Aggregated counters over the whole grid.
    pub counters: Counters,
    /// The launch geometry that was modeled (one block per matrix).
    pub cfg: LaunchConfig,
}

/// Where the fused factor-and-solve launch keeps the augmented matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Staging {
    /// `[J | −F]` and the pivot panel in shared memory for the whole
    /// launch; one block per SM at the paper's dimensions.
    Shared,
    /// Only the pivot panel in shared memory; the trailing update and
    /// the factors stream through global memory.
    Global,
}

impl Staging {
    /// Lower-case name, for trace metadata and reports.
    pub fn name(self) -> &'static str {
        match self {
            Staging::Shared => "shared",
            Staging::Global => "global",
        }
    }
}

/// Modeled cost of one fused factor-and-solve launch.
#[derive(Debug, Clone, Copy)]
pub struct FactorSolveCost {
    /// The one launch: timing, counters and geometry.
    pub launch: LinalgCost,
    /// The variant the model priced lower.
    pub staging: Staging,
    /// Kernel seconds of the elimination phase: what the launch would
    /// take with the elimination's work alone.
    pub factor_seconds: f64,
    /// The rest of the launch's kernel seconds: back-substitution and
    /// the `x += dx` update.
    pub backsub_seconds: f64,
}

/// Registers per thread assumed for the factorization kernels — small
/// tiles of the trailing block held in registers.
const REGS_PER_THREAD: u32 = 32;

/// Real flops per complex multiply-add (4 mul + 4 add, the schoolbook
/// form every kernel of this workspace charges).
const FLOPS_PER_CMULADD: u64 = 8;

/// Real flops per complex division (the 11-op conjugate form).
const FLOPS_PER_CDIV: u64 = 11;

/// Real flops per complex addition.
const FLOPS_PER_CADD: u64 = 2;

/// Per-matrix work of one launch or one phase of a launch.
#[derive(Debug, Clone, Copy, Default)]
struct Work {
    flops: u64,
    /// Elements read from or written to global memory.
    global_elems: u64,
    /// Shared-memory accesses.
    shared: u64,
}

impl Add for Work {
    type Output = Work;
    fn add(self, o: Work) -> Work {
        Work {
            flops: self.flops + o.flops,
            global_elems: self.global_elems + o.global_elems,
            shared: self.shared + o.shared,
        }
    }
}

/// LU with partial pivoting of one `n × n` matrix: `n³/3` complex
/// multiply-adds, `n²/2` divisions and the `|·|²` pivot scans, the
/// trailing block re-staged via shared memory rather than re-read from
/// DRAM; matrix in, factors out.
fn lu_work(n: u64) -> Work {
    Work {
        flops: FLOPS_PER_CMULADD * n * n * n / 3 + FLOPS_PER_CDIV * n * n / 2 + 3 * n * n / 2,
        global_elems: 2 * n * n,
        shared: n * n * n / 3,
    }
}

/// Permuted forward substitution against unit-L and back-substitution
/// against U for one right-hand side: `n²` complex multiply-adds and
/// `n` divisions; factors read once, rhs in, solution out.
fn backsub_work(n: u64) -> Work {
    Work {
        flops: FLOPS_PER_CMULADD * n * n + FLOPS_PER_CDIV * n,
        global_elems: n * n + 3 * n,
        shared: 2 * n,
    }
}

/// One block per matrix, one thread per row (rounded up to warps).
fn block_geometry(device: &DeviceSpec, n: usize, batch: usize) -> LaunchConfig {
    let warp = device.warp_size.max(1);
    let rows = (n.max(1)) as u32;
    let block_dim = rows
        .div_ceil(warp)
        .saturating_mul(warp)
        .clamp(warp, device.max_threads_per_block);
    LaunchConfig::new((batch.max(1)) as u32, block_dim)
}

/// Occupancy of a linear-algebra block staging `shared_bytes`, or the
/// typed reason it cannot launch.
fn block_occupancy(
    device: &DeviceSpec,
    cfg: LaunchConfig,
    shared_bytes: usize,
) -> Result<Occupancy, LaunchError> {
    if shared_bytes > device.shared_mem_per_sm {
        return Err(LaunchError::SharedOverflow {
            needed: shared_bytes,
            capacity: device.shared_mem_per_sm,
        });
    }
    occupancy(device, cfg.block_dim, shared_bytes, REGS_PER_THREAD).ok_or_else(|| {
        LaunchError::BadConfig("linalg block does not fit on an SM at any occupancy".into())
    })
}

/// Grid-wide counters of `cfg.grid_dim` blocks doing `work` each.
fn counters(device: &DeviceSpec, cfg: LaunchConfig, elem_bytes: usize, work: Work) -> Counters {
    let batch = cfg.grid_dim as u64;
    let warp = device.warp_size as u64;
    let warps_per_block = (cfg.block_dim as u64).div_ceil(warp).max(1);
    let flops = batch * work.flops;
    let global_bytes = batch * work.global_elems * elem_bytes as u64;
    let shared = batch * work.shared;
    Counters {
        warp_instructions: flops.div_ceil(warp),
        // FP64-equivalent work dominates issue; shared staging replays
        // add on top.
        issue_cycles: flops.div_ceil(warps_per_block * warp) * warps_per_block
            + shared.div_ceil(warp),
        // Warp-wide load/store instructions: element accesses over the
        // warp's lanes.
        global_mem_ops: batch * work.global_elems.div_ceil(warp),
        global_transactions: global_bytes.div_ceil(128),
        global_bytes,
        shared_accesses: shared,
        flops,
        warps: batch * warps_per_block,
        ..Default::default()
    }
}

fn model(
    device: &DeviceSpec,
    cfg: LaunchConfig,
    shared_elems: usize,
    elem_bytes: usize,
    work: Work,
) -> Result<LinalgCost, LaunchError> {
    let occ = block_occupancy(device, cfg, shared_elems * elem_bytes)?;
    let counters = counters(device, cfg, elem_bytes, work);
    Ok(LinalgCost {
        timing: model_launch(device, cfg, occ, &counters),
        counters,
        cfg,
    })
}

/// Batched LU factorization with partial pivoting of `batch` complex
/// `n × n` matrices of `elem_bytes`-byte elements (16 for `C64`, 32
/// for complex double-double), as a launch of its own: the pivot panel
/// staged through shared memory, matrix read and factors written once
/// through global memory.
pub fn lu_factor_cost(
    device: &DeviceSpec,
    n: usize,
    batch: usize,
    elem_bytes: usize,
) -> Result<LinalgCost, LaunchError> {
    let cfg = block_geometry(device, n, batch);
    model(device, cfg, 2 * n.max(1), elem_bytes, lu_work(n as u64))
}

/// Batched modified Gram–Schmidt (QR) of `batch` complex `n × n`
/// matrices — the orthogonalization alternative of Verschelde–Yu,
/// roughly `2n³` complex multiply-adds per matrix (about 3× the LU
/// elimination work, in exchange for better parallel smoothness). The
/// engine's device-resident corrector charges the LU-based
/// [`factor_solve_cost`] so its pivoting order matches the host path
/// bit for bit; this entry exists for cost-model comparisons.
pub fn mgs_factor_cost(
    device: &DeviceSpec,
    n: usize,
    batch: usize,
    elem_bytes: usize,
) -> Result<LinalgCost, LaunchError> {
    let cfg = block_geometry(device, n, batch);
    let nf = n as u64;
    let work = Work {
        // Projections and subtractions (2n³ cmuladds) + norms/scales.
        flops: FLOPS_PER_CMULADD * 2 * nf * nf * nf + FLOPS_PER_CDIV * nf * nf,
        // A in, Q and R out.
        global_elems: 3 * nf * nf,
        shared: nf * nf * nf / 2,
    };
    model(device, cfg, 2 * n.max(1), elem_bytes, work)
}

/// Batched triangular solve (permuted forward substitution against
/// unit-L, back-substitution against U) of one right-hand side per
/// matrix, as a launch of its own: factors streamed from global memory.
pub fn backsub_cost(
    device: &DeviceSpec,
    n: usize,
    batch: usize,
    elem_bytes: usize,
) -> Result<LinalgCost, LaunchError> {
    let cfg = block_geometry(device, n, batch);
    model(
        device,
        cfg,
        2 * n.max(1),
        elem_bytes,
        backsub_work(n as u64),
    )
}

/// One fused factor-and-solve launch over `batch` augmented systems
/// `[J | −F]` of dimension `n`, in whichever [`Staging`] the model
/// prices lower (see the module docs). Errors when not even the
/// `2n`-element pivot panel fits one SM's shared memory.
pub fn factor_solve_cost(
    device: &DeviceSpec,
    n: usize,
    batch: usize,
    elem_bytes: usize,
) -> Result<FactorSolveCost, LaunchError> {
    let streamed = fused_variant(device, n, batch, elem_bytes, Staging::Global)?;
    match fused_variant(device, n, batch, elem_bytes, Staging::Shared) {
        Ok(staged)
            if staged.launch.timing.kernel_seconds < streamed.launch.timing.kernel_seconds =>
        {
            Ok(staged)
        }
        _ => Ok(streamed),
    }
}

fn fused_variant(
    device: &DeviceSpec,
    n: usize,
    batch: usize,
    elem_bytes: usize,
    staging: Staging,
) -> Result<FactorSolveCost, LaunchError> {
    let cfg = block_geometry(device, n, batch);
    let nf = n as u64;
    let update = Work {
        flops: FLOPS_PER_CADD * nf,
        ..Work::default()
    };
    let (shared_elems, factor, solve) = match staging {
        Staging::Shared => (
            // [J | −F] plus the pivot panel.
            n.max(1) * (n + 3),
            // [J | −F] in; the elimination never leaves shared memory.
            Work {
                global_elems: nf * nf + nf,
                ..lu_work(nf)
            },
            // Factors read from shared memory; x in and out.
            Work {
                global_elems: 2 * nf,
                shared: nf * nf + 2 * nf,
                ..backsub_work(nf)
            },
        ),
        Staging::Global => (
            2 * n.max(1),
            // [J | −F] in, factors out.
            Work {
                global_elems: 2 * nf * nf + nf,
                ..lu_work(nf)
            },
            // Factors back in; x in and out.
            Work {
                global_elems: nf * nf + 2 * nf,
                ..backsub_work(nf)
            },
        ),
    };
    let occ = block_occupancy(device, cfg, shared_elems * elem_bytes)?;
    let total = counters(device, cfg, elem_bytes, factor + solve + update);
    let timing = model_launch(device, cfg, occ, &total);
    let factor_seconds =
        model_launch(device, cfg, occ, &counters(device, cfg, elem_bytes, factor)).kernel_seconds;
    Ok(FactorSolveCost {
        launch: LinalgCost {
            timing,
            counters: total,
            cfg,
        },
        staging,
        factor_seconds,
        backsub_seconds: timing.kernel_seconds - factor_seconds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceSpec {
        DeviceSpec::tesla_c2050()
    }

    #[test]
    fn factor_cost_grows_cubically() {
        let d = dev();
        // Saturate the device so the compute/bandwidth terms (which
        // scale with work) dominate rather than the flat latency floor.
        let small = lu_factor_cost(&d, 30, 4096, 16).unwrap();
        let large = lu_factor_cost(&d, 60, 4096, 16).unwrap();
        assert!(large.counters.flops > 7 * small.counters.flops);
        assert!(
            large.timing.kernel_seconds > 3.0 * small.timing.kernel_seconds,
            "n=60 {:e} vs n=30 {:e}",
            large.timing.kernel_seconds,
            small.timing.kernel_seconds
        );
    }

    #[test]
    fn backsub_is_cheaper_than_factor() {
        let d = dev();
        for n in [30usize, 50, 70] {
            let f = lu_factor_cost(&d, n, 4096, 16).unwrap();
            let b = backsub_cost(&d, n, 4096, 16).unwrap();
            // O(n³) vs O(n²) arithmetic…
            assert!(b.counters.flops * 5 < f.counters.flops, "n={n}");
            // …but with one warp per 30-dim matrix both launches sit
            // near the memory-latency floor, so the wall-clock gap is
            // narrower than the flop ratio (back-substitution stays
            // comparatively expensive on the device, as the paper
            // observes).
            assert!(
                b.timing.kernel_seconds < 0.75 * f.timing.kernel_seconds,
                "n={n}: backsub {:e} vs factor {:e}",
                b.timing.kernel_seconds,
                f.timing.kernel_seconds
            );
        }
    }

    #[test]
    fn mgs_costs_more_than_lu() {
        let d = dev();
        let lu = lu_factor_cost(&d, 48, 1024, 16).unwrap();
        let mgs = mgs_factor_cost(&d, 48, 1024, 16).unwrap();
        assert!(mgs.counters.flops > 2 * lu.counters.flops);
        assert!(mgs.timing.kernel_seconds > lu.timing.kernel_seconds);
    }

    #[test]
    fn batch_scales_in_waves() {
        let d = dev();
        let one = lu_factor_cost(&d, 40, 256, 16).unwrap();
        let four = lu_factor_cost(&d, 40, 1024, 16).unwrap();
        assert!(four.timing.waves >= one.timing.waves);
        assert!(
            four.timing.kernel_seconds > 2.0 * one.timing.kernel_seconds,
            "4x batch {:e} vs {:e}",
            four.timing.kernel_seconds,
            one.timing.kernel_seconds
        );
        // Per-point cost must not explode: batching amortizes.
        assert!(four.timing.kernel_seconds < 8.0 * one.timing.kernel_seconds);
    }

    #[test]
    fn dd_elements_cost_more_bandwidth() {
        let d = dev();
        let f64_cost = lu_factor_cost(&d, 40, 512, 16).unwrap();
        let dd_cost = lu_factor_cost(&d, 40, 512, 32).unwrap();
        assert_eq!(
            dd_cost.counters.global_bytes,
            2 * f64_cost.counters.global_bytes
        );
        assert!(dd_cost.timing.kernel_seconds >= f64_cost.timing.kernel_seconds);
    }

    #[test]
    fn one_block_per_matrix_geometry() {
        let d = dev();
        let c = lu_factor_cost(&d, 33, 100, 16).unwrap();
        assert_eq!(c.cfg.grid_dim, 100);
        assert_eq!(c.cfg.block_dim % d.warp_size, 0);
        assert!(c.cfg.block_dim >= 33);
        // Deterministic: same inputs, same model.
        let c2 = lu_factor_cost(&d, 33, 100, 16).unwrap();
        assert_eq!(c.timing, c2.timing);
        assert_eq!(c.counters, c2.counters);
    }

    #[test]
    fn fused_launch_never_costs_more_than_the_two_it_replaces() {
        let d = dev();
        for elem in [16usize, 32] {
            for batch in [1usize, 14, 112, 1024] {
                for n in 1..=70usize {
                    let fused = factor_solve_cost(&d, n, batch, elem).unwrap();
                    let lu = lu_factor_cost(&d, n, batch, elem).unwrap();
                    let bs = backsub_cost(&d, n, batch, elem).unwrap();
                    let two = lu.timing.total_seconds() + bs.timing.total_seconds();
                    let one = fused.launch.timing.total_seconds();
                    assert!(
                        one <= two,
                        "n={n} batch={batch} elem={elem}: fused {one:e} vs two launches {two:e}"
                    );
                    // The two phases tile the launch's kernel time.
                    let t = fused.launch.timing.kernel_seconds;
                    assert!(fused.factor_seconds > 0.0 && fused.backsub_seconds >= 0.0);
                    assert!(
                        (fused.factor_seconds + fused.backsub_seconds - t).abs() <= 1e-12 * t,
                        "n={n} batch={batch} elem={elem}"
                    );
                }
            }
        }
    }

    #[test]
    fn staging_follows_the_batch() {
        let d = dev();
        // The paper's dimension in double double: [J | −F] plus the
        // pivot panel is 35,840 B, which fits one SM (one block each).
        let one = factor_solve_cost(&d, 32, 1, 32).unwrap();
        assert_eq!(one.staging, Staging::Shared);
        assert_eq!(one.launch.timing.occupancy.blocks_per_sm, 1);
        // Two waves of one staged block per SM still beat streaming;
        // a batch that needs more waves prefers more resident blocks
        // over less traffic.
        assert_eq!(
            factor_solve_cost(&d, 32, 28, 32).unwrap().staging,
            Staging::Shared
        );
        for batch in [29, 42, 1024] {
            let many = factor_solve_cost(&d, 32, batch, 32).unwrap();
            assert_eq!(many.staging, Staging::Global, "batch {batch}");
        }
        // Past n = 37 the augmented matrix no longer fits in double
        // double, whatever the batch.
        assert_eq!(
            factor_solve_cost(&d, 38, 1, 32).unwrap().staging,
            Staging::Global
        );
        // Staged, the factors never travel: the fused launch moves less
        // than the LU launch alone.
        let lu = lu_factor_cost(&d, 32, 1, 32).unwrap();
        assert!(one.launch.counters.global_bytes < lu.counters.global_bytes);
    }

    #[test]
    fn pivot_panel_overflow_is_a_typed_error() {
        let d = dev();
        // 2n double-double elements: 768 fit 49,152 B exactly, 769 do not.
        assert!(factor_solve_cost(&d, 768, 1, 32).is_ok());
        let err = factor_solve_cost(&d, 769, 1, 32).unwrap_err();
        assert_eq!(
            err,
            LaunchError::SharedOverflow {
                needed: 2 * 769 * 32,
                capacity: 49_152
            }
        );
        assert!(lu_factor_cost(&d, 769, 1, 32).is_err());
        assert!(backsub_cost(&d, 769, 1, 32).is_err());
    }
}
