//! Seeded inputs of the four workloads and the engine specs they run on.
//!
//! Everything the program sees is generated here from `--seed`: the
//! same seed gives the same systems, points and requests. Solver
//! targets come from the frozen pool in [`crate::pool`]: each entry is a
//! sub-seed, from which its target and gamma are generated, and the
//! start paths to track. The seed picks which entries a run uses. The
//! pool is data, so the work a run carries does not depend on the code
//! under test: a change that makes paths cheaper shows in full, and one
//! that makes a pooled path fail counts as a failure.

use crate::pool;
use polygpu::complex::C64;
use polygpu::core::engine::Engine as CoreEngine;
use polygpu::core::EncodingKind;
use polygpu::engine::{
    Backend, ClusterPolicy, ClusterProvider, Engine, EngineBuilder, SystemShardPolicy,
};
use polygpu::gpusim::prelude::{DeviceSpec, LaunchOptions};
use polygpu::homotopy::solve::{
    PathEndpoint, PrecisionPolicy, SolveRequest, Solver, StartKind, StartSelection,
};
use polygpu::homotopy::{CorrectorMode, TrackParams, UsedPrecision};
use polygpu::polyhedral::mixed_cell_starts;
use polygpu::polysys::{
    random_points, random_sparse_system, random_system, BenchmarkParams, SparseBenchmarkParams,
    System,
};

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["eval-table1", "solve-small", "solve-dim32", "serve-mix"];

/// Points per `eval-table1` request (the batch engine's capacity).
pub const EVAL_POINTS: usize = 64;
/// Distinct point batches `eval-table1` cycles through.
pub const EVAL_POOL: usize = 3;
/// Distinct requests `solve-small` cycles through (two dense to one
/// sparse).
pub const SMALL_POOL: usize = 72;
/// Converging paths tracked per `solve-small` request.
pub const SMALL_PATHS: usize = 4;
/// Distinct requests `solve-dim32` cycles through.
pub const DIM32_POOL: usize = 2;
/// Paths per `solve-dim32` request: one per fleet device.
pub const DIM32_PATHS: usize = 2;
/// Jobs each tenant submits per `serve-mix` wave.
pub const JOBS_PER_TENANT: usize = 2;
/// Tenant weights of `serve-mix`.
pub const TENANT_WEIGHTS: [u32; 3] = [1, 2, 4];
/// Hot targets `serve-mix` jobs repeat.
const HOT_TARGETS: usize = 4;
/// One `serve-mix` job in this many carries a target not seen before.
pub const NEW_EVERY: u64 = 4;
/// Paths per `serve-mix` job.
pub const SERVE_PATHS: usize = 4;

/// One entry of the frozen pool: the sub-seed its target and gamma are
/// generated from, and the start paths it tracks.
#[derive(Debug, Clone, Copy)]
pub struct Pick {
    pub seed: u64,
    pub starts: &'static [u16],
}

/// SplitMix64 of `(seed, tag, i)`: independent sub-seeds per input.
pub fn mix(seed: u64, tag: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(i.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Entry `k` of the seed's ordering of `list`: a Fisher-Yates shuffle
/// keyed by `(seed, tag)`, so a run draws distinct entries for
/// `k = 0, 1, ...` up to the list's length.
fn draw(list: &'static [Pick], seed: u64, tag: u64, k: usize) -> Pick {
    assert!(
        k < list.len(),
        "the frozen pool holds {} entries, entry {k} was asked for",
        list.len()
    );
    let mut order: Vec<usize> = (0..list.len()).collect();
    for i in 0..=k {
        let j = i + (mix(seed, tag, i as u64) % (list.len() - i) as u64) as usize;
        order.swap(i, j);
    }
    list[order[k]]
}

// ---------------------------------------------------------------------
// Engine specs
// ---------------------------------------------------------------------

/// `eval-table1`: one C2050 batch engine.
pub fn eval_spec() -> EngineBuilder<polygpu::engine::Sharded> {
    Engine::builder().backend(Backend::GpuBatch {
        capacity: EVAL_POINTS,
    })
}

/// `solve-small`: one C2050 batch engine with default launch options,
/// direct encoding for dense targets and packed keys for ragged ones.
pub fn small_spec(packed: bool) -> EngineBuilder<polygpu::engine::Sharded> {
    let spec = Engine::builder().backend(Backend::GpuBatch {
        capacity: SMALL_PATHS,
    });
    if packed {
        spec.encoding(EncodingKind::Packed)
    } else {
        spec
    }
}

/// `solve-dim32`: a two-device point-sharded C2050 fleet.
pub fn dim32_spec<P: ClusterProvider>(provider: P) -> EngineBuilder<P> {
    CoreEngine::builder_with(provider).backend(Backend::Cluster {
        devices: vec![DeviceSpec::tesla_c2050(); 2],
        shard: ClusterPolicy::default().into(),
    })
}

/// Constant bytes per `serve-mix` device: a C2050 partition small
/// enough that the hot set plus a few new targets overflow it, so the
/// encoded-system cache must evict.
pub const SERVE_CONSTANT_BYTES: usize = 192;

/// `serve-mix`: a two-device row-sharded fleet of C2050s whose constant
/// memory is partitioned down to [`SERVE_CONSTANT_BYTES`]. Launches are
/// simulated on the calling thread: the default spawns host threads per
/// launch, which made a wave 2.6x slower on a two-core machine and left
/// too few waves for a run. Modeled results do not depend on it;
/// `solve-small` measures the default's per-launch cost.
pub fn serve_spec<P: ClusterProvider>(provider: P) -> EngineBuilder<P> {
    let device = DeviceSpec {
        constant_mem: SERVE_CONSTANT_BYTES,
        constant_reserved: 0,
        ..DeviceSpec::tesla_c2050()
    };
    CoreEngine::builder_with(provider)
        .launch(LaunchOptions {
            parallel_host: false,
            ..LaunchOptions::default()
        })
        .backend(Backend::Cluster {
            devices: vec![device; 2],
            shard: SystemShardPolicy::Contiguous.into(),
        })
        .per_device_capacity(SERVE_PATHS)
}

/// The CPU reference solver every output is checked against.
pub fn cpu_solver() -> Solver<polygpu::engine::Sharded> {
    Solver::from_builder(Engine::builder().backend(Backend::CpuReference))
}

// ---------------------------------------------------------------------
// eval-table1
// ---------------------------------------------------------------------

/// Table 1's largest row: n = 32, k = 9, d <= 2, 1,536 monomials.
pub fn table1_system(seed: u64) -> System<f64> {
    random_system::<f64>(&BenchmarkParams::table1(1536, mix(seed, 1, 0)))
}

/// The point batches `eval-table1` evaluates.
pub fn eval_batches(seed: u64) -> Vec<Vec<Vec<C64>>> {
    (0..EVAL_POOL)
        .map(|i| random_points::<f64>(32, EVAL_POINTS, mix(seed, 2, i as u64)))
        .collect()
}

// ---------------------------------------------------------------------
// Requests, as functions of a sub-seed
// ---------------------------------------------------------------------

/// A dense total-degree `solve-small` request: n = m, k = 2, d = 2,
/// direct encoding, failing paths escalated to double-double.
pub fn dense_request(n: usize, s: u64) -> SolveRequest {
    let target = random_system::<f64>(&BenchmarkParams {
        n,
        m: n,
        k: 2,
        d: 2,
        seed: s,
    });
    SolveRequest::new(target)
        .with_gamma_seed(s)
        .with_precision(PrecisionPolicy::escalating_with(TrackParams::default()))
}

/// A ragged sparse `solve-small` request solved from mixed cells, with
/// escalation. `None` when the target fails the structural screens: a
/// polynomial of total degree 0 (`SolveRequest::new` panics on one), or
/// mixed cells that do not build.
pub fn sparse_request(n: usize, s: u64) -> Option<SolveRequest> {
    let target = random_sparse_system::<f64>(&SparseBenchmarkParams {
        n,
        m_min: 2,
        m_max: 4,
        k_min: 0,
        k_max: 2,
        d: 2,
        seed: s,
    });
    let lift_seed = s >> 8;
    if target.polys().iter().any(|p| p.total_degree() == 0)
        || mixed_cell_starts(&target, lift_seed).is_err()
    {
        return None;
    }
    Some(
        SolveRequest::new(target)
            .with_start_kind(StartKind::MixedCells { lift_seed })
            .with_gamma_seed(s)
            .with_precision(PrecisionPolicy::escalating_with(TrackParams::default())),
    )
}

/// A `solve-dim32` request at dimension `n` (32 in the benchmark; tests
/// shrink it): 22 monomials per equation, each one variable to the first
/// or second power (k = 1, d = 2), in fixed double-double with the fused
/// device-resident corrector.
pub fn dim32_request(n: usize, s: u64) -> SolveRequest {
    let target = random_system::<f64>(&BenchmarkParams {
        n,
        m: 22,
        k: 1,
        d: 2,
        seed: s,
    });
    SolveRequest::new(target)
        .with_gamma_seed(s)
        .with_corrector(CorrectorMode::DeviceResident)
        .with_precision(PrecisionPolicy::Fixed(UsedPrecision::DoubleDouble))
}

/// A small dense `serve-mix` target (n = 3), fixed double precision.
pub fn serve_request(s: u64) -> SolveRequest {
    let target = random_system::<f64>(&BenchmarkParams {
        n: 3,
        m: 3,
        k: 2,
        d: 2,
        seed: s,
    });
    SolveRequest::new(target).with_gamma_seed(s)
}

// ---------------------------------------------------------------------
// Solver workloads
// ---------------------------------------------------------------------

/// One solver request with its CPU-reference answer.
#[derive(Debug, Clone)]
pub struct SolveCase {
    pub request: SolveRequest,
    /// Whether the request runs on the packed-encoding spec.
    pub packed: bool,
    /// The CPU reference's endpoint per tracked path.
    pub reference: Vec<PathEndpoint>,
    /// Short description for the report.
    pub shape: String,
}

/// `request` restricted to the start paths of `pick`, with the CPU
/// reference solve of it (untimed). A reference path that does not
/// converge makes the device's path fail the check too.
fn pooled(request: SolveRequest, pick: Pick, packed: bool, shape: String) -> SolveCase {
    let starts = pick.starts.iter().map(|&j| u128::from(j)).collect();
    let request = request.with_starts(StartSelection::Indices(starts));
    let report = cpu_solver()
        .solve(&request)
        .expect("the CPU reference solves every pooled request");
    SolveCase {
        request,
        packed,
        reference: report.paths.iter().map(|p| p.endpoint.clone()).collect(),
        shape,
    }
}

/// `solve-small` request `i`: two dense total-degree targets (n = 3..6)
/// to one ragged sparse target (n = 2..5), the dimension cycling every
/// three requests. Dense requests cost several sparse ones, so the 2:1
/// mix keeps the median request inside the dense group instead of in
/// the gap between the two.
pub fn small_case(seed: u64, i: usize) -> SolveCase {
    let (group, class) = (i / 3, (i / 3) % 4);
    if i % 3 != 2 {
        let n = 3 + class;
        let pick = draw(
            pool::DENSE[class],
            seed,
            10 + n as u64,
            2 * (group / 4) + i % 3,
        );
        let shape = format!("dense n={n} m={n} k=2 d=2");
        pooled(dense_request(n, pick.seed), pick, false, shape)
    } else {
        let n = 2 + class;
        let pick = draw(pool::SPARSE[class], seed, 20 + n as u64, group / 4);
        let request = sparse_request(n, pick.seed).expect("pooled sparse targets pass the screens");
        pooled(request, pick, true, format!("sparse n={n} mixed cells"))
    }
}

/// `solve-dim32` request `i`.
pub fn dim32_case(seed: u64, i: usize) -> SolveCase {
    let pick = draw(pool::DIM32, seed, 30, i);
    let shape = format!("n=32 m=22 k=1 d=2 ({} monomials)", 22 * 32);
    pooled(dim32_request(32, pick.seed), pick, false, shape)
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

/// One job of a `serve-mix` wave.
#[derive(Debug, Clone)]
pub struct ServeJob {
    pub tenant: usize,
    pub case: SolveCase,
}

/// `serve-mix` target `k` of the seed: the first [`HOT_TARGETS`] are the
/// hot set, the rest are brought by new jobs in turn (wrapping around
/// the pool once it is used up).
fn serve_case(seed: u64, k: usize) -> SolveCase {
    let hot = HOT_TARGETS;
    let k = if k < hot {
        k
    } else {
        hot + (k - hot) % (pool::SERVE.len() - hot)
    };
    let pick = draw(pool::SERVE, seed, 40, k);
    let shape = "dense n=3 m=3 k=2 d=2".to_string();
    pooled(serve_request(pick.seed), pick, false, shape)
}

/// The hot targets of `serve-mix`.
pub fn hot_set(seed: u64) -> Vec<SolveCase> {
    (0..HOT_TARGETS).map(|k| serve_case(seed, k)).collect()
}

/// Wave `w` of `serve-mix`: every tenant submits [`JOBS_PER_TENANT`]
/// jobs; one job in [`NEW_EVERY`] brings a new target, the rest repeat
/// a hot one.
pub fn serve_wave(seed: u64, w: u64, hot: &[SolveCase]) -> Vec<ServeJob> {
    let tenants = TENANT_WEIGHTS.len();
    let per_wave = (JOBS_PER_TENANT * tenants) as u64;
    (0..per_wave)
        .map(|k| {
            let job = w * per_wave + k;
            // The hit/miss pattern is the same for every seed, so every
            // run sees the same cache pressure; the seed picks the systems.
            let case = if job % NEW_EVERY == NEW_EVERY - 1 {
                serve_case(seed, HOT_TARGETS + (job / NEW_EVERY) as usize)
            } else {
                // Hot targets in turn, counting hot jobs only.
                hot[((job - job / NEW_EVERY) % hot.len() as u64) as usize].clone()
            };
            ServeJob {
                tenant: k as usize % tenants,
                case,
            }
        })
        .collect()
}

/// Order-sensitive checksum over endpoints, as the service computes
/// `JobRecord::endpoint_checksum`: per path, `t` then every coordinate's
/// real and imaginary parts.
pub fn endpoint_checksum(reference: &[PathEndpoint]) -> f64 {
    let mut checksum = 0.0;
    for endpoint in reference {
        // t = 1: a job passes only when every path converged.
        checksum += 1.0;
        for c in endpoint.to_f64() {
            checksum += c.re + c.im;
        }
    }
    checksum
}
