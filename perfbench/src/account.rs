//! Accounting: the modeled-clock split of a workload's first pass and
//! the host-clock split of its traced requests, and how each reconciles
//! with its total.

use crate::probe::{layer_seconds, FleetView, Span, CORRECT, EVAL};
use crate::replay::{BUILD, CELLS, RUN};
use polygpu::core::pipeline::PipelineStats;
use polygpu::homotopy::QueueStats;

/// Host-clock layer names of the service.
pub const SUBMIT: &str = "serve.submit";
pub const SERVE_RUN: &str = "serve.run";

/// Modeled C2050 seconds and counts, summed over a workload's modeled
/// sample (its first pass over the request pool).
#[derive(Debug, Clone, Default)]
pub struct Modeled {
    pub requests: u64,
    /// Modeled wall of single-device engines (their reconciliation
    /// target).
    pub wall: f64,
    /// Summed per-device walls of fleet engines (theirs).
    pub device_seconds: f64,
    /// Evaluation kernels (the engine's kernel seconds less the factor
    /// and back-substitution kernels, which are listed on their own).
    pub kernel: f64,
    pub factor: f64,
    pub backsub: f64,
    pub launch: f64,
    pub pcie_latency: f64,
    pub pcie_bytes: f64,
    pub gather: f64,
    pub overlap_saved: f64,
    pub flops: u64,
    pub global_bytes: u64,
    pub round_trips: u64,
    pub h2d: u64,
    pub d2h: u64,
    /// Per-device walls, accumulated by fleet index.
    pub device_wall: Vec<f64>,
    pub point_rounds: u64,
    pub slot_rounds: u64,
    pub accepted: u64,
    pub rejected: u64,
    pub corrector_iterations: u64,
    pub paths: u64,
    pub escalated: u64,
    /// Service side: per-job waits, summed admission and solve seconds,
    /// the makespan of the waves, and the cache outcomes.
    pub waits: Vec<f64>,
    pub admission: f64,
    pub solve: f64,
    pub makespan: f64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl Modeled {
    /// Fold in one engine's statistics. A fleet engine's wall and
    /// overlap come from its [`FleetView`]s instead (see
    /// [`Modeled::add_fleets`]).
    pub fn add_engine(&mut self, engine: &PipelineStats, on_fleet: bool, bandwidth: f64) {
        let bytes = (engine.h2d_bytes + engine.d2h_bytes) as f64 / bandwidth;
        self.kernel += engine.kernel_seconds - engine.factor_seconds - engine.backsub_seconds;
        self.factor += engine.factor_seconds;
        self.backsub += engine.backsub_seconds;
        self.launch += engine.overhead_seconds;
        self.pcie_bytes += bytes;
        self.pcie_latency += engine.transfer_seconds - bytes;
        self.flops += engine.counters.flops;
        self.global_bytes += engine.counters.global_bytes;
        self.round_trips += engine.batches;
        self.h2d += engine.h2d_bytes;
        self.d2h += engine.d2h_bytes;
        if !on_fleet {
            self.wall += engine.wall_clock_seconds();
            self.overlap_saved += engine.overlap_savings();
        }
    }

    /// Fold in the views of fleet engines: their device walls, overlap
    /// savings, and the row-shard gather, which a fleet's
    /// `engine_stats` charges into its transfer seconds.
    pub fn add_fleets(&mut self, fleets: &[FleetView]) {
        for f in fleets {
            self.pcie_latency -= f.gather;
            self.gather += f.gather;
            self.device_seconds += f.device_wall.iter().sum::<f64>();
            self.overlap_saved += f.overlap_saved;
            if self.device_wall.len() < f.device_wall.len() {
                self.device_wall.resize(f.device_wall.len(), 0.0);
            }
            for (acc, w) in self.device_wall.iter_mut().zip(&f.device_wall) {
                *acc += w;
            }
        }
    }

    /// Fold in one scheduler pass.
    pub fn add_schedule(&mut self, stats: &QueueStats) {
        self.point_rounds += stats.point_rounds as u64;
        self.slot_rounds += (stats.rounds * stats.slots) as u64;
        self.accepted += stats.steps_accepted as u64;
        self.rejected += stats.steps_rejected as u64;
        self.corrector_iterations += stats.corrector_iterations as u64;
    }

    /// The modeled parts, which should add up to the modeled wall on a
    /// single device and to device-seconds on a fleet.
    fn parts(&self) -> f64 {
        self.kernel + self.factor + self.backsub + self.launch + self.pcie_latency + self.pcie_bytes
            - self.overlap_saved
    }

    /// Modeled seconds no part accounts for: the engine remainder, plus
    /// on the service the makespan not covered by admission and solve.
    pub fn unattributed(&self) -> f64 {
        let engine = self.wall + self.device_seconds - self.parts();
        let service = self.makespan - self.admission - self.solve;
        engine + service
    }

    /// Busiest device wall over the mean device wall (0 without a fleet).
    pub fn imbalance(&self) -> f64 {
        let n = self.device_wall.len();
        let mean = self.device_wall.iter().sum::<f64>() / n.max(1) as f64;
        if n == 0 || mean <= 0.0 {
            return 0.0;
        }
        self.device_wall.iter().copied().fold(0.0, f64::max) / mean
    }

    /// The per-layer modeled metrics, per request of the sample.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per = |x: f64| x / self.requests.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut waits = self.waits.clone();
        vec![
            ("gpusim.kernel_s", per(self.kernel), "s/req"),
            ("gpusim.launch_s", per(self.launch), "s/req"),
            ("gpusim.pcie_latency_s", per(self.pcie_latency), "s/req"),
            ("gpusim.pcie_bytes_s", per(self.pcie_bytes), "s/req"),
            (
                "gpusim.flops_per_byte",
                ratio(self.flops, self.global_bytes),
                "flop/B",
            ),
            ("core.factor_s", per(self.factor), "s/req"),
            ("core.backsub_s", per(self.backsub), "s/req"),
            ("core.overlap_saved_s", per(self.overlap_saved), "s/req"),
            (
                "core.round_trips",
                per(self.round_trips as f64),
                "count/req",
            ),
            ("core.h2d_bytes", per(self.h2d as f64), "B/req"),
            ("core.d2h_bytes", per(self.d2h as f64), "B/req"),
            ("cluster.imbalance", self.imbalance(), "ratio"),
            ("cluster.gather_s", per(self.gather), "s/req"),
            (
                "homotopy.occupancy",
                ratio(self.point_rounds, self.slot_rounds),
                "ratio",
            ),
            (
                "homotopy.step_accept_ratio",
                ratio(self.accepted, self.accepted + self.rejected),
                "ratio",
            ),
            (
                "homotopy.newton_iters_per_step",
                ratio(self.corrector_iterations, self.accepted),
                "iter/step",
            ),
            (
                "homotopy.escalated_frac",
                ratio(self.escalated, self.paths),
                "ratio",
            ),
            ("serve.wait_p50_ms", quantile(&mut waits, 0.5) * 1e3, "ms"),
            ("serve.wait_p90_ms", quantile(&mut waits, 0.9) * 1e3, "ms"),
            (
                "serve.admission_s",
                self.admission / self.waits.len().max(1) as f64,
                "s/job",
            ),
            (
                "serve.cache_hit_rate",
                ratio(self.hits, self.hits + self.misses),
                "ratio",
            ),
            ("serve.cache_hits", self.hits as f64, "count"),
            ("serve.cache_misses", self.misses as f64, "count"),
            ("serve.evictions", self.evictions as f64, "count"),
            ("modeled.unattributed_s", per(self.unattributed()), "s/req"),
        ]
    }
}

/// Host seconds of the traced requests, by layer.
#[derive(Debug, Clone, Default)]
pub struct Host {
    pub requests: u64,
    /// Wall time of the traced requests.
    pub traced: f64,
    /// Wall time of the same requests run untraced.
    pub untraced: f64,
    pub cells: f64,
    pub build: f64,
    pub eval: f64,
    pub correct: f64,
    pub run: f64,
    pub submit: f64,
    pub serve_run: f64,
    /// Warps the traced requests' engines simulated.
    pub warps: u64,
}

impl Host {
    /// Fold in one traced request's spans and wall time.
    pub fn add(&mut self, spans: &[Span], traced: f64, untraced: f64) {
        self.requests += 1;
        self.traced += traced;
        self.untraced += untraced;
        self.cells += layer_seconds(spans, CELLS);
        self.build += layer_seconds(spans, BUILD);
        self.eval += layer_seconds(spans, EVAL);
        self.correct += layer_seconds(spans, CORRECT);
        self.run += layer_seconds(spans, RUN);
        self.submit += layer_seconds(spans, SUBMIT);
        self.serve_run += layer_seconds(spans, SERVE_RUN);
    }

    /// Time in the scheduler outside engine calls. Every engine call of
    /// a solver replay happens inside the scheduler's run.
    fn homotopy_self(&self) -> f64 {
        if self.run > 0.0 {
            self.run - self.eval - self.correct
        } else {
            0.0
        }
    }

    /// Traced request time covered by no timed layer.
    fn unattributed(&self) -> f64 {
        let engine = if self.run > 0.0 {
            self.run
        } else {
            self.eval + self.correct
        };
        self.traced - self.cells - self.build - engine - self.submit - self.serve_run
    }

    /// The per-layer host metrics, per traced request.
    pub fn metrics(&self, cpu_eval_us: f64) -> Vec<(&'static str, f64, &'static str)> {
        let per = |x: f64| x / self.requests.max(1) as f64;
        let ns_per_warp = if self.warps == 0 {
            0.0
        } else {
            (self.eval + self.correct) / self.warps as f64 * 1e9
        };
        let overhead = if self.untraced > 0.0 {
            (self.traced - self.untraced) / self.untraced
        } else {
            0.0
        };
        vec![
            ("core.build_s", per(self.build), "s/req"),
            ("core.eval_s", per(self.eval), "s/req"),
            ("core.correct_s", per(self.correct), "s/req"),
            ("gpusim.host_ns_per_warp", ns_per_warp, "ns/warp"),
            ("homotopy.self_s", per(self.homotopy_self()), "s/req"),
            ("polyhedral.cells_s", per(self.cells), "s/req"),
            ("serve.submit_s", per(self.submit), "s/req"),
            ("serve.run_s", per(self.serve_run), "s/req"),
            ("polysys.cpu_eval_us", cpu_eval_us, "us"),
            ("host.unattributed_s", per(self.unattributed()), "s/req"),
            ("bench.trace_overhead_frac", overhead, "ratio"),
        ]
    }
}

/// The `q`-quantile of `xs` (nearest rank; 0 for an empty list).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}
