//! # polygpu-homotopy — Newton's method and homotopy continuation
//!
//! The application layer the paper accelerates (§1): polynomial
//! homotopy continuation tracks solution paths of
//! `H(x, t) = γ(1−t)·G(x) + t·F(x)` with a predictor-corrector scheme
//! whose inner loop — Newton's method — spends its time evaluating the
//! system and its Jacobian. Everything here is generic over
//! [`polygpu_polysys::SystemEvaluator`], so the corrector runs
//! identically against the CPU reference evaluators or the simulated
//! GPU pipeline of `polygpu-core`.
//!
//! The one entry point is [`solve::Solver::solve`]: a
//! [`solve::SolveRequest`] picks the scheduler (per-path or queue),
//! the corrector (host or device-resident) and the precision policy
//! (fixed or escalate-on-failure), the [`solve::Solver`] owns an engine
//! spec and provisions backends per precision, and every combination
//! returns the same [`solve::SolveReport`] shape. Every scheduler runs
//! one multi-path tracker, the path queue ([`queue::track_queue`]),
//! with one slot per path or a sized front. The scalar references
//! [`newton::newton`] and [`tracker::track`] stay public — the queue
//! replays them bit for bit — and every driver accepts the unified
//! engine surface as a trait object (`&mut dyn AnyEvaluator<R>` or
//! `Box<dyn AnyEvaluator<R>>` from
//! `polygpu_core::engine::Engine::builder()`).
//!
//! ```
//! use polygpu_homotopy::prelude::*;
//! use polygpu_polysys::{random_system, AdEvaluator, BenchmarkParams};
//! use polygpu_complex::C64;
//!
//! // Track one path of a small random system from its start system.
//! let sys = random_system::<f64>(&BenchmarkParams { n: 2, m: 2, k: 2, d: 2, seed: 42 });
//! let start = StartSystem::uniform(2, 2);
//! let x0: Vec<C64> = start.solution_by_index(0);
//! let target = AdEvaluator::new(sys).unwrap();
//! let mut h = Homotopy::with_random_gamma(start, target, 7);
//! let result = track(&mut h, &x0, TrackParams::default());
//! assert!(!result.points.is_empty());
//! ```

pub mod escalate;
pub mod fallible;
pub mod homotopy;
pub mod lockstep;
pub mod lu;
pub mod newton;
pub mod quality;
pub mod queue;
pub mod resident;
pub mod solve;
pub mod solver;
pub mod start;
pub mod tracker;

/// The commonly-needed surface in one import.
pub mod prelude {
    pub use crate::escalate::{
        track_escalating, track_escalating_engine, EscalatedTrack, UsedPrecision,
    };
    pub use crate::fallible::{FaultReport, TryBatchEvaluator};
    pub use crate::homotopy::{Homotopy, HomotopyAt, HomotopyEval};
    pub use crate::lockstep::{BatchHomotopy, LockstepPath};
    pub use crate::lu::{lu_decompose, solve, LuError, LuFactors, SingularMatrix};
    pub use crate::newton::{newton, NewtonParams, NewtonResult, ShiftedEvaluator, StopReason};
    pub use crate::quality::{quality_up_ladder, Precision, QualityUp};
    pub use crate::queue::{
        track_queue, track_queue_recovering, PathQueue, QueueResult, QueueStats, SlotPolicy,
    };
    pub use crate::resident::{correct_resident, HomotopyCombine};
    pub use crate::solve::{
        PathEndpoint, PathReport, PrecisionPolicy, Scheduler, SchedulerKind, SchedulerRun,
        SolveError, SolveReport, SolveRequest, Solver, StartGroup, StartKind, StartSelection,
    };
    pub use crate::solver::{solve_total_degree, Root, SolveParams, SolveResult};
    pub use crate::start::{AnyStart, StartSystem};
    pub use crate::tracker::{track, PathPoint, TrackOutcome, TrackParams, TrackResult};
    pub use polygpu_core::CorrectorMode;
}

pub use prelude::*;
