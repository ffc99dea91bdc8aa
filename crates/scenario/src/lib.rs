//! Gray-failure scenarios as first-class, repeatable tests.
//!
//! The paper's Table 1 measures six *static, single-node* fail-slow
//! faults. Real fleets see flapping disks, correlated stragglers,
//! partial partitions and load-induced metastable states — regimes
//! where "recovery is the normal case" and a detector's blind spots
//! matter more than its happy path. This crate turns those regimes into
//! data:
//!
//! - [`dsl`]: `Scenario = fault kind × schedule (constant | flapping |
//!   ramp | load-triggered) × target (follower | leader |
//!   quorum-minority | correlated-pair)`, with [`dsl::catalog`] as the
//!   fixed 8-cell matrix.
//! - [`compile`]: pure scenario → [`InjectionPlan`] lowering, enforcing
//!   the never-degrade-a-majority invariant before anything runs.
//! - [`matrix`]: scenario × driver [`Cell`]s run through the bench
//!   harness and verdicted into [`SurvivalCell`]s, plus the per-driver
//!   survival report.
//! - [`storm`]: the retry-storm ablation cells.
//!
//! The `gate` binary lives here because this crate sees every suite: it
//! runs the fixed-seed bench, detect and scenario suites and diffs each
//! against its committed `BENCH_*_baseline.json` in CI. A throughput or
//! p99 regression, a liveness-verdict flip, a new false
//! positive/negative/misattribution, or a TTD/TTS regression fails the
//! build.

#![warn(missing_docs)]

pub mod compile;
pub mod dsl;
pub mod matrix;
pub mod storm;

pub use compile::{scale_kind, CompileError, InjectionPlan};
pub use dsl::{catalog, Scenario, Schedule, Target};
pub use matrix::{
    all_drivers, matrix_cells, matrix_cfg, render_survival_report, Cell, SurvivalCell, STALL_LIMIT,
};
pub use storm::{storm_catalog, STORM_STALL_LIMIT};
