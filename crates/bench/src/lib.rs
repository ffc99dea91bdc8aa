//! Benchmark harness shared by the table/figure reproductions.
//!
//! Each paper artifact has a dedicated bench target (all `harness = false`
//! except the Criterion micro-bench):
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1` | Table 1 — the six fault injections, measured on the raw substrate |
//! | `fig1` | Figure 1 — legacy RSMs under one fail-slow follower (normalized) |
//! | `fig2` | Figure 2 — DepFastRaft slowness propagation graph (DOT + edges) |
//! | `fig3` | Figure 3 — DepFastRaft under minority fail-slow followers (absolute) |
//! | `ablations` | design-choice ablations (buffers, EntryCache, wait style) |
//! | `events` | Criterion micro-costs of the event machinery |
//!
//! Run one with `cargo bench -p depfast-bench --bench fig1`, or everything
//! with `cargo bench --workspace`. Every cluster experiment goes through
//! [`run`] with a [`RunCfg`].

pub mod baseline;
pub mod experiment;
pub mod json;
pub mod report;

pub use baseline::{
    compare, DetectRecord, Detection, GateOutcome, RunRecord, ScenarioRecord, Suite, Tolerance,
};
pub use experiment::{run, RunCfg, RunOutput, Shape, Trigger, Window};
pub use json::Json;
pub use report::{env_u64, format_ms, repo_root, run_one, slug, write_repo_artifact, Table};
