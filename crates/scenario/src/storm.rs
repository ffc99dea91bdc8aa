//! Retry-storm (metastability) survival cells.
//!
//! The matrix cells in [`crate::matrix`] measure how a *driver* survives
//! a gray failure. These cells measure how the *client population*
//! does: a short severe fault under aggressive client timeouts can tip
//! the system into a metastable state where the retries themselves are
//! the load keeping goodput collapsed long after the fault has cleared
//! — the "Building on Quicksand" feedback loop the paper's gray-failure
//! arc leads to.
//!
//! Each cell is one fixed-seed run of the DepFast driver with every
//! client session reconfigured to the cell's [`RetryPolicy`], a storm
//! monitor ticked in lock-step with the incident sampler, and the cell's
//! throughput series computed from `client.success` deltas — *goodput*,
//! not commit throughput, because a storm commits plenty of duplicate
//! work while clients see nothing. The catalog pairs an
//! unmitigated storm cell with an identical cell whose only change is a
//! client-side retry budget (token-bucket admission), so the survival
//! report reads as an ablation: same fault, same clients, budget
//! on/off.
//!
//! No leader demotion/campaign mitigation is armed here: the point is
//! to isolate the client-side admission knob as the only intervention.

use std::time::Duration;

use depfast_bench::{RunCfg, Window};
use depfast_fault::FaultKind;
use depfast_kv::{RetryBudget, RetryPolicy};

use crate::matrix::{matrix_cfg, Cell};

/// Stall limit of a storm cell: tolerates the 1 s fault window plus the
/// recovery band, so a storm cell is only verdicted not-live when the
/// collapse *outlives* its cause.
pub const STORM_STALL_LIMIT: Duration = Duration::from_millis(2500);

/// The fixed retry-storm catalog: the same short severe fault on the
/// serving leader and the same client population, with and without a
/// client-side retry budget. Each cell runs the standard matrix shape
/// with 160 clients and a measurement window long enough to observe the
/// post-clear regime.
pub fn storm_catalog() -> Vec<Cell> {
    let aggressive = RetryPolicy::aggressive(Duration::from_millis(150), 8);
    let base = Cell {
        scenario: "retry-storm".to_string(),
        cfg: RunCfg {
            clients: 160,
            measure: Duration::from_millis(5500),
            // Short: the storm is supposed to outlive it.
            faults: vec![Window {
                node: 0,
                kind: FaultKind::CpuSlow { quota: 0.02 },
                at: Duration::from_millis(2500),
                duration: Some(Duration::from_millis(1000)),
            }],
            storm: true,
            retry: Some(aggressive),
            ..matrix_cfg()
        },
        stall_limit: STORM_STALL_LIMIT,
    };
    let mut budget = base.clone();
    budget.scenario = "retry-storm-budget".to_string();
    budget.cfg.retry = Some(aggressive.with_budget(RetryBudget {
        rate_per_sec: 4.0,
        burst: 2.0,
    }));
    vec![base, budget]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Manual tuning probe: prints the amplification/goodput series for
    /// the catalog cells. `cargo test -p depfast-scenario --release
    /// storm_probe -- --ignored --nocapture`
    #[test]
    #[ignore = "manual parameter-tuning probe, not a regression test"]
    fn storm_probe() {
        for s in storm_catalog() {
            let cell = s.survive();
            println!(
                "== {} · goodput {:.0} floor {:.0} stall {:.0} live {} amp {:.1} sustained {} tts {:?}",
                s.scenario,
                cell.throughput,
                cell.floor,
                cell.stall_ms,
                cell.live,
                cell.amp.unwrap_or(0.0),
                cell.score.storm_sustained,
                cell.score.tts_ns.map(|n| n as f64 / 1e6),
            );
            for e in &cell.dump.events {
                if e.layer == "storm" || e.layer == "raft" {
                    println!(
                        "   {:>7.1}ms n{} {} {} {}",
                        e.t_ns as f64 / 1e6,
                        e.node,
                        e.layer,
                        e.transition,
                        e.evidence
                    );
                }
            }
            for (t, ops) in &cell.dump.throughput {
                println!("   tput {:>7.1}ms {:.0}", *t as f64 / 1e6, ops);
            }
        }
    }
}
