//! The no-fault matrix: every driver, across seeds, with the fail-slow
//! detector attached, must produce an EMPTY incident timeline and an
//! all-zero scorecard. This is the false-positive floor the detector
//! scorecard is judged against — a healthy cluster that trips suspicion,
//! quarantine, or mitigation anywhere in the matrix is a regression no
//! tolerance band should forgive.

use std::time::Duration;

use depfast_bench::experiment::INCIDENT_SAMPLE_EVERY;
use depfast_bench::{run, RunCfg};
use depfast_detect::DetectorCfg;
use depfast_incident::{score, RECOVERY_BAND};
use depfast_raft::cluster::RaftKind;

const DRIVERS: [RaftKind; 5] = [
    RaftKind::DepFast,
    RaftKind::Sync,
    RaftKind::Backlog,
    RaftKind::Callback,
    RaftKind::Chain,
];

const SEEDS: [u64; 3] = [7, 1234, 20210531];

fn healthy_cfg(kind: RaftKind, seed: u64) -> RunCfg {
    RunCfg {
        kind,
        clients: 16,
        seed,
        warmup: Duration::from_millis(600),
        // Long enough for the detector to warm up (5 × 200 ms windows)
        // AND judge several live windows afterwards.
        measure: Duration::from_millis(2400),
        records: 10_000,
        sample_every: Some(INCIDENT_SAMPLE_EVERY),
        detector: Some(DetectorCfg::default()),
        ..RunCfg::default()
    }
}

#[test]
fn no_fault_matrix_is_silent_and_scores_all_zero() {
    for kind in DRIVERS {
        for seed in SEEDS {
            let cfg = healthy_cfg(kind, seed);
            let dump = run(&cfg).incident_dump(&cfg, cfg.fault_name());
            assert!(
                dump.faults.is_empty(),
                "{} seed {seed}: no fault was injected but the ledger has {} record(s)",
                kind.name(),
                dump.faults.len()
            );
            assert!(
                dump.events.is_empty(),
                "{} seed {seed}: healthy run produced health events: {:?}",
                kind.name(),
                dump.events
            );
            let cell = score(&dump, RECOVERY_BAND);
            assert!(
                cell.is_all_zero(),
                "{} seed {seed}: healthy run must score all-zero, got {cell:?}",
                kind.name()
            );
        }
    }
}
