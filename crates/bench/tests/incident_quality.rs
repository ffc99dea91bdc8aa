//! Detection-quality acceptance on the paper's central contrast: for a
//! disk-slow follower, DepFastRaft's time-to-detect must be no worse
//! than SyncRaft's, with zero misattribution on either — i.e. the
//! decoupled pipeline does not blind the detector, even though
//! quarantine diverts the slow follower's appends off the hot path
//! within tens of milliseconds of onset.

use std::time::Duration;

use depfast_bench::experiment::INCIDENT_SAMPLE_EVERY;
use depfast_bench::{run, RunCfg, Window};
use depfast_detect::DetectorCfg;
use depfast_fault::FaultKind;
use depfast_incident::{score, ScoreCell, RECOVERY_BAND};
use depfast_raft::cluster::RaftKind;

fn disk_slow_cell(kind: RaftKind) -> ScoreCell {
    let cfg = RunCfg {
        kind,
        clients: 32,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(2400),
        records: 10_000,
        faults: vec![Window {
            node: 2,
            kind: FaultKind::DiskSlow { bw_factor: 0.008 },
            at: Duration::from_secs(2),
            duration: Some(Duration::from_millis(1000)),
        }],
        sample_every: Some(INCIDENT_SAMPLE_EVERY),
        // The lowered sample floor mirrors the detect gate suite: a
        // SyncRaft leader coupled to a 125×-slow disk completes too few
        // appends per window for the default floor of 10.
        detector: Some(DetectorCfg {
            min_samples: 4,
            ..DetectorCfg::default()
        }),
        ..RunCfg::default()
    };
    score(
        &run(&cfg).incident_dump(&cfg, cfg.fault_name()),
        RECOVERY_BAND,
    )
}

#[test]
fn depfast_detects_a_disk_slow_follower_no_later_than_syncraft() {
    let dep = disk_slow_cell(RaftKind::DepFast);
    let sync = disk_slow_cell(RaftKind::Sync);

    assert!(
        dep.detected,
        "DepFastRaft must detect the disk-slow follower: {dep:?}"
    );
    assert_eq!(
        dep.misattributions, 0,
        "DepFastRaft blamed a healthy node: {dep:?}"
    );
    assert_eq!(
        sync.misattributions, 0,
        "SyncRaft blamed a healthy node: {sync:?}"
    );
    assert_eq!(dep.false_positives, 0, "{dep:?}");
    assert_eq!(sync.false_positives, 0, "{sync:?}");

    let dep_ttd = dep.ttd_ns.expect("detected=true implies a TTD");
    // SyncRaft may fail to detect at all (its coupled pipeline starves
    // the detector of samples); an undetected fault counts as infinite
    // time-to-detect, which DepFast beats by definition.
    if let Some(sync_ttd) = sync.ttd_ns {
        assert!(
            dep_ttd <= sync_ttd,
            "quarantine must not blind the detector: DepFast TTD {dep_ttd}ns > Sync TTD {sync_ttd}ns"
        );
    }

    // DepFast's raft layer must additionally have reacted (quarantine)
    // well before the detector's first poll-window could fire.
    let ttm = dep
        .ttm_ns
        .expect("DepFast quarantine must produce a mitigation time");
    assert!(
        ttm < dep_ttd,
        "expected the append-window quarantine ({ttm}ns) to precede detector suspicion ({dep_ttd}ns)"
    );
}
