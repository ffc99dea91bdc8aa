//! Integration acceptance for critical-path blame attribution: the same
//! disk fault on follower 2 is *absorbed* by DepFastRaft's quorum
//! structure (the slow node almost never bounds a commit) but lands on
//! the critical path of the TiDB-style sync driver (inline cold reads
//! blamed on the laggard), and the blame report proves both from the
//! recorded traces alone.

use std::time::Duration;

use depfast_bench::{run, RunCfg};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use depfast_trace_analysis::{blame_report, chrome_trace, serialize_records, TraceIndex};
use simkit::NodeId;

fn traced_cfg(kind: RaftKind) -> RunCfg {
    RunCfg {
        kind,
        clients: 32,
        warmup: Duration::from_millis(500),
        measure: Duration::from_secs(2),
        records: 10_000,
        trace: true,
        ..RunCfg::default()
    }
    .with_fault([2], FaultKind::DiskSlow { bw_factor: 0.008 })
}

#[test]
fn depfast_quorum_keeps_the_disk_slow_follower_off_the_critical_path() {
    let out = run(&traced_cfg(RaftKind::DepFast));
    let (stats, records) = (out.stats, out.trace);
    assert!(stats.ops > 100, "workload ran: {}", stats.ops);
    let report = blame_report(&TraceIndex::build(&records));
    assert!(report.commits > 100, "commits analyzed: {}", report.commits);
    let share = report.node_share(NodeId(2));
    assert!(
        share < 0.10,
        "DepFastRaft must absorb the slow follower: node 2 carries {:.1}% of blame\n{}",
        share * 100.0,
        report.table(12)
    );
}

#[test]
fn sync_driver_blame_lands_on_the_disk_slow_follower() {
    // Larger values make the TiDB-style failure mode pronounced: cold
    // reads below the cache floor are byte-sized (inline on the region
    // thread) while apply cost is per-entry, so the laggard-induced disk
    // reads dominate the critical path — exactly the paper's §2 story.
    let cfg = RunCfg {
        value_size: 4096,
        ..traced_cfg(RaftKind::Sync)
    };
    let out = run(&cfg);
    let (stats, records) = (out.stats, out.trace);
    assert!(stats.ops > 100, "workload ran: {}", stats.ops);
    let report = blame_report(&TraceIndex::build(&records));
    assert!(report.commits > 100, "commits analyzed: {}", report.commits);
    assert_eq!(
        report.plurality_node(),
        Some(NodeId(2)),
        "SyncRaft's inline cold reads must put the laggard on top\n{}",
        report.table(12)
    );
}

#[test]
fn traced_runs_are_deterministic_and_exports_are_byte_identical() {
    let cfg = RunCfg {
        measure: Duration::from_secs(1),
        ..traced_cfg(RaftKind::DepFast)
    };
    let records_a = run(&cfg).trace;
    let records_b = run(&cfg).trace;
    assert!(!records_a.is_empty());
    assert_eq!(
        serialize_records(&records_a),
        serialize_records(&records_b),
        "same seed must record the same trace"
    );
    let chrome_a = chrome_trace(&TraceIndex::build(&records_a));
    let chrome_b = chrome_trace(&TraceIndex::build(&records_b));
    assert_eq!(chrome_a, chrome_b, "Chrome export must be byte-identical");
    assert!(chrome_a.starts_with("{\"displayTimeUnit\""));
}
