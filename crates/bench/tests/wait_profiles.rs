//! Integration acceptance for the wait-state profiler.
//!
//! Two properties make profiles trustworthy enough to commit as perf
//! baselines: fixed-seed runs export byte-identical folded stacks and
//! SVGs (the profiler is a pure observer of a deterministic simulation),
//! and enabling it does not change the simulated results at all (probes
//! are synchronous callbacks — no events, no virtual-clock interaction).
//! On top of that, the profiles must tell the paper's story: the same
//! disk-slow follower dominates its own node profile with `disk` wait
//! sites under the TiDB-style sync driver, while DepFastRaft's
//! backpressure keeps that node's disk from monopolizing its time.

use std::time::Duration;

use depfast_bench::{run, RunCfg};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use simkit::NodeId;

fn profiled_cfg(kind: RaftKind) -> RunCfg {
    RunCfg {
        kind,
        clients: 32,
        warmup: Duration::from_millis(500),
        measure: Duration::from_secs(2),
        records: 10_000,
        profile: true,
        ..RunCfg::default()
    }
    .with_fault([2], FaultKind::DiskSlow { bw_factor: 0.008 })
}

fn profiled(kind: RaftKind) -> (depfast_ycsb::driver::RunStats, depfast_profile::Profiler) {
    let out = run(&profiled_cfg(kind));
    (out.stats, out.profiler.expect("profiled run"))
}

#[test]
fn profiled_exports_are_byte_identical_across_same_seed_runs() {
    let (_, a) = profiled(RaftKind::DepFast);
    let (_, b) = profiled(RaftKind::DepFast);
    let folded = a.folded();
    assert!(!folded.is_empty(), "profiler saw no samples");
    assert_eq!(folded, b.folded(), "folded stacks must be byte-identical");
    assert_eq!(a.svg(), b.svg(), "SVGs must be byte-identical");
}

#[test]
fn profiling_does_not_perturb_the_simulation() {
    let (profiled, _) = profiled(RaftKind::Sync);
    let plain = run(&RunCfg {
        profile: false,
        ..profiled_cfg(RaftKind::Sync)
    })
    .stats;
    assert_eq!(profiled.ops, plain.ops, "ops must match");
    assert_eq!(profiled.errors, plain.errors, "errors must match");
    assert_eq!(
        profiled.latency.p50, plain.latency.p50,
        "p50 must match exactly"
    );
    assert_eq!(
        profiled.latency.p99, plain.latency.p99,
        "p99 must match exactly"
    );
    assert!(
        (profiled.throughput - plain.throughput).abs() < 1e-9,
        "throughput must match: {} vs {}",
        profiled.throughput,
        plain.throughput
    );
}

/// The paper's §2 story, read straight off the wait-state profile of the
/// *faulty node itself*: under the TiDB-style sync driver the disk-slow
/// follower spends the majority of its blocked time at `disk` wait sites
/// (the WAL durability watermark plus device/queue time), because the
/// leader keeps feeding it at full cluster pace and every append handler
/// piles up behind the crawling disk. DepFastRaft's quorum structure
/// commits without the laggard, so the same node under the same fault
/// spends well under half of its waiting on disk.
#[test]
fn disk_wait_dominates_the_slow_follower_under_sync_but_not_depfast() {
    let (_, sync) = profiled(RaftKind::Sync);
    let (_, depfast) = profiled(RaftKind::DepFast);
    let sync_share = sync.node_wait_share(NodeId(2), "disk");
    let depfast_share = depfast.node_wait_share(NodeId(2), "disk");
    assert!(
        sync_share > 0.5,
        "SyncRaft: the disk-slow follower's waiting should be disk-dominated, got {sync_share:.3}"
    );
    assert!(
        depfast_share < 0.4,
        "DepFastRaft should not let disk dominate node 2's waiting: got {depfast_share:.3}"
    );
    assert!(
        sync_share > 1.5 * depfast_share,
        "the driver contrast should be visible: sync {sync_share:.3} vs depfast {depfast_share:.3}"
    );
}
