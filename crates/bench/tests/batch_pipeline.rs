//! End-to-end checks for the leader-side group-commit + pipelined
//! replication path (docs/PERFORMANCE.md):
//!
//! * batching and pipelining stay inside the deterministic-simulation
//!   contract — same seed, same stats, byte for byte;
//! * pipelining round k+1 ahead of round k's quorum never reorders the
//!   committed log;
//! * a fail-slow follower fills *its own* append window and is
//!   quarantined into lazy-probe catch-up, without dragging the batch
//!   quorum (the §2.3 story at the batching layer).

use std::time::Duration;

use bytes::Bytes;
use depfast_bench::experiment::bench_raft_cfg;
use depfast_bench::{run, RunCfg, RunOutput};
use depfast_fault::FaultKind;
use depfast_metrics::Key;
use depfast_raft::cluster::{build_cluster, RaftKind};
use depfast_raft::core::RaftCfg;
use simkit::{Sim, World, WorldCfg};

fn batched_cfg() -> RunCfg {
    RunCfg {
        kind: RaftKind::DepFast,
        clients: 64,
        warmup: Duration::from_millis(600),
        measure: Duration::from_secs(2),
        records: 10_000,
        // Pin the tentpole knobs explicitly so this test keeps covering
        // batching + pipelining even if the bench defaults move.
        raft: RaftCfg {
            batch_max: 64,
            batch_window: Duration::from_millis(4),
            pipeline_depth: 4,
            append_window: 8,
            ..bench_raft_cfg()
        },
        ..RunCfg::default()
    }
}

/// Group commit and pipelining introduce no hidden nondeterminism: two
/// runs of the same seed produce identical client-visible statistics.
#[test]
fn same_seed_runs_are_identical_with_batching_on() {
    let a = run(&batched_cfg()).stats;
    let b = run(&batched_cfg()).stats;
    assert_eq!(a.ops, b.ops, "op counts must match exactly");
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.throughput, b.throughput, "throughput must be bit-equal");
    assert_eq!(a.latency.p99, b.latency.p99, "P99 must be bit-equal");
}

/// Shipping round k+1 before round k's quorum resolves must not reorder
/// commits: every proposal lands at the next log index, in proposal
/// order, on every node.
#[test]
fn pipelined_rounds_preserve_commit_order() {
    let sim = Sim::new(77);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: 3,
            ..WorldCfg::default()
        },
    );
    let cl = build_cluster(
        &sim,
        &world,
        RaftKind::DepFast,
        3,
        RaftCfg {
            bootstrap_leader: Some(0),
            // Small batches + deep pipeline: many rounds in flight at
            // once, the order-sensitive regime.
            batch_max: 4,
            batch_window: Duration::ZERO,
            pipeline_depth: 4,
            ..RaftCfg::default()
        },
    );
    // Fire all proposals without waiting in between, so consecutive
    // batches ride different pipelined rounds.
    let events: Vec<_> = (0..200u32)
        .map(|i| cl.servers[0].propose(Bytes::from(i.to_be_bytes().to_vec())))
        .collect();
    for ev in &events {
        use depfast::event::Watchable;
        let out = sim.block_on({
            let ev = ev.clone();
            async move { ev.handle().wait_timeout(Duration::from_secs(2)).await }
        });
        assert!(out.is_ready(), "every pipelined proposal must commit");
    }
    sim.run_until_time(sim.now() + Duration::from_secs(1)); // Heartbeat catch-up.
    for s in &cl.servers {
        let core = s.core();
        let node = core.id.0;
        assert_eq!(core.log.last_index(), 200, "node {node} fully replicated");
        let (entries, _) = core.log.read_raw(1, 201);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(
                e.payload.as_ref(),
                (i as u32).to_be_bytes(),
                "proposal {i} must sit at index {} on node {node}",
                i + 1,
            );
        }
    }
}

/// A disk-crawling follower fills its per-follower append window (the
/// fail-slow signal), gets quarantined into lazy-probe catch-up, and the
/// leader's group-commit quorum keeps committing on the healthy
/// majority at essentially full throughput.
#[test]
fn fail_slow_follower_stalls_its_window_not_the_batch_quorum() {
    const SLOW: u32 = 2;
    let base = run(&batched_cfg());
    let faulted = run(&batched_cfg().with_fault([SLOW], FaultKind::DiskSlow { bw_factor: 0.008 }));
    assert!(!base.stats.server_crashed && !faulted.stats.server_crashed);

    let leader_counter =
        |run: &RunOutput, name: &'static str| run.metrics.counter(Key::node(name, 0)).get();
    // The window filled at least once and the peer was quarantined …
    assert!(
        leader_counter(&faulted, "raft.append.window_skips") > 0,
        "slow follower should overflow its append window"
    );
    assert!(
        leader_counter(&faulted, "raft.append.suspects") > 0,
        "window overflow should quarantine the slow follower"
    );
    // … while the healthy run never saw either signal: the window is a
    // fail-slow detector, not a throttle healthy traffic trips over.
    assert_eq!(
        leader_counter(&base, "raft.append.window_skips"),
        0,
        "healthy pipelining must not fill the append window"
    );
    assert_eq!(leader_counter(&base, "raft.append.suspects"), 0);

    // The batch quorum is decoupled from the quarantined peer: client
    // throughput holds.
    let ratio = faulted.stats.throughput / base.stats.throughput;
    assert!(
        ratio > 0.9,
        "batched commits should ride the healthy majority: ratio {ratio:.2} ({:.0} vs {:.0})",
        faulted.stats.throughput,
        base.stats.throughput
    );
}
