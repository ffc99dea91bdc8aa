//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **Wait style** (§3.1's two code snippets, measured): the same
//!   broadcast logic waiting per-RPC sequentially vs. on one
//!   `QuorumEvent`, under a fail-slow peer.
//! * **Buffers & quorum-discard** (§2.3): queue growth toward a slow peer
//!   with unbounded buffers, bounded buffers, and bounded + discard.
//! * **EntryCache size** (TiDB root cause): SyncRaft throughput under a
//!   lagging follower as the cache budget shrinks.
//!
//! Environment knob: `ABL_MEASURE_SECS` (default 5).

use std::time::Duration;

use bytes::Bytes;
use depfast::event::{QuorumEvent, QuorumMode, Watchable};
use depfast::runtime::Runtime;
use depfast_bench::baseline::{RunRecord, Suite};
use depfast_bench::experiment::bench_raft_cfg;
use depfast_bench::{run, RunCfg, Table};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use depfast_rpc::broadcast::broadcast;
use depfast_rpc::endpoint::{Endpoint, Registry, RpcCfg};
use depfast_rpc::{BufferPolicy, OnFull};
use depfast_storage::LogStoreCfg;
use simkit::{NodeId, Sim, World, WorldCfg};

const ECHO: u32 = 1;

fn echo_cluster(n: usize, buffer: BufferPolicy) -> (Sim, World, Vec<Endpoint>) {
    let sim = Sim::new(5);
    let world = World::new(
        sim.clone(),
        WorldCfg {
            nodes: n,
            ..WorldCfg::default()
        },
    );
    let registry = Registry::new();
    let tracer = depfast::Tracer::new();
    let eps: Vec<Endpoint> = (0..n as u32)
        .map(|i| {
            let rt = Runtime::with_tracer(sim.clone(), NodeId(i), tracer.clone());
            Endpoint::new(
                &rt,
                &world,
                &registry,
                RpcCfg {
                    buffer,
                    ..RpcCfg::default()
                },
            )
        })
        .collect();
    for ep in &eps {
        ep.register(ECHO, "svc:echo", |_, payload, r| r.reply(payload));
    }
    (sim, world, eps)
}

/// §3.1 snippet 1: wait on each RPC individually, in a loop.
fn sequential_round(sim: &Sim, eps: &[Endpoint], peers: &[NodeId]) -> Duration {
    let t0 = sim.now();
    for peer in peers {
        let ev = eps[0]
            .proxy(*peer)
            .call(ECHO, "append_entries", Bytes::from_static(b"x"));
        sim.block_on(async move { ev.handle().wait_timeout(Duration::from_millis(600)).await });
    }
    sim.now() - t0
}

/// §3.1 snippet 2: broadcast in parallel, wait on the majority quorum.
fn quorum_round(sim: &Sim, eps: &[Endpoint], peers: &[NodeId]) -> Duration {
    let t0 = sim.now();
    let h = broadcast(
        &eps[0],
        peers,
        ECHO,
        "append_entries",
        Bytes::from_static(b"x"),
        QuorumMode::Majority,
        true,
    );
    let q = h.quorum.clone();
    sim.block_on(async move { q.wait_timeout(Duration::from_millis(600)).await });
    sim.now() - t0
}

fn ablation_wait_style() {
    let mut t = Table::new(
        "Ablation: per-RPC sequential waits vs one QuorumEvent (3 peers, 200 rounds)",
        &[
            "Peer state",
            "Sequential wait (ms/round)",
            "QuorumEvent (ms/round)",
        ],
    );
    for slow in [false, true] {
        let (sim, world, eps) = echo_cluster(4, RpcCfg::default().buffer);
        if slow {
            world.set_egress_delay(NodeId(3), Duration::from_millis(400));
        }
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        let mut seq = Duration::ZERO;
        let mut quo = Duration::ZERO;
        for _ in 0..200 {
            seq += sequential_round(&sim, &eps, &peers);
            quo += quorum_round(&sim, &eps, &peers);
        }
        t.row(vec![
            if slow {
                "one peer +400ms".into()
            } else {
                "all healthy".to_string()
            },
            format!("{:.3}", seq.as_secs_f64() * 1e3 / 200.0),
            format!("{:.3}", quo.as_secs_f64() * 1e3 / 200.0),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_wait_style");
}

fn ablation_buffers() {
    let mut t = Table::new(
        "Ablation: outgoing-buffer policy vs queue to a CPU-starved peer (2000 broadcasts)",
        &[
            "Policy",
            "Queued msgs to slow peer",
            "Dropped",
            "Sender mem (MiB over baseline)",
        ],
    );
    let policies: [(&str, BufferPolicy, bool); 3] = [
        ("Unbounded (legacy)", BufferPolicy::Unbounded, false),
        (
            "Bounded cap=4096",
            BufferPolicy::Bounded {
                cap: 4096,
                on_full: OnFull::DropNewest,
            },
            false,
        ),
        (
            "Bounded + quorum-discard (DepFast)",
            BufferPolicy::Bounded {
                cap: 4096,
                on_full: OnFull::DropNewest,
            },
            true,
        ),
    ];
    for (name, policy, discard) in policies {
        let (sim, world, eps) = echo_cluster(4, policy);
        let baseline_mem = world.mem_used(NodeId(0));
        world.set_cpu_quota(NodeId(3), 0.001);
        let peers = [NodeId(1), NodeId(2), NodeId(3)];
        for _ in 0..2000 {
            let h = broadcast(
                &eps[0],
                &peers,
                ECHO,
                "append_entries",
                Bytes::from(vec![0u8; 512]),
                QuorumMode::Majority,
                discard,
            );
            let q = h.quorum.clone();
            sim.block_on(async move { q.wait_timeout(Duration::from_secs(1)).await });
        }
        let conn = eps[0].conn(NodeId(3));
        t.row(vec![
            name.to_string(),
            conn.queue_len().to_string(),
            conn.dropped().to_string(),
            format!(
                "{:.1}",
                (world.mem_used(NodeId(0)).saturating_sub(baseline_mem)) as f64 / (1024.0 * 1024.0)
            ),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_buffers");
}

fn ablation_entrycache(suite: &mut Suite) {
    let measure = std::env::var("ABL_MEASURE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5u64);
    let mut t = Table::new(
        "Ablation: SyncRaft EntryCache size vs slow-follower impact",
        &[
            "Cache (KiB)",
            "Tput healthy (req/s)",
            "Tput w/ net-slow follower",
            "Ratio",
        ],
    );
    // The cache size is part of bench_raft_cfg; sweep it. A +400 ms
    // follower lags ~1 MiB of entries at this throughput, so the sweep
    // brackets that point: small caches put big evicted-entry reads on
    // the region thread every round, large caches absorb the lag.
    for cache_kib in [128u64, 512, 2048, 4096, 16384] {
        let cfg = RunCfg {
            kind: RaftKind::Sync,
            // Enough concurrency that the region thread (not client
            // supply) is the bottleneck — the fig1 operating point.
            clients: 256,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(measure),
            records: 100_000,
            raft: RaftCfg {
                log: LogStoreCfg {
                    cache_bytes: cache_kib * 1024,
                    ..bench_raft_cfg().log
                },
                ..bench_raft_cfg()
            },
            ..RunCfg::default()
        };
        let healthy = run(&cfg).stats;
        // Fault follower 1: it is iterated first in the region loop, so
        // its inline evicted-entry read delays the *healthy* follower's
        // send too (stall position matters in single-threaded designs).
        let slow = run(&cfg.with_fault(
            [1],
            FaultKind::NetSlow {
                delay: Duration::from_millis(400),
            },
        ))
        .stats;
        let driver = format!("SyncRaft cache={cache_kib}KiB");
        suite.runs.push(RunRecord::from_stats(
            &driver, "none", "", &healthy, None, None,
        ));
        suite.runs.push(RunRecord::from_stats(
            &driver,
            "net_slow",
            "",
            &slow,
            Some(healthy.throughput),
            None,
        ));
        t.row(vec![
            cache_kib.to_string(),
            format!("{:.0}", healthy.throughput),
            format!("{:.0}", slow.throughput),
            format!("{:.2}", slow.throughput / healthy.throughput),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_entrycache");
}

/// The PR-6 tentpole knobs, ablated: batch size cap (1 = per-entry
/// rounds vs 64) × group-commit linger window (0 vs lingered) ×
/// replication pipeline depth (1 vs 4), healthy and with a
/// disk-contended follower. Two findings worth a table: the step
/// function lives entirely in `batch_max` (at 256 closed-loop clients a
/// batch forms from the queued proposals whether or not the window
/// lingers), and the fail-slow column stays ~1.0 in every row —
/// pipelining must not re-couple the leader to the slow follower; the
/// per-follower append window sheds sends to it instead (visible as
/// `raft.append.window_skips`).
fn ablation_batching(suite: &mut Suite) {
    let measure = std::env::var("ABL_MEASURE_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5u64);
    let mut t = Table::new(
        "Ablation: batch cap x linger window x pipeline depth (DepFastRaft, 256 clients)",
        &[
            "Batch",
            "Window",
            "Depth",
            "Tput healthy",
            "P99 healthy (ms)",
            "Tput w/ disk-contended follower",
            "Ratio",
        ],
    );
    let configs: [(usize, &str, Duration, usize); 5] = [
        (1, "0", Duration::ZERO, 1), // per-entry rounds: the pre-batching baseline
        (64, "0", Duration::ZERO, 1),
        (64, "0", Duration::ZERO, 4),
        (64, "200us", Duration::from_micros(200), 1),
        (64, "200us", Duration::from_micros(200), 4),
    ];
    for (batch_max, window_label, window, depth) in configs {
        let cfg = RunCfg {
            kind: RaftKind::DepFast,
            clients: 256,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(measure),
            records: 100_000,
            raft: RaftCfg {
                batch_max,
                batch_window: window,
                pipeline_depth: depth,
                ..bench_raft_cfg()
            },
            ..RunCfg::default()
        };
        let healthy = run(&cfg).stats;
        let contended = run(&cfg.with_fault(
            [1],
            FaultKind::DiskContention {
                write_bytes: 2200 * 1024,
                period: Duration::from_millis(10),
            },
        ))
        .stats;
        let driver = format!("DepFastRaft batch={batch_max} window={window_label} depth={depth}");
        suite.runs.push(RunRecord::from_stats(
            &driver, "none", "", &healthy, None, None,
        ));
        suite.runs.push(RunRecord::from_stats(
            &driver,
            "disk_contention",
            "",
            &contended,
            Some(healthy.throughput),
            None,
        ));
        t.row(vec![
            batch_max.to_string(),
            window_label.to_string(),
            depth.to_string(),
            format!("{:.0}", healthy.throughput),
            format!("{:.2}", healthy.latency.p99.as_secs_f64() * 1e3),
            format!("{:.0}", contended.throughput),
            format!("{:.2}", contended.throughput / healthy.throughput.max(1.0)),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_batching");
}

/// Chain replication vs quorum replication under a slow *tail* — the
/// §2.1/§3.3 tradeoff, measured.
fn ablation_chain_vs_quorum(suite: &mut Suite) {
    let mut t = Table::new(
        "Ablation: chain replication vs quorum under one fail-slow member",
        &[
            "System",
            "Tput healthy",
            "Tput w/ slow member",
            "Ratio",
            "P99 healthy (ms)",
            "P99 slow (ms)",
        ],
    );
    for kind in [RaftKind::DepFast, RaftKind::Chain] {
        let cfg = RunCfg {
            kind,
            clients: 128,
            warmup: Duration::from_secs(1),
            measure: Duration::from_secs(4),
            records: 100_000,
            profile: true,
            ..RunCfg::default()
        };
        let healthy_run = run(&cfg);
        // The slow member is node 2: DepFastRaft's follower, ChainRaft's tail.
        let slow_run = run(&cfg.with_fault(
            [2],
            FaultKind::NetSlow {
                delay: Duration::from_millis(400),
            },
        ));
        suite.runs.push(RunRecord::from_stats(
            kind.name(),
            "none",
            "",
            &healthy_run.stats,
            None,
            healthy_run.profiler.as_ref(),
        ));
        suite.runs.push(RunRecord::from_stats(
            kind.name(),
            "net_slow",
            "",
            &slow_run.stats,
            Some(healthy_run.stats.throughput),
            slow_run.profiler.as_ref(),
        ));
        let (healthy, slow) = (healthy_run.stats, slow_run.stats);
        t.row(vec![
            kind.name().to_string(),
            format!("{:.0}", healthy.throughput),
            format!("{:.0}", slow.throughput),
            format!("{:.2}", slow.throughput / healthy.throughput.max(1.0)),
            format!("{:.2}", healthy.latency.p99.as_secs_f64() * 1e3),
            format!("{:.2}", slow.latency.p99.as_secs_f64() * 1e3),
        ]);
    }
    t.print();
    let _ = t.write_csv("ablation_chain_vs_quorum");
}

fn main() {
    ablation_wait_style();
    ablation_buffers();
    let mut suite = Suite::new("ablations", RunCfg::default().seed);
    ablation_entrycache(&mut suite);
    ablation_batching(&mut suite);
    ablation_chain_vs_quorum(&mut suite);
    match depfast_bench::write_repo_artifact("BENCH_ablations.json", &suite.to_json()) {
        Ok(p) => println!("[bench-json] {}", p.display()),
        Err(e) => eprintln!("[ablations] cannot write BENCH_ablations.json: {e}"),
    }
    // Quiet the unused warning for QuorumEvent import used in docs.
    let _ = QuorumEvent::majority as fn(&Runtime) -> QuorumEvent;
}
