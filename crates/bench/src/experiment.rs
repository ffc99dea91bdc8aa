//! The experiment harness, following the paper's methodology (§2.1):
//! build a cluster, arm the requested observers and faults, drive a YCSB
//! update workload with enough concurrent clients to load the leader to
//! ~75% CPU, and hand back everything the run recorded.
//!
//! [`RunCfg`] is plain data — cluster [`Shape`], workload scale, Raft
//! tuning, a fault plan of [`Window`]s and load [`Trigger`]s, and the
//! observer set — and [`run`] is the only place a cluster is built and a
//! workload driven. Every figure, gate and scenario cell goes through
//! it, so a new observer or column is one edit here. The post-processing
//! those consumers share (rate series, incident dumps and their
//! per-group split) lives on [`RunOutput`].

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use depfast::{HealthEvent, TraceRecord};
use depfast_detect::{AmpSample, DetectorCfg, FailSlowDetector, StormCfg, StormMonitor};
use depfast_fault::{FaultKind, FaultLedger};
use depfast_incident::IncidentDump;
use depfast_kv::{KvCluster, RetryPolicy, ShardedKvCluster};
use depfast_metrics::{group_label, Key, MetricsRegistry, Sampler};
use depfast_profile::Profiler;
use depfast_raft::cluster::RaftKind;
use depfast_raft::core::RaftCfg;
use depfast_storage::{LogStoreCfg, WalCfg};
use depfast_ycsb::driver::{run_workload, run_workload_sharded, DriverCfg, GroupStats, RunStats};
use depfast_ycsb::workload::WorkloadSpec;
use simkit::{MemCfg, NodeId, Sim, World, WorldCfg};

/// Cluster shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// One Raft group (the leader is node 0).
    Single {
        /// Replicas.
        servers: usize,
    },
    /// Raft groups striped over shared server nodes, with the YCSB
    /// keyspace hash-partitioned across them and a shard-aware client
    /// per host.
    Sharded {
        /// Number of Raft groups.
        groups: usize,
        /// Server nodes the groups are striped over.
        nodes: usize,
        /// Replicas per group.
        group_size: usize,
    },
}

impl Shape {
    /// Server nodes in the world (each client gets a host node on top).
    pub fn server_nodes(&self) -> usize {
        match *self {
            Shape::Single { servers } => servers,
            Shape::Sharded { nodes, .. } => nodes,
        }
    }

    /// `"{groups}g{nodes}n"` for a sharded cluster, `"{servers}_nodes"`
    /// for one group — the cluster discriminator used in suite cells.
    pub fn label(&self) -> String {
        match *self {
            Shape::Single { servers } => format!("{servers}_nodes"),
            Shape::Sharded { groups, nodes, .. } => format!("{groups}g{nodes}n"),
        }
    }
}

/// One concrete injection window: `kind` on `node` from `at` (offset from
/// run start) for `duration` (`None` = the rest of the run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Node the fault lands on (a server node index).
    pub node: u32,
    /// Fault applied for this window.
    pub kind: FaultKind,
    /// Onset offset from run start.
    pub at: Duration,
    /// Active span (`None` = rest of the run).
    pub duration: Option<Duration>,
}

/// A load-conditioned injection, armed as a commit-index watch.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// Fires when the cluster's max commit index first reaches this.
    pub commits: u64,
    /// Nodes the fault then lands on.
    pub nodes: Vec<u32>,
    /// Fault applied.
    pub kind: FaultKind,
    /// Active span once fired.
    pub duration: Duration,
}

/// Full experiment configuration: plain data, defaulting to the paper's
/// 3-node, 256-client DepFastRaft operating point with no fault and no
/// observers.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Raft driver under test (every group runs the same driver).
    pub kind: RaftKind,
    /// Cluster shape.
    pub shape: Shape,
    /// Concurrent closed-loop clients, each on its own host node.
    pub clients: usize,
    /// Determinism seed.
    pub seed: u64,
    /// Warm-up excluded from stats.
    pub warmup: Duration,
    /// Measurement window.
    pub measure: Duration,
    /// YCSB keyspace size.
    pub records: u64,
    /// YCSB value bytes.
    pub value_size: usize,
    /// Raft tuning for every replica.
    pub raft: RaftCfg,
    /// Time-scheduled fault windows.
    pub faults: Vec<Window>,
    /// Load-conditioned faults.
    pub triggers: Vec<Trigger>,
    /// Sample the metric registry on this virtual-clock grid (`None` =
    /// no sampling).
    pub sample_every: Option<Duration>,
    /// Collect every causal trace record.
    pub trace: bool,
    /// Install a wait-state [`Profiler`] for the whole run. Probes are
    /// synchronous, so profiling never changes the simulated results.
    pub profile: bool,
    /// Spawn a [`FailSlowDetector`] with this tuning.
    pub detector: Option<DetectorCfg>,
    /// Arm the detector-driven leader demotion/campaign mitigation
    /// (requires `detector`).
    pub mitigate_leader: bool,
    /// Tick a [`StormMonitor`] right before each sampler row (requires
    /// `sample_every`).
    pub storm: bool,
    /// Retry policy installed on every client session.
    pub retry: Option<RetryPolicy>,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            kind: RaftKind::DepFast,
            shape: Shape::Single { servers: 3 },
            clients: 256,
            seed: 20210531, // HotOS '21 opening day.
            warmup: Duration::from_secs(2),
            measure: Duration::from_secs(10),
            records: 500_000,
            value_size: 1000,
            raft: bench_raft_cfg(),
            faults: Vec::new(),
            triggers: Vec::new(),
            sample_every: None,
            trace: false,
            profile: false,
            detector: None,
            mitigate_leader: false,
            storm: false,
            retry: None,
        }
    }
}

impl RunCfg {
    /// Adds `kind` on each of `nodes` from midway through the warm-up to
    /// the end of the run — the Table 1 protocol. Set `warmup` first.
    pub fn with_fault(mut self, nodes: impl IntoIterator<Item = u32>, kind: FaultKind) -> Self {
        let at = self.warmup / 2;
        self.faults.extend(nodes.into_iter().map(|node| Window {
            node,
            kind,
            at,
            duration: None,
        }));
        self
    }

    /// Name of the first planned fault window, `"none"` without one.
    pub fn fault_name(&self) -> &'static str {
        self.faults.first().map_or("none", |w| w.kind.name())
    }
}

/// Raft tuning used by every experiment: calibrated so a healthy 3-node
/// DepFastRaft cluster lands near the paper's ~5 K req/s base performance
/// with the leader around 75% CPU.
pub fn bench_raft_cfg() -> RaftCfg {
    RaftCfg {
        bootstrap_leader: Some(0),
        batch_max: 64,
        // Group-commit linger while the pipeline is busy: coalesces the
        // pipelined round stream into ~20-entry batches at the ~5 K req/s
        // operating point (one WAL fsync + one per-peer append per round
        // instead of per entry). See docs/PERFORMANCE.md.
        batch_window: Duration::from_millis(4),
        max_entries_per_append: 512,
        propose_cpu: Duration::from_micros(30),
        apply_cpu: Duration::from_micros(190),
        append_cpu_base: Duration::from_micros(30),
        append_cpu_per_entry: Duration::from_micros(120),
        log: LogStoreCfg {
            cache_bytes: 1024 * 1024,
            wal: WalCfg::default(),
        },
        ..RaftCfg::default()
    }
}

/// Per-request processing cost on the serving node (runs across cores);
/// together with [`bench_raft_cfg`] it puts the leader near 75% CPU at the
/// ~5 K req/s operating point.
pub fn bench_serve_cpu() -> Duration {
    Duration::from_micros(250)
}

/// World tuning shared by the experiments (Standard_D4s_v3-like nodes).
pub fn bench_world_cfg(nodes: usize) -> WorldCfg {
    WorldCfg {
        nodes,
        mem: MemCfg {
            limit: 16 * 1024 * 1024 * 1024,
            baseline: 2 * 1024 * 1024 * 1024,
            swap_threshold: 0.80,
            swap_max_slowdown: 10.0,
        },
        ..WorldCfg::default()
    }
}

/// The Table 1 memory-contention limit used in experiments: squeezes the
/// process to just above its baseline so paging pressure is real.
pub fn mem_contention_limit() -> u64 {
    2 * 1024 * 1024 * 1024 + 200 * 1024 * 1024
}

/// Sampling interval for incident experiments' throughput series, and
/// the poll period of load triggers.
pub const INCIDENT_SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// Everything one run recorded.
pub struct RunOutput {
    /// Client-side workload statistics (the aggregate when sharded).
    pub stats: RunStats,
    /// Per-group statistics, indexed by `gid - 1` (empty for one group).
    pub groups: Vec<GroupStats>,
    /// Replica sets, indexed by `gid - 1` (empty for one group).
    pub members: Vec<Vec<NodeId>>,
    /// The cluster-shared registry with final cumulative values for
    /// every `sim.*` / `rpc.*` / `event.*` / `raft.*` series.
    pub metrics: MetricsRegistry,
    /// Interval-aligned time series (empty when the run was not sampled).
    pub sampler: Sampler,
    /// Every health-state transition recorded during the run.
    pub health: Vec<HealthEvent>,
    /// Health events lost at the tracer's capacity cap.
    pub health_dropped: u64,
    /// Every trace record the ring buffer retained (empty unless traced).
    pub trace: Vec<TraceRecord>,
    /// Records the ring buffer had to drop (`trace.dropped`). Nonzero
    /// means blame percentages come from a truncated stream.
    pub trace_dropped: u64,
    /// The wait-state profile over the whole run, warm-up included.
    pub profiler: Option<Profiler>,
    /// Ground truth: every injected fault, with onset and clear times.
    pub ledger: FaultLedger,
    /// The retry-amplification series (empty unless storm-monitored).
    pub storm: Vec<AmpSample>,
}

/// The cluster under test, in either shape.
enum Cluster {
    Single(Rc<KvCluster>),
    Sharded(Rc<ShardedKvCluster>),
}

/// Runs one experiment end to end. Deterministic: same config, same
/// output, byte for byte.
///
/// Arm order is cluster → retry policy → sampler → detector →
/// mitigation → faults → triggers → workload, whatever subset is asked
/// for: spawn order is part of the deterministic schedule.
pub fn run(cfg: &RunCfg) -> RunOutput {
    // Runs must not inherit a causal context left in the ambient slot by
    // an earlier experiment in the same process: traces would differ.
    depfast::set_trace_ctx(None);
    let sim = Sim::new(cfg.seed);
    let world = World::new(
        sim.clone(),
        bench_world_cfg(cfg.shape.server_nodes() + cfg.clients),
    );
    let metrics = world.metrics();
    let cluster = match cfg.shape {
        Shape::Single { servers } => Cluster::Single(Rc::new(KvCluster::build_tuned(
            &sim,
            &world,
            cfg.kind,
            servers,
            cfg.clients,
            cfg.raft,
            bench_serve_cpu(),
        ))),
        Shape::Sharded {
            groups,
            nodes,
            group_size,
        } => Cluster::Sharded(Rc::new(ShardedKvCluster::build_tuned(
            &sim,
            &world,
            cfg.kind,
            groups,
            nodes,
            group_size,
            cfg.clients,
            cfg.raft,
            bench_serve_cpu(),
        ))),
    };
    let tracer = match &cluster {
        Cluster::Single(c) => c.raft.tracer.clone(),
        Cluster::Sharded(c) => c.raft.tracer.clone(),
    };
    if let Some(policy) = cfg.retry {
        match &cluster {
            Cluster::Single(c) => c.clients.iter().for_each(|s| s.set_policy(policy)),
            Cluster::Sharded(c) => c.clients.iter().for_each(|s| s.set_policy(policy)),
        }
    }
    tracer.set_record_full(cfg.trace);
    let profiler = cfg.profile.then(|| {
        let p = Profiler::new(cfg.kind.name());
        p.install(&tracer, &world);
        p
    });
    let ledger = FaultLedger::new();
    let interval = cfg.sample_every.unwrap_or(INCIDENT_SAMPLE_EVERY);
    let monitor = cfg.storm.then(|| {
        assert!(
            cfg.sample_every.is_some(),
            "storm monitoring needs sampling"
        );
        StormMonitor::new(
            &tracer,
            &ledger,
            StormCfg {
                every: interval,
                ..StormCfg::default()
            },
        )
    });
    let sampler = Rc::new(RefCell::new(Sampler::new(
        metrics.clone(),
        interval.as_nanos() as u64,
    )));
    if cfg.sample_every.is_some() {
        // Virtual-clock sampling loop; rows align to the interval grid.
        // The storm monitor ticks first, so each row carries this
        // interval's offered/goodput/amplification gauges.
        let sampler = sampler.clone();
        let monitor = monitor.clone();
        let sim2 = sim.clone();
        sim.spawn(async move {
            loop {
                sim2.sleep(interval).await;
                if let Some(m) = &monitor {
                    m.tick(sim2.now());
                }
                sampler.borrow_mut().sample_at(sim2.now().as_nanos());
            }
        });
    }
    let detector = cfg
        .detector
        .map(|dcfg| FailSlowDetector::spawn(&sim, &tracer, dcfg));
    if cfg.mitigate_leader {
        let detector = detector
            .as_ref()
            .expect("leader mitigation needs a detector");
        let cores = match &cluster {
            Cluster::Single(c) => c.raft.servers.iter().map(|s| s.core().clone()).collect(),
            Cluster::Sharded(c) => c
                .raft
                .groups
                .iter()
                .flat_map(|g| g.servers.iter().map(|s| s.core().clone()))
                .collect(),
        };
        // A demoted leader sits out two seconds of elections.
        depfast_detect::spawn_leader_mitigation(&sim, detector, cores, Duration::from_secs(2));
    }
    for w in &cfg.faults {
        depfast_fault::inject_at_logged(
            &sim,
            &world,
            NodeId(w.node),
            w.kind,
            w.at,
            w.duration,
            &ledger,
        );
    }
    metrics
        .counter(Key::global("scenario.windows.armed"))
        .add(cfg.faults.len() as u64);
    for t in &cfg.triggers {
        let t = t.clone();
        let sim2 = sim.clone();
        let world2 = world.clone();
        let ledger2 = ledger.clone();
        let metrics2 = metrics.clone();
        sim.spawn(async move {
            loop {
                sim2.sleep(INCIDENT_SAMPLE_EVERY).await;
                let commit = metrics2
                    .snapshot()
                    .iter()
                    .filter(|(k, _)| k.name == "raft.commit_index")
                    .map(|(_, v)| v.scalar())
                    .max()
                    .unwrap_or(0);
                if commit >= t.commits as i128 {
                    for &node in &t.nodes {
                        depfast_fault::inject_at_logged(
                            &sim2,
                            &world2,
                            NodeId(node),
                            t.kind,
                            Duration::ZERO,
                            Some(t.duration),
                            &ledger2,
                        );
                    }
                    metrics2
                        .counter(Key::global("scenario.trigger.fired"))
                        .inc();
                    break;
                }
            }
        });
    }
    let spec = WorkloadSpec::update_heavy()
        .with_records(cfg.records)
        .with_value_size(cfg.value_size);
    let driver = DriverCfg {
        warmup: cfg.warmup,
        measure: cfg.measure,
        seed: cfg.seed ^ 0x5eed,
    };
    let (stats, groups, members) = match &cluster {
        Cluster::Single(c) => (
            run_workload(&sim, &world, c, spec, driver),
            Vec::new(),
            Vec::new(),
        ),
        Cluster::Sharded(c) => {
            let s = run_workload_sharded(&sim, &world, c, spec, driver);
            let members = c.raft.groups.iter().map(|g| g.members.clone()).collect();
            (s.total, s.groups, members)
        }
    };
    tracer.set_record_full(false);
    if let Some(p) = &profiler {
        p.uninstall(&tracer, &world);
    }
    // The sampling task still holds a clone of the cell; swap the
    // sampler out rather than trying to unwrap the Rc.
    let sampler = sampler.replace(Sampler::new(MetricsRegistry::new(), 1));
    RunOutput {
        stats,
        groups,
        members,
        trace: tracer.take_records(),
        trace_dropped: metrics.counter(Key::global("trace.dropped")).get(),
        health: tracer.take_health_events(),
        health_dropped: tracer.health_dropped(),
        metrics,
        sampler,
        profiler,
        ledger,
        storm: monitor.map_or_else(Vec::new, |m| m.series()),
    }
}

impl RunOutput {
    /// Per-interval rate of the cumulative series `metric`: the max over
    /// its keys (leadership may move between replicas), optionally only
    /// those tagged with group `gid`, differenced across sampler rows.
    /// `raft.commit_index` gives commit throughput; `client.success`
    /// gives client goodput.
    pub fn rate_series(&self, metric: &str, gid: Option<u32>) -> Vec<(u64, f64)> {
        let tag = gid.map(group_label);
        let mut series = Vec::new();
        let mut prev: Option<(u64, i128)> = None;
        for row in self.sampler.rows() {
            let value = row
                .values
                .iter()
                .filter(|(k, _)| k.name == metric && (tag.is_none() || k.tag == tag))
                .map(|(_, v)| v.scalar())
                .max()
                .unwrap_or(0);
            if let Some((pt, pv)) = prev {
                let dt = row.t_ns.saturating_sub(pt);
                if dt > 0 {
                    series.push((row.t_ns, (value - pv).max(0) as f64 / (dt as f64 / 1e9)));
                }
            }
            prev = Some((row.t_ns, value));
        }
        series
    }

    /// The run's joined incident record — ground-truth ledger, reaction
    /// timeline and throughput series — canonicalized and ready for the
    /// scorecard. `fault` labels the dump. The series is commit
    /// throughput, or client goodput (`client.success`) for a
    /// storm-monitored run: a storm commits plenty of duplicate retries
    /// while clients see nothing, and those must not count as survival.
    pub fn incident_dump(&self, cfg: &RunCfg, fault: &str) -> IncidentDump {
        let metric = if cfg.storm {
            "client.success"
        } else {
            "raft.commit_index"
        };
        let cluster = format!("{}x{}", cfg.shape.server_nodes(), cfg.clients);
        let series = self.rate_series(metric, None);
        self.dump(cfg, fault, cluster, |_, _| true, series)
    }

    /// One incident dump per group, indexed by `gid - 1`: ground truth
    /// restricted to the group's replicas (a fault elsewhere is outside
    /// its blast radius, so its scorecard must stay all-zero), the
    /// group-stamped health events plus node-level ones on members, and
    /// the group's own commit-throughput series.
    pub fn group_dumps(&self, cfg: &RunCfg, fault: &str) -> Vec<IncidentDump> {
        (1..=self.members.len() as u32)
            .map(|gid| {
                let mine = &self.members[(gid - 1) as usize];
                let cluster = format!("{}/g{gid}", cfg.shape.label());
                let series = self.rate_series("raft.commit_index", Some(gid));
                let keep =
                    |node, group: Option<u32>| group.map_or(mine.contains(&node), |g| g == gid);
                self.dump(cfg, fault, cluster, keep, series)
            })
            .collect()
    }

    /// Joins the ledger records and health events `keep(node, group)`
    /// admits with `throughput` into one canonical dump.
    fn dump(
        &self,
        cfg: &RunCfg,
        fault: &str,
        cluster: String,
        keep: impl Fn(NodeId, Option<u32>) -> bool,
        throughput: Vec<(u64, f64)>,
    ) -> IncidentDump {
        let mut dump = IncidentDump {
            driver: cfg.kind.name().to_string(),
            fault: fault.to_string(),
            cluster,
            seed: cfg.seed,
            faults: self
                .ledger
                .records()
                .iter()
                .filter(|r| keep(r.node, None))
                .map(Into::into)
                .collect(),
            events: self
                .health
                .iter()
                .filter(|e| keep(e.node, e.group))
                .cloned()
                .map(Into::into)
                .collect(),
            throughput,
            end_ns: (cfg.warmup + cfg.measure).as_nanos() as u64,
            health_dropped: self.health_dropped,
        };
        dump.canonicalize();
        dump
    }

    /// Group `gid`'s statistics in the [`RunStats`] shape, so the record
    /// machinery can treat a group like a small cluster.
    pub fn group_stats(&self, gid: u32) -> RunStats {
        let g = &self.groups[(gid - 1) as usize];
        RunStats {
            ops: g.ops,
            errors: g.errors,
            throughput: g.throughput,
            latency: g.latency,
            server_crashed: self.stats.server_crashed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(kind: RaftKind, fault: Option<FaultKind>) -> RunStats {
        let cfg = RunCfg {
            kind,
            clients: 64,
            warmup: Duration::from_millis(600),
            measure: Duration::from_secs(2),
            records: 10_000,
            ..RunCfg::default()
        };
        run(&match fault {
            Some(kind) => cfg.with_fault([1], kind),
            None => cfg,
        })
        .stats
    }

    #[test]
    fn baseline_depfast_hits_healthy_throughput() {
        let s = quick(RaftKind::DepFast, None);
        assert!(s.throughput > 1000.0, "got {:.0}/s", s.throughput);
        assert!(!s.server_crashed);
    }

    #[test]
    fn depfast_tolerates_slow_follower() {
        let base = quick(RaftKind::DepFast, None);
        let slow = quick(RaftKind::DepFast, Some(FaultKind::CpuSlow { quota: 0.05 }));
        let ratio = slow.throughput / base.throughput;
        assert!(
            ratio > 0.90,
            "DepFastRaft throughput should hold: {:.2} ({:.0} vs {:.0})",
            ratio,
            slow.throughput,
            base.throughput
        );
    }

    #[test]
    fn sync_raft_degrades_under_slow_follower() {
        let base = quick(RaftKind::Sync, None);
        let slow = quick(
            RaftKind::Sync,
            Some(FaultKind::NetSlow {
                delay: Duration::from_millis(400),
            }),
        );
        let ratio = slow.throughput / base.throughput;
        assert!(
            ratio < 0.95,
            "SyncRaft should lose throughput: {:.2} ({:.0} vs {:.0})",
            ratio,
            slow.throughput,
            base.throughput
        );
    }

    fn sharded(groups: usize, clients: usize) -> RunCfg {
        RunCfg {
            shape: Shape::Sharded {
                groups,
                nodes: 6,
                group_size: 3,
            },
            clients,
            warmup: Duration::from_millis(600),
            measure: Duration::from_secs(2),
            records: 10_000,
            ..RunCfg::default()
        }
    }

    #[test]
    fn sharded_baseline_commits_on_every_group() {
        let out = run(&sharded(4, 48));
        assert!(
            out.stats.throughput > 1000.0,
            "got {:.0}/s",
            out.stats.throughput
        );
        assert_eq!(out.groups.len(), 4);
        for g in &out.groups {
            assert!(g.ops > 0, "group {} starved: {:?}", g.gid, g.ops);
        }
    }

    #[test]
    fn more_groups_scale_aggregate_throughput() {
        let one = run(&sharded(1, 128)).stats;
        let four = run(&sharded(4, 128)).stats;
        let ratio = four.throughput / one.throughput;
        assert!(
            ratio > 1.5,
            "4 groups should out-commit 1: {:.2} ({:.0} vs {:.0})",
            ratio,
            four.throughput,
            one.throughput
        );
    }
}
