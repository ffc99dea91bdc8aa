//! Per-layer counters: snapshots of the simulator, the metric registry
//! and the Raft cores, differenced over the measured window.
//!
//! Counts are divided by the ops that completed successfully in the
//! window. Histogram percentiles come from the cumulative registry
//! histograms (warm-up included), because registry histograms cannot be
//! differenced; means are exact window values (`total / count` deltas).

use depfast_metrics::{Histogram, Key, MetricValue};

use crate::openloop::Run;
use crate::report::Metrics;

/// Straggler shares are reported for server nodes `0..MAX_NODES` (the
/// largest deployment has 6).
const MAX_NODES: usize = 6;

/// Cumulative state at one instant.
pub struct Snap {
    polls: u64,
    timers: u64,
    tasks: u64,
    net_msgs: u64,
    net_bytes: u64,
    disk_bytes: u64,
    metrics: Vec<(Key, MetricValue)>,
    leader_epochs: u64,
    /// `(node, group, cache hits, cache misses)` per server replica.
    caches: Vec<(u32, usize, u64, u64)>,
    /// `(group, node)` of each group's leader.
    leaders: Vec<(usize, u32)>,
    follower_lag: u64,
    quorum_wait_p99: P99,
    entries_per_append_p99: P99,
    append_latency_p99: P99,
}

impl Snap {
    pub fn take(run: &Run) -> Self {
        let mut disk_bytes = 0;
        for n in 0..run.target.server_nodes() {
            disk_bytes += run.world.disk_bytes_written(simkit::NodeId(n as u32));
        }
        let mut leader_epochs = 0;
        let mut caches = Vec::new();
        for (g, group) in run.target.groups().iter().enumerate() {
            for s in group {
                let core = s.raft().core();
                leader_epochs += core.st.borrow().leader_epoch;
                caches.push((core.id.0, g, core.log.cache_hits(), core.log.cache_misses()));
            }
        }
        Snap {
            polls: run.sim.polls(),
            timers: run.sim.timers_scheduled(),
            tasks: run.sim.tasks_spawned(),
            net_msgs: run.world.net_messages(),
            net_bytes: run.world.net_bytes(),
            disk_bytes,
            metrics: run.world.metrics().snapshot(),
            leader_epochs,
            caches,
            leaders: run
                .target
                .groups()
                .iter()
                .enumerate()
                .filter_map(|(g, servers)| {
                    let leader = servers.iter().find(|s| s.raft().is_leader())?;
                    Some((g, leader.raft().node().0))
                })
                .collect(),
            follower_lag: follower_lag(run),
            quorum_wait_p99: hist_p99_ns(run, "event.quorum.wait", any),
            entries_per_append_p99: hist_p99_ns(run, "rpc.entries_per_append", any),
            append_latency_p99: hist_p99_ns(run, "rpc.latency", |k| {
                k.tag == Some("append_entries")
            }),
        }
    }

    fn counter(&self, name: &str, pick: impl Fn(&Key) -> bool) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name && pick(k))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// `(count, total)` summed over every histogram named `name`.
    fn hist(&self, name: &str, pick: impl Fn(&Key) -> bool) -> (u64, u128) {
        self.metrics
            .iter()
            .filter(|(k, _)| k.name == name && pick(k))
            .fold((0, 0), |(c, t), (_, v)| match v {
                MetricValue::Histogram(h) => (c + h.count, t + h.total_ns),
                _ => (c, t),
            })
    }
}

fn any(_: &Key) -> bool {
    true
}

/// Window mean of histogram `name` (its recorded unit), 0 when empty.
fn hist_mean(s0: &Snap, s1: &Snap, name: &str, pick: impl Fn(&Key) -> bool + Copy) -> f64 {
    let (c0, t0) = s0.hist(name, pick);
    let (c1, t1) = s1.hist(name, pick);
    if c1 <= c0 {
        return 0.0;
    }
    (t1 - t0) as f64 / (c1 - c0) as f64
}

/// A p99 in the histogram's recorded unit, with its sample count.
#[derive(Clone, Copy)]
struct P99 {
    value: f64,
    samples: u64,
}

/// p99 of every histogram named `name` merged, since the run started
/// (registry histograms cannot be differenced).
fn hist_p99_ns(run: &Run, name: &str, pick: impl Fn(&Key) -> bool) -> P99 {
    let mut merged = Histogram::new();
    for (k, h) in run.world.metrics().histograms_named(name) {
        if pick(&k) {
            h.with(|hist| merged.merge(hist));
        }
    }
    P99 {
        value: merged.quantile(0.99).as_nanos() as f64,
        samples: merged.count(),
    }
}

/// Reports `p` under `name` (in ms when `unit` is `"ms"`), flagged when
/// fewer than 10 samples lie beyond it.
fn put_p99(out: &mut Metrics, name: &str, p: P99, unit: &str) {
    if unit == "ms" {
        out.ms(name, p.value);
    } else {
        out.put(name, p.value, unit);
    }
    let beyond = crate::stats::beyond(p.samples as usize, 0.99);
    if beyond < 10 {
        out.flag(format!("{name}: {beyond} samples beyond it (< 10)"));
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Inputs from the window that are not registry counters.
pub struct WindowFacts {
    /// Ops that completed successfully in the window.
    pub ops: u64,
    pub window_s: f64,
    /// Host seconds the window took.
    pub host_s: f64,
    /// Successful window ops per group.
    pub group_ops: Vec<u64>,
}

/// Every per-layer counter metric, differenced between `s0` and `s1`.
pub fn layer_metrics(run: &Run, s0: &Snap, s1: &Snap, f: &WindowFacts, out: &mut Metrics) {
    let ops = f.ops as f64;
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    let polls = d(s0.polls, s1.polls);

    // simkit
    out.count("simkit.polls_per_op", ratio(polls, ops));
    out.count("simkit.timers_per_op", ratio(d(s0.timers, s1.timers), ops));
    out.count("simkit.tasks_per_op", ratio(d(s0.tasks, s1.tasks), ops));
    out.put("simkit.ns_per_poll", ratio(f.host_s * 1e9, polls), "ns");
    out.count(
        "simkit.net_msgs_per_op",
        ratio(d(s0.net_msgs, s1.net_msgs), ops),
    );
    out.put(
        "simkit.net_kb_per_op",
        ratio(d(s0.net_bytes, s1.net_bytes) / 1024.0, ops),
        "KiB",
    );
    out.put(
        "simkit.disk_kb_per_op",
        ratio(d(s0.disk_bytes, s1.disk_bytes) / 1024.0, ops),
        "KiB",
    );
    // Busiest server node's CPU (the leader, on one group).
    let cores = simkit::WorldCfg::default().cpu.cores as f64;
    let mut util: f64 = 0.0;
    for n in 0..run.target.server_nodes() as u32 {
        let node = move |k: &Key| k.node == Some(n);
        let (_, b0) = s0.hist("sim.cpu.service", node);
        let (_, b1) = s1.hist("sim.cpu.service", node);
        util = util.max((b1 - b0) as f64 / (f.window_s * 1e9 * cores));
    }
    out.put("simkit.leader_cpu_util", util, "ratio");

    // core
    let (qc0, _) = s0.hist("event.quorum.wait", any);
    let (qc1, _) = s1.hist("event.quorum.wait", any);
    out.count("core.quorum_waits_per_op", ratio(d(qc0, qc1), ops));
    out.ms(
        "core.quorum_wait_ms_mean",
        hist_mean(s0, s1, "event.quorum.wait", any),
    );
    put_p99(out, "core.quorum_wait_ms_p99", s1.quorum_wait_p99, "ms");
    let stragglers = d(
        s0.counter("event.quorum.straggler", any),
        s1.counter("event.quorum.straggler", any),
    );
    for n in 0..MAX_NODES as u32 {
        let node = move |k: &Key| k.node == Some(n);
        let mine = d(
            s0.counter("event.quorum.straggler", node),
            s1.counter("event.quorum.straggler", node),
        );
        out.put(
            &format!("core.straggler_share.n{n}"),
            ratio(mine, stragglers),
            "ratio",
        );
    }

    // rpc
    out.count(
        "rpc.sent_per_op",
        ratio(
            d(s0.counter("rpc.sent", any), s1.counter("rpc.sent", any)),
            ops,
        ),
    );
    out.count(
        "rpc.dropped",
        d(
            s0.counter("rpc.dropped", any),
            s1.counter("rpc.dropped", any),
        ),
    );
    out.count(
        "rpc.errors",
        d(s0.counter("rpc.errors", any), s1.counter("rpc.errors", any)),
    );
    out.count(
        "rpc.entries_per_append_mean",
        hist_mean(s0, s1, "rpc.entries_per_append", any),
    );
    put_p99(
        out,
        "rpc.entries_per_append_p99",
        s1.entries_per_append_p99,
        "count",
    );
    put_p99(
        out,
        "rpc.append_latency_ms_p99",
        s1.append_latency_p99,
        "ms",
    );

    // storage
    out.count(
        "storage.wal_records_per_flush",
        hist_mean(s0, s1, "wal.batch_records", any),
    );
    out.ms(
        "storage.disk_wait_ms",
        hist_mean(s0, s1, "sim.disk.wait", any),
    );
    let (mut hits, mut misses) = (0.0, 0.0);
    for (a, b) in s0.caches.iter().zip(&s1.caches) {
        if s1.leaders.contains(&(b.1, b.0)) {
            hits += d(a.2, b.2);
            misses += d(a.3, b.3);
        }
    }
    out.put(
        "storage.log_cache_miss_ratio",
        ratio(misses, hits + misses),
        "ratio",
    );

    // raft
    out.count(
        "raft.batch_size_mean",
        hist_mean(s0, s1, "raft.batch.size", any),
    );
    out.count(
        "raft.rounds_per_op",
        ratio(
            d(
                s0.counter("raft.batch.rounds", any),
                s1.counter("raft.batch.rounds", any),
            ),
            ops,
        ),
    );
    for (name, metric) in [
        ("raft.pipeline_stalls", "raft.pipeline.stalls"),
        ("raft.suspects", "raft.append.suspects"),
        ("raft.window_skips", "raft.append.window_skips"),
    ] {
        out.count(name, d(s0.counter(metric, any), s1.counter(metric, any)));
    }
    out.count("raft.follower_lag_end", s1.follower_lag as f64);
    out.count("raft.leader_changes", d(s0.leader_epochs, s1.leader_epochs));

    // kv
    let client = |s: &Snap, n: &str| s.counter(n, any);
    out.count(
        "kv.attempts_per_op",
        ratio(
            d(client(s0, "client.attempts"), client(s1, "client.attempts")),
            d(client(s0, "client.ops"), client(s1, "client.ops")),
        ),
    );
    for (name, tag) in [
        ("kv.retry_not_leader", "not_leader"),
        ("kv.retry_timeout", "timeout"),
    ] {
        let t = move |k: &Key| k.tag == Some(tag);
        out.count(
            name,
            d(s0.counter("client.retry", t), s1.counter("client.retry", t)),
        );
    }
    out.count(
        "kv.give_up",
        d(client(s0, "client.give_up"), client(s1, "client.give_up")),
    );
    out.put("kv.group_ops_cv", coeff_of_variation(&f.group_ops), "ratio");
}

/// Largest gap between a group's leader and its slowest replica in
/// applied index.
pub fn follower_lag(run: &Run) -> u64 {
    let mut lag = 0;
    for group in run.target.groups() {
        let applied: Vec<u64> = group.iter().map(|s| s.applied()).collect();
        let top = applied.iter().copied().max().unwrap_or(0);
        let low = applied.iter().copied().min().unwrap_or(0);
        lag = lag.max(top - low);
    }
    lag
}

fn coeff_of_variation(xs: &[u64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<u64>() as f64 / n;
    let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
    ratio(var.sqrt(), mean)
}
