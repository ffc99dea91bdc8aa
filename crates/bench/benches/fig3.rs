//! **Figure 3** — performance of DepFastRaft with a minority of fail-slow
//! followers, 3-node and 5-node deployments.
//!
//! Paper claims (§3.4): *"In all cases where a minority of follower(s) are
//! slowed down, DepFastRaft's performance does not show performance drift
//! over 5% in both latency and throughput. The base performance of
//! DepFastRaft is at about 5K requests per second."*
//!
//! This bench reports absolute throughput, average latency and P99 (the
//! paper's three panels) for each Table 1 fault, for 3 nodes (one slow
//! follower) and 5 nodes (two slow followers — the largest minority), and
//! flags any drift beyond 5%.
//!
//! Environment knobs: `FIG3_MEASURE_SECS` (default 10),
//! `FIG3_CLIENTS` (default 256).
//!
//! Pass `--metrics` to sample every run's metric registry on a 100 ms
//! virtual-clock grid and write one CSV per (cluster, condition) under
//! `target/depfast-bench/`. Because these are DepFastRaft runs, the
//! series include the `event.quorum.*` straggler-attribution counters
//! that name the slow follower(s). See `docs/OBSERVABILITY.md`.
//!
//! Pass `--incidents` to run each cluster shape through one
//! incident-instrumented disk-slow episode: per-run incident reports, a
//! detector scorecard table, and a `fig3_incidents.dump` replayable with
//! the `depfast-incident` binary. See `docs/OBSERVABILITY.md`.

use std::time::Duration;

use depfast_bench::baseline::{RunRecord, Suite};
use depfast_bench::{
    format_ms, repo_root, run, slug, write_metrics_csv, write_repo_artifact, RunCfg, RunOutput,
    Shape, Table, Window,
};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one experiment with the wait-state profiler attached (its site
/// rollup lands in `BENCH_fig3.json`); with `--metrics`, instead samples
/// the metric registry and dumps the time series to
/// `target/depfast-bench/fig3_metrics_<run>.csv`.
fn run_one(cfg: RunCfg, metrics: bool, run_name: &str) -> RunOutput {
    let out = run(&RunCfg {
        profile: !metrics,
        sample_every: metrics.then_some(Duration::from_millis(100)),
        ..cfg
    });
    if metrics {
        if let Ok(p) = write_metrics_csv("fig3", run_name, &out.sampler.to_csv()) {
            println!("[csv] {}", p.display());
        }
        if let Ok(p) = depfast_bench::write_metrics_json("fig3", run_name, &out.metrics.to_json()) {
            println!("[json] {}", p.display());
        }
    }
    out
}

/// The `--profile` mode: one short, fixed-seed, profiled DepFastRaft run
/// per cluster shape with a disk-slow follower minority, exporting
/// folded stacks + SVG flamegraphs. Deterministic: same seed ⇒
/// byte-identical files.
fn profile_mode() {
    let dir = repo_root().join("target/depfast-bench");
    std::fs::create_dir_all(&dir).expect("create output dir");
    for (n_servers, slow_followers) in [(3usize, 1usize), (5, 2)] {
        let cfg = RunCfg {
            kind: RaftKind::DepFast,
            shape: Shape::Single { servers: n_servers },
            clients: 32,
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(1),
            records: 10_000,
            profile: true,
            ..RunCfg::default()
        }
        .with_fault(
            1..=slow_followers as u32,
            FaultKind::DiskSlow { bw_factor: 0.008 },
        );
        eprintln!(
            "[fig3] profiled run ({n_servers} nodes, {slow_followers} disk-slow follower(s), seed {})...",
            cfg.seed
        );
        let run = run(&cfg);
        let profiler = run.profiler.expect("profiled run");
        let stem = format!("fig3_profile_{}", slug(&format!("{n_servers}_nodes")));
        let folded_path = dir.join(format!("{stem}.folded"));
        let svg_path = dir.join(format!("{stem}.svg"));
        std::fs::write(&folded_path, profiler.folded()).expect("write folded stacks");
        std::fs::write(&svg_path, profiler.svg()).expect("write SVG flamegraph");
        println!(
            "{n_servers} nodes  {:>6.0} req/s  [folded] {}  [svg] {}",
            run.stats.throughput,
            folded_path.display(),
            svg_path.display()
        );
    }
}

/// The `--incidents` mode: one incident-instrumented disk-slow episode
/// per cluster shape — onset at 2 s (after the detector's warm-up
/// windows), healed 1.2 s later — scored against the ground-truth fault
/// ledger. Prints each run's incident report and a scorecard table, and
/// writes the raw dumps to `target/depfast-bench/fig3_incidents.dump`
/// (replay with the `depfast-incident` binary). Deterministic: same seed
/// ⇒ byte-identical files.
fn incidents_mode() {
    let dir = repo_root().join("target/depfast-bench");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let dcfg = depfast_detect::DetectorCfg {
        min_samples: 4,
        ..depfast_detect::DetectorCfg::default()
    };
    let mut headers = vec!["Cluster"];
    headers.extend(depfast_incident::scorecard_headers());
    let mut table = Table::new(
        "Figure 3 incidents: DepFastRaft detector scorecard (disk-slow minority)",
        &headers,
    );
    let mut dumps = Vec::new();
    for (n_servers, slow_followers) in [(3usize, 1usize), (5, 2)] {
        let cfg = RunCfg {
            kind: RaftKind::DepFast,
            shape: Shape::Single { servers: n_servers },
            clients: 64,
            warmup: Duration::from_secs(2),
            measure: Duration::from_millis(3200),
            records: 10_000,
            faults: (1..=slow_followers as u32)
                .map(|node| Window {
                    node,
                    kind: FaultKind::DiskSlow { bw_factor: 0.008 },
                    at: Duration::from_secs(2),
                    duration: Some(Duration::from_millis(1200)),
                })
                .collect(),
            sample_every: Some(depfast_bench::experiment::INCIDENT_SAMPLE_EVERY),
            detector: Some(dcfg),
            ..RunCfg::default()
        };
        eprintln!(
            "[fig3] incident run ({n_servers} nodes, {slow_followers} disk-slow follower(s))..."
        );
        let dump = run(&cfg).incident_dump(&cfg, cfg.fault_name());
        let cell = depfast_incident::score(&dump, depfast_incident::RECOVERY_BAND);
        print!("{}", depfast_incident::render_report(&dump, &cell));
        let mut row = vec![format!("{n_servers} Nodes")];
        row.extend(depfast_incident::scorecard_cells(&cell));
        table.row(row);
        dumps.push(dump);
    }
    table.print();
    let path = dir.join("fig3_incidents.dump");
    std::fs::write(&path, depfast_incident::serialize_dumps(&dumps)).expect("write incident dumps");
    println!(
        "[incidents] {} (replay with `cargo run -p depfast-incident -- {}`)",
        path.display(),
        path.display()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--incidents") {
        incidents_mode();
        return;
    }
    if std::env::args().any(|a| a == "--profile") {
        profile_mode();
        return;
    }
    let metrics = std::env::args().any(|a| a == "--metrics");
    let measure = Duration::from_secs(env_u64("FIG3_MEASURE_SECS", 10));
    let clients = env_u64("FIG3_CLIENTS", 256) as usize;
    let mem_limit = depfast_bench::experiment::mem_contention_limit();
    let faults = FaultKind::table1(mem_limit);

    let mut table = Table::new(
        "Figure 3: DepFastRaft with a minority of fail-slow followers",
        &[
            "Cluster",
            "Condition",
            "Tput (req/s)",
            "Tput drift",
            "Avg (ms)",
            "Avg drift",
            "P99 (ms)",
            "P99 drift",
        ],
    );
    let mut worst_drift: f64 = 0.0;
    let mut suite = Suite::new("fig3", RunCfg::default().seed);
    suite.config("clients", clients as f64);
    suite.config("measure_secs", measure.as_secs_f64());

    for (n_servers, slow_followers) in [(3usize, 1usize), (5, 2)] {
        let base_cfg = RunCfg {
            kind: RaftKind::DepFast,
            shape: Shape::Single { servers: n_servers },
            clients,
            measure,
            ..RunCfg::default()
        };
        eprintln!("[fig3] {n_servers} nodes baseline...");
        let out = run_one(
            base_cfg.clone(),
            metrics,
            &format!("{n_servers}_nodes_no_slowness"),
        );
        let cluster = base_cfg.shape.label();
        suite.runs.push(RunRecord::from_stats(
            RaftKind::DepFast.name(),
            "none",
            &cluster,
            &out.stats,
            None,
            out.profiler.as_ref(),
        ));
        let base = out.stats;
        table.row(vec![
            format!("{n_servers} Nodes"),
            "No Slowness".into(),
            format!("{:.0}", base.throughput),
            "--".into(),
            format_ms(base.latency.mean),
            "--".into(),
            format_ms(base.latency.p99),
            "--".into(),
        ]);
        for fault in faults {
            eprintln!(
                "[fig3] {n_servers} nodes + {} on {slow_followers} follower(s)...",
                fault.name()
            );
            let out = run_one(
                base_cfg
                    .clone()
                    .with_fault(1..=slow_followers as u32, fault),
                metrics,
                &format!("{n_servers}_nodes_{}", fault.name()),
            );
            suite.runs.push(RunRecord::from_stats(
                RaftKind::DepFast.name(),
                fault.name(),
                &cluster,
                &out.stats,
                Some(base.throughput),
                out.profiler.as_ref(),
            ));
            let stats = out.stats;
            let drift = |v: f64, b: f64| (v - b) / b;
            let d_t = drift(stats.throughput, base.throughput);
            let d_a = drift(
                stats.latency.mean.as_secs_f64(),
                base.latency.mean.as_secs_f64(),
            );
            let d_p = drift(
                stats.latency.p99.as_secs_f64(),
                base.latency.p99.as_secs_f64(),
            );
            for d in [d_t.abs(), d_a.abs(), d_p.abs()] {
                worst_drift = worst_drift.max(d);
            }
            table.row(vec![
                format!("{n_servers} Nodes"),
                fault.name().to_string(),
                format!("{:.0}", stats.throughput),
                format!("{:+.1}%", d_t * 100.0),
                format_ms(stats.latency.mean),
                format!("{:+.1}%", d_a * 100.0),
                format_ms(stats.latency.p99),
                format!("{:+.1}%", d_p * 100.0),
            ]);
        }
    }
    table.print();
    if let Ok(p) = table.write_csv("fig3") {
        println!("[csv] {}", p.display());
    }
    match write_repo_artifact("BENCH_fig3.json", &suite.to_json()) {
        Ok(p) => println!("[bench-json] {}", p.display()),
        Err(e) => eprintln!("[fig3] cannot write BENCH_fig3.json: {e}"),
    }
    println!(
        "\nWorst absolute drift across all conditions and metrics: {:.1}% \
         (paper: within 5%; base performance ~5K req/s).",
        worst_drift * 100.0
    );
}
