//! **Figure 1** — performance of three legacy-style RSM implementations
//! with one fail-slow follower, 3-node deployments.
//!
//! Paper methodology (§2.1–2.2): YCSB update workload over 500 K records,
//! high client concurrency, one follower afflicted with each of Table 1's
//! six faults; report throughput, average latency and P99 *normalized to
//! each system's own no-fault baseline*.
//!
//! Expected shape (paper §2.2): up to 17–41% throughput loss, 21–50%
//! average-latency inflation, 1.6–3.46× P99 inflation across the three
//! systems — and the RethinkDB-style system's leader *crashes* under CPU
//! faults (reported as CRASH below).
//!
//! Environment knobs: `FIG1_MEASURE_SECS` (default 10),
//! `FIG1_CLIENTS` (default 256); for the multi-Raft sections,
//! `FIG1_SCALE_CLIENTS` (default 1024) and `FIG1_SCALE_MEASURE_SECS`
//! (default 4).
//!
//! Pass `--metrics` (`cargo bench -p depfast-bench --bench fig1 --
//! --metrics`) to additionally sample every run's metric registry on a
//! 100 ms virtual-clock grid and write one long-format CSV per
//! (system, condition) under `target/depfast-bench/` — the per-layer
//! series (`sim.*`, `rpc.*`, `event.*`, `raft.*`) that let an operator
//! attribute a collapse to a fault class and name the slow follower
//! without touching the workload numbers. See `docs/OBSERVABILITY.md`.
//!
//! Pass `--chrome-trace <path>` (and/or `--trace-out <path>`) to instead
//! run ONE short fully-traced DepFastRaft experiment with a disk-slow
//! follower and write the request span trees as Chrome `trace_event`
//! JSON (load in Perfetto) / as a raw record dump for the
//! `depfast-trace` binary. Deterministic: same seed, byte-identical
//! files.
//!
//! Pass `--incidents` to run each legacy system (plus DepFastRaft for
//! contrast) through one incident-instrumented disk-slow episode:
//! ground-truth fault ledger vs health-event timeline, per-run incident
//! reports, a detector scorecard table, a `fig1_incidents.dump` replayable
//! with the `depfast-incident` binary, and one Chrome export with the
//! incident track. See `docs/OBSERVABILITY.md`.

use std::time::Duration;

use depfast_bench::baseline::{RunRecord, Suite};
use depfast_bench::experiment::bench_raft_cfg;
use depfast_bench::{
    format_ms, repo_root, run, slug, write_metrics_csv, write_repo_artifact, RunCfg, RunOutput,
    Shape, Table, Window,
};
use depfast_fault::FaultKind;
use depfast_raft::cluster::RaftKind;
use depfast_trace_analysis as trace_analysis;
use simkit::NodeId;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs one experiment with the wait-state profiler attached (its site
/// rollup lands in `BENCH_fig1.json`); with `--metrics`, instead samples
/// the metric registry and dumps the time series to
/// `target/depfast-bench/fig1_metrics_<run>.csv`.
fn run_one(cfg: RunCfg, metrics: bool, run_name: &str) -> RunOutput {
    let out = run(&RunCfg {
        profile: !metrics,
        sample_every: metrics.then_some(Duration::from_millis(100)),
        ..cfg
    });
    if metrics {
        if let Ok(p) = write_metrics_csv("fig1", run_name, &out.sampler.to_csv()) {
            println!("[csv] {}", p.display());
        }
        if let Ok(p) = depfast_bench::write_metrics_json("fig1", run_name, &out.metrics.to_json()) {
            println!("[json] {}", p.display());
        }
    }
    out
}

/// `--flag <value>` extraction from the bench's raw argv.
fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The `--chrome-trace` / `--trace-out` mode: one short, fully-traced,
/// fixed-seed DepFastRaft run with a disk-slow follower (node 2).
fn trace_export(chrome: Option<String>, raw: Option<String>) {
    let cfg = RunCfg {
        kind: RaftKind::DepFast,
        clients: 32,
        warmup: Duration::from_millis(500),
        measure: Duration::from_secs(1),
        records: 10_000,
        trace: true,
        ..RunCfg::default()
    }
    .with_fault([2], FaultKind::DiskSlow { bw_factor: 0.008 });
    eprintln!(
        "[fig1] traced run (DepFastRaft, disk-slow follower 2, seed {})...",
        cfg.seed
    );
    let run = run(&cfg);
    eprintln!(
        "[fig1] {} records, {:.0} req/s over the traced window",
        run.trace.len(),
        run.stats.throughput
    );
    if run.trace_dropped > 0 {
        eprintln!(
            "[fig1] WARNING: trace ring buffer dropped {} record(s); blame shares \
             below are computed from a truncated stream",
            run.trace_dropped
        );
    }
    let index = trace_analysis::TraceIndex::build(&run.trace);
    print!("{}", trace_analysis::blame_report(&index).table(12));
    if let Some(path) = chrome {
        std::fs::write(&path, trace_analysis::chrome_trace(&index)).expect("write chrome trace");
        println!("[chrome-trace] {path} (open in Perfetto or chrome://tracing)");
    }
    if let Some(path) = raw {
        std::fs::write(
            &path,
            trace_analysis::serialize_dump(&run.trace, run.trace_dropped),
        )
        .expect("write raw trace");
        println!("[trace-out] {path} (analyze with `cargo run -p depfast-bench --bin depfast-trace -- {path}`)");
    }
}

/// The `--incidents` mode: one incident-instrumented disk-slow episode
/// per system — fault onset at 2 s (after the detector's warm-up
/// windows), healed 1.2 s later — scored against the ground-truth fault
/// ledger. Prints each run's incident report and a scorecard table,
/// writes the raw dumps to `target/depfast-bench/fig1_incidents.dump`
/// (replay with the `depfast-incident` binary) and the DepFastRaft
/// episode's incident track as Chrome `trace_event` JSON. Deterministic:
/// same seed ⇒ byte-identical files.
fn incidents_mode() {
    let dir = repo_root().join("target/depfast-bench");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let dcfg = depfast_detect::DetectorCfg {
        min_samples: 4,
        ..depfast_detect::DetectorCfg::default()
    };
    let mut table = Table::new(
        "Figure 1 incidents: detector scorecard (disk-slow follower 2)",
        &[
            "System", "Detected", "TTD (ms)", "TTM (ms)", "TTR (ms)", "FP", "FN", "Misattr",
        ],
    );
    let mut dumps = Vec::new();
    let mut chrome: Option<String> = None;
    for kind in [
        RaftKind::DepFast,
        RaftKind::Sync,
        RaftKind::Backlog,
        RaftKind::Callback,
    ] {
        let cfg = RunCfg {
            kind,
            clients: 64,
            warmup: Duration::from_secs(2),
            measure: Duration::from_millis(3200),
            records: 10_000,
            faults: vec![Window {
                node: 2,
                kind: FaultKind::DiskSlow { bw_factor: 0.008 },
                at: Duration::from_secs(2),
                duration: Some(Duration::from_millis(1200)),
            }],
            sample_every: Some(depfast_bench::experiment::INCIDENT_SAMPLE_EVERY),
            detector: Some(dcfg),
            ..RunCfg::default()
        };
        eprintln!(
            "[fig1] incident run ({}, disk-slow follower 2)...",
            kind.name()
        );
        let dump = run(&cfg).incident_dump(&cfg, cfg.fault_name());
        let cell = depfast_incident::score(&dump, depfast_incident::RECOVERY_BAND);
        print!("{}", depfast_incident::render_report(&dump, &cell));
        let ms = |v: Option<u64>| {
            v.map_or_else(|| "-".to_string(), |ns| format!("{:.1}", ns as f64 / 1e6))
        };
        table.row(vec![
            kind.name().to_string(),
            cell.detected.to_string(),
            ms(cell.ttd_ns),
            ms(cell.ttm_ns),
            ms(cell.ttr_ns),
            cell.false_positives.to_string(),
            cell.false_negatives.to_string(),
            cell.misattributions.to_string(),
        ]);
        if kind == RaftKind::DepFast {
            let (spans, marks) = depfast_incident::incident_track(&dump);
            let index = trace_analysis::TraceIndex::build(&[]);
            let path = dir.join("fig1_incidents_trace.json");
            std::fs::write(
                &path,
                trace_analysis::chrome_trace_with_incidents(&index, &spans, &marks),
            )
            .expect("write chrome incident trace");
            chrome = Some(path.display().to_string());
        }
        dumps.push(dump);
    }
    table.print();
    let path = dir.join("fig1_incidents.dump");
    std::fs::write(&path, depfast_incident::serialize_dumps(&dumps)).expect("write incident dumps");
    println!(
        "[incidents] {} (replay with `cargo run -p depfast-incident -- {}`)",
        path.display(),
        path.display()
    );
    if let Some(chrome) = chrome {
        println!("[chrome-incidents] {chrome} (open in Perfetto or chrome://tracing)");
    }
}

/// The `--profile` mode: one short, fixed-seed, profiled run per system
/// with a disk-slow follower (node 2), exporting folded stacks + SVG
/// flamegraphs. Deterministic: same seed ⇒ byte-identical files.
fn profile_mode() {
    let dir = repo_root().join("target/depfast-bench");
    std::fs::create_dir_all(&dir).expect("create output dir");
    for kind in [
        RaftKind::DepFast,
        RaftKind::Sync,
        RaftKind::Backlog,
        RaftKind::Callback,
    ] {
        let cfg = RunCfg {
            kind,
            clients: 32,
            warmup: Duration::from_millis(500),
            measure: Duration::from_secs(1),
            records: 10_000,
            profile: true,
            ..RunCfg::default()
        }
        .with_fault([2], FaultKind::DiskSlow { bw_factor: 0.008 });
        eprintln!(
            "[fig1] profiled run ({}, disk-slow follower 2, seed {})...",
            kind.name(),
            cfg.seed
        );
        let run = run(&cfg);
        let profiler = run.profiler.expect("profiled run");
        let stem = format!("fig1_profile_{}", slug(kind.name()));
        let folded_path = dir.join(format!("{stem}.folded"));
        let svg_path = dir.join(format!("{stem}.svg"));
        std::fs::write(&folded_path, profiler.folded()).expect("write folded stacks");
        std::fs::write(&svg_path, profiler.svg()).expect("write SVG flamegraph");
        println!(
            "{:<28} {:>6.0} req/s  node-2 disk share {:>5.1}%  [folded] {}  [svg] {}",
            kind.name(),
            run.stats.throughput,
            profiler.node_site_share(NodeId(2), "disk") * 100.0,
            folded_path.display(),
            svg_path.display()
        );
    }
}

fn main() {
    let chrome = arg_value("--chrome-trace");
    let raw = arg_value("--trace-out");
    if chrome.is_some() || raw.is_some() {
        trace_export(chrome, raw);
        return;
    }
    if std::env::args().any(|a| a == "--incidents") {
        incidents_mode();
        return;
    }
    if std::env::args().any(|a| a == "--profile") {
        profile_mode();
        return;
    }
    let metrics = std::env::args().any(|a| a == "--metrics");
    let measure = Duration::from_secs(env_u64("FIG1_MEASURE_SECS", 10));
    let clients = env_u64("FIG1_CLIENTS", 256) as usize;
    let systems = [RaftKind::Sync, RaftKind::Backlog, RaftKind::Callback];
    let mem_limit = depfast_bench::experiment::mem_contention_limit();
    let faults = FaultKind::table1(mem_limit);
    let mut suite = Suite::new("fig1", RunCfg::default().seed);
    suite.config("clients", clients as f64);
    suite.config("measure_secs", measure.as_secs_f64());

    let mut tput = Table::new(
        "Figure 1a: normalized throughput (legacy RSMs, one fail-slow follower)",
        &["System", "Condition", "Tput (req/s)", "Normalized"],
    );
    let mut avg = Table::new(
        "Figure 1b: normalized average latency",
        &["System", "Condition", "Avg (ms)", "Normalized"],
    );
    let mut p99 = Table::new(
        "Figure 1c: normalized P99 latency",
        &["System", "Condition", "P99 (ms)", "Normalized"],
    );

    for kind in systems {
        let base_cfg = RunCfg {
            kind,
            clients,
            measure,
            ..RunCfg::default()
        };
        eprintln!("[fig1] {} baseline...", kind.name());
        let out = run_one(
            base_cfg.clone(),
            metrics,
            &format!("{}_no_slowness", kind.name()),
        );
        suite.runs.push(RunRecord::from_stats(
            kind.name(),
            "none",
            "",
            &out.stats,
            None,
            out.profiler.as_ref(),
        ));
        let base = out.stats;
        let rows = |t: &mut Table, cond: &str, value: String, norm: String| {
            t.row(vec![kind.name().to_string(), cond.to_string(), value, norm]);
        };
        rows(
            &mut tput,
            "No Slowness",
            format!("{:.0}", base.throughput),
            "1.00".into(),
        );
        rows(
            &mut avg,
            "No Slowness",
            format_ms(base.latency.mean),
            "1.00".into(),
        );
        rows(
            &mut p99,
            "No Slowness",
            format_ms(base.latency.p99),
            "1.00".into(),
        );
        for fault in faults {
            eprintln!("[fig1] {} + {}...", kind.name(), fault.name());
            let out = run_one(
                base_cfg.clone().with_fault([1], fault),
                metrics,
                &format!("{}_{}", kind.name(), fault.name()),
            );
            suite.runs.push(RunRecord::from_stats(
                kind.name(),
                fault.name(),
                "",
                &out.stats,
                Some(base.throughput),
                out.profiler.as_ref(),
            ));
            let stats = out.stats;
            if stats.server_crashed {
                for t in [&mut tput, &mut avg, &mut p99] {
                    t.row(vec![
                        kind.name().to_string(),
                        fault.name().to_string(),
                        "CRASH".into(),
                        "CRASH".into(),
                    ]);
                }
                continue;
            }
            rows(
                &mut tput,
                fault.name(),
                format!("{:.0}", stats.throughput),
                format!("{:.2}", stats.throughput / base.throughput),
            );
            rows(
                &mut avg,
                fault.name(),
                format_ms(stats.latency.mean),
                format!(
                    "{:.2}",
                    stats.latency.mean.as_secs_f64() / base.latency.mean.as_secs_f64()
                ),
            );
            rows(
                &mut p99,
                fault.name(),
                format_ms(stats.latency.p99),
                format!(
                    "{:.2}",
                    stats.latency.p99.as_secs_f64() / base.latency.p99.as_secs_f64()
                ),
            );
        }
    }
    // Figure 1d (repro extension): the DepFastRaft leader's group commit +
    // pipelined replication as a step function of client concurrency.
    // Three leader configurations over rising client counts:
    //   unbatched      — batch_max 1, pipeline depth 1 (one entry, one
    //                    round, strictly serialized: the naive leader)
    //   group-commit   — calibrated batch_max, depth 1 (PR-6's batching
    //                    without pipelining)
    //   batched+pipelined — the shipping defaults (batch + depth-4
    //                    pipeline + per-follower append window)
    // The gain is a step function: at low concurrency all three track each
    // other; at high concurrency the unbatched leader collapses to
    // ~1/round-trip while the batched ones hold the apply-loop ceiling.
    let mut step = Table::new(
        "Figure 1d: DepFastRaft batching/pipelining vs client count (healthy)",
        &["Config", "Clients", "Tput (req/s)", "P99 (ms)"],
    );
    let configs: [(&str, Option<usize>, Option<usize>); 3] = [
        ("unbatched", Some(1), Some(1)),
        ("group-commit", None, Some(1)),
        ("batched+pipelined", None, None),
    ];
    for (label, batch_max, pipeline_depth) in configs {
        for n_clients in [64usize, 256, 512] {
            eprintln!("[fig1] DepFastRaft {label} @ {n_clients} clients...");
            let mut raft = bench_raft_cfg();
            raft.batch_max = batch_max.unwrap_or(raft.batch_max);
            raft.pipeline_depth = pipeline_depth.unwrap_or(raft.pipeline_depth);
            let cfg = RunCfg {
                kind: RaftKind::DepFast,
                clients: n_clients,
                measure,
                raft,
                ..RunCfg::default()
            };
            let out = run_one(cfg, metrics, &format!("DepFastRaft_{label}_{n_clients}c"));
            suite.runs.push(RunRecord::from_stats(
                "DepFastRaft",
                "none",
                &format!("{label}/{n_clients}c"),
                &out.stats,
                None,
                out.profiler.as_ref(),
            ));
            let stats = out.stats;
            step.row(vec![
                label.to_string(),
                n_clients.to_string(),
                format!("{:.0}", stats.throughput),
                format_ms(stats.latency.p99),
            ]);
        }
    }

    // Figure 1e (repro extension): multi-Raft scale-out. Fixed client
    // population, fixed 12 server nodes, rising group count with the
    // keyspace hash-partitioned across groups — aggregate throughput
    // grows as leaders (and apply/serve work) spread over the fleet.
    // Each cell's `drift` is its speedup over the 1-group cell.
    let scale_clients = env_u64("FIG1_SCALE_CLIENTS", 1024) as usize;
    let scale_measure = Duration::from_secs(env_u64("FIG1_SCALE_MEASURE_SECS", 4));
    suite.config("scale_clients", scale_clients as f64);
    suite.config("scale_measure_secs", scale_measure.as_secs_f64());
    let mut scale = Table::new(
        "Figure 1e: multi-Raft scale-out (DepFastRaft, 12 nodes, fixed clients)",
        &["Groups", "Tput (req/s)", "Speedup", "P99 (ms)"],
    );
    let mut one_group: Option<f64> = None;
    for n_groups in [1usize, 4, 16, 64] {
        eprintln!("[fig1] DepFastRaft scale-out @ {n_groups} group(s)...");
        let cfg = RunCfg {
            kind: RaftKind::DepFast,
            shape: Shape::Sharded {
                groups: n_groups,
                nodes: 12,
                group_size: 3,
            },
            clients: scale_clients,
            measure: scale_measure,
            ..RunCfg::default()
        };
        let stats = run(&cfg).stats;
        let base = *one_group.get_or_insert(stats.throughput);
        suite.runs.push(RunRecord::from_stats(
            RaftKind::DepFast.name(),
            "none",
            &cfg.shape.label(),
            &stats,
            Some(base),
            None,
        ));
        scale.row(vec![
            n_groups.to_string(),
            format!("{:.0}", stats.throughput),
            format!("{:.2}x", stats.throughput / base),
            format_ms(stats.latency.p99),
        ]);
    }

    // Figure 1f (repro extension): fleet-scale blast radius. 8 groups of
    // 3 striped over 9 nodes put node 8 under exactly two groups (g7 and
    // g8, as a follower in both); a disk-slow fault there should touch
    // nothing else. Per-group P99 is normalized to the same group's
    // healthy run; the per-group incident scorecard shows which groups
    // detected a fault inside their own replica set.
    let mut blast = Table::new(
        "Figure 1f: blast radius (8 groups / 9 nodes, disk-slow node 8)",
        &[
            "System",
            "Group",
            "Hosted",
            "Tput (req/s)",
            "P99 vs healthy",
            "Detected",
            "TTD (ms)",
        ],
    );
    let blast_fault = FaultKind::DiskSlow { bw_factor: 0.008 };
    let dcfg = depfast_detect::DetectorCfg {
        min_samples: 4,
        ..depfast_detect::DetectorCfg::default()
    };
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let base_cfg = RunCfg {
            kind,
            shape: Shape::Sharded {
                groups: 8,
                nodes: 9,
                group_size: 3,
            },
            clients: scale_clients.min(256),
            measure: scale_measure,
            ..RunCfg::default()
        };
        eprintln!("[fig1] {} blast-radius baseline...", kind.name());
        let healthy = run(&base_cfg);
        eprintln!("[fig1] {} blast-radius episode...", kind.name());
        let episode_cfg = RunCfg {
            faults: vec![Window {
                node: 8,
                kind: blast_fault,
                at: Duration::from_secs(2),
                duration: None,
            }],
            sample_every: Some(depfast_bench::experiment::INCIDENT_SAMPLE_EVERY),
            detector: Some(dcfg),
            ..base_cfg
        };
        let episode = run(&episode_cfg);
        let dumps = episode.group_dumps(&episode_cfg, blast_fault.name());
        for (h, f) in healthy.groups.iter().zip(&episode.groups) {
            let dump = &dumps[(h.gid - 1) as usize];
            let cell = depfast_incident::score(dump, depfast_incident::RECOVERY_BAND);
            suite.runs.push(RunRecord::from_stats(
                kind.name(),
                blast_fault.name(),
                &dump.cluster,
                &episode.group_stats(f.gid),
                Some(h.throughput),
                None,
            ));
            blast.row(vec![
                kind.name().to_string(),
                format!("g{}", h.gid),
                if dump.faults.is_empty() { "" } else { "yes" }.to_string(),
                format!("{:.0}", f.throughput),
                format!(
                    "{:.2}x",
                    f.latency.p99.as_secs_f64() / h.latency.p99.as_secs_f64()
                ),
                if dump.faults.is_empty() {
                    "n/a".to_string()
                } else {
                    cell.detected.to_string()
                },
                cell.ttd_ns
                    .map_or_else(|| "-".to_string(), |ns| format!("{:.1}", ns as f64 / 1e6)),
            ]);
        }
    }

    tput.print();
    avg.print();
    p99.print();
    step.print();
    scale.print();
    blast.print();
    for (t, name) in [(&scale, "fig1e_scale_out"), (&blast, "fig1f_blast_radius")] {
        if let Ok(p) = t.write_csv(name) {
            println!("[csv] {}", p.display());
        }
    }
    if let Ok(p) = step.write_csv("fig1d_batching") {
        println!("[csv] {}", p.display());
    }
    for (t, name) in [
        (&tput, "fig1a_throughput"),
        (&avg, "fig1b_avg_latency"),
        (&p99, "fig1c_p99_latency"),
    ] {
        if let Ok(p) = t.write_csv(name) {
            println!("[csv] {}", p.display());
        }
    }
    match write_repo_artifact("BENCH_fig1.json", &suite.to_json()) {
        Ok(p) => println!("[bench-json] {}", p.display()),
        Err(e) => eprintln!("[fig1] cannot write BENCH_fig1.json: {e}"),
    }
    println!(
        "\nPaper reference (Fig 1 / §2.2): throughput drops up to 17-41%, avg latency +21-50%, \
         P99 x1.6-3.46; RethinkDB's leader crashed under CPU faults."
    );
}
