//! `gate` — the regression gate over every fixed-seed suite.
//!
//! ```text
//! gate                        # run every suite, diff each against its committed baseline
//! gate --suite bench,detect   # only the named suites: bench | detect | scenarios
//! gate --write-baseline       # run the suites and (re)write their baselines
//! gate --current <file>       # diff a pre-recorded suite instead of running
//! gate --baseline <file>      # diff against a different baseline file
//! gate --out <file>           # where to write the fresh suite
//! gate --report               # also print incident reports and survival tables
//! ```
//!
//! | Suite | Cells | Baseline → fresh file |
//! |---|---|---|
//! | `bench` | [DepFastRaft, SyncRaft] × [healthy, disk-slow follower], profiled, plus one 8-group sharded cell | `BENCH_baseline.json` → `BENCH_gate.json` |
//! | `detect` | the same four cells incident-instrumented, plus the 8-group blast-radius split per driver | `BENCH_detect_baseline.json` → `BENCH_detect.json` |
//! | `scenarios` | 8 gray-failure scenarios × 5 drivers, plus the retry-storm pair | `BENCH_scenarios_baseline.json` → `BENCH_scenarios.json` |
//!
//! Every diff applies one [`Tolerance`] to whichever column groups
//! (`runs`, `detect`, `scenarios`) the baseline carries, so a doctored
//! suite fails the same way whichever `--suite` names it. `--current`,
//! `--baseline` and `--out` name one file, so they need exactly one
//! suite. Runs are deterministic: a diff only moves when code behavior
//! moves. Exit codes: 0 pass, 1 regression, 2 usage/IO error.
//!
//! Local shrink knobs for the scenario suite (CI runs it whole):
//! `SCEN_SCALE_SCENARIOS` and `SCEN_SCALE_DRIVERS` are comma-separated
//! allowlists filtering the catalog by scenario / driver name substring.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use depfast_bench::experiment::INCIDENT_SAMPLE_EVERY;
use depfast_bench::{
    compare, repo_root, run, DetectRecord, RunCfg, RunRecord, Shape, Suite, Tolerance, Window,
};
use depfast_detect::DetectorCfg;
use depfast_fault::FaultKind;
use depfast_incident::{render_report, score, IncidentDump, RECOVERY_BAND};
use depfast_raft::cluster::RaftKind;
use depfast_scenario::{
    all_drivers, catalog, matrix_cells, matrix_cfg, render_survival_report, storm_catalog, Cell,
    SurvivalCell, STALL_LIMIT, STORM_STALL_LIMIT,
};

/// One gated suite: its name, committed baseline, fresh-run output and
/// the fixed-seed runner producing it (the flag asks for reports).
struct GateSuite {
    name: &'static str,
    baseline: &'static str,
    fresh: &'static str,
    run: fn(bool) -> Result<Suite, String>,
}

const SUITES: [GateSuite; 3] = [
    GateSuite {
        name: "bench",
        baseline: "BENCH_baseline.json",
        fresh: "BENCH_gate.json",
        run: bench_suite,
    },
    GateSuite {
        name: "detect",
        baseline: "BENCH_detect_baseline.json",
        fresh: "BENCH_detect.json",
        run: detect_suite,
    },
    GateSuite {
        name: "scenarios",
        baseline: "BENCH_scenarios_baseline.json",
        fresh: "BENCH_scenarios.json",
        run: scenario_suite,
    },
];

const SEED: u64 = 20210531;

fn disk_slow() -> FaultKind {
    FaultKind::DiskSlow { bw_factor: 0.008 }
}

/// The perf suite: two drivers, healthy and disk-slow follower 2, with
/// wait-state site rollups in the JSON; plus 8 DepFastRaft groups striped
/// over 9 nodes, which guards the sharded routing and co-located group
/// scheduling path — its aggregate throughput moving is a scale-out
/// regression even when the single-group cells hold.
fn bench_suite(_report: bool) -> Result<Suite, String> {
    let mut suite = Suite::new("gate", SEED);
    suite.config("clients", 64.0);
    suite.config("warmup_ms", 600.0);
    suite.config("measure_secs", 2.0);
    suite.config("records", 10_000.0);
    let small = RunCfg {
        clients: 64,
        seed: SEED,
        warmup: Duration::from_millis(600),
        measure: Duration::from_secs(2),
        records: 10_000,
        ..RunCfg::default()
    };
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let cfg = RunCfg {
            kind,
            profile: true,
            ..small.clone()
        };
        eprintln!("[gate] bench: {} healthy...", kind.name());
        let base = run(&cfg);
        eprintln!("[gate] bench: {} + disk-slow follower...", kind.name());
        let slow = run(&cfg.with_fault([2], disk_slow()));
        let record = |stats, fault, base_tput, profiler| {
            RunRecord::from_stats(kind.name(), fault, "", stats, base_tput, profiler)
        };
        suite
            .runs
            .push(record(&base.stats, "none", None, base.profiler.as_ref()));
        suite.runs.push(record(
            &slow.stats,
            "disk_slow",
            Some(base.stats.throughput),
            slow.profiler.as_ref(),
        ));
    }
    suite.config("scale_groups", 8.0);
    suite.config("scale_nodes", 9.0);
    suite.config("scale_clients", 96.0);
    eprintln!("[gate] bench: DepFastRaft 8 groups / 9 nodes healthy...");
    let sharded = RunCfg {
        shape: Shape::Sharded {
            groups: 8,
            nodes: 9,
            group_size: 3,
        },
        clients: 96,
        ..small
    };
    suite.runs.push(RunRecord::from_stats(
        RaftKind::DepFast.name(),
        "none",
        &sharded.shape.label(),
        &run(&sharded).stats,
        None,
        None,
    ));
    Ok(suite)
}

/// The detection-quality suite: the perf suite's four single-group cells
/// incident-instrumented and scored against the ground-truth ledger, so a
/// detector that gets slower, cries wolf or blames the wrong node fails
/// CI even when throughput is fine. The fault lands after the detector's
/// warm-up windows (5 × 200 ms of polling need healthy traffic first) and
/// heals before the run ends, so time-to-recover is observable.
///
/// The blast-radius cells put 8 groups of 3 over 9 nodes, so node 8 sits
/// under exactly two groups (g7, g8 — as a follower in both); one
/// disk-slow episode there yields eight per-group scorecards. The hosted
/// groups must keep detecting the fault inside their replica set and the
/// other six must stay all-zero.
fn detect_suite(report: bool) -> Result<Suite, String> {
    let mut suite = Suite::new("detect", SEED);
    suite.config("clients", 64.0);
    suite.config("warmup_secs", 2.0);
    suite.config("measure_secs", 3.2);
    suite.config("records", 10_000.0);
    suite.config("fault_at_secs", 2.0);
    suite.config("fault_duration_secs", 1.2);
    suite.config("recovery_band", RECOVERY_BAND);
    let cfg = |kind, shape, node: Option<u32>| RunCfg {
        kind,
        shape,
        clients: 64,
        seed: SEED,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(3200),
        records: 10_000,
        faults: node
            .map(|node| Window {
                node,
                kind: disk_slow(),
                at: Duration::from_secs(2),
                duration: Some(Duration::from_millis(1200)),
            })
            .into_iter()
            .collect(),
        sample_every: Some(INCIDENT_SAMPLE_EVERY),
        // A lowered per-window sample floor: a SyncRaft leader coupled to
        // a 125×-slow disk completes so few appends per 200 ms window that
        // the default floor of 10 starves the detector and the fault goes
        // unnoticed — itself the paper's point, but it makes the
        // DepFast-vs-Sync time-to-detect comparison degenerate. Four
        // completions per window still reject scheduler noise at a 3×
        // threshold.
        detector: Some(DetectorCfg {
            min_samples: 4,
            ..DetectorCfg::default()
        }),
        ..RunCfg::default()
    };
    let mut push = |dump: &IncidentDump| {
        let cell = score(dump, RECOVERY_BAND);
        if report {
            eprint!("{}", render_report(dump, &cell));
        }
        suite.detect.push(DetectRecord::from_dump(dump, &cell));
    };
    let single = Shape::Single { servers: 3 };
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        for node in [None, Some(2)] {
            let cfg = cfg(kind, single, node);
            eprintln!("[gate] detect: {} / {}...", kind.name(), cfg.fault_name());
            push(&run(&cfg).incident_dump(&cfg, cfg.fault_name()));
        }
    }
    let blast = Shape::Sharded {
        groups: 8,
        nodes: 9,
        group_size: 3,
    };
    for kind in [RaftKind::DepFast, RaftKind::Sync] {
        let cfg = cfg(kind, blast, Some(8));
        eprintln!(
            "[gate] detect: {} / blast radius (8 groups, disk-slow node 8)...",
            kind.name()
        );
        for dump in run(&cfg).group_dumps(&cfg, cfg.fault_name()) {
            push(&dump);
        }
    }
    suite.config("blast_groups", 8.0);
    suite.config("blast_nodes", 9.0);
    suite.config("blast_fault_node", 8.0);
    Ok(suite)
}

fn env_filter(var: &str) -> Option<Vec<String>> {
    std::env::var(var).ok().map(|v| {
        v.split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    })
}

fn allowed(allow: &Option<Vec<String>>, name: &str) -> bool {
    allow
        .as_ref()
        .is_none_or(|a| a.iter().any(|a| name.contains(a.as_str())))
}

/// The gray-failure survival suite: the fixed scenario catalog against
/// all five Raft drivers, then the retry-storm ablation cells (DepFast
/// only, storm-tuned stall limit, goodput-based survival). The scenario
/// filter applies to the storm cells too.
fn scenario_suite(report: bool) -> Result<Suite, String> {
    let scenarios = env_filter("SCEN_SCALE_SCENARIOS");
    let drivers = env_filter("SCEN_SCALE_DRIVERS");
    let cells = matrix_cells(
        &catalog()
            .into_iter()
            .filter(|s| allowed(&scenarios, &s.name))
            .collect::<Vec<_>>(),
        &all_drivers()
            .into_iter()
            .filter(|k| allowed(&drivers, k.name()))
            .collect::<Vec<_>>(),
    )
    .map_err(|e| format!("scenario failed to compile: {e}"))?;
    let mut storms = storm_catalog();
    storms.retain(|c| allowed(&scenarios, &c.scenario));
    if scenarios.is_some() || drivers.is_some() {
        eprintln!(
            "[gate] scenarios: filtered to {} matrix + {} storm cell(s)",
            cells.len(),
            storms.len()
        );
    }
    let matrix = survive(&cells);
    let storm = survive(&storms);
    let base = matrix_cfg();
    if report {
        print!("{}", render_survival_report(&matrix, base.seed));
        if !storm.is_empty() {
            print!("{}", render_survival_report(&storm, base.seed));
        }
    }
    let mut suite = Suite::new("scenarios", base.seed);
    suite.config("n_servers", base.shape.server_nodes() as f64);
    suite.config("clients", base.clients as f64);
    suite.config("warmup_secs", base.warmup.as_secs_f64());
    suite.config("measure_secs", base.measure.as_secs_f64());
    suite.config("records", base.records as f64);
    suite.config("stall_limit_secs", STALL_LIMIT.as_secs_f64());
    suite.config("recovery_band", RECOVERY_BAND);
    suite.config("storm_stall_limit_secs", STORM_STALL_LIMIT.as_secs_f64());
    suite.scenarios = matrix
        .iter()
        .chain(&storm)
        .map(SurvivalCell::record)
        .collect();
    Ok(suite)
}

/// Runs the cells in order, printing each verdict as it lands.
fn survive(cells: &[Cell]) -> Vec<SurvivalCell> {
    cells
        .iter()
        .map(|c| {
            let cell = c.survive();
            eprintln!(
                "[gate] scenarios: {} / {}: {} ({:.0} op/s, floor {:.0}{})",
                cell.scenario,
                cell.driver,
                verdict(&cell),
                cell.throughput,
                cell.floor,
                cell.amp.map_or_else(String::new, |amp| format!(
                    ", amp {amp:.1}, storm {}",
                    if cell.score.storm_sustained {
                        "SUSTAINED"
                    } else {
                        "dissolved"
                    }
                )),
            );
            cell
        })
        .collect()
}

fn verdict(cell: &SurvivalCell) -> &'static str {
    if cell.crashed {
        "CRASH"
    } else if cell.live {
        "live"
    } else {
        "STALLED"
    }
}

fn print_cells(suite: &Suite) {
    let opt = |v: Option<f64>| v.map_or_else(|| "      -".to_string(), |m| format!("{m:>7.1}"));
    for r in &suite.runs {
        println!(
            "  {:<55} {:>7.0} req/s  p99 {:>7.2} ms  drift {:.2}",
            r.key(),
            r.throughput,
            r.p99_ms,
            r.drift
        );
    }
    for r in &suite.detect {
        let d = &r.detection;
        println!(
            "  {:<55} detected={:<5} ttd{} ms  ttm{} ms  ttr{} ms  fp={} fn={} misattr={}",
            r.key(),
            d.detected,
            opt(d.ttd_ms),
            opt(d.ttm_ms),
            opt(d.ttr_ms),
            d.false_positives,
            d.false_negatives,
            d.misattributions
        );
    }
    for r in &suite.scenarios {
        let d = &r.detection;
        let storm = match r.storm_sustained {
            Some(true) => format!("  storm=SUSTAINED amp={:.1}", r.amp.unwrap_or(0.0)),
            Some(false) => format!(
                "  storm=dissolved tts{} ms amp={:.1}",
                opt(r.tts_ms),
                r.amp.unwrap_or(0.0)
            ),
            None => String::new(),
        };
        println!(
            "  {:<55} live={:<5} tput={:>6.0} floor={:>6.0} detected={:<5} ttd{} ms  fp={} fn={} misattr={}{}",
            r.key(),
            r.live,
            r.throughput,
            r.floor,
            d.detected,
            opt(d.ttd_ms),
            d.false_positives,
            d.false_negatives,
            d.misattributions,
            storm
        );
    }
}

fn load_suite(path: &Path) -> Result<Suite, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Suite::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Gates one suite: `Ok(true)` pass, `Ok(false)` regression, `Err` a
/// usage or IO problem.
fn gate(s: &GateSuite, args: &[String]) -> Result<bool, String> {
    let root = repo_root();
    let baseline_path =
        arg_value(args, "--baseline").map_or_else(|| root.join(s.baseline), PathBuf::from);
    let report = args.iter().any(|a| a == "--report");
    if args.iter().any(|a| a == "--write-baseline") {
        let suite = (s.run)(report)?;
        std::fs::write(&baseline_path, suite.to_json())
            .map_err(|e| format!("cannot write {}: {e}", baseline_path.display()))?;
        println!(
            "[gate] {} baseline written to {}",
            s.name,
            baseline_path.display()
        );
        print_cells(&suite);
        return Ok(true);
    }
    let current = match arg_value(args, "--current") {
        Some(path) => load_suite(Path::new(&path))?,
        None => {
            let suite = (s.run)(report)?;
            let out = arg_value(args, "--out").map_or_else(|| root.join(s.fresh), PathBuf::from);
            match std::fs::write(&out, suite.to_json()) {
                Ok(()) => println!("[gate] fresh {} suite written to {}", s.name, out.display()),
                Err(e) => eprintln!("gate: cannot write {}: {e} (continuing)", out.display()),
            }
            suite
        }
    };
    let baseline = load_suite(&baseline_path).map_err(|e| {
        format!(
            "{e}\nhint: commit one with `cargo run --release -p depfast-scenario --bin gate -- --suite {} --write-baseline`",
            s.name
        )
    })?;
    let tol = Tolerance::default();
    let outcome = compare(&baseline, &current, &tol);
    println!(
        "[gate] {}: {} cell(s) checked against {} (tolerance: {tol})",
        s.name,
        outcome.checked,
        baseline_path.display()
    );
    print_cells(&current);
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    if outcome.passed() {
        println!("[gate] {} PASS", s.name);
    } else {
        for failure in &outcome.failures {
            println!("  FAIL: {failure}");
        }
        println!(
            "[gate] {} FAIL ({} regression(s))",
            s.name,
            outcome.failures.len()
        );
    }
    Ok(outcome.passed())
}

const USAGE: &str = "usage: gate [--suite bench,detect,scenarios] [--write-baseline] \
                     [--current <file>] [--baseline <file>] [--out <file>] [--report]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let names = arg_value(&args, "--suite").unwrap_or_else(|| "bench,detect,scenarios".into());
    let mut selected = Vec::new();
    for name in names.split(',').map(str::trim) {
        match SUITES.iter().find(|s| s.name == name) {
            Some(s) => selected.push(s),
            None => {
                eprintln!("gate: unknown suite {name:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let per_file = ["--current", "--baseline", "--out"];
    if selected.len() > 1 && args.iter().any(|a| per_file.contains(&a.as_str())) {
        eprintln!("gate: --current, --baseline and --out name one file; pick one --suite\n{USAGE}");
        return ExitCode::from(2);
    }
    let (mut failed, mut errored) = (false, false);
    for s in selected {
        match gate(s, &args) {
            Ok(passed) => failed |= !passed,
            Err(e) => {
                eprintln!("gate: {e}");
                errored = true;
            }
        }
    }
    if errored {
        ExitCode::from(2)
    } else if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
