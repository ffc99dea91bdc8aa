//! Machine-readable perf baselines and the regression comparison.
//!
//! Every bench emitter rolls its runs into a [`Suite`] — one record per
//! (driver, fault, cluster) cell with throughput, latency quantiles,
//! normalized drift and the wait-state profiler's site rollup — and
//! writes it as `BENCH_<suite>.json` at the repo root via
//! [`crate::write_repo_artifact`]. The `gate` binary (in
//! `depfast-scenario`, which sees every suite) re-runs the fixed-seed
//! gate suites and [`compare`]s each against its committed baseline under
//! one set of [`Tolerance`] bands, exiting nonzero on regression; CI runs
//! that on every push.
//!
//! Simulated time is deterministic, so the numbers only move when the
//! code's behavior moves — the tolerance bands exist for intentional
//! drift (tuning, new instrumentation on the simulated CPU), not for
//! noise.

use crate::json::Json;
use depfast_profile::Profiler;
use depfast_ycsb::driver::RunStats;

/// Format marker embedded in every artifact.
pub const SCHEMA: &str = "depfast-bench/v1";

/// One (driver, fault, cluster) measurement cell.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Fault-class name, `"none"` for the healthy baseline.
    pub fault: String,
    /// Cluster shape discriminator (e.g. `"3_nodes"`); empty when the
    /// suite has only one shape.
    pub cluster: String,
    /// Committed operations in the measurement window.
    pub ops: u64,
    /// Requests per second.
    pub throughput: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Whether a server crashed during the run (RethinkDB-style leaders
    /// do, under CPU faults).
    pub crashed: bool,
    /// Throughput normalized to the same driver+cluster healthy run
    /// (1.0 for the baseline itself).
    pub drift: f64,
    /// Wait-state profiler rollup: total nanoseconds per site, summed
    /// across nodes and phases. Empty when the run was not profiled.
    pub profile: Vec<(String, u64)>,
}

impl RunRecord {
    /// Builds a record from workload statistics. `base_throughput` is the
    /// same driver+cluster healthy-run throughput (drift denominator).
    pub fn from_stats(
        driver: &str,
        fault: &str,
        cluster: &str,
        stats: &RunStats,
        base_throughput: Option<f64>,
        profiler: Option<&Profiler>,
    ) -> RunRecord {
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        let mut profile = std::collections::BTreeMap::<String, u64>::new();
        if let Some(p) = profiler {
            for line in p.lines() {
                *profile.entry(line.site).or_insert(0) += line.nanos;
            }
        }
        RunRecord {
            driver: driver.to_string(),
            fault: fault.to_string(),
            cluster: cluster.to_string(),
            ops: stats.ops,
            throughput: stats.throughput,
            mean_ms: ms(stats.latency.mean),
            p50_ms: ms(stats.latency.p50),
            p99_ms: ms(stats.latency.p99),
            crashed: stats.server_crashed,
            drift: match base_throughput {
                Some(b) if b > 0.0 => stats.throughput / b,
                _ => 1.0,
            },
            profile: profile.into_iter().collect(),
        }
    }

    /// The record's identity within a suite.
    pub fn key(&self) -> String {
        format!("{} | {} | {}", self.driver, self.cluster, self.fault)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("driver", Json::Str(self.driver.clone()));
        o.set("fault", Json::Str(self.fault.clone()));
        o.set("cluster", Json::Str(self.cluster.clone()));
        o.set("ops", Json::Num(self.ops as f64));
        o.set("throughput", Json::Num(round2(self.throughput)));
        o.set("mean_ms", Json::Num(round4(self.mean_ms)));
        o.set("p50_ms", Json::Num(round4(self.p50_ms)));
        o.set("p99_ms", Json::Num(round4(self.p99_ms)));
        o.set("crashed", Json::Bool(self.crashed));
        o.set("drift", Json::Num(round4(self.drift)));
        let mut sites = Vec::new();
        for (site, nanos) in &self.profile {
            let mut s = Json::obj();
            s.set("site", Json::Str(site.clone()));
            s.set("ns", Json::Num(*nanos as f64));
            sites.push(s);
        }
        o.set("profile", Json::Arr(sites));
        o
    }

    fn from_json(v: &Json) -> Result<RunRecord, String> {
        let str_field = |k: &str| {
            v.str(k)
                .map(str::to_string)
                .ok_or_else(|| format!("run record missing string field {k:?}"))
        };
        let num_field = |k: &str| {
            v.num(k)
                .ok_or_else(|| format!("run record missing numeric field {k:?}"))
        };
        let mut profile = Vec::new();
        for s in v.get("profile").and_then(Json::as_arr).unwrap_or(&[]) {
            profile.push((
                s.str("site").unwrap_or("").to_string(),
                s.num("ns").unwrap_or(0.0) as u64,
            ));
        }
        Ok(RunRecord {
            driver: str_field("driver")?,
            fault: str_field("fault")?,
            cluster: str_field("cluster")?,
            ops: num_field("ops")? as u64,
            throughput: num_field("throughput")?,
            mean_ms: num_field("mean_ms")?,
            p50_ms: num_field("p50_ms")?,
            p99_ms: num_field("p99_ms")?,
            crashed: matches!(v.get("crashed"), Some(Json::Bool(true))),
            drift: v.num("drift").unwrap_or(1.0),
            profile,
        })
    }
}

/// Detection-quality numbers, shared by the detect and scenario cells —
/// the suite-level form of `depfast_incident::ScoreCell`, with times in
/// milliseconds for readability.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Detection {
    /// Every injected fault was suspected (vacuously false with no fault).
    pub detected: bool,
    /// Time to detect, milliseconds.
    pub ttd_ms: Option<f64>,
    /// Time to mitigate, milliseconds.
    pub ttm_ms: Option<f64>,
    /// Time to recover, milliseconds.
    pub ttr_ms: Option<f64>,
    /// Suspicions with no fault injected anywhere.
    pub false_positives: u64,
    /// Injected faults never suspected.
    pub false_negatives: u64,
    /// Suspicions of healthy nodes during a fault elsewhere.
    pub misattributions: u64,
}

impl Detection {
    /// Lifts a scorecard cell into suite form.
    pub fn from_cell(cell: &depfast_incident::ScoreCell) -> Detection {
        let ms = |ns: u64| ns as f64 / 1e6;
        Detection {
            detected: cell.detected,
            ttd_ms: cell.ttd_ns.map(ms),
            ttm_ms: cell.ttm_ns.map(ms),
            ttr_ms: cell.ttr_ns.map(ms),
            false_positives: cell.false_positives,
            false_negatives: cell.false_negatives,
            misattributions: cell.misattributions,
        }
    }

    fn write_json(&self, o: &mut Json) {
        o.set("detected", Json::Bool(self.detected));
        // Absent keys mean "no measurement" — distinct from 0.0.
        if let Some(v) = self.ttd_ms {
            o.set("ttd_ms", Json::Num(round4(v)));
        }
        if let Some(v) = self.ttm_ms {
            o.set("ttm_ms", Json::Num(round4(v)));
        }
        if let Some(v) = self.ttr_ms {
            o.set("ttr_ms", Json::Num(round4(v)));
        }
        o.set("false_positives", Json::Num(self.false_positives as f64));
        o.set("false_negatives", Json::Num(self.false_negatives as f64));
        o.set("misattributions", Json::Num(self.misattributions as f64));
    }

    fn from_json(v: &Json) -> Detection {
        Detection {
            detected: matches!(v.get("detected"), Some(Json::Bool(true))),
            ttd_ms: v.num("ttd_ms"),
            ttm_ms: v.num("ttm_ms"),
            ttr_ms: v.num("ttr_ms"),
            false_positives: v.num("false_positives").unwrap_or(0.0) as u64,
            false_negatives: v.num("false_negatives").unwrap_or(0.0) as u64,
            misattributions: v.num("misattributions").unwrap_or(0.0) as u64,
        }
    }

    /// A detector that gets slower, cries wolf, misses a fault or blames
    /// the wrong node fails: lost detections and new FP/FN/misattribution
    /// are gated at zero increase, time-to-detect at
    /// `base × (1 + ttd_rise) + ttd_slack_ms`.
    fn check(&self, base: &Detection, key: &str, tol: &Tolerance, out: &mut GateOutcome) {
        if base.detected && !self.detected {
            out.failures
                .push(format!("[{key}] fault no longer detected"));
        }
        for (name, b, c) in [
            (
                "false positives",
                base.false_positives,
                self.false_positives,
            ),
            (
                "false negatives",
                base.false_negatives,
                self.false_negatives,
            ),
            (
                "misattributions",
                base.misattributions,
                self.misattributions,
            ),
        ] {
            if c > b {
                out.failures.push(format!("[{key}] {name} {b} → {c}"));
            }
        }
        if let (Some(b), Some(c)) = (base.ttd_ms, self.ttd_ms) {
            let limit = b * (1.0 + tol.ttd_rise) + tol.ttd_slack_ms;
            if c > limit {
                out.failures.push(format!(
                    "[{key}] time-to-detect {b:.1} → {c:.1} ms (limit {limit:.1} ms)"
                ));
            } else if c < b * 0.5 {
                out.notes.push(format!(
                    "[{key}] time-to-detect improved {b:.1} → {c:.1} ms — consider refreshing the baseline"
                ));
            }
        }
    }
}

/// Detection quality for one `(driver, fault, cluster)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectRecord {
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Fault-class name, `"none"` for the no-fault matrix.
    pub fault: String,
    /// Cluster shape discriminator.
    pub cluster: String,
    /// The cell's detection quality.
    pub detection: Detection,
}

impl DetectRecord {
    /// The scored record of one incident dump.
    pub fn from_dump(
        dump: &depfast_incident::IncidentDump,
        cell: &depfast_incident::ScoreCell,
    ) -> DetectRecord {
        DetectRecord {
            driver: dump.driver.clone(),
            fault: dump.fault.clone(),
            cluster: dump.cluster.clone(),
            detection: Detection::from_cell(cell),
        }
    }

    /// The record's identity within a suite.
    pub fn key(&self) -> String {
        format!("{} | {} | {}", self.driver, self.cluster, self.fault)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("driver", Json::Str(self.driver.clone()));
        o.set("fault", Json::Str(self.fault.clone()));
        o.set("cluster", Json::Str(self.cluster.clone()));
        self.detection.write_json(&mut o);
        o
    }

    fn from_json(v: &Json) -> Result<DetectRecord, String> {
        let str_field = |k: &str| {
            v.str(k)
                .map(str::to_string)
                .ok_or_else(|| format!("detect record missing string field {k:?}"))
        };
        Ok(DetectRecord {
            driver: str_field("driver")?,
            fault: str_field("fault")?,
            cluster: str_field("cluster")?,
            detection: Detection::from_json(v),
        })
    }
}

/// One scenario × driver survival cell — the suite-level form of the
/// scenario matrix's per-cell verdict: liveness plus client-visible
/// survival numbers plus detection quality.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRecord {
    /// Scenario name (DSL catalog key).
    pub scenario: String,
    /// Raft driver name (`RaftKind::name()`).
    pub driver: String,
    /// Liveness verdict: no crash, work completed, no over-limit stall.
    pub live: bool,
    /// Any server node crashed during the cell.
    pub crashed: bool,
    /// Measurement-window throughput (ops/s).
    pub throughput: f64,
    /// Minimum post-onset commit-throughput sample (ops/s).
    pub floor: f64,
    /// Client-visible p99 latency, milliseconds.
    pub p99_ms: f64,
    /// Longest post-warm-up commit stall, milliseconds.
    pub stall_ms: f64,
    /// The cell's detection quality.
    pub detection: Detection,
    /// Time to stabilize, milliseconds: fault-clear → `storm_cleared`.
    /// `None` in a storm cell means the storm never dissolved; absent
    /// entirely (also `None`) for non-storm matrix cells.
    pub tts_ms: Option<f64>,
    /// Storm verdict: `Some(true)` when a retry storm outlived its
    /// fault (metastable), `Some(false)` when monitored and it did not,
    /// `None` for cells without a storm monitor.
    pub storm_sustained: Option<bool>,
    /// Retry amplification (attempts per fresh op) at/after fault
    /// onset. `None` for cells without a storm monitor.
    pub amp: Option<f64>,
}

impl ScenarioRecord {
    /// The record's identity within a suite.
    pub fn key(&self) -> String {
        format!("{} | {}", self.scenario, self.driver)
    }

    fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("scenario", Json::Str(self.scenario.clone()));
        o.set("driver", Json::Str(self.driver.clone()));
        o.set("live", Json::Bool(self.live));
        o.set("crashed", Json::Bool(self.crashed));
        o.set("throughput", Json::Num(round2(self.throughput)));
        o.set("floor", Json::Num(round2(self.floor)));
        o.set("p99_ms", Json::Num(round4(self.p99_ms)));
        o.set("stall_ms", Json::Num(round2(self.stall_ms)));
        self.detection.write_json(&mut o);
        // Storm columns: emitted only for storm-monitored cells, so
        // pre-existing (non-storm) baselines stay byte-identical.
        if let Some(v) = self.tts_ms {
            o.set("tts_ms", Json::Num(round4(v)));
        }
        if let Some(v) = self.storm_sustained {
            o.set("storm_sustained", Json::Bool(v));
        }
        if let Some(v) = self.amp {
            o.set("amp", Json::Num(round4(v)));
        }
        o
    }

    fn from_json(v: &Json) -> Result<ScenarioRecord, String> {
        let str_field = |k: &str| {
            v.str(k)
                .map(str::to_string)
                .ok_or_else(|| format!("scenario record missing string field {k:?}"))
        };
        Ok(ScenarioRecord {
            scenario: str_field("scenario")?,
            driver: str_field("driver")?,
            live: matches!(v.get("live"), Some(Json::Bool(true))),
            crashed: matches!(v.get("crashed"), Some(Json::Bool(true))),
            throughput: v.num("throughput").unwrap_or(0.0),
            floor: v.num("floor").unwrap_or(0.0),
            p99_ms: v.num("p99_ms").unwrap_or(0.0),
            stall_ms: v.num("stall_ms").unwrap_or(0.0),
            detection: Detection::from_json(v),
            tts_ms: v.num("tts_ms"),
            storm_sustained: match v.get("storm_sustained") {
                Some(Json::Bool(b)) => Some(*b),
                _ => None,
            },
            amp: v.num("amp"),
        })
    }
}

/// A full bench suite: provenance plus one [`RunRecord`] per cell and,
/// for detection suites, one [`DetectRecord`] per scored cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Suite {
    /// Suite name (`fig1`, `fig3`, `ablations`, `gate`, `detect`).
    pub suite: String,
    /// Determinism seed the runs used.
    pub seed: u64,
    /// Free-form config provenance (clients, measure window, …).
    pub config: Vec<(String, f64)>,
    /// The measurement cells.
    pub runs: Vec<RunRecord>,
    /// Detection-quality cells (empty for pure perf suites; the JSON
    /// `detect` array is emitted only when nonempty, so existing
    /// artifacts are byte-identical).
    pub detect: Vec<DetectRecord>,
    /// Scenario-matrix survival cells (same emitted-only-when-nonempty
    /// rule as `detect`).
    pub scenarios: Vec<ScenarioRecord>,
}

impl Suite {
    /// An empty suite.
    pub fn new(suite: &str, seed: u64) -> Suite {
        Suite {
            suite: suite.to_string(),
            seed,
            config: Vec::new(),
            runs: Vec::new(),
            detect: Vec::new(),
            scenarios: Vec::new(),
        }
    }

    /// Records one config provenance entry.
    pub fn config(&mut self, key: &str, value: f64) {
        self.config.push((key.to_string(), value));
    }

    /// Serializes the suite (deterministic bytes for identical content).
    pub fn to_json(&self) -> String {
        let mut o = Json::obj();
        o.set("schema", Json::Str(SCHEMA.to_string()));
        o.set("suite", Json::Str(self.suite.clone()));
        o.set("seed", Json::Num(self.seed as f64));
        let mut cfg = Json::obj();
        for (k, v) in &self.config {
            cfg.set(k, Json::Num(*v));
        }
        o.set("config", cfg);
        o.set(
            "runs",
            Json::Arr(self.runs.iter().map(RunRecord::to_json).collect()),
        );
        if !self.detect.is_empty() {
            o.set(
                "detect",
                Json::Arr(self.detect.iter().map(DetectRecord::to_json).collect()),
            );
        }
        if !self.scenarios.is_empty() {
            o.set(
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioRecord::to_json).collect()),
            );
        }
        o.pretty()
    }

    /// Parses a suite previously written by [`Suite::to_json`].
    pub fn parse(text: &str) -> Result<Suite, String> {
        let v = Json::parse(text)?;
        match v.str("schema") {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported schema {other:?}")),
            None => return Err("not a bench suite (no schema field)".into()),
        }
        let mut config = Vec::new();
        if let Some(Json::Obj(pairs)) = v.get("config") {
            for (k, val) in pairs {
                if let Some(n) = val.as_f64() {
                    config.push((k.clone(), n));
                }
            }
        }
        let mut runs = Vec::new();
        for r in v.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            runs.push(RunRecord::from_json(r)?);
        }
        let mut detect = Vec::new();
        for r in v.get("detect").and_then(Json::as_arr).unwrap_or(&[]) {
            detect.push(DetectRecord::from_json(r)?);
        }
        let mut scenarios = Vec::new();
        for r in v.get("scenarios").and_then(Json::as_arr).unwrap_or(&[]) {
            scenarios.push(ScenarioRecord::from_json(r)?);
        }
        Ok(Suite {
            suite: v.str("suite").unwrap_or("?").to_string(),
            seed: v.num("seed").unwrap_or(0.0) as u64,
            config,
            runs,
            detect,
            scenarios,
        })
    }
}

fn round2(v: f64) -> f64 {
    (v * 1e2).round() / 1e2
}

fn round4(v: f64) -> f64 {
    (v * 1e4).round() / 1e4
}

/// Allowed movement before the gate fails a cell, for every column group
/// a suite can carry.
///
/// Simulated runs are deterministic, so these bands absorb *intentional*
/// code-driven drift (a scheduler tweak, extra simulated CPU from new
/// instrumentation), not measurement noise. Throughput is gated tighter
/// than tail latency because the paper's claims are throughput-shaped.
/// Time-to-detect and time-to-stabilize are gated multiplicatively plus
/// a small absolute slack (one detector poll window of jitter is
/// legitimate when event interleavings shift). Scenario throughput drift
/// is only a note: the perf cells already own those numbers, and
/// double-gating them would make every calibration change fail twice.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Max allowed relative throughput drop (0.08 = −8%).
    pub throughput_drop: f64,
    /// Max allowed relative P99 rise (0.30 = +30%).
    pub p99_rise: f64,
    /// Max allowed relative TTD rise (0.5 = +50%).
    pub ttd_rise: f64,
    /// Absolute TTD slack added on top, milliseconds.
    pub ttd_slack_ms: f64,
    /// Max allowed relative time-to-stabilize rise (0.5 = +50%).
    pub tts_rise: f64,
    /// Absolute TTS slack added on top, milliseconds.
    pub tts_slack_ms: f64,
    /// Relative scenario-throughput drift that earns a note.
    pub throughput_note: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            throughput_drop: 0.08,
            p99_rise: 0.30,
            ttd_rise: 0.5,
            ttd_slack_ms: 50.0,
            tts_rise: 0.5,
            tts_slack_ms: 50.0,
            throughput_note: 0.10,
        }
    }
}

impl std::fmt::Display for Tolerance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "throughput −{:.0}%, p99 +{:.0}%, ttd ×{} +{:.0}ms, tts ×{} +{:.0}ms, \
             liveness/crash/detection exact, zero new FP/FN/misattribution, \
             scenario throughput ±{:.0}% noted",
            self.throughput_drop * 100.0,
            self.p99_rise * 100.0,
            1.0 + self.ttd_rise,
            self.ttd_slack_ms,
            1.0 + self.tts_rise,
            self.tts_slack_ms,
            self.throughput_note * 100.0
        )
    }
}

/// The gate's verdict: hard failures plus informational notes.
#[derive(Debug, Default)]
pub struct GateOutcome {
    /// Cells compared against the baseline.
    pub checked: usize,
    /// Regressions (nonempty ⇒ the gate fails).
    pub failures: Vec<String>,
    /// Non-failing observations (new cells, improvements).
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// True when no cell regressed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Matches `base` cells to `cur` cells by key: a baseline cell missing
/// from the current suite fails, a new cell is a note, and every matched
/// pair goes through `check(base, cur, key, out)`.
fn diff_cells<T>(
    what: &str,
    base: &[T],
    cur: &[T],
    key: impl Fn(&T) -> String,
    out: &mut GateOutcome,
    mut check: impl FnMut(&T, &T, &str, &mut GateOutcome),
) {
    for b in base {
        let k = key(b);
        match cur.iter().find(|c| key(c) == k) {
            Some(c) => {
                out.checked += 1;
                check(b, c, &k, out);
            }
            None => out
                .failures
                .push(format!("[{k}] missing from current {what} cells")),
        }
    }
    for c in cur {
        let k = key(c);
        if !base.iter().any(|b| key(b) == k) {
            out.notes
                .push(format!("[{k}] new {what} cell, not in baseline"));
        }
    }
}

/// Diffs `current` against `baseline` cell by cell, in every column group
/// the suites carry (`runs`, `detect`, `scenarios`), under `tol`.
///
/// - A run cell fails when its throughput drops more than
///   `throughput_drop`, its P99 rises more than `p99_rise`, or it crashes
///   where the baseline did not.
/// - A detect cell fails on the shared detection checks: a lost
///   detection, new false positives / negatives / misattributions, or a
///   time-to-detect past `base × (1 + ttd_rise) + ttd_slack_ms` — a 2×
///   detection-latency regression at realistic TTDs always trips this.
/// - A scenario cell fails when its liveness verdict flips, it crashes
///   where the baseline did not, on the shared detection checks, or —
///   for storm-monitored cells — when its retry storm newly outlives the
///   fault or its time-to-stabilize regresses past the TTS band.
///
/// In every group a baseline cell missing from `current` fails. New
/// cells, improvements and scenario throughput drift are notes.
pub fn compare(baseline: &Suite, current: &Suite, tol: &Tolerance) -> GateOutcome {
    let mut out = GateOutcome::default();
    diff_cells(
        "run",
        &baseline.runs,
        &current.runs,
        RunRecord::key,
        &mut out,
        |base, cur, key, out| {
            if cur.crashed && !base.crashed {
                out.failures
                    .push(format!("[{key}] crashed (baseline did not)"));
                return;
            }
            if base.crashed {
                // Crash cells have no meaningful numbers; matching crash
                // behavior is all the gate asks.
                if !cur.crashed {
                    out.notes.push(format!("[{key}] no longer crashes"));
                }
                return;
            }
            if base.throughput > 0.0 {
                let rel = cur.throughput / base.throughput - 1.0;
                if rel < -tol.throughput_drop {
                    out.failures.push(format!(
                        "[{key}] throughput {:.0} → {:.0} req/s ({:+.1}%, tolerance −{:.0}%)",
                        base.throughput,
                        cur.throughput,
                        rel * 100.0,
                        tol.throughput_drop * 100.0
                    ));
                } else if rel > tol.throughput_drop {
                    out.notes.push(format!(
                        "[{key}] throughput improved {:+.1}% — consider refreshing the baseline",
                        rel * 100.0
                    ));
                }
            }
            if base.p99_ms > 0.0 {
                let rel = cur.p99_ms / base.p99_ms - 1.0;
                if rel > tol.p99_rise {
                    out.failures.push(format!(
                        "[{key}] p99 {:.2} → {:.2} ms ({:+.1}%, tolerance +{:.0}%)",
                        base.p99_ms,
                        cur.p99_ms,
                        rel * 100.0,
                        tol.p99_rise * 100.0
                    ));
                }
            }
        },
    );
    diff_cells(
        "detection",
        &baseline.detect,
        &current.detect,
        DetectRecord::key,
        &mut out,
        |base, cur, key, out| {
            cur.detection.check(&base.detection, key, tol, out);
        },
    );
    diff_cells(
        "scenario",
        &baseline.scenarios,
        &current.scenarios,
        ScenarioRecord::key,
        &mut out,
        |base, cur, key, out| {
            if base.live && !cur.live {
                out.failures.push(format!(
                    "[{key}] liveness verdict flipped: live → {}",
                    if cur.crashed { "crashed" } else { "stalled" }
                ));
            } else if !base.live && cur.live {
                out.notes.push(format!(
                    "[{key}] now survives (baseline did not) — consider refreshing the baseline"
                ));
            }
            if cur.crashed && !base.crashed {
                out.failures
                    .push(format!("[{key}] crashed (baseline did not)"));
            }
            cur.detection.check(&base.detection, key, tol, out);
            // Storm columns (present only for storm-monitored cells): a
            // cell whose retry storm newly outlives its fault is a
            // metastability regression; so is losing or slowing the
            // stabilization the retry-budget mitigation used to deliver.
            match (base.storm_sustained, cur.storm_sustained) {
                (Some(false), Some(true)) => out.failures.push(format!(
                    "[{key}] retry storm now sustained past fault clear (metastable)"
                )),
                (Some(true), Some(false)) => out.notes.push(format!(
                    "[{key}] retry storm no longer sustained — consider refreshing the baseline"
                )),
                _ => {}
            }
            match (base.tts_ms, cur.tts_ms) {
            (Some(b), Some(c)) => {
                let limit = b * (1.0 + tol.tts_rise) + tol.tts_slack_ms;
                if c > limit {
                    out.failures.push(format!(
                        "[{key}] time-to-stabilize {b:.1} → {c:.1} ms (limit {limit:.1} ms)"
                    ));
                }
            }
            (Some(b), None) if cur.storm_sustained.is_some() => {
                out.failures.push(format!(
                    "[{key}] no longer stabilizes (baseline TTS {b:.1} ms, storm never cleared)"
                ));
            }
            (None, Some(c)) => out.notes.push(format!(
                "[{key}] now stabilizes in {c:.1} ms (baseline never did) — consider refreshing the baseline"
            )),
            _ => {}
        }
            if base.throughput > 0.0 {
                let rel = cur.throughput / base.throughput - 1.0;
                if rel.abs() > tol.throughput_note {
                    out.notes.push(format!(
                        "[{key}] throughput {:.0} → {:.0} op/s ({:+.1}%)",
                        base.throughput,
                        cur.throughput,
                        rel * 100.0
                    ));
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(driver: &str, fault: &str, tput: f64, p99: f64) -> RunRecord {
        RunRecord {
            driver: driver.into(),
            fault: fault.into(),
            cluster: String::new(),
            ops: (tput * 2.0) as u64,
            throughput: tput,
            mean_ms: p99 / 2.0,
            p50_ms: p99 / 4.0,
            p99_ms: p99,
            crashed: false,
            drift: 1.0,
            profile: vec![("cpu".into(), 1_000_000), ("disk:device".into(), 2_000_000)],
        }
    }

    fn suite(runs: Vec<RunRecord>) -> Suite {
        let mut s = Suite::new("gate", 7);
        s.config("clients", 64.0);
        s.runs = runs;
        s
    }

    #[test]
    fn suite_json_round_trips() {
        let s = suite(vec![
            record("DepFastRaft", "none", 5000.0, 8.0),
            record("SyncRaft (TiDB-style)", "disk_slow", 2100.5, 40.25),
        ]);
        let text = s.to_json();
        assert_eq!(text, s.to_json(), "serialization must be deterministic");
        let back = Suite::parse(&text).unwrap();
        assert_eq!(back, s);
        // Rounding happens at serialization, so a parse → serialize cycle
        // is idempotent even for values with more precision than stored.
        let mut ragged = s.clone();
        ragged.runs[0].mean_ms = 2.0 / 3.0;
        let rag_text = ragged.to_json();
        let reparsed = Suite::parse(&rag_text).unwrap();
        assert_eq!(reparsed.to_json(), rag_text);
    }

    #[test]
    fn parse_rejects_foreign_json() {
        assert!(Suite::parse("{\"schema\": \"other/v9\"}").is_err());
        assert!(Suite::parse("[1,2,3]").is_err());
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let s = suite(vec![record("d", "none", 5000.0, 8.0)]);
        let out = compare(&s, &s, &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked, 1);
    }

    #[test]
    fn ten_percent_throughput_regression_fails() {
        let base = suite(vec![record("d", "none", 5000.0, 8.0)]);
        let cur = suite(vec![record("d", "none", 4500.0, 8.0)]);
        let out = compare(&base, &cur, &Tolerance::default());
        assert!(!out.passed());
        assert!(out.failures[0].contains("throughput"), "{:?}", out.failures);
    }

    #[test]
    fn small_drift_inside_the_band_passes() {
        let base = suite(vec![record("d", "none", 5000.0, 8.0)]);
        let cur = suite(vec![record("d", "none", 4800.0, 9.0)]);
        let out = compare(&base, &cur, &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn p99_blowup_fails() {
        let base = suite(vec![record("d", "none", 5000.0, 8.0)]);
        let cur = suite(vec![record("d", "none", 5000.0, 12.0)]);
        let out = compare(&base, &cur, &Tolerance::default());
        assert!(!out.passed());
        assert!(out.failures[0].contains("p99"), "{:?}", out.failures);
    }

    #[test]
    fn new_crash_fails_and_missing_cell_fails() {
        let mut crashed = record("d", "cpu_slow", 0.0, 0.0);
        crashed.crashed = true;
        let base = suite(vec![
            record("d", "none", 5000.0, 8.0),
            record("d", "disk_slow", 4000.0, 10.0),
        ]);
        let cur = suite(vec![{
            let mut r = record("d", "none", 5000.0, 8.0);
            r.crashed = true;
            r
        }]);
        let out = compare(&base, &cur, &Tolerance::default());
        assert_eq!(out.failures.len(), 2, "{:?}", out.failures);
        assert!(out.failures.iter().any(|f| f.contains("crashed")));
        assert!(out.failures.iter().any(|f| f.contains("missing")));
        // A cell that crashed in the baseline and still crashes is fine.
        let base2 = suite(vec![crashed.clone()]);
        let cur2 = suite(vec![crashed]);
        assert!(compare(&base2, &cur2, &Tolerance::default()).passed());
    }

    fn detect_record(driver: &str, fault: &str, ttd_ms: Option<f64>) -> DetectRecord {
        DetectRecord {
            driver: driver.into(),
            fault: fault.into(),
            cluster: "3x64".into(),
            detection: Detection {
                detected: ttd_ms.is_some(),
                ttd_ms,
                ttm_ms: ttd_ms.map(|v| v + 50.0),
                ttr_ms: ttd_ms.map(|v| v + 500.0),
                ..Detection::default()
            },
        }
    }

    fn detect_suite(detect: Vec<DetectRecord>) -> Suite {
        let mut s = Suite::new("detect", 7);
        s.detect = detect;
        s
    }

    #[test]
    fn detect_records_round_trip_and_runs_only_json_is_unchanged() {
        let with = detect_suite(vec![
            detect_record("DepFastRaft", "Disk Slowness", Some(400.0)),
            detect_record("SyncRaft (TiDB-style)", "none", None),
        ]);
        let text = with.to_json();
        let back = Suite::parse(&text).unwrap();
        assert_eq!(back, with);
        // Absent optional times stay absent.
        assert!(back.detect[1].detection.ttd_ms.is_none());
        // A suite without detect cells serializes exactly as before the
        // field existed (no empty "detect" array).
        let plain = suite(vec![record("d", "none", 5000.0, 8.0)]);
        assert!(!plain.to_json().contains("detect"));
    }

    #[test]
    fn identical_detection_passes_the_gate() {
        let s = detect_suite(vec![detect_record("d", "Disk Slowness", Some(400.0))]);
        let out = compare(&s, &s, &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked, 1);
    }

    #[test]
    fn doubled_time_to_detect_fails() {
        let base = detect_suite(vec![detect_record("d", "Disk Slowness", Some(400.0))]);
        let cur = detect_suite(vec![detect_record("d", "Disk Slowness", Some(800.0))]);
        let out = compare(&base, &cur, &Tolerance::default());
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("time-to-detect"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn new_false_positive_and_misattribution_fail() {
        let base = detect_suite(vec![detect_record("d", "none", None)]);
        let mut fp = detect_record("d", "none", None);
        fp.detection.false_positives = 1;
        let out = compare(
            &detect_suite(vec![base.detect[0].clone()]),
            &detect_suite(vec![fp]),
            &Tolerance::default(),
        );
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("false positives"),
            "{:?}",
            out.failures
        );

        let base2 = detect_suite(vec![detect_record("d", "Disk Slowness", Some(400.0))]);
        let mut mis = detect_record("d", "Disk Slowness", Some(400.0));
        mis.detection.misattributions = 1;
        let out2 = compare(&base2, &detect_suite(vec![mis]), &Tolerance::default());
        assert!(!out2.passed());
        assert!(
            out2.failures[0].contains("misattributions"),
            "{:?}",
            out2.failures
        );
    }

    #[test]
    fn lost_detection_and_missing_cell_fail() {
        let base = detect_suite(vec![detect_record("d", "Disk Slowness", Some(400.0))]);
        let mut lost = detect_record("d", "Disk Slowness", Some(400.0));
        lost.detection.detected = false;
        lost.detection.false_negatives = 1;
        let out = compare(&base, &detect_suite(vec![lost]), &Tolerance::default());
        assert!(!out.passed());
        assert!(out
            .failures
            .iter()
            .any(|f| f.contains("no longer detected")));
        let out2 = compare(&base, &detect_suite(vec![]), &Tolerance::default());
        assert!(out2.failures.iter().any(|f| f.contains("missing")));
    }

    #[test]
    fn detection_improvement_and_new_cells_are_notes() {
        let base = detect_suite(vec![detect_record("d", "Disk Slowness", Some(400.0))]);
        let cur = detect_suite(vec![
            detect_record("d", "Disk Slowness", Some(150.0)),
            detect_record("d", "CPU Slowness", Some(300.0)),
        ]);
        let out = compare(&base, &cur, &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.notes.len(), 2, "{:?}", out.notes);
    }

    fn scenario_record(scenario: &str, driver: &str, live: bool) -> ScenarioRecord {
        ScenarioRecord {
            scenario: scenario.into(),
            driver: driver.into(),
            live,
            crashed: false,
            throughput: 3000.0,
            floor: 800.0,
            p99_ms: 25.0,
            stall_ms: 200.0,
            detection: Detection {
                detected: true,
                ttd_ms: Some(400.0),
                ttm_ms: Some(450.0),
                ttr_ms: Some(900.0),
                ..Detection::default()
            },
            tts_ms: None,
            storm_sustained: None,
            amp: None,
        }
    }

    /// A storm-monitored cell: the mitigated shape (stabilizes, not
    /// sustained) unless doctored otherwise.
    fn storm_record(scenario: &str) -> ScenarioRecord {
        let mut r = scenario_record(scenario, "DepFastRaft", true);
        r.tts_ms = Some(800.0);
        r.storm_sustained = Some(false);
        r.amp = Some(1.5);
        r
    }

    fn scenario_suite(scenarios: Vec<ScenarioRecord>) -> Suite {
        let mut s = Suite::new("scenarios", 7);
        s.scenarios = scenarios;
        s
    }

    #[test]
    fn scenario_records_round_trip_and_stay_out_of_plain_suites() {
        let with = scenario_suite(vec![
            scenario_record("disk-slow-follower", "DepFastRaft", true),
            scenario_record("flapping-disk-follower", "SyncRaft (TiDB-style)", false),
        ]);
        let text = with.to_json();
        assert_eq!(text, with.to_json(), "serialization must be deterministic");
        let back = Suite::parse(&text).unwrap();
        assert_eq!(back, with);
        // Suites without scenario cells serialize exactly as before the
        // field existed.
        let plain = suite(vec![record("d", "none", 5000.0, 8.0)]);
        assert!(!plain.to_json().contains("scenarios"));
    }

    #[test]
    fn identical_scenario_matrix_passes_the_gate() {
        let s = scenario_suite(vec![scenario_record("disk-slow-follower", "d", true)]);
        let out = compare(&s, &s, &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked, 1);
    }

    #[test]
    fn liveness_flip_fails_the_scenario_gate() {
        let base = scenario_suite(vec![scenario_record("partial-partition", "d", true)]);
        let mut flipped = scenario_record("partial-partition", "d", false);
        flipped.stall_ms = 3000.0;
        let out = compare(&base, &scenario_suite(vec![flipped]), &Tolerance::default());
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("liveness verdict flipped"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn doubled_scenario_ttd_fails_the_gate() {
        let base = scenario_suite(vec![scenario_record("disk-slow-follower", "d", true)]);
        let mut slow = scenario_record("disk-slow-follower", "d", true);
        slow.detection.ttd_ms = Some(800.0);
        let out = compare(&base, &scenario_suite(vec![slow]), &Tolerance::default());
        assert!(!out.passed());
        assert!(
            out.failures[0].contains("time-to-detect"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn new_scenario_misattribution_fails_and_missing_cell_fails() {
        let base = scenario_suite(vec![scenario_record("leader-cpu-slow", "d", true)]);
        let mut mis = scenario_record("leader-cpu-slow", "d", true);
        mis.detection.misattributions = 1;
        let out = compare(&base, &scenario_suite(vec![mis]), &Tolerance::default());
        assert!(out.failures.iter().any(|f| f.contains("misattributions")));
        let out2 = compare(&base, &scenario_suite(vec![]), &Tolerance::default());
        assert!(out2.failures.iter().any(|f| f.contains("missing")));
    }

    #[test]
    fn scenario_throughput_drift_is_a_note_not_a_failure() {
        let base = scenario_suite(vec![scenario_record("ramp-net-follower", "d", true)]);
        let mut slower = scenario_record("ramp-net-follower", "d", true);
        slower.throughput = 2000.0;
        let out = compare(&base, &scenario_suite(vec![slower]), &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.notes.len(), 1, "{:?}", out.notes);
    }

    #[test]
    fn storm_records_round_trip_and_stay_out_of_plain_cells() {
        let s = scenario_suite(vec![
            scenario_record("disk-slow-follower", "d", true),
            storm_record("retry-storm-budget"),
        ]);
        let text = s.to_json();
        let back = Suite::parse(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text);
        // Storm keys appear only on the storm-monitored cell, so
        // pre-existing baseline bytes are untouched.
        assert_eq!(text.matches("storm_sustained").count(), 1);
        assert_eq!(text.matches("tts_ms").count(), 1);
        assert_eq!(text.matches("\"amp\"").count(), 1);
    }

    #[test]
    fn sustained_storm_flip_fails_the_gate() {
        let base = scenario_suite(vec![storm_record("retry-storm-budget")]);
        let mut flipped = storm_record("retry-storm-budget");
        flipped.storm_sustained = Some(true);
        flipped.tts_ms = None;
        let out = compare(&base, &scenario_suite(vec![flipped]), &Tolerance::default());
        assert!(!out.passed());
        assert!(
            out.failures.iter().any(|f| f.contains("sustained")),
            "{:?}",
            out.failures
        );
        assert!(
            out.failures
                .iter()
                .any(|f| f.contains("no longer stabilizes")),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn doubled_tts_fails_the_gate_but_dissolving_is_a_note() {
        let base = scenario_suite(vec![storm_record("retry-storm-budget")]);
        let mut slower = storm_record("retry-storm-budget");
        slower.tts_ms = Some(1600.0);
        let out = compare(&base, &scenario_suite(vec![slower]), &Tolerance::default());
        assert!(!out.passed());
        assert!(
            out.failures.iter().any(|f| f.contains("time-to-stabilize")),
            "{:?}",
            out.failures
        );
        // The unmitigated cell learning to stabilize is an improvement.
        let mut sustained_base = storm_record("retry-storm");
        sustained_base.storm_sustained = Some(true);
        sustained_base.tts_ms = None;
        sustained_base.live = false;
        let mut healed = sustained_base.clone();
        healed.storm_sustained = Some(false);
        healed.tts_ms = Some(500.0);
        let out = compare(
            &scenario_suite(vec![sustained_base]),
            &scenario_suite(vec![healed]),
            &Tolerance::default(),
        );
        assert!(out.passed(), "{:?}", out.failures);
        assert!(out.notes.len() >= 2, "{:?}", out.notes);
    }

    #[test]
    fn tolerance_defaults_are_pinned() {
        let t = Tolerance::default();
        assert_eq!(
            (t.throughput_drop, t.p99_rise, t.throughput_note),
            (0.08, 0.30, 0.10)
        );
        assert_eq!((t.ttd_rise, t.ttd_slack_ms), (0.5, 50.0));
        assert_eq!((t.tts_rise, t.tts_slack_ms), (0.5, 50.0));
    }

    #[test]
    fn one_compare_gates_every_column_group() {
        let mut base = suite(vec![record("d", "none", 5000.0, 8.0)]);
        base.detect = vec![detect_record("d", "Disk Slowness", Some(400.0))];
        base.scenarios = vec![scenario_record("partial-partition", "d", true)];
        let out = compare(&base, &base, &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked, 3);
        // Runs and detection cells match; only the scenario row flips.
        let mut cur = base.clone();
        cur.scenarios[0].live = false;
        let out = compare(&base, &cur, &Tolerance::default());
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        assert!(out.failures[0].contains("liveness verdict flipped"));
    }

    #[test]
    fn improvements_and_new_cells_are_notes_not_failures() {
        let base = suite(vec![record("d", "none", 5000.0, 8.0)]);
        let cur = suite(vec![
            record("d", "none", 6000.0, 8.0),
            record("d", "mem_contention", 3000.0, 20.0),
        ]);
        let out = compare(&base, &cur, &Tolerance::default());
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.notes.len(), 2, "{:?}", out.notes);
    }
}
