//! The scenario × driver survival matrix.
//!
//! Each [`Cell`] is one run of the bench harness ([`depfast_bench::run`])
//! on the simkit clock — same world tuning, Raft calibration and workload
//! as the figure experiments — with the scenario's compiled injection
//! plan armed, the fail-slow detector in
//! [`DetectorMode::PeerWithFallback`], and leader demotion/campaign
//! mitigation wired for DepFast leader cells. [`Cell::survive`] verdicts
//! the run into a [`SurvivalCell`]: client-visible survival metrics
//! (throughput floor, p99 ceiling, longest stall, liveness verdict)
//! joined with the `depfast-incident` scorecard (TTD/TTM/TTR, FP/FN/
//! misattribution). Cells are deterministic: same seed, byte-identical
//! report.

use std::time::Duration;

use depfast_bench::experiment::INCIDENT_SAMPLE_EVERY;
use depfast_bench::{run, Detection, RunCfg, ScenarioRecord, Table};
use depfast_detect::{DetectorCfg, DetectorMode};
use depfast_incident::{score, IncidentDump, ScoreCell, RECOVERY_BAND};
use depfast_raft::cluster::RaftKind;

use crate::compile::CompileError;
use crate::dsl::{Scenario, Target};

/// A matrix cell whose longest post-warm-up commit stall exceeds this is
/// verdicted not-live even if throughput recovers later.
pub const STALL_LIMIT: Duration = Duration::from_millis(1500);

/// The harness configuration every matrix cell starts from. It mirrors
/// the detect gate cell (64 clients, 2 s warm-up, 3.2 s measurement,
/// 10 K records) so a full 8 × 5 matrix stays inside a CI-friendly
/// wall-clock budget, samples the registry for the throughput series and
/// runs the detector with both tracks.
pub fn matrix_cfg() -> RunCfg {
    RunCfg {
        clients: 64,
        warmup: Duration::from_secs(2),
        measure: Duration::from_millis(3200),
        records: 10_000,
        sample_every: Some(INCIDENT_SAMPLE_EVERY),
        detector: Some(DetectorCfg {
            min_samples: 4,
            mode: DetectorMode::PeerWithFallback,
            ..DetectorCfg::default()
        }),
        ..RunCfg::default()
    }
}

/// One runnable cell of the survival matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Scenario name; keys the survival report and the CI baseline.
    pub scenario: String,
    /// The harness run.
    pub cfg: RunCfg,
    /// Longest post-warm-up stall still verdicted live.
    pub stall_limit: Duration,
}

impl Cell {
    /// Compiles `scenario` onto the matrix shape for driver `kind`.
    pub fn compile(scenario: &Scenario, kind: RaftKind) -> Result<Cell, CompileError> {
        let base = matrix_cfg();
        let plan = scenario.compile(base.shape.server_nodes(), 0, base.seed)?;
        Ok(Cell {
            scenario: scenario.name.clone(),
            cfg: RunCfg {
                kind,
                faults: plan.windows,
                triggers: plan.triggers,
                mitigate_leader: kind == RaftKind::DepFast && scenario.target == Target::Leader,
                ..base
            },
            stall_limit: STALL_LIMIT,
        })
    }

    /// Runs the cell through the harness and verdicts it.
    pub fn survive(&self) -> SurvivalCell {
        let cfg = &self.cfg;
        let out = run(cfg);
        let dump = out.incident_dump(cfg, &self.scenario);
        let cell_score = score(&dump, RECOVERY_BAND);
        let warmup_ns = cfg.warmup.as_nanos() as u64;
        let onset_ns = dump.faults.iter().map(|f| f.onset_ns).min();
        let floor = dump
            .throughput
            .iter()
            .filter(|(t, _)| *t >= onset_ns.unwrap_or(warmup_ns))
            .map(|(_, ops)| *ops)
            .fold(f64::INFINITY, f64::min);
        // Longest run of near-dead samples after warm-up: the wedge
        // signal a throughput average would hide.
        let mut stall = 0usize;
        let mut longest = 0usize;
        for (t, ops) in &dump.throughput {
            if *t < warmup_ns {
                continue;
            }
            if *ops < 1.0 {
                stall += 1;
                longest = longest.max(stall);
            } else {
                stall = 0;
            }
        }
        let interval = cfg.sample_every.expect("matrix cells are sampled");
        let stall_ms = longest as f64 * interval.as_secs_f64() * 1e3;
        let stats = out.stats;
        // Retry amplification: attempts per fresh op, summed over the
        // storm monitor's ticks at or after fault onset.
        let amp = cfg.storm.then(|| {
            let onset = onset_ns.unwrap_or(0);
            let (attempts, ops) = out
                .storm
                .iter()
                .filter(|a| a.t.as_nanos() >= onset)
                .fold((0u64, 0u64), |(att, ops), a| {
                    (att + a.attempts, ops + a.ops)
                });
            attempts as f64 / ops.max(1) as f64
        });
        SurvivalCell {
            scenario: self.scenario.clone(),
            driver: cfg.kind.name().to_string(),
            throughput: stats.throughput,
            floor: if floor.is_finite() { floor } else { 0.0 },
            p99_ms: stats.latency.p99.as_secs_f64() * 1e3,
            stall_ms,
            crashed: stats.server_crashed,
            live: !stats.server_crashed
                && stats.ops > 0
                && stall_ms <= self.stall_limit.as_secs_f64() * 1e3,
            score: cell_score,
            amp,
            dump,
        }
    }
}

/// One verdicted cell of the survival matrix.
#[derive(Debug, Clone)]
pub struct SurvivalCell {
    /// Scenario name (DSL catalog key).
    pub scenario: String,
    /// Raft driver name.
    pub driver: String,
    /// Measurement-window throughput (ops/s).
    pub throughput: f64,
    /// Minimum throughput sample at/after fault onset (ops/s).
    pub floor: f64,
    /// Client-visible p99 latency over the measurement window (ms).
    pub p99_ms: f64,
    /// Longest post-warm-up run of near-zero throughput samples (ms).
    pub stall_ms: f64,
    /// Any server node crashed during the run.
    pub crashed: bool,
    /// Liveness verdict: no crash, work completed, no stall past the
    /// cell's limit.
    pub live: bool,
    /// Detector/mitigation scorecard for the cell, including the
    /// `storm_sustained` / TTS columns.
    pub score: ScoreCell,
    /// Retry amplification at/after fault onset for a storm-monitored
    /// cell: total RPC attempts per fresh operation started. ~1 in a
    /// healthy system; ≥ 2 means the offered load is mostly retries.
    pub amp: Option<f64>,
    /// The joined incident record (ground truth + reactions + series).
    /// Throughput is client goodput for storm-monitored cells.
    pub dump: IncidentDump,
}

impl SurvivalCell {
    /// The cell's suite record; storm columns only for storm cells, so
    /// non-storm baseline bytes stay untouched.
    pub fn record(&self) -> ScenarioRecord {
        ScenarioRecord {
            scenario: self.scenario.clone(),
            driver: self.driver.clone(),
            live: self.live,
            crashed: self.crashed,
            throughput: self.throughput,
            floor: self.floor,
            p99_ms: self.p99_ms,
            stall_ms: self.stall_ms,
            detection: Detection::from_cell(&self.score),
            tts_ms: self.amp.and(self.score.tts_ns).map(|ns| ns as f64 / 1e6),
            storm_sustained: self.amp.map(|_| self.score.storm_sustained),
            amp: self.amp,
        }
    }
}

/// Every Raft driver under test, in fixed report order.
pub fn all_drivers() -> Vec<RaftKind> {
    vec![
        RaftKind::DepFast,
        RaftKind::Sync,
        RaftKind::Backlog,
        RaftKind::Callback,
        RaftKind::Chain,
    ]
}

/// The `scenarios × drivers` matrix, in order. Compile errors are
/// programming errors in the scenario set.
pub fn matrix_cells(
    scenarios: &[Scenario],
    drivers: &[RaftKind],
) -> Result<Vec<Cell>, CompileError> {
    scenarios
        .iter()
        .flat_map(|s| drivers.iter().map(move |&kind| Cell::compile(s, kind)))
        .collect()
}

/// Renders the per-driver survival report. Pure function of the cells,
/// so same-seed matrices render byte-identical reports. Storm-monitored
/// cells render as the retry-storm ablation: `Goodput`/`Floor` are client
/// goodput and `Amp` is the retry-amplification factor.
pub fn render_survival_report(cells: &[SurvivalCell], seed: u64) -> String {
    let storm = cells.iter().any(|c| c.amp.is_some());
    let mut headers = vec![
        "Scenario",
        "Driver",
        if storm {
            "Goodput (op/s)"
        } else {
            "Tput (op/s)"
        },
        "Floor (op/s)",
        "P99 (ms)",
        "Stall (ms)",
    ];
    if storm {
        headers.push("Amp");
    }
    headers.push("Live");
    headers.extend(depfast_incident::scorecard_headers());
    let title = if storm {
        "Retry-storm ablation"
    } else {
        "Scenario survival matrix"
    };
    let mut table = Table::new(
        &format!("{title} · {} cells · seed {seed}", cells.len()),
        &headers,
    );
    for c in cells {
        let mut row = vec![
            c.scenario.clone(),
            c.driver.clone(),
            format!("{:.0}", c.throughput),
            format!("{:.0}", c.floor),
            format!("{:.1}", c.p99_ms),
            format!("{:.0}", c.stall_ms),
        ];
        if storm {
            row.push(format!("{:.1}", c.amp.unwrap_or(0.0)));
        }
        row.push(
            if c.crashed {
                "CRASH"
            } else if c.live {
                "yes"
            } else {
                "STALLED"
            }
            .to_string(),
        );
        row.extend(depfast_incident::scorecard_cells(&c.score));
        table.row(row);
    }
    let mut out = table.render();
    let dropped: u64 = cells.iter().map(|c| c.dump.health_dropped).sum();
    if dropped > 0 {
        out.push_str(&format!(
            "WARNING: {dropped} health events dropped at the tracer capacity cap — scorecards above may under-count reactions\n"
        ));
    }
    out
}
