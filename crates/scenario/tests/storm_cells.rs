//! The retry-storm ablation pair, end to end: the unmitigated cell must
//! be genuinely metastable (goodput stays collapsed after the ledger
//! says the fault cleared, offered load amplified ≥ 2×), the
//! retry-budget cell must dissolve the same storm (finite
//! time-to-stabilize, verdict live), and the whole storm matrix must
//! render byte-identically across same-seed runs — the properties the
//! committed `BENCH_scenarios_baseline.json` pins and the `gate` binary
//! enforces.

use depfast_scenario::{matrix_cfg, render_survival_report, storm_catalog, Cell, SurvivalCell};

fn pick<'a>(cells: &'a [SurvivalCell], name: &str) -> &'a SurvivalCell {
    cells
        .iter()
        .find(|c| c.scenario == name)
        .unwrap_or_else(|| panic!("{name} missing from storm matrix"))
}

#[test]
fn storm_matrix_is_metastable_without_budget_and_deterministic() {
    let scenarios = storm_catalog();
    let run = || scenarios.iter().map(Cell::survive).collect::<Vec<_>>();
    let first = run();

    // Unmitigated cell: a 1 s fault births a storm the cluster never
    // escapes — zombie retries keep per-attempt latency above the
    // deadline long after the fault clears.
    let storm = pick(&first, "retry-storm");
    assert!(
        storm.score.storm_sustained,
        "retry-storm must sustain past the fault clearing"
    );
    assert!(
        storm.score.tts_ns.is_none(),
        "a sustained storm has no time-to-stabilize"
    );
    assert!(!storm.live, "metastable collapse must flunk liveness");
    let storm_amp = storm.amp.expect("storm cells report amplification");
    assert!(
        storm_amp >= 2.0,
        "offered load must be ≥ 2× goodput, got {storm_amp:.2}"
    );

    // Same fault, same clients, plus a token-bucket retry budget: the
    // storm dissolves shortly after the fault clears.
    let budget = pick(&first, "retry-storm-budget");
    assert!(
        !budget.score.storm_sustained,
        "the retry budget must dissolve the storm"
    );
    let tts = budget
        .score
        .tts_ns
        .expect("a dissolved storm has a finite time-to-stabilize");
    assert!(
        tts <= 2_000_000_000,
        "time-to-stabilize {tts} ns outside the 2 s band"
    );
    assert!(budget.live, "the mitigated cell must stay live");
    let budget_amp = budget.amp.expect("storm cells report amplification");
    assert!(
        budget_amp < storm_amp,
        "admission control must cut amplification ({budget_amp:.2} vs {storm_amp:.2})"
    );

    // Determinism: a second same-seed run renders the identical report.
    let second = run();
    let report_a = render_survival_report(&first, matrix_cfg().seed);
    let report_b = render_survival_report(&second, matrix_cfg().seed);
    assert!(!report_a.is_empty());
    assert_eq!(
        report_a, report_b,
        "same-seed storm reports must be byte-identical"
    );
}
