//! Matrix-runner determinism and detector-track behavior, end to end:
//! same-seed sub-matrices render byte-identical survival reports, the
//! correlated-pair cell is caught by the fallback track that the
//! peer-relative signal alone misses, and survival regressions doctored
//! into a recorded suite fail the gate comparison.

use depfast_bench::baseline::{compare, Suite, Tolerance};
use depfast_raft::cluster::RaftKind;
use depfast_scenario::{catalog, matrix_cells, matrix_cfg, render_survival_report, Cell};

fn pick(name: &str) -> depfast_scenario::Scenario {
    catalog()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("{name} missing from catalog"))
}

/// Two same-seed runs of the same sub-matrix — including a flapping
/// schedule and the mitigation-wired leader cell — produce byte-identical
/// survival reports.
#[test]
fn same_seed_sub_matrix_renders_byte_identical_reports() {
    let scenarios = vec![pick("flapping-disk-follower"), pick("leader-cpu-slow")];
    let drivers = vec![RaftKind::DepFast, RaftKind::Chain];
    let cells = matrix_cells(&scenarios, &drivers).expect("matrix must compile");
    let run = || {
        let verdicts: Vec<_> = cells.iter().map(Cell::survive).collect();
        render_survival_report(&verdicts, matrix_cfg().seed)
    };
    let first = run();
    let second = run();
    assert!(!first.is_empty());
    assert_eq!(first, second, "same-seed reports must be byte-identical");
}

/// The correlated two-follower cell is exactly the regime where the
/// peer-relative signal degenerates (each slow node's peers are equally
/// slow): the matrix detector's fallback track must still catch it, and
/// inside the recovery band.
#[test]
fn correlated_pair_cell_is_detected_via_the_fallback_track() {
    let cell = Cell::compile(&pick("correlated-disk-pair"), RaftKind::DepFast)
        .expect("correlated pair must compile with its override")
        .survive();
    assert!(cell.score.detected, "correlated slowness must be detected");
    assert_eq!(
        cell.score.false_negatives, 0,
        "no faulted node may be missed"
    );
    let ttd = cell.score.ttd_ns.expect("detected implies a TTD");
    assert!(
        ttd <= 1_000_000_000,
        "TTD {ttd}ns outside the 1s band for an in-window detection"
    );
    // The timeline itself shows which track fired: correlated slowness is
    // only visible to the absolute-baseline fallback.
    let suspect_evidence: Vec<&str> = cell
        .dump
        .events
        .iter()
        .filter(|e| e.transition == "suspect")
        .map(|e| e.evidence.as_str())
        .collect();
    assert!(
        suspect_evidence.iter().any(|e| e.contains("[fallback]")),
        "expected a fallback-track suspicion, got {suspect_evidence:?}"
    );
}

/// Doctoring a recorded suite — liveness flip or a 2× TTD — turns a
/// passing gate comparison into a failing one (the CI contract the
/// committed `BENCH_scenarios_baseline.json` rides on).
#[test]
fn doctored_survival_records_fail_the_gate_comparison() {
    let record = Cell::compile(&pick("disk-slow-follower"), RaftKind::DepFast)
        .expect("must compile")
        .survive()
        .record();
    assert!(
        record.live && record.detection.detected,
        "healthy baseline cell expected"
    );
    assert!(record.storm_sustained.is_none(), "no storm columns");
    let seed = matrix_cfg().seed;
    let mut baseline = Suite::new("scenarios", seed);
    baseline.scenarios = vec![record.clone()];
    let tol = Tolerance::default();

    // Identical current suite: pass.
    let mut current = Suite::new("scenarios", seed);
    current.scenarios = vec![record.clone()];
    assert!(compare(&baseline, &current, &tol).passed());

    // Liveness flip: fail.
    let mut flipped = record.clone();
    flipped.live = false;
    current.scenarios = vec![flipped];
    let outcome = compare(&baseline, &current, &tol);
    assert!(!outcome.passed());
    assert!(
        outcome.failures.iter().any(|f| f.contains("liveness")),
        "failures: {:?}",
        outcome.failures
    );

    // 2× TTD: fail (default band is +50% + 50ms on a 200ms TTD).
    let mut slower = record.clone();
    slower.detection.ttd_ms = record.detection.ttd_ms.map(|v| v * 2.0);
    current.scenarios = vec![slower];
    let outcome = compare(&baseline, &current, &tol);
    assert!(!outcome.passed());
    assert!(
        outcome
            .failures
            .iter()
            .any(|f| f.contains("time-to-detect")),
        "failures: {:?}",
        outcome.failures
    );
}
