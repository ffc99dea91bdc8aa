//! End-to-end acceptance for the `gate` binary: fed a baseline and a
//! current suite file, it must exit 0 when they match, 1 when the current
//! suite carries a doctored regression in any column group, and 2 on a
//! setup problem. Same code path CI runs — there the current suite comes
//! from a live fixed-seed run instead of a file.

use std::path::PathBuf;
use std::process::{Command, Output};

use depfast_bench::baseline::{DetectRecord, Detection, RunRecord, ScenarioRecord, Suite};

fn run_record(driver: &str, fault: &str, throughput: f64) -> RunRecord {
    RunRecord {
        driver: driver.to_string(),
        fault: fault.to_string(),
        cluster: "3_nodes".to_string(),
        ops: 10_000,
        throughput,
        mean_ms: 2.0,
        p50_ms: 1.5,
        p99_ms: 6.0,
        crashed: false,
        drift: 1.0,
        profile: vec![("disk:log_durable".to_string(), 123_456)],
    }
}

/// The shape the bench suite emits: two drivers × [healthy, disk-slow].
fn bench_suite(scale: f64) -> Suite {
    let mut s = Suite::new("gate", 20210531);
    s.config("clients", 64.0);
    for (driver, none, slow) in [
        ("DepFastRaft", 5000.0, 4800.0),
        ("SyncRaft (TiDB-style)", 4200.0, 2500.0),
    ] {
        s.runs.push(run_record(driver, "none", none * scale));
        s.runs.push(run_record(driver, "disk_slow", slow * scale));
    }
    s
}

fn detect_record(driver: &str, fault: &str, ttd_ms: Option<f64>) -> DetectRecord {
    DetectRecord {
        driver: driver.to_string(),
        fault: fault.to_string(),
        cluster: "3x64".to_string(),
        detection: Detection {
            detected: ttd_ms.is_some(),
            ttd_ms,
            ttm_ms: ttd_ms.map(|v| v / 2.0),
            ttr_ms: ttd_ms.map(|_| 1200.0),
            ..Detection::default()
        },
    }
}

/// The shape the detect suite emits: two drivers × [healthy, disk-slow].
fn detect_suite(ttd_scale: f64, false_positives: u64, misattributions: u64) -> Suite {
    let mut s = Suite::new("detect", 20210531);
    s.config("clients", 64.0);
    for driver in ["DepFastRaft", "SyncRaft (TiDB-style)"] {
        s.detect.push(detect_record(driver, "none", None));
        s.detect.push(detect_record(
            driver,
            "Disk Slowness",
            Some(200.0 * ttd_scale),
        ));
    }
    s.detect[0].detection.false_positives = false_positives;
    s.detect[1].detection.misattributions = misattributions;
    s
}

fn scenario_record(scenario: &str, live: bool) -> ScenarioRecord {
    ScenarioRecord {
        scenario: scenario.to_string(),
        driver: "DepFastRaft".to_string(),
        live,
        crashed: false,
        throughput: 3000.0,
        floor: 800.0,
        p99_ms: 25.0,
        stall_ms: if live { 200.0 } else { 3000.0 },
        detection: Detection {
            detected: true,
            ttd_ms: Some(210.0),
            ttr_ms: Some(900.0),
            ..Detection::default()
        },
        tts_ms: None,
        storm_sustained: None,
        amp: None,
    }
}

/// A storm-monitored cell, the shape the scenario suite emits for the
/// retry-storm pair.
fn storm_record(sustained: bool, tts_ms: Option<f64>, amp: f64) -> ScenarioRecord {
    ScenarioRecord {
        throughput: 430.0,
        floor: 0.0,
        p99_ms: 900.0,
        stall_ms: 1700.0,
        tts_ms,
        storm_sustained: Some(sustained),
        amp: Some(amp),
        ..scenario_record("retry-storm-budget", !sustained)
    }
}

fn scenario_suite(records: Vec<ScenarioRecord>) -> Suite {
    let mut s = Suite::new("scenarios", 20210531);
    s.config("clients", 64.0);
    s.scenarios = records;
    s
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("depfast_gate_{}_{name}.json", std::process::id()))
}

/// Runs `gate --suite <suite> --baseline <base> --current <current>` on
/// temporary copies of the two suites.
fn diff(suite: &str, name: &str, base: &Suite, current: &Suite) -> Output {
    let (base_path, current_path) = (temp_path(&format!("{name}_base")), temp_path(name));
    std::fs::write(&base_path, base.to_json()).expect("write baseline");
    std::fs::write(&current_path, current.to_json()).expect("write current");
    let out = gate(&["--suite", suite], &base_path, &current_path);
    let _ = std::fs::remove_file(base_path);
    let _ = std::fs::remove_file(current_path);
    out
}

fn gate(args: &[&str], baseline: &PathBuf, current: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gate"))
        .args(args)
        .arg("--baseline")
        .arg(baseline)
        .arg("--current")
        .arg(current)
        .output()
        .expect("spawn gate")
}

/// Asserts the exit code and, for a failure, that the report names the
/// regressed metric.
fn expect(out: &Output, code: i32, names: &str) {
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(code),
        "expected exit {code}\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(names),
        "report should name {names:?}:\n{stdout}"
    );
}

#[test]
fn identical_suites_pass_the_gate() {
    expect(
        &diff("bench", "ok_bench", &bench_suite(1.0), &bench_suite(1.0)),
        0,
        "PASS",
    );
    let detect = detect_suite(1.0, 0, 0);
    expect(&diff("detect", "ok_detect", &detect, &detect), 0, "PASS");
    let scenarios = scenario_suite(vec![
        scenario_record("partial-partition", true),
        storm_record(false, Some(800.0), 1.5),
    ]);
    expect(
        &diff("scenarios", "ok_scen", &scenarios, &scenarios),
        0,
        "PASS",
    );
}

#[test]
fn ten_percent_throughput_drop_fails_the_gate() {
    let out = diff("bench", "tput", &bench_suite(1.0), &bench_suite(0.9));
    expect(&out, 1, "throughput");
}

#[test]
fn doubled_time_to_detect_fails_the_gate() {
    let out = diff(
        "detect",
        "ttd",
        &detect_suite(1.0, 0, 0),
        &detect_suite(2.0, 0, 0),
    );
    expect(&out, 1, "time-to-detect");
}

#[test]
fn new_false_positive_fails_the_gate() {
    let out = diff(
        "detect",
        "fp",
        &detect_suite(1.0, 0, 0),
        &detect_suite(1.0, 1, 0),
    );
    expect(&out, 1, "false positive");
}

#[test]
fn new_misattribution_fails_the_gate() {
    let out = diff(
        "detect",
        "mis",
        &detect_suite(1.0, 0, 0),
        &detect_suite(1.0, 0, 1),
    );
    expect(&out, 1, "misattribution");
}

#[test]
fn liveness_flip_fails_the_gate() {
    let out = diff(
        "scenarios",
        "live",
        &scenario_suite(vec![scenario_record("partial-partition", true)]),
        &scenario_suite(vec![scenario_record("partial-partition", false)]),
    );
    expect(&out, 1, "liveness verdict flipped");
}

#[test]
fn sustained_storm_flip_fails_the_gate() {
    // The mitigation stopped working: the storm now outlives its fault.
    let out = diff(
        "scenarios",
        "storm",
        &scenario_suite(vec![storm_record(false, Some(800.0), 1.5)]),
        &scenario_suite(vec![storm_record(true, None, 6.1)]),
    );
    expect(&out, 1, "metastable");
}

#[test]
fn doubled_time_to_stabilize_fails_the_gate() {
    // Still dissolves, but takes 2× as long (band is +50% + 50 ms).
    let out = diff(
        "scenarios",
        "tts",
        &scenario_suite(vec![storm_record(false, Some(800.0), 1.5)]),
        &scenario_suite(vec![storm_record(false, Some(1600.0), 1.5)]),
    );
    expect(&out, 1, "time-to-stabilize");
}

/// Every suite gates every column group the files carry: a pair whose
/// `runs` match but whose `scenarios` row flips liveness fails even
/// under `--suite bench`, and doctored detection cells fail under it too.
#[test]
fn any_suite_gates_every_column_group() {
    let mut base = bench_suite(1.0);
    base.scenarios = vec![scenario_record("partial-partition", true)];
    let mut flipped = bench_suite(1.0);
    flipped.scenarios = vec![scenario_record("partial-partition", false)];
    expect(
        &diff("bench", "mixed_live", &base, &flipped),
        1,
        "liveness verdict flipped",
    );
    let out = diff(
        "bench",
        "mixed_ttd",
        &detect_suite(1.0, 0, 0),
        &detect_suite(2.0, 0, 0),
    );
    expect(&out, 1, "time-to-detect");
}

#[test]
fn setup_problems_exit_2_not_1() {
    let current = temp_path("nobase_current");
    std::fs::write(&current, bench_suite(1.0).to_json()).expect("write current");
    let missing = temp_path("does_not_exist");
    for suite in ["bench", "detect", "scenarios"] {
        let out = gate(&["--suite", suite], &missing, &current);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{suite}: a missing baseline is exit 2 (setup problem), not exit 1 (regression)"
        );
    }
    // One file cannot stand for several suites, and suites have names.
    for args in [&["--suite", "bench,detect"][..], &["--suite", "nope"]] {
        let out = gate(args, &current, &current);
        assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error");
    }
    let _ = std::fs::remove_file(current);
}
