//! The benchmark is deterministic on the virtual clock: two runs with the
//! same seed report identical virtual metrics, and every metric a run
//! reports is declared in `BENCHMARK.json` with the same unit.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_depfast-perfbench");

/// Metrics read on the host clock; everything else is virtual.
const HOST: [&str; 5] = [
    "_setup_s",
    "_host_s",
    "_peak_rss_mb",
    "simkit.ns_per_poll",
    "bench.host_share",
];

fn run(args: &[&str]) -> String {
    let out = Command::new(EXE)
        .args(args)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `(name, value)` of every metric a part reports, host ones left out.
fn virtual_metrics(part: &str, workload: &str, seed: u64) -> Vec<(String, String)> {
    let seed = seed.to_string();
    let args = [
        "--part",
        part,
        "--workload",
        workload,
        "--seed",
        &seed,
        "--seconds",
        "2",
    ];
    run(&args)
        .lines()
        .filter_map(|l| l.strip_prefix("@m "))
        .map(|l| {
            let mut f = l.split(' ');
            (f.next().unwrap().to_string(), f.next().unwrap().to_string())
        })
        .filter(|(n, _)| !HOST.contains(&n.as_str()))
        .collect()
}

#[test]
fn same_seed_replays_agree_on_the_virtual_clock() {
    for workload in ["write-steady", "failslow-rolling"] {
        let a = virtual_metrics("replay", workload, 11);
        assert!(a.iter().any(|(n, _)| n == "lat_p99_ms"));
        assert_eq!(a, virtual_metrics("replay", workload, 11), "{workload}");
    }
}

#[test]
fn same_seed_layer_counters_agree() {
    let a = virtual_metrics("layers", "read-mostly", 5);
    assert!(a.iter().any(|(n, _)| n == "simkit.polls_per_op"));
    assert_eq!(a, virtual_metrics("layers", "read-mostly", 5));
}

#[test]
fn another_seed_gives_other_inputs() {
    let lat = |seed| {
        virtual_metrics("replay", "write-steady", seed)
            .into_iter()
            .find(|(n, _)| n == "lat_p99_ms")
    };
    assert_ne!(lat(1), lat(2));
}

/// Names and units of the metrics in the result line (the last line).
fn result_metrics(out: &str) -> Vec<(String, String)> {
    let last = out.lines().last().expect("a result line");
    let metrics = &last[last.find("\"metrics\"").expect("metrics key")..];
    metrics
        .split("}, \"")
        .filter_map(|item| {
            let item = item.trim_start_matches("\"metrics\": {\"");
            let name = item.split('"').next()?;
            let unit = item.split("\"unit\": \"").nth(1)?.split('"').next()?;
            Some((name.to_string(), unit.to_string()))
        })
        .collect()
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> String {
        let from = spec.find(&format!("\"{key}\"")).expect("section");
        let to = spec[from..].find(']').expect("section end");
        spec[from..from + to].to_string()
    };
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let declared = section(key);
        let out = run(&[
            "--workload",
            "write-steady",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            trace,
        ]);
        let got = result_metrics(&out);
        assert_eq!(got.len(), declared.matches("\"name\"").count(), "{key}");
        for (name, unit) in got {
            let at = declared
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} not declared in {key}"));
            let entry = &declared[at..at + declared[at..].find('}').unwrap()];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: unit {unit} differs from {entry}"
            );
        }
    }
}
