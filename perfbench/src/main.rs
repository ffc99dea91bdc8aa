//! Open-loop, layer-attributed benchmark of the DepFast reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload write-steady --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--seconds` is the length of the measured window on the virtual clock.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer ones (counters over an untraced
//! window, span self times from a second, fully traced same-seed window,
//! micro-timings, and the capacity search). Lines starting with `#` are
//! for people; the last line is the JSON result. The exit code is 1 when
//! the output check fails, 2 on bad arguments.

mod check;
mod hostspeed;
mod layers;
mod micro;
mod openloop;
mod parts;
mod report;
mod spans;
mod stats;

use std::process::Command;
use std::time::Duration;

use depfast_fault::FaultKind;
use depfast_ycsb::workload::WorkloadSpec;

use openloop::{Rolling, Shape, Workload};
use report::Metrics;

/// Same-seed replays per end-to-end run, each in its own process; the
/// host times are the fastest of them.
const REPLAYS: usize = 7;
/// Bisection steps of the capacity search.
const PROBE_STEPS: usize = 6;

fn workloads() -> [Workload; 4] {
    let update = WorkloadSpec::update_heavy();
    let write_steady = Workload {
        name: "write-steady",
        spec: update,
        rate: 4000.0,
        shape: Shape::Single { servers: 3 },
        read_index: false,
        rolling: None,
        max_rate: true,
    };
    [
        write_steady,
        Workload {
            name: "read-mostly",
            spec: WorkloadSpec::ycsb_b(),
            rate: 8000.0,
            read_index: true,
            ..write_steady
        },
        Workload {
            name: "failslow-rolling",
            // Table 1 disk slowness; see NOTES.md before changing it.
            rolling: Some(Rolling {
                kind: FaultKind::DiskSlow { bw_factor: 0.008 },
                episode: Duration::from_secs(1),
                healthy: Duration::from_secs(5),
                first: Duration::from_secs(1),
            }),
            max_rate: false,
            ..write_steady
        },
        Workload {
            name: "sharded-8g",
            rate: 12000.0,
            shape: Shape::Sharded {
                groups: 8,
                nodes: 6,
            },
            max_rate: false,
            ..write_steady
        },
    ]
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in part processes only.
    part: Option<String>,
    rate: Option<f64>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<&str> {
        let i = argv.iter().position(|a| a == flag)?;
        argv.get(i + 1).map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag} <value>"));
    let name = need("--workload")?;
    let workload = workloads()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let num = |flag: &str| -> Result<u64, String> {
        need(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let part = get("--part").map(str::to_string);
    let trace = match (get("--trace"), &part) {
        (Some("0"), _) | (None, Some(_)) => false,
        (Some("1"), _) => true,
        (t, _) => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let rate = match get("--rate") {
        Some(r) => Some(r.parse().map_err(|e| format!("--rate: {e}"))?),
        None => None,
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
        part,
        rate,
    })
}

/// Runs one part in a child process of this executable and collects
/// what it reports.
fn run_part(a: &Args, part: &str, rate: Option<f64>) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--part", part, "--workload", a.workload.name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()]);
    if let Some(r) = rate {
        cmd.args(["--rate", &r.to_string()]);
    }
    let out = cmd.output().map_err(|e| format!("part {part}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "part {part} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(Metrics::parse(&String::from_utf8_lossy(&out.stdout)))
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Copies `from`'s public metrics and flags into `out`.
fn absorb(out: &mut Metrics, from: &Metrics) {
    for (n, v, u) in from.public() {
        out.put(n, *v, u);
    }
    for f in &from.flags {
        if !out.flags.contains(f) {
            out.flags.push(f.clone());
        }
    }
}

/// What every run reports besides its metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn outcome(parts: &[&Metrics]) -> Outcome {
    let first = parts[0];
    Outcome {
        correct: parts.iter().all(|p| p.get("_check_ok") == Some(1.0)),
        attempted: first.get("_attempted").unwrap_or(0.0) as u64,
        failed: first.get("_failed").unwrap_or(0.0) as u64,
    }
}

fn end_to_end(a: &Args, out: &mut Metrics) -> Result<Outcome, String> {
    // The reference job runs before each replay and after the last; see
    // `hostspeed`.
    let reference = || -> Result<f64, String> {
        Ok(run_part(a, "reference", None)?
            .get("_ref_s")
            .unwrap_or(f64::NAN))
    };
    let mut refs = vec![reference()?];
    let mut reps = Vec::with_capacity(REPLAYS);
    for _ in 0..REPLAYS {
        reps.push(run_part(a, "replay", None)?);
        refs.push(reference()?);
    }
    let first = &reps[0];
    // A replay's public metrics are on the virtual clock, so exact for a
    // seed: every replay must agree.
    for (name, v, _) in first.public() {
        if reps.iter().any(|r| r.get(name) != Some(*v)) {
            out.flag(format!("same-seed replays disagree on {name}"));
        }
    }
    absorb(out, first);
    let values =
        |n: &str| -> Vec<f64> { reps.iter().map(|r| r.get(n).unwrap_or(f64::NAN)).collect() };
    // Other tenants' load only ever adds host time, and comes in bursts:
    // the fastest replay and the fastest reference job are the steadiest
    // estimates of the program's cost and of the machine's speed.
    let fastest = |xs: Vec<f64>| xs.into_iter().fold(f64::INFINITY, f64::min);
    let ref_s = fastest(refs);
    let scale = hostspeed::REFERENCE_S / ref_s;
    let host_s = fastest(values("_host_s")) * scale;
    let completed = first.get("_completed").unwrap_or(0.0).max(1.0);
    out.put("host_us_per_op", host_s * 1e6 / completed, "us");
    out.put("sim_speed_x", a.seconds as f64 / host_s, "x");
    out.put("setup_s", fastest(values("_setup_s")) * scale, "s");
    out.put("peak_rss_mb", median(values("_peak_rss_mb")), "MiB");
    out.flag(format!(
        "info: unscaled: window {:.4} s, set-up {:.4} s, reference job {:.5} s (fastest of {REPLAYS} replays and of the jobs around them)",
        fastest(values("_host_s")),
        fastest(values("_setup_s")),
        ref_s
    ));
    Ok(outcome(&reps.iter().collect::<Vec<_>>()))
}

/// Highest rate between the workload rate and twice it whose probe
/// passes, by bisection; every probe is a fresh same-seed simulation.
fn max_rate(a: &Args) -> Result<f64, String> {
    let pass = |rate: f64| -> Result<bool, String> {
        Ok(run_part(a, "probe", Some(rate))?.get("_pass") == Some(1.0))
    };
    let (mut lo, mut hi) = (a.workload.rate, 2.0 * a.workload.rate);
    if pass(hi)? {
        return Ok(hi);
    }
    for _ in 0..PROBE_STEPS {
        let mid = ((lo + hi) / 2.0).round();
        if pass(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

fn per_layer(a: &Args, out: &mut Metrics) -> Result<Outcome, String> {
    let counters = run_part(a, "layers", None)?;
    let traced = run_part(a, "traced", None)?;
    let micro = run_part(a, "micro", None)?;
    absorb(out, &counters);
    absorb(out, &traced);
    let host = |m: &Metrics| m.get("_host_s").unwrap_or(f64::NAN);
    out.put("trace.overhead_x", host(&traced) / host(&counters), "x");
    if traced.get("_lat_p99") != counters.get("_lat_p99") {
        out.flag("the traced window differs from the untraced one on the virtual clock".into());
    }
    absorb(out, &micro);
    if a.workload.max_rate {
        out.put("bench.max_rate_rps", max_rate(a)?, "1/s");
    } else {
        out.put("bench.max_rate_rps", 0.0, "1/s");
        out.flag(format!(
            "bench.max_rate_rps: not searched on {}",
            a.workload.name
        ));
    }
    Ok(outcome(&[&counters, &traced]))
}

/// Runs one part in this process and prints it for the parent.
fn part(a: &Args, part: &str) -> Result<(), String> {
    let mut out = Metrics::default();
    let w = &a.workload;
    match part {
        "replay" => parts::replay(w, a.seed, a.seconds, &mut out),
        "layers" => parts::layer_counters(w, a.seed, a.seconds, &mut out),
        "traced" => parts::traced(w, a.seed, a.seconds, &mut out),
        "micro" => micro::timings(&mut out),
        "probe" => parts::probe(w, a.seed, a.rate.ok_or("probe needs --rate")?, &mut out),
        "reference" => out.put("_ref_s", hostspeed::reference_s(), "s"),
        p => return Err(format!("unknown part {p}")),
    }
    print!("{}", out.emit());
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Some(p) = &args.part {
        if let Err(e) = part(&args, p) {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let mut out = Metrics::default();
    let result = if args.trace {
        per_layer(&args, &mut out)
    } else {
        end_to_end(&args, &mut out)
    };
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let header = format!(
        "{} seed {} window {} s (virtual), {}",
        args.workload.name,
        args.seed,
        args.seconds,
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", out.human(&header));
    println!("{}", out.result_json(o.correct, o.attempted, o.failed));
    if !o.correct {
        std::process::exit(1);
    }
}
