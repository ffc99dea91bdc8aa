//! The result line and the flags printed before it.

/// Metrics of one run, in the order they were measured.
#[derive(Default)]
pub struct Metrics {
    items: Vec<(String, f64, String)>,
    /// Degenerate measurements, printed but never gated on.
    pub flags: Vec<String>,
}

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        assert!(
            self.items.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        let value = if value.is_finite() {
            value
        } else {
            self.flags
                .push(format!("{name}: not finite ({value}), reported as -1"));
            -1.0
        };
        self.items.push((name.to_string(), value, unit.to_string()));
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.put(name, value, "count");
    }

    /// Records a nanosecond quantity in milliseconds.
    pub fn ms(&mut self, name: &str, ns: f64) {
        self.put(name, ns / 1e6, "ms");
    }

    pub fn flag(&mut self, msg: String) {
        self.flags.push(msg);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|(n, _, _)| n == name).map(|i| i.1)
    }

    /// Metrics whose name does not start with `_`, in order.
    pub fn public(&self) -> impl Iterator<Item = &(String, f64, String)> {
        self.items.iter().filter(|(n, _, _)| !n.starts_with('_'))
    }

    /// The line protocol a part process speaks to its parent.
    pub fn emit(&self) -> String {
        let mut s = String::new();
        for (n, v, u) in &self.items {
            s.push_str(&format!("@m {n} {} {u}\n", num(*v)));
        }
        for f in &self.flags {
            s.push_str(&format!("@flag {f}\n"));
        }
        s
    }

    /// Parses [`Metrics::emit`] output; other lines are ignored.
    pub fn parse(text: &str) -> Metrics {
        let mut m = Metrics::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("@m ") {
                let f: Vec<&str> = rest.split(' ').collect();
                if let [n, v, u] = f[..] {
                    m.put(n, v.parse().unwrap_or(f64::NAN), u);
                }
            } else if let Some(rest) = line.strip_prefix("@flag ") {
                m.flag(rest.to_string());
            }
        }
        m
    }

    /// One `clock name value unit` line per metric, for people.
    pub fn human(&self, header: &str) -> String {
        let mut s = format!("# {header}\n");
        for (n, v, u) in self.public() {
            let clock = clock(n);
            s.push_str(&format!("#   {clock:<8} {n:<34} {v:>14.4} {u}\n"));
        }
        for f in &self.flags {
            s.push_str(&format!("# FLAG {f}\n"));
        }
        s
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .public()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// The clock a metric is read on: `host` for what the simulator program
/// costs (wall time, memory, micro-timings), `virtual` for what the
/// modelled system does, exact for a seed.
fn clock(name: &str) -> &'static str {
    const HOST: [&str; 8] = [
        "host_us_per_op",
        "sim_speed_x",
        "setup_s",
        "peak_rss_mb",
        "simkit.ns_per_poll",
        "bench.host_share",
        "trace.overhead_x",
        "ycsb.opgen_new_ms",
    ];
    if HOST.contains(&name) || name.ends_with("_ns") {
        "host"
    } else {
        "virtual"
    }
}

/// Every digit of `v`, never in exponent notation.
fn num(v: f64) -> String {
    format!("{v}")
}
