//! Metric names and units, the run outcome, sample statistics, and the
//! result lines (human-readable table plus the final JSON object).

use std::time::{Duration, Instant};

/// End-to-end metrics every workload reports: name and unit. Printed
/// (as JSON) by the untraced run; `BENCHMARK.json` lists the same names
/// and units with their bounds.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("step_ms_p50", "ms"),
    ("tokens_per_s", "1/s"),
    ("loss_final", "mse"),
    ("req_per_s", "1/s"),
    ("goodput_req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
];

/// End-to-end metrics printed with the others but left out of the JSON
/// result: the step tail on every workload, and the open-loop latencies
/// on the serving workload. On a shared 2-core host their run-to-run
/// spread is wider than any bound a regression check may hold them to.
pub const PRINTED_ONLY: [(&str, &str); 3] = [
    ("step_ms_p90", "ms"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
];

/// Per-layer metrics: name and unit. Printed (as JSON) by the traced run.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("runtime.forward_ms", "ms"),
    ("runtime.backward_ms", "ms"),
    ("runtime.optimizer_ms", "ms"),
    ("runtime.compute_ms", "ms"),
    ("runtime.encode_ms", "ms"),
    ("runtime.decode_ms", "ms"),
    ("runtime.wire_ms", "ms"),
    ("runtime.collective_ms", "ms"),
    ("runtime.tp_wire_bytes", "B"),
    ("runtime.tp_dense_bytes", "B"),
    ("runtime.pp_wire_bytes", "B"),
    ("runtime.stage_idle_frac", "frac"),
    ("tensor.gemm_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_flop", "count"),
    ("tensor.gemm_small_gflops", "GFLOP/s"),
    ("mp.serial_step_ms", "ms"),
    ("compress.encode_gbps", "GB/s"),
    ("compress.decode_gbps", "GB/s"),
    ("compress.encode_small_us", "us"),
    ("compress.ratio", "x"),
    ("net.crc32_gbps", "GB/s"),
    ("net.frame_gbps", "GB/s"),
    ("net.frame_rtt_us", "us"),
    ("procs.launch_s", "s"),
    ("serve.batch_mean", "count"),
    ("serve.infer_ms_b1", "ms"),
    ("serve.infer_ms_bmax", "ms"),
    ("serve.gen_lag_ms_p99", "ms"),
    ("bench.trace_overhead_ms", "ms"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    checks: Vec<Check>,
    /// Steps or requests attempted, plus output checks.
    pub attempted: u64,
    /// Steps or requests that failed, plus failed output checks.
    pub failed: u64,
}

fn unit_of(
    table: &[(&'static str, &'static str)],
    name: &str,
) -> Option<(&'static str, &'static str)> {
    table.iter().copied().find(|(n, _)| *n == name)
}

impl Outcome {
    /// Records a metric from either table; the unit comes from the table.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table (a bug in this benchmark).
    pub fn put(&mut self, name: &str, value: f64, samples: usize) {
        let (list, (name, unit)) =
            if let Some(e) = unit_of(&END_TO_END, name).or_else(|| unit_of(&PRINTED_ONLY, name)) {
                (&mut self.end_to_end, e)
            } else if let Some(e) = unit_of(&PER_LAYER, name) {
                (&mut self.per_layer, e)
            } else {
                panic!("metric {name} is in neither metric table");
            };
        list.retain(|m| m.name != name);
        list.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok) && self.failed == 0
    }

    /// Prints checks and metrics, then the JSON result line with the
    /// per-layer metrics (`trace`) or the end-to-end ones. Returns
    /// whether every check passed and every metric was measured.
    pub fn print(&self, trace: bool) -> bool {
        for c in &self.checks {
            let state = if c.ok { "ok" } else { "FAILED" };
            println!("check {:<28} {state:<6} {}", c.name, c.detail);
        }
        for (title, list) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            for m in list {
                println!(
                    "{title:<10} {:<26} {:>14.6} {:<8} n={}",
                    m.name, m.value, m.unit, m.samples
                );
            }
        }
        let (table, list) = if trace {
            (&PER_LAYER[..], &self.per_layer)
        } else {
            (&END_TO_END[..], &self.end_to_end)
        };
        let mut complete = true;
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            match list.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => fields.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(m.value)
                )),
                _ => {
                    eprintln!("error: metric {name} was not measured");
                    complete = false;
                }
            }
        }
        let correct = self.correct() && complete;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

/// A finite `f64` as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Time windows a measured phase is split into. Timing metrics are the
/// median over windows of the per-window statistic, so one window
/// disturbed by the host does not move them.
pub const WINDOWS: usize = 5;

/// Groups timestamped values into `WINDOWS` equal slices of
/// `[start, end]` (values past `end` fall in the last slice).
pub fn windows(points: &[(Instant, f64)], start: Instant, end: Instant) -> Vec<Vec<f64>> {
    let span = end.saturating_duration_since(start).as_secs_f64().max(1e-9);
    let mut out = vec![Vec::new(); WINDOWS];
    for &(t, v) in points {
        let x = t.saturating_duration_since(start).as_secs_f64() / span * WINDOWS as f64;
        out[(x as usize).min(WINDOWS - 1)].push(v);
    }
    out
}

/// `stat` of each non-empty window.
pub fn per_window(
    points: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    stat: impl Fn(&[f64]) -> f64,
) -> Vec<f64> {
    windows(points, start, end)
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stat(w))
        .collect()
}

/// Median over the non-empty windows of `stat` of each window.
pub fn windowed(
    points: &[(Instant, f64)],
    start: Instant,
    end: Instant,
    stat: impl Fn(&[f64]) -> f64,
) -> f64 {
    median(&per_window(points, start, end, stat))
}

/// Formats per-window values for the human-readable output.
pub fn show(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
