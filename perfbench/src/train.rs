//! The training workloads: SGD on an MSE objective against a seeded
//! per-token target, driven step by step from outside the engine.

use crate::engine::{self, Delta, Engine};
use crate::host;
use crate::layers;
use crate::report::{mean, median, ms, per_window, quantile, show, windowed, Outcome};
use crate::spans::Spans;
use crate::workload::{Backend, Data, Workload};
use actcomp_tensor::Tensor;
use std::time::{Duration, Instant};

/// Engine constructions per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Untimed warm-up steps at the start of the run.
const WARMUP: usize = 2;
/// `loss_final` is the loss of this step, so it does not depend on how
/// many steps fit in the time budget.
const LOSS_STEP: usize = 30;
/// Steps whose loss the procs engine must reproduce bit for bit.
const MATCH_STEPS: usize = 3;
pub const LR: f32 = 0.5;

/// One driver-side training step.
#[derive(Debug, Clone, Copy)]
struct StepTimes {
    start: Instant,
    end: Instant,
    forward: Duration,
    backward: Duration,
    sgd: Duration,
}

impl StepTimes {
    fn total_ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// Drives training steps on one engine with one input stream.
struct Trainer<'a> {
    w: &'a Workload,
    engine: Engine,
    data: Data,
    losses: Vec<f32>,
    /// End of the previous step, for the driver gap.
    last_end: Option<Instant>,
    /// Gap between one step's end and the next step's start (input
    /// generation and driver bookkeeping).
    gaps_ms: Vec<f64>,
}

type Inspect<'f> = &'f mut dyn FnMut(&mut Engine, &[usize], &[f32]);

impl<'a> Trainer<'a> {
    fn new(w: &'a Workload, engine: Engine, seed: u64) -> Trainer<'a> {
        Trainer {
            w,
            engine,
            data: Data::new(seed, w.hidden),
            losses: Vec::new(),
            last_end: None,
            gaps_ms: Vec::new(),
        }
    }

    /// Runs one step. `inspect` sees the gradients after backward and
    /// before the optimizer (the serial-equivalence check hooks in here).
    fn step(
        &mut self,
        spans: &mut Spans,
        inspect: Option<Inspect<'_>>,
    ) -> Result<StepTimes, String> {
        let (b, s) = (self.w.batch, self.w.seq);
        let ids = self.data.ids(b * s);
        let target = self.data.target(&ids);
        let start = Instant::now();
        if let Some(prev) = self.last_end {
            self.gaps_ms.push(ms(start - prev));
        }
        let mut d = [Duration::ZERO; 5];
        let y = timed(&mut d[0], || self.engine.forward(&ids, b, s))?;
        let (loss, dy) = timed(&mut d[1], || actcomp_nn::loss::mse(&y, &target));
        timed(&mut d[2], || self.engine.zero_grad())?;
        timed(&mut d[3], || self.engine.backward(&dy))?;
        if let Some(f) = inspect {
            f(&mut self.engine, &ids, &target);
        }
        timed(&mut d[4], || self.engine.sgd_step(LR))?;
        let end = Instant::now();
        self.last_end = Some(end);
        self.losses.push(loss);
        if spans.on() {
            let parent = spans.record("step", "train", 0, start, end, 0);
            let mut at = start;
            for (name, dur) in ["forward", "loss", "zero_grad", "backward", "sgd_step"]
                .iter()
                .zip(d)
            {
                spans.record(*name, "runtime", 0, at, at + dur, parent);
                at += dur;
            }
        }
        Ok(StepTimes {
            start,
            end,
            forward: d[0],
            backward: d[3],
            sgd: d[4],
        })
    }

    /// Steps until `budget` elapses. `traced` adds a `RuntimeReport`
    /// round trip per step, counted in the step, for the phase deltas.
    fn timed_loop(
        &mut self,
        budget: Duration,
        spans: &mut Spans,
        traced: bool,
    ) -> Result<Loop, String> {
        let mut lp = Loop {
            steps: Vec::new(),
            deltas: Vec::new(),
            start: Instant::now(),
            end: Instant::now(),
        };
        let mut before = if traced {
            Some(self.engine.report()?)
        } else {
            None
        };
        while lp.start.elapsed() < budget {
            let mut t = self.step(spans, None)?;
            if let Some(b) = before.as_mut() {
                let after = self.engine.report()?;
                lp.deltas.push(engine::delta(b, &after));
                *b = after;
                t.end = Instant::now();
                self.last_end = Some(t.end);
            }
            lp.steps.push(t);
        }
        lp.end = Instant::now();
        Ok(lp)
    }
}

/// The steps of one timed loop.
struct Loop {
    steps: Vec<StepTimes>,
    deltas: Vec<Delta>,
    start: Instant,
    end: Instant,
}

impl Loop {
    /// `stat` of step times (ms), per window, median over windows.
    fn step_ms(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        let pts: Vec<(Instant, f64)> = self.steps.iter().map(|t| (t.end, t.total_ms())).collect();
        windowed(&pts, self.start, self.end, stat)
    }

    fn median_of(&self, f: fn(&StepTimes) -> Duration) -> f64 {
        median(&self.steps.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// The first `MATCH_STEPS` losses of an in-process threads engine with
/// the same seed and inputs: the reference the procs engine must match.
fn reference_losses(w: &Workload, seed: u64, spans: &mut Spans) -> Result<Vec<f32>, String> {
    let t0 = Instant::now();
    let engine = engine::launch(w, Backend::Threads)?;
    let mut tr = Trainer::new(w, engine, seed);
    let mut quiet = Spans::new(false);
    for _ in 0..MATCH_STEPS {
        tr.step(&mut quiet, None)?;
    }
    tr.engine.shutdown()?;
    spans.record("reference.threads", "check", 0, t0, Instant::now(), 0);
    Ok(tr.losses)
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Times engine constructions; keeps the last engine running.
fn setup(w: &Workload, spans: &mut Spans, out: &mut Outcome) -> Result<Engine, String> {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut engine = None;
    for _ in 0..SETUPS {
        if let Some(e) = engine.take() {
            Engine::shutdown(e)?;
        }
        let t0 = Instant::now();
        engine = Some(engine::launch(w, w.backend)?);
        let t1 = Instant::now();
        spans.record("setup", "setup", 0, t0, t1, 0);
        secs.push((t1 - t0).as_secs_f64());
    }
    out.put("setup_s", median(&secs), secs.len());
    Ok(engine.expect("at least one setup"))
}

pub fn run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let traced = spans.on();
    let engine = setup(w, spans, &mut out)?;
    let reference = match w.backend {
        Backend::ProcsUds => Some(reference_losses(w, seed, spans)?),
        Backend::Threads => None,
    };

    let mut tr = Trainer::new(w, engine, seed);
    // Warm-up steps; the first one also checks threads against serial.
    let mut serial_check: Option<Result<(), String>> = None;
    for i in 0..WARMUP {
        let mut check = |e: &mut Engine, ids: &[usize], target: &[f32]| {
            serial_check = Some(layers::grads_match_serial(w, e, ids, target));
        };
        let hook: Option<Inspect<'_>> =
            (i == 0 && w.backend == Backend::Threads).then_some(&mut check as _);
        tr.step(spans, hook)?;
    }

    // Timed training. The traced run splits it into an untraced half and
    // a traced half; their difference is the tracing cost.
    let plain = tr.timed_loop(if traced { budget / 2 } else { budget }, spans, false)?;
    let traced_loop = if traced {
        Some(tr.timed_loop(budget / 2, spans, true)?)
    } else {
        None
    };
    out.put("peak_rss_mb", host::peak_rss_mb(), 1);

    // Checks.
    let n = tr.losses.len();
    out.attempted += n as u64;
    out.check(
        "steps.enough",
        n > LOSS_STEP,
        format!("{n} steps ran, loss_final needs {}", LOSS_STEP + 1),
    );
    let trajectory: Vec<String> = tr
        .losses
        .iter()
        .enumerate()
        .filter(|(i, _)| i.is_multiple_of(10) || *i + 1 == n)
        .map(|(i, l)| format!("{i}:{l:.4}"))
        .collect();
    println!("loss by step {}", trajectory.join(" "));
    let finite = tr.losses.iter().all(|l| l.is_finite());
    out.check("loss.finite", finite, format!("{n} losses"));
    let first = tr.losses.first().copied().unwrap_or(f32::NAN);
    let last = tr.losses.last().copied().unwrap_or(f32::NAN);
    let at = tr.losses.get(LOSS_STEP).copied().unwrap_or(f32::NAN);
    out.check(
        "loss.decreases",
        at < first && last < first,
        format!("step 0 {first:.6} -> step {LOSS_STEP} {at:.6} -> last {last:.6}"),
    );
    out.put("loss_final", f64::from(at), 1);
    if let Some(c) = serial_check {
        let detail = match &c {
            Ok(()) => "bit-identical after step 1".to_string(),
            Err(e) => e.clone(),
        };
        out.check("threads_vs_serial.grads", c.is_ok(), detail);
    }
    if let Some(want) = reference {
        let got: Vec<f32> = tr.losses.iter().take(MATCH_STEPS).copied().collect();
        out.check(
            "procs_vs_threads.losses",
            bits(&got) == bits(&want),
            format!("procs {got:?} threads {want:?}"),
        );
    }

    // End-to-end metrics, from the untraced loop.
    let k = plain.steps.len();
    let step_mean = plain.step_ms(mean);
    let pts: Vec<(Instant, f64)> = plain.steps.iter().map(|t| (t.end, t.total_ms())).collect();
    println!(
        "step_ms_p50 by window {}",
        show(&per_window(&pts, plain.start, plain.end, median))
    );
    out.put("step_ms_p50", plain.step_ms(median), k);
    out.put("step_ms_p90", plain.step_ms(|v| quantile(v, 0.9)), k);
    out.put(
        "tokens_per_s",
        (w.batch * w.seq) as f64 * 1e3 / step_mean,
        k,
    );
    out.put("req_per_s", 1e3 / step_mean, k);
    let good = if out.correct() { 1e3 / step_mean } else { 0.0 };
    out.put("goodput_req_per_s", good, k);

    if let Some(tl) = traced_loop {
        out.put(
            "runtime.forward_ms",
            tl.median_of(|t| t.forward),
            tl.steps.len(),
        );
        out.put(
            "runtime.backward_ms",
            tl.median_of(|t| t.backward),
            tl.steps.len(),
        );
        out.put(
            "runtime.optimizer_ms",
            tl.median_of(|t| t.sgd),
            tl.steps.len(),
        );
        put_deltas(&mut out, &tl.deltas, tl.end - tl.start);
        out.put(
            "bench.trace_overhead_ms",
            tl.step_ms(median) - plain.step_ms(median),
            tl.steps.len(),
        );
        out.put(
            "serve.gen_lag_ms_p99",
            quantile(&tr.gaps_ms, 0.99),
            tr.gaps_ms.len(),
        );
        out.put("serve.batch_mean", w.batch as f64, 1);
        layers::probe(w, seed, &mut tr.engine, spans, &mut out)?;
    }

    tr.engine.shutdown()?;
    let ok = out.attempted - out.failed.min(out.attempted);
    out.put(
        "ok_frac",
        ok as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    Ok(out)
}

/// Per-step `RuntimeReport` deltas → the `runtime.*` phase metrics
/// (median over steps of the max over ranks) and traffic per step.
fn put_deltas(out: &mut Outcome, deltas: &[Delta], wall: Duration) {
    let col = |f: fn(&Delta) -> f64| -> f64 { median(&deltas.iter().map(f).collect::<Vec<_>>()) };
    let n = deltas.len();
    out.put("runtime.compute_ms", col(|d| d.compute_s * 1e3), n);
    out.put("runtime.encode_ms", col(|d| d.encode_s * 1e3), n);
    out.put("runtime.decode_ms", col(|d| d.decode_s * 1e3), n);
    out.put("runtime.wire_ms", col(|d| d.wire_s * 1e3), n);
    out.put("runtime.collective_ms", col(|d| d.collective_s * 1e3), n);
    out.put("runtime.tp_wire_bytes", col(|d| d.tp_wire as f64), n);
    out.put("runtime.tp_dense_bytes", col(|d| d.tp_dense as f64), n);
    out.put("runtime.pp_wire_bytes", col(|d| d.pp_wire as f64), n);
    let busy: f64 = deltas.iter().map(|d| d.busy_mean_s).sum();
    out.put(
        "runtime.stage_idle_frac",
        1.0 - busy / wall.as_secs_f64().max(1e-9),
        n,
    );
}

/// Whether two tensors have the same shape and bit-identical values.
pub fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
