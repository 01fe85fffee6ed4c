//! The serving workload: `ServeEngine` on a procs/uds world, fed by the
//! benchmark's own single-threaded load generator.
//!
//! Open-loop phases submit on a seeded Poisson schedule at a fixed mean
//! rate and time every request from its due time, so a stall also
//! charges the requests queued behind it; the generator's own lateness
//! is reported. A collector thread waits on tickets in submission order
//! and reads the dispatcher's completion instant, so how late it
//! collects does not change any latency. The closed-loop phase keeps a
//! fixed number of requests outstanding from the same single thread.

use crate::engine::{self, Delta, Engine};
use crate::host;
use crate::layers;
use crate::report::{median, ms, quantile, show, windowed, windows, Outcome, WINDOWS};
use crate::spans::Spans;
use crate::train::{same_bits, LR, SETUPS};
use crate::workload::{Data, Workload, MODEL_SEED};
use actcomp_net::TransportKind;
use actcomp_runtime::{
    ProcsOptions, ProcsRuntime, RuntimeReport, ServeBackend, ServeConfig, ServeEngine, Ticket,
};
use actcomp_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Fixed open-loop arrival rates, in requests per second.
const RATES: [f64; 3] = [300.0, 600.0, 2400.0];
/// The rate `latency_ms_p50` / `latency_ms_p99` are reported at.
const LATENCY_RATE: f64 = 300.0;
/// p99 latency limit a rate must meet to count towards goodput.
const P99_LIMIT_MS: f64 = 50.0;
/// Share of the time budget each open-loop rate runs for; the rate the
/// latencies are reported at gets the most.
const OPEN_SHARE: [f64; 3] = [0.3, 0.25, 0.05];
/// Share of the time budget of the closed-loop phase.
const CLOSED_SHARE: f64 = 0.4;
/// Requests outstanding in the closed-loop phase.
const CLIENTS: usize = 16;
/// Every this-many-th request's reply is checked against direct infer.
const SAMPLE_EVERY: usize = 50;
/// `loss_final` covers the first this-many closed-loop replies.
const LOSS_REQUESTS: usize = 256;
/// Closed-loop warm-up before any phase is measured.
const WARMUP: Duration = Duration::from_millis(500);
/// Training steps timed on the direct engine for the `runtime.*` probes.
const PROBE_STEPS: usize = 20;

const SERVE: ServeConfig = ServeConfig {
    max_batch: 8,
    batch_window: Duration::from_micros(200),
    depth: 2,
};

/// One request as the generator saw it.
struct Req {
    due: Instant,
    sent: Instant,
    done: Option<Instant>,
}

/// What one phase measured.
#[derive(Default)]
struct Phase {
    reqs: Vec<Req>,
    failed: usize,
    /// (ids, reply) of sampled requests, for the per-request check.
    samples: Vec<(Vec<usize>, Tensor)>,
    /// (ids, reply) of the first `LOSS_REQUESTS` replies (closed loop).
    loss_replies: Vec<(Vec<usize>, Tensor)>,
}

impl Phase {
    /// (completion instant, latency ms) of every completed request,
    /// timed from `from` (the due time in open loop, the send in closed
    /// loop).
    fn done_latency(&self, from: fn(&Req) -> Instant) -> Vec<(Instant, f64)> {
        self.reqs
            .iter()
            .filter_map(|r| {
                r.done
                    .map(|d| (d, ms(d.saturating_duration_since(from(r)))))
            })
            .collect()
    }

    /// First send to last completion.
    fn span(&self) -> (Instant, Instant) {
        let start = self.reqs.first().map_or_else(Instant::now, |r| r.sent);
        let end = self
            .reqs
            .iter()
            .filter_map(|r| r.done)
            .max()
            .unwrap_or(start);
        (start, end)
    }

    fn lateness_ms(&self) -> Vec<f64> {
        self.reqs.iter().map(|r| ms(r.sent - r.due)).collect()
    }

    /// Requests still outstanding at the last due time.
    fn backlog(&self) -> usize {
        let Some(last) = self.reqs.last().map(|r| r.due) else {
            return 0;
        };
        self.reqs
            .iter()
            .filter(|r| r.done.is_none_or(|d| d > last))
            .count()
    }

    fn record_spans(&self, name: &str, spans: &mut Spans) {
        if !spans.on() || self.reqs.is_empty() {
            return;
        }
        let (start, end) = self.span();
        let phase = spans.record(name, "serve", 0, start, end, 0);
        for (i, r) in self.reqs.iter().enumerate() {
            let tid = 1 + (i % CLIENTS) as u32;
            let id = spans.record(
                "request",
                "serve",
                tid,
                r.due,
                r.done.unwrap_or(r.sent),
                phase,
            );
            if r.sent > r.due {
                spans.record("generator.late", "serve", tid, r.due, r.sent, id);
            }
        }
    }
}

/// Keeps a reply when its request is sampled or counts towards the loss.
fn keep(phase: &mut Phase, i: usize, ids: Option<Vec<usize>>, y: Tensor, for_loss: bool) {
    if let Some(ids) = ids {
        if for_loss && phase.loss_replies.len() < LOSS_REQUESTS {
            phase.loss_replies.push((ids.clone(), y.clone()));
        }
        if i.is_multiple_of(SAMPLE_EVERY) {
            phase.samples.push((ids, y));
        }
    }
}

/// Submits `rate · dur` requests from this thread on a seeded Poisson
/// schedule of mean rate `rate`.
fn open_loop(engine: &ServeEngine, data: &mut Data, rate: f64, dur: Duration) -> Phase {
    let handle = engine.handle();
    let n = (rate * dur.as_secs_f64()).round().max(1.0) as usize;
    let seq = handle.seq();
    let (tx, rx) = channel::<(usize, Ticket, Option<Vec<usize>>)>();
    std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let mut done: Vec<Option<Instant>> = vec![None; n];
            let mut phase = Phase::default();
            for (i, ticket, ids) in rx {
                match ticket.wait_at() {
                    Ok((y, at)) => {
                        done[i] = Some(at);
                        keep(&mut phase, i, ids, y, false);
                    }
                    Err(e) => {
                        eprintln!("request {i} failed: {e}");
                        phase.failed += 1;
                    }
                }
            }
            (phase, done)
        });
        let mut due = Instant::now() + Duration::from_millis(1);
        let mut reqs = Vec::with_capacity(n);
        for i in 0..n {
            due += Duration::from_secs_f64(data.gap(rate));
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let ids = data.ids(seq);
            let sampled = i.is_multiple_of(SAMPLE_EVERY).then(|| ids.clone());
            let sent = Instant::now();
            let ticket = handle.submit(ids);
            reqs.push(Req {
                due,
                sent,
                done: None,
            });
            let _ = tx.send((i, ticket, sampled));
        }
        drop(tx);
        let (mut phase, done) = collector.join().expect("collector thread");
        for (r, d) in reqs.iter_mut().zip(done) {
            r.done = d;
        }
        phase.reqs = reqs;
        phase
    })
}

/// Keeps `CLIENTS` requests outstanding until `dur` elapses, then drains.
fn closed_loop(engine: &ServeEngine, data: &mut Data, dur: Duration) -> Phase {
    let handle = engine.handle();
    let seq = handle.seq();
    let mut phase = Phase::default();
    let mut window: VecDeque<(usize, Instant, Ticket, Option<Vec<usize>>)> = VecDeque::new();
    let t0 = Instant::now();
    let mut next = 0usize;
    let mut submit = |window: &mut VecDeque<_>, next: &mut usize| {
        let ids = data.ids(seq);
        let keep_ids =
            (*next < LOSS_REQUESTS || next.is_multiple_of(SAMPLE_EVERY)).then(|| ids.clone());
        let sent = Instant::now();
        window.push_back((*next, sent, handle.submit(ids), keep_ids));
        *next += 1;
    };
    for _ in 0..CLIENTS {
        submit(&mut window, &mut next);
    }
    while let Some((i, sent, ticket, ids)) = window.pop_front() {
        let done = match ticket.wait_at() {
            Ok((y, at)) => {
                keep(&mut phase, i, ids, y, true);
                Some(at)
            }
            Err(e) => {
                eprintln!("request {i} failed: {e}");
                phase.failed += 1;
                None
            }
        };
        phase.reqs.push(Req {
            due: sent,
            sent,
            done,
        });
        if t0.elapsed() < dur {
            submit(&mut window, &mut next);
        }
    }
    phase
}

fn start_engine(w: &Workload) -> Result<ServeEngine, String> {
    let rt = ProcsRuntime::launch(ProcsOptions::new(
        w.runtime_config(),
        MODEL_SEED,
        TransportKind::Uds,
    ))
    .map_err(|e| format!("procs launch: {e}"))?;
    ServeEngine::start(ServeBackend::Procs(rt), SERVE).map_err(|e| format!("serve start: {e}"))
}

/// A report with every counter zeroed, to take totals as a delta.
fn zeroed(r: &RuntimeReport) -> RuntimeReport {
    let mut z = r.clone();
    for rank in &mut z.ranks {
        rank.timers = Default::default();
    }
    z.reduce_bytes = Default::default();
    z.boundary_bytes = Default::default();
    z
}

/// MSE of the replies against the seeded per-token target.
fn replies_mse(data: &Data, replies: &[(Vec<usize>, Tensor)]) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for (ids, y) in replies {
        for (a, b) in y.as_slice().iter().zip(data.target(ids)) {
            let d = f64::from(*a) - f64::from(b);
            sum += d * d;
            n += 1;
        }
    }
    sum / n.max(1) as f64
}

pub fn run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let traced = spans.on();

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut engine: Option<ServeEngine> = None;
    for _ in 0..SETUPS {
        if let Some(e) = engine.take() {
            e.finish();
        }
        let t0 = Instant::now();
        engine = Some(start_engine(w)?);
        let t1 = Instant::now();
        spans.record("setup", "setup", 0, t0, t1, 0);
        setup_s.push((t1 - t0).as_secs_f64());
    }
    let engine = engine.expect("at least one setup");
    let data = Data::new(seed, w.hidden);

    let serve_t0 = Instant::now();
    let warm = closed_loop(&engine, &mut data.stream(1), WARMUP);
    let mut open = Vec::new();
    for (i, (rate, share)) in RATES.into_iter().zip(OPEN_SHARE).enumerate() {
        let p = open_loop(
            &engine,
            &mut data.stream(10 + i as u64),
            rate,
            budget.mul_f64(share),
        );
        p.record_spans(&format!("open_loop.{rate}"), spans);
        open.push((rate, p));
    }
    // The traced run measures its closed loop twice, untraced and then
    // traced; the difference is the tracing overhead.
    let closed_budget = budget.mul_f64(CLOSED_SHARE);
    let (closed, closed_traced) = if traced {
        let plain = closed_loop(&engine, &mut data.stream(20), closed_budget / 2);
        let t = closed_loop(&engine, &mut data.stream(21), closed_budget / 2);
        t.record_spans("closed_loop", spans);
        (plain, Some(t))
    } else {
        (
            closed_loop(&engine, &mut data.stream(20), closed_budget),
            None,
        )
    };
    out.put("peak_rss_mb", host::peak_rss_mb(), 1);
    let stats = engine.stats();
    let (_, report) = engine.finish();
    let serve_wall = serve_t0.elapsed();

    // Failures and checks.
    let mut all: Vec<&Phase> = vec![&warm, &closed];
    all.extend(open.iter().map(|(_, p)| p));
    all.extend(closed_traced.iter());
    let requests: usize = all.iter().map(|p| p.reqs.len()).sum();
    let failed: usize = all.iter().map(|p| p.failed).sum();
    out.attempted += requests as u64;
    out.failed += failed as u64;
    out.check(
        "serve.requests",
        failed == 0 && stats.failed == 0,
        format!("{requests} requests, {failed} failed"),
    );
    let replies_finite = all
        .iter()
        .flat_map(|p| p.samples.iter().chain(&p.loss_replies))
        .all(|(_, y)| y.all_finite());
    out.check("serve.replies_finite", replies_finite, "sampled replies");

    // Batched replies against per-request `infer` on a fresh world with
    // the same seed.
    let mut direct = engine::launch(w, crate::workload::Backend::ProcsUds)?;
    let samples: Vec<&(Vec<usize>, Tensor)> = all.iter().flat_map(|p| &p.samples).collect();
    let t = Instant::now();
    let mut mismatched = 0;
    for (ids, y) in &samples {
        let want = direct.infer(ids, 1, w.seq)?;
        if !same_bits(y, &want) {
            mismatched += 1;
        }
    }
    spans.record("check.per_request", "check", 0, t, Instant::now(), 0);
    out.check(
        "batched_vs_per_request",
        mismatched == 0 && !samples.is_empty(),
        format!("{} sampled replies, {mismatched} differ", samples.len()),
    );

    // End-to-end metrics; timings are medians over time windows.
    out.put("setup_s", median(&setup_s), setup_s.len());
    let (start, end) = closed.span();
    let done: Vec<(Instant, f64)> = closed.done_latency(|r| r.sent);
    out.put(
        "step_ms_p50",
        windowed(&done, start, end, median),
        done.len(),
    );
    out.put(
        "step_ms_p90",
        windowed(&done, start, end, |v| quantile(v, 0.9)),
        done.len(),
    );
    let window_s = end.saturating_duration_since(start).as_secs_f64() / WINDOWS as f64;
    let rates: Vec<f64> = windows(&done, start, end)
        .iter()
        .map(|v| v.len() as f64 / window_s)
        .collect();
    println!("closed-loop req_per_s by window {}", show(&rates));
    let rps = median(&rates);
    out.put("req_per_s", rps, done.len());
    out.put("tokens_per_s", rps * w.seq as f64, done.len());
    out.put(
        "loss_final",
        replies_mse(&data, &closed.loss_replies),
        closed.loss_replies.len() * w.seq,
    );
    let mut goodput = 0.0;
    for (rate, p) in &open {
        // Open-loop latency counts from the due time. The median is
        // windowed by due time; the p99 takes the whole phase, so it
        // has enough samples beyond it.
        let lat: Vec<(Instant, f64)> = p.done_latency(|r| r.due);
        let (start, end) = (p.reqs[0].due, p.reqs[p.reqs.len() - 1].due);
        let p50 = windowed(&lat, start, end, median);
        let values: Vec<f64> = lat.iter().map(|x| x.1).collect();
        let p99 = quantile(&values, 0.99);
        let backlog = p.backlog();
        let limit_backlog = (rate * P99_LIMIT_MS / 1e3).ceil() as usize;
        let meets = p.failed == 0 && p99 <= P99_LIMIT_MS && backlog <= limit_backlog;
        println!(
            "open-loop {rate:>5} req/s: n={} p50={p50:.3} ms p99={p99:.3} ms backlog={backlog} (limit {limit_backlog}) late_p99={:.3} ms {}",
            lat.len(),
            quantile(&p.lateness_ms(), 0.99),
            if meets { "meets" } else { "misses" }
        );
        if meets {
            goodput = f64::max(goodput, *rate);
        }
        if *rate == LATENCY_RATE {
            out.put("latency_ms_p50", p50, lat.len());
            out.put("latency_ms_p99", p99, lat.len());
        }
    }
    out.put("goodput_req_per_s", goodput, open.len());

    if traced {
        let lateness: Vec<f64> = open.iter().flat_map(|(_, p)| p.lateness_ms()).collect();
        out.put(
            "serve.gen_lag_ms_p99",
            quantile(&lateness, 0.99),
            lateness.len(),
        );
        out.put(
            "serve.batch_mean",
            stats.completed as f64 / stats.batches.max(1) as f64,
            stats.batches,
        );
        let t = closed_traced.as_ref().expect("traced closed loop");
        let (ts, te) = t.span();
        let tl = t.done_latency(|r| r.sent);
        out.put(
            "bench.trace_overhead_ms",
            windowed(&tl, ts, te, median) - windowed(&done, start, end, median),
            tl.len(),
        );
        let report = report.ok_or("the serve dispatcher returned no report")?;
        per_batch(&mut out, &report, stats.batches, serve_wall);
        train_probe(w, seed, &mut direct, &mut out)?;
        layers::probe(w, seed, &mut direct, spans, &mut out)?;
    }
    direct.shutdown()?;
    let ok = out.attempted - out.failed.min(out.attempted);
    out.put(
        "ok_frac",
        ok as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    Ok(out)
}

/// `runtime.*` phase metrics for serving: the whole run's report, per
/// dispatched batch (max over ranks).
fn per_batch(out: &mut Outcome, report: &RuntimeReport, batches: usize, wall: Duration) {
    let total: Delta = engine::delta(&zeroed(report), report);
    let per = |x: f64| x / batches.max(1) as f64;
    out.put("runtime.compute_ms", per(total.compute_s * 1e3), batches);
    out.put("runtime.encode_ms", per(total.encode_s * 1e3), batches);
    out.put("runtime.decode_ms", per(total.decode_s * 1e3), batches);
    out.put("runtime.wire_ms", per(total.wire_s * 1e3), batches);
    out.put(
        "runtime.collective_ms",
        per(total.collective_s * 1e3),
        batches,
    );
    out.put("runtime.tp_wire_bytes", per(total.tp_wire as f64), batches);
    out.put(
        "runtime.tp_dense_bytes",
        per(total.tp_dense as f64),
        batches,
    );
    out.put("runtime.pp_wire_bytes", per(total.pp_wire as f64), batches);
    out.put(
        "runtime.stage_idle_frac",
        1.0 - total.busy_mean_s / wall.as_secs_f64(),
        batches,
    );
}

/// Driver-side forward / backward / optimizer time of one request-sized
/// training step on the serving world's configuration.
fn train_probe(
    w: &Workload,
    seed: u64,
    engine: &mut Engine,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut data = Data::new(seed, w.hidden).stream(30);
    let (mut f, mut b, mut o) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_STEPS {
        let ids = data.ids(w.seq);
        let target = data.target(&ids);
        let t = Instant::now();
        let y = engine.forward(&ids, 1, w.seq)?;
        f.push(ms(t.elapsed()));
        let (_, dy) = actcomp_nn::loss::mse(&y, &target);
        engine.zero_grad()?;
        let t = Instant::now();
        engine.backward(&dy)?;
        b.push(ms(t.elapsed()));
        let t = Instant::now();
        engine.sgd_step(LR)?;
        o.push(ms(t.elapsed()));
    }
    out.put("runtime.forward_ms", median(&f), f.len());
    out.put("runtime.backward_ms", median(&b), b.len());
    out.put("runtime.optimizer_ms", median(&o), o.len());
    Ok(())
}
