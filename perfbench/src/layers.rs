//! Per-layer probes for the traced run. Each probe times calls into one
//! layer's public functions at the workload's own shapes, so every
//! per-layer number comes from that layer's code:
//!
//! - `tensor`: `kernels::gemm_*` replaying one rank's GEMM shapes of a
//!   training step, and the forward GEMMs of one sequence;
//! - `mp`: one serial `MpBert` step at the workload's configuration;
//! - `compress`: `CompressorSpec::build` + encode/decode;
//! - `net`: `crc32` and a uds `SocketTransport` pair;
//! - `procs`: `ProcsRuntime::launch`;
//! - `serve`: direct `infer` of one and of `batch` requests.

use crate::engine::{self, Engine};
use crate::report::{median, ms, Outcome};
use crate::spans::Spans;
use crate::train::LR;
use crate::workload::{Backend, Data, Workload, CODEC, HEADS, LAYERS, MODEL_SEED};
use actcomp_compress::Compressor;
use actcomp_mp::MpBert;
use actcomp_net::{SocketOptions, SocketTransport, Transport, TransportKind};
use actcomp_tensor::{kernels, Tensor, Workspace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long a repeated microbenchmark runs at least.
const PROBE_TIME: Duration = Duration::from_millis(300);
/// Repetitions a probe runs at least.
const PROBE_REPS: usize = 3;

/// Runs `f` until both `PROBE_REPS` repetitions and `PROBE_TIME` are
/// reached; returns each repetition's seconds.
fn repeat(mut f: impl FnMut()) -> Vec<f64> {
    let t0 = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < PROBE_REPS || t0.elapsed() < PROBE_TIME {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    secs
}

/// Checks that the engine's gradients after one backward equal a serial
/// `MpBert` built from the same seed and fed the same inputs, bit for bit.
pub fn grads_match_serial(
    w: &Workload,
    engine: &mut Engine,
    ids: &[usize],
    target: &[f32],
) -> Result<(), String> {
    let mut mp = MpBert::new(
        &mut ChaCha8Rng::seed_from_u64(MODEL_SEED),
        w.runtime_config().mp,
    );
    let y = mp.forward(ids, w.batch, w.seq);
    let (_, dy) = actcomp_nn::loss::mse(&y, target);
    mp.zero_grad();
    mp.backward(&dy);
    let mut want: Vec<Tensor> = Vec::new();
    mp.visit_all_params(&mut |p| want.push(p.grad.clone()));
    let got = engine.collect_grads()?;
    if got.len() != want.len() {
        return Err(format!(
            "{} gradients, serial has {}",
            got.len(),
            want.len()
        ));
    }
    match got
        .iter()
        .zip(&want)
        .position(|(g, w)| !crate::train::same_bits(g, w))
    {
        Some(i) => Err(format!("gradient {i} differs from serial")),
        None => Ok(()),
    }
}

pub fn probe(
    w: &Workload,
    seed: u64,
    engine: &mut Engine,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<(), String> {
    let t = Instant::now();
    gemm(w, out);
    spans.record("probe.tensor", "tensor", 0, t, Instant::now(), 0);
    let t = Instant::now();
    serial_step(w, seed, out);
    spans.record("probe.mp", "mp", 0, t, Instant::now(), 0);
    let t = Instant::now();
    codec(w, seed, out);
    spans.record("probe.compress", "compress", 0, t, Instant::now(), 0);
    let t = Instant::now();
    net(w, out)?;
    spans.record("probe.net", "net", 0, t, Instant::now(), 0);
    let t = Instant::now();
    launch(w, out)?;
    spans.record("probe.procs", "procs", 0, t, Instant::now(), 0);
    let t = Instant::now();
    infer(w, seed, engine, out)?;
    spans.record("probe.serve", "serve", 0, t, Instant::now(), 0);
    Ok(())
}

#[derive(Debug, Clone, Copy)]
enum Layout {
    /// `A[m,k] @ B[k,n]`
    Nn,
    /// `A[k,m]ᵀ @ B[k,n]`
    Tn,
    /// `A[m,k] @ B[n,k]ᵀ`
    Nt,
}

#[derive(Debug, Clone, Copy)]
struct Gemm {
    layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    count: usize,
}

impl Gemm {
    fn flop(&self) -> f64 {
        2.0 * (self.m * self.k * self.n * self.count) as f64
    }
}

/// One rank's GEMMs for `seqs` sequences of `seq` tokens through its
/// `LAYERS / pp` layers of `h/tp` attention and `4h/tp` feed-forward
/// shards. `backward` adds the input- and weight-gradient GEMMs.
fn rank_gemms(w: &Workload, seqs: usize, backward: bool) -> Vec<Gemm> {
    let (h, tp) = (w.hidden, w.tp);
    let t = seqs * w.seq;
    let (hs, fs) = (h / tp, 4 * h / tp);
    let dh = h / HEADS;
    let heads = seqs * HEADS / tp;
    let s = w.seq;
    let g = |layout, m, k, n, count| Gemm {
        layout,
        m,
        k,
        n,
        count,
    };
    // x[T,k] @ W[k,n] for the projections: q, k, v, out, fc1, fc2.
    let linears = [(h, hs, 3), (hs, h, 1), (h, fs, 1), (fs, h, 1)];
    let mut v = Vec::new();
    for &(k, n, c) in &linears {
        v.push(g(Layout::Nn, t, k, n, c));
    }
    v.push(g(Layout::Nt, s, dh, s, heads)); // scores = q kᵀ
    v.push(g(Layout::Nn, s, s, dh, heads)); // context = p v
    if backward {
        for &(k, n, c) in &linears {
            v.push(g(Layout::Nt, t, n, k, c)); // dx = dy Wᵀ
            v.push(g(Layout::Tn, k, t, n, c)); // dW = xᵀ dy
        }
        v.push(g(Layout::Nt, s, dh, s, heads)); // dp = dctx vᵀ
        v.push(g(Layout::Tn, s, s, dh, heads)); // dv = pᵀ dctx
        v.push(g(Layout::Nn, s, s, dh, heads)); // dq = ds k
        v.push(g(Layout::Tn, s, s, dh, heads)); // dk = dsᵀ q
    }
    let layers = LAYERS / w.pp;
    v.iter_mut().for_each(|x| x.count *= layers);
    v
}

/// Runs every GEMM of `shapes` on one kernel thread; returns
/// (seconds per replay, flop per replay).
fn replay(shapes: &[Gemm]) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e44);
    let mut ws = Workspace::new();
    let mut bufs: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = shapes
        .iter()
        .map(|g| {
            let mut r = |n: usize| {
                (0..n)
                    .map(|_| rng.gen_range(-1.0f32..1.0))
                    .collect::<Vec<f32>>()
            };
            (r(g.m * g.k), r(g.k * g.n), vec![0.0; g.m * g.n])
        })
        .collect();
    let secs = repeat(|| {
        for (g, (a, b, c)) in shapes.iter().zip(bufs.iter_mut()) {
            for _ in 0..g.count {
                match g.layout {
                    Layout::Nn => kernels::gemm_nn(c, false, a, b, g.m, g.k, g.n, 1, &mut ws),
                    // gemm_tn takes (k, m, n): A is [k, m].
                    Layout::Tn => kernels::gemm_tn(c, false, a, b, g.k, g.m, g.n, 1, &mut ws),
                    Layout::Nt => kernels::gemm_nt(c, false, a, b, g.m, g.k, g.n, 1, &mut ws),
                }
                black_box(&c);
            }
        }
    });
    (median(&secs), shapes.iter().map(Gemm::flop).sum())
}

fn gemm(w: &Workload, out: &mut Outcome) {
    let (secs, flop) = replay(&rank_gemms(w, w.batch, true));
    out.put("tensor.gemm_ms", secs * 1e3, PROBE_REPS);
    out.put("tensor.gemm_flop", flop, 1);
    out.put("tensor.gemm_gflops", flop / secs / 1e9, PROBE_REPS);
    let (secs, flop) = replay(&rank_gemms(w, 1, false));
    out.put("tensor.gemm_small_gflops", flop / secs / 1e9, PROBE_REPS);
}

/// One serial `MpBert` training step (forward, loss, zero_grad,
/// backward, SGD) at the workload's configuration.
fn serial_step(w: &Workload, seed: u64, out: &mut Outcome) {
    let mut cfg = w.runtime_config().mp;
    let seqs = if w.is_serve() { 1 } else { w.batch };
    cfg.tokens = seqs * w.seq;
    let mut mp = MpBert::new(&mut ChaCha8Rng::seed_from_u64(MODEL_SEED), cfg);
    let mut data = Data::new(seed, w.hidden);
    let ids = data.ids(seqs * w.seq);
    let target = data.target(&ids);
    let secs = repeat(|| {
        let y = mp.forward(&ids, seqs, w.seq);
        let (_, dy) = actcomp_nn::loss::mse(&y, &target);
        mp.zero_grad();
        mp.backward(&dy);
        mp.visit_all_params(&mut |p| {
            let g = p.grad.clone();
            p.value.axpy(-LR, &g);
        });
    });
    out.put("mp.serial_step_ms", median(&secs) * 1e3, secs.len());
}

/// The codec's encode/decode throughput at the training shape (one
/// engine forward's rows) and its encode latency at one request's rows.
fn codec(w: &Workload, seed: u64, out: &mut Outcome) {
    let h = w.hidden;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rows = if w.is_serve() {
        w.batch * w.seq
    } else {
        w.tokens()
    };
    let mut comp = CODEC.build(&mut rng, rows * h, h);
    let x = actcomp_tensor::init::randn(&mut rng, [rows, h], 1.0);
    let bytes = (rows * h * 4) as f64;
    // `compress` caches its input for the backward pass; pop it after
    // every timed call so the cache does not grow.
    let mut enc = Vec::new();
    let msg = comp.compress(&x);
    let dy = Tensor::zeros_like(&x);
    comp.backward(&dy);
    let t0 = Instant::now();
    while enc.len() < PROBE_REPS || t0.elapsed() < PROBE_TIME {
        let t = Instant::now();
        let m = comp.compress(&x);
        enc.push(t.elapsed().as_secs_f64());
        black_box(&m);
        comp.backward(&dy);
    }
    let dec = repeat(|| {
        black_box(comp.decompress(&msg));
    });
    out.put(
        "compress.encode_gbps",
        bytes / median(&enc) / 1e9,
        enc.len(),
    );
    out.put(
        "compress.decode_gbps",
        bytes / median(&dec) / 1e9,
        dec.len(),
    );
    out.put("compress.ratio", msg.ratio(4), 1);

    let small = actcomp_tensor::init::randn(&mut rng, [w.seq, h], 1.0);
    let dsmall = Tensor::zeros_like(&small);
    let mut enc = Vec::new();
    let t0 = Instant::now();
    while enc.len() < PROBE_REPS || t0.elapsed() < PROBE_TIME {
        let t = Instant::now();
        let m = comp.compress(&small);
        enc.push(t.elapsed().as_secs_f64());
        black_box(&m);
        comp.backward(&dsmall);
    }
    out.put("compress.encode_small_us", median(&enc) * 1e6, enc.len());
}

/// CRC and framed-transport numbers over a uds `SocketTransport` pair in
/// this process: streaming at the ring-chunk frame size, ping-pong at
/// one request's boundary frame size.
fn net(w: &Workload, out: &mut Outcome) -> Result<(), String> {
    let frame = w.ring_frame_bytes();
    let payload: Vec<u8> = (0..frame).map(|i| (i * 31 % 251) as u8).collect();
    let crc = repeat(|| {
        black_box(actcomp_net::crc32(0, black_box(&payload)));
    });
    out.put(
        "net.crc32_gbps",
        frame as f64 / median(&crc) / 1e9,
        crc.len(),
    );

    let err = |e: actcomp_net::TransportError| e.to_string();
    let bind = |rank| {
        SocketTransport::bind(
            TransportKind::Uds,
            rank,
            2,
            0xbe7c,
            SocketOptions::default(),
        )
    };
    let mut a = bind(0).map_err(err)?;
    let mut b = bind(1).map_err(err)?;
    let (aa, ba) = (a.local_addr().to_string(), b.local_addr().to_string());
    for t in [&mut a, &mut b] {
        t.set_peer(0, aa.clone());
        t.set_peer(1, ba.clone());
    }
    let mut tx = a.open_send(1, 1).map_err(err)?;
    let mut rx = b.open_recv(0, 1).map_err(err)?;
    let mut ping_tx = a.open_send(1, 2).map_err(err)?;
    let mut ping_rx = b.open_recv(0, 2).map_err(err)?;
    let mut pong_tx = b.open_send(0, 3).map_err(err)?;
    let mut pong_rx = a.open_recv(1, 3).map_err(err)?;

    // Streaming: about 16 MB per repetition.
    let frames = (16 << 20) / frame.max(1) + 1;
    let mut stream = Vec::new();
    let t0 = Instant::now();
    while stream.len() < PROBE_REPS || t0.elapsed() < PROBE_TIME {
        let t = Instant::now();
        std::thread::scope(|s| -> Result<(), String> {
            let recv = s.spawn(|| -> Result<(), String> {
                for _ in 0..frames {
                    black_box(rx.recv().map_err(err)?);
                }
                Ok(())
            });
            for _ in 0..frames {
                tx.send(&payload).map_err(err)?;
            }
            recv.join().map_err(|_| "receiver panicked".to_string())?
        })?;
        stream.push(t.elapsed().as_secs_f64());
    }
    let gbps = (frames * frame) as f64 / median(&stream) / 1e9;
    out.put("net.frame_gbps", gbps, stream.len());

    // Ping-pong at the boundary frame size.
    let small = vec![7u8; w.boundary_frame_bytes()];
    let rounds = 200;
    let rtt = std::thread::scope(|s| -> Result<Vec<f64>, String> {
        let echo = s.spawn(|| -> Result<(), String> {
            for _ in 0..rounds {
                let f = ping_rx.recv().map_err(err)?;
                pong_tx.send(&f).map_err(err)?;
            }
            Ok(())
        });
        let mut rtt = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let t = Instant::now();
            ping_tx.send(&small).map_err(err)?;
            black_box(pong_rx.recv().map_err(err)?);
            rtt.push(t.elapsed().as_secs_f64());
        }
        echo.join().map_err(|_| "echo panicked".to_string())??;
        Ok(rtt)
    })?;
    out.put("net.frame_rtt_us", median(&rtt) * 1e6, rtt.len());
    drop((tx, rx, ping_tx, ping_rx, pong_tx, pong_rx));
    a.shutdown();
    b.shutdown();
    Ok(())
}

/// Spawn + rendezvous of the workload's configuration as a procs world.
fn launch(w: &Workload, out: &mut Outcome) -> Result<(), String> {
    let mut secs = Vec::new();
    for _ in 0..PROBE_REPS {
        let t = Instant::now();
        let e = engine::launch(w, Backend::ProcsUds)?;
        secs.push(t.elapsed().as_secs_f64());
        e.shutdown()?;
    }
    out.put("procs.launch_s", median(&secs), secs.len());
    Ok(())
}

/// Direct forward-only `infer` of one request and of `batch` requests.
fn infer(w: &Workload, seed: u64, engine: &mut Engine, out: &mut Outcome) -> Result<(), String> {
    let mut data = Data::new(seed, w.hidden).stream(31);
    for (name, n) in [("serve.infer_ms_b1", 1), ("serve.infer_ms_bmax", w.batch)] {
        let ids = data.ids(n * w.seq);
        let mut secs = Vec::new();
        let t0 = Instant::now();
        while secs.len() < 10 || t0.elapsed() < PROBE_TIME {
            let t = Instant::now();
            black_box(engine.infer(&ids, n, w.seq)?);
            secs.push(t.elapsed());
        }
        let v: Vec<f64> = secs.into_iter().map(ms).collect();
        out.put(name, median(&v), v.len());
    }
    Ok(())
}
