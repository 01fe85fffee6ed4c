//! One handle over the two training/inference engines the workloads
//! drive, and per-step deltas of their `RuntimeReport`s.

use crate::workload::{Backend, Workload, MODEL_SEED};
use actcomp_net::TransportKind;
use actcomp_runtime::{ProcsOptions, ProcsRuntime, RuntimeReport, ThreadedRuntime};
use actcomp_tensor::Tensor;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub enum Engine {
    Threads(ThreadedRuntime),
    Procs(ProcsRuntime),
}

/// Builds the workload's engine on `backend`. The threads and procs
/// engines draw the same model from `MODEL_SEED`.
pub fn launch(w: &Workload, backend: Backend) -> Result<Engine, String> {
    let cfg = w.runtime_config();
    match backend {
        Backend::Threads => {
            let mut rng = ChaCha8Rng::seed_from_u64(MODEL_SEED);
            ThreadedRuntime::new(&mut rng, cfg)
                .map(Engine::Threads)
                .map_err(|e| format!("threads engine: {e}"))
        }
        Backend::ProcsUds => {
            ProcsRuntime::launch(ProcsOptions::new(cfg, MODEL_SEED, TransportKind::Uds))
                .map(Engine::Procs)
                .map_err(|e| format!("procs launch: {e}"))
        }
    }
}

impl Engine {
    pub fn forward(&mut self, ids: &[usize], batch: usize, seq: usize) -> Result<Tensor, String> {
        match self {
            Engine::Threads(rt) => rt.forward(ids, batch, seq).map_err(|e| e.to_string()),
            Engine::Procs(rt) => rt.forward(ids, batch, seq).map_err(|e| e.to_string()),
        }
    }

    pub fn infer(&mut self, ids: &[usize], nreq: usize, seq: usize) -> Result<Tensor, String> {
        match self {
            Engine::Threads(rt) => rt.infer(ids, nreq, seq).map_err(|e| e.to_string()),
            Engine::Procs(rt) => rt.infer(ids, nreq, seq).map_err(|e| e.to_string()),
        }
    }

    pub fn zero_grad(&mut self) -> Result<(), String> {
        match self {
            Engine::Threads(rt) => {
                rt.zero_grad();
                Ok(())
            }
            Engine::Procs(rt) => rt.zero_grad().map_err(|e| e.to_string()),
        }
    }

    pub fn backward(&mut self, dy: &Tensor) -> Result<(), String> {
        match self {
            Engine::Threads(rt) => rt.backward(dy).map_err(|e| e.to_string()),
            Engine::Procs(rt) => rt.backward(dy).map_err(|e| e.to_string()),
        }
    }

    pub fn sgd_step(&mut self, lr: f32) -> Result<(), String> {
        match self {
            Engine::Threads(rt) => {
                rt.sgd_step(lr);
                Ok(())
            }
            Engine::Procs(rt) => rt.sgd_step(lr).map_err(|e| e.to_string()),
        }
    }

    pub fn collect_grads(&mut self) -> Result<Vec<Tensor>, String> {
        match self {
            Engine::Threads(rt) => Ok(rt.collect_grads()),
            Engine::Procs(rt) => rt.collect_grads().map_err(|e| e.to_string()),
        }
    }

    pub fn report(&mut self) -> Result<RuntimeReport, String> {
        match self {
            Engine::Threads(rt) => Ok(rt.report()),
            Engine::Procs(rt) => rt.report().map_err(|e| e.to_string()),
        }
    }

    /// Stops the engine and waits for its ranks (threads or processes).
    pub fn shutdown(self) -> Result<(), String> {
        match self {
            Engine::Threads(rt) => {
                drop(rt);
                Ok(())
            }
            Engine::Procs(rt) => rt.shutdown().map_err(|e| e.to_string()),
        }
    }
}

/// What the ranks did between two reports: phase seconds as the maximum
/// over ranks (the slowest rank bounds the step), busy share per rank,
/// and traffic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    pub compute_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub wire_s: f64,
    pub collective_s: f64,
    /// Mean over ranks of compute + encode + decode seconds.
    pub busy_mean_s: f64,
    pub tp_wire: usize,
    pub tp_dense: usize,
    pub pp_wire: usize,
}

pub fn delta(before: &RuntimeReport, after: &RuntimeReport) -> Delta {
    let mut d = Delta::default();
    let n = after.ranks.len().max(1) as f64;
    for (a, b) in after.ranks.iter().zip(&before.ranks) {
        let (a, b) = (&a.timers, &b.timers);
        d.compute_s = d.compute_s.max(a.compute_s - b.compute_s);
        d.encode_s = d.encode_s.max(a.encode_s - b.encode_s);
        d.decode_s = d.decode_s.max(a.decode_s - b.decode_s);
        d.wire_s = d.wire_s.max(a.wire_s - b.wire_s);
        d.collective_s = d.collective_s.max(a.collective_s - b.collective_s);
        let busy = |t: &actcomp_runtime::PhaseTimers| t.compute_s + t.encode_s + t.decode_s;
        d.busy_mean_s += (busy(a) - busy(b)) / n;
    }
    d.tp_wire = after.reduce_bytes.wire - before.reduce_bytes.wire;
    d.tp_dense = after.reduce_bytes.dense - before.reduce_bytes.dense;
    d.pp_wire = after.boundary_bytes.wire - before.boundary_bytes.wire;
    d
}
