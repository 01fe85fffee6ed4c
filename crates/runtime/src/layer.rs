//! One rank's shard of an encoder layer, with channel-based collectives
//! where the serial executor sums partials in-process.
//!
//! The arithmetic replicates [`actcomp_mp`]'s tensor-parallel layer op
//! for op: the two row-parallel projections (attention output, MLP
//! contraction) go through the compressed all-reduce; the backward
//! reductions that the serial `ColumnShards` performs as plain sums run
//! as dense all-reduces in the same rank order, so with the identity
//! compressor a threaded step is bit-identical to the serial one.

use crate::comm::TpGroup;
use crate::report::{timed, PhaseTimers};
use actcomp_compress::Compressor;
use actcomp_mp::shard::{attn_context_backward_ws, attn_context_forward_ws};
use actcomp_mp::{ColumnShard, RowShard};
use actcomp_nn::{EncoderLayer, Layer, LayerNorm, LnCache, Parameter};
use actcomp_tensor::graph::Graph;
use actcomp_tensor::plan::{FusePolicy, OutBind};
use actcomp_tensor::{Tensor, Workspace};

/// `LN((s + b) + x)` as one compiled graph segment: the row-broadcast
/// bias add and the residual sum are plan-internal intermediates the
/// planner recycles as soon as the normalization consumes them, instead
/// of two caller-held full activations.
fn ln_bias_residual_forward(
    ln: &LayerNorm,
    s: &Tensor,
    bias: &Tensor,
    x: &Tensor,
    ws: &mut Workspace,
) -> (Tensor, LnCache) {
    let (m, n) = (s.dims()[0], s.dims()[1]);
    let mut g = Graph::new();
    let gs = g.input(m, n);
    let gb = g.input_vec(n);
    let gx = g.input(m, n);
    let gg = g.input_vec(n);
    let gbeta = g.input_vec(n);
    let a = g.bias_add(gs, gb);
    let sum = g.residual_add(a, gx);
    let (y, xhat, inv_std) = g.layernorm(sum, gg, gbeta, ln.eps());
    g.mark_output(y);
    g.mark_output(xhat);
    g.mark_output(inv_std);
    let plan = g.compile(FusePolicy::Auto).expect("bias+residual+ln graph");
    let mut res = plan.run(
        &[
            s.as_slice(),
            bias.as_slice(),
            x.as_slice(),
            ln.gamma.value.as_slice(),
            ln.beta.value.as_slice(),
        ],
        vec![OutBind::Lease, OutBind::Lease, OutBind::Lease],
        ws,
    );
    (
        Tensor::from_vec(res[0].take().expect("leased y"), [m, n]),
        LnCache::from_parts(
            Tensor::from_vec(res[1].take().expect("leased xhat"), [m, n]),
            Tensor::from_vec(res[2].take().expect("leased inv_std"), [m]),
        ),
    )
}

/// Rank-local MLP expansion with the activation fused into the GEMM
/// epilogue: returns `(gelu(x·W + b), x·W + b)` from one plan, with the
/// pre-activation stashed out of the register tile for backward instead
/// of recomputed or produced by a second full pass.
fn mlp_up_forward(fc1: &ColumnShard, x: &Tensor, ws: &mut Workspace) -> (Tensor, Tensor) {
    let (m, kin) = (x.dims()[0], x.dims()[1]);
    let n = fc1.weight.value.dims()[1];
    let mut g = Graph::new();
    let gx = g.input(m, kin);
    let gw = g.input(kin, n);
    let gb = g.input_vec(n);
    let y = g.matmul(gx, gw);
    let h = g.bias_add(y, gb);
    let act = g.gelu(h);
    g.mark_output(act);
    g.mark_output(h);
    let plan = g.compile(FusePolicy::Auto).expect("mlp up graph");
    let mut res = plan.run(
        &[
            x.as_slice(),
            fc1.weight.value.as_slice(),
            fc1.bias.value.as_slice(),
        ],
        vec![OutBind::Lease, OutBind::Lease],
        ws,
    );
    (
        Tensor::from_vec(res[0].take().expect("leased act"), [m, n]),
        Tensor::from_vec(res[1].take().expect("leased h"), [m, n]),
    )
}

/// Rank-local MLP contraction backward with the GELU derivative fused
/// into the data-gradient GEMM's epilogue: accumulates `dW += actᵀ·dp`
/// straight into the shard's grad and returns `dh = (dp·Wᵀ) ⊙ gelu'(h)`
/// without materializing the intermediate `dp·Wᵀ`.
fn mlp_down_backward(
    fc2: &mut RowShard,
    act: &Tensor,
    dp: &Tensor,
    h: &Tensor,
    ws: &mut Workspace,
) -> Tensor {
    let (m, kin) = (act.dims()[0], act.dims()[1]);
    let n = dp.dims()[1];
    let mut g = Graph::new();
    let gact = g.input(m, kin);
    let gdp = g.input(m, n);
    let gw = g.input(kin, n);
    let gh = g.input(m, kin);
    let dw = g.matmul_tn(gact, gdp);
    let da = g.matmul_nt(gdp, gw);
    let dh = g.gelu_grad_mul(da, gh);
    g.mark_output(dw);
    g.mark_output(dh);
    let plan = g
        .compile(FusePolicy::Auto)
        .expect("mlp down backward graph");
    let mut res = plan.run(
        &[
            act.as_slice(),
            dp.as_slice(),
            fc2.weight.value.as_slice(),
            h.as_slice(),
        ],
        vec![OutBind::Acc(fc2.weight.grad.as_mut_slice()), OutBind::Lease],
        ws,
    );
    Tensor::from_vec(res[1].take().expect("leased dh"), [m, kin])
}

/// LayerNorm backward as one compiled plan: optionally folds a second
/// upstream gradient into `dy` first (the residual branch's
/// contribution), accumulates `dγ`, `dβ`, and the replicated row bias's
/// gradient (`Σ_rows dx`) straight into their parameters, and returns
/// the leased `dx`.
fn ln_backward_fused(
    ln: &mut LayerNorm,
    dy: &Tensor,
    extra: Option<&Tensor>,
    cache: LnCache,
    row_bias: &mut Parameter,
    ws: &mut Workspace,
) -> Tensor {
    let (xhat, inv_std) = cache.into_parts();
    let (m, n) = (xhat.dims()[0], xhat.dims()[1]);
    let mut g = Graph::new();
    let gdy = g.input(m, n);
    let gex = extra.map(|_| g.input(m, n));
    let gxh = g.input(m, n);
    let gis = g.input(m, 1);
    let gg = g.input_vec(n);
    let s = match gex {
        Some(ge) => g.residual_add(gdy, ge),
        None => gdy,
    };
    let (dx, dgamma, dbeta) = g.layernorm_backward(s, gxh, gis, gg);
    let dbo = g.sum_axis0(dx);
    g.mark_output(dx);
    g.mark_output(dgamma);
    g.mark_output(dbeta);
    g.mark_output(dbo);
    let plan = g.compile(FusePolicy::Auto).expect("ln backward graph");
    let mut inputs: Vec<&[f32]> = vec![dy.as_slice()];
    if let Some(e) = extra {
        inputs.push(e.as_slice());
    }
    inputs.push(xhat.as_slice());
    inputs.push(inv_std.as_slice());
    inputs.push(ln.gamma.value.as_slice());
    let mut res = plan.run(
        &inputs,
        vec![
            OutBind::Lease,
            OutBind::Acc(ln.gamma.grad.as_mut_slice()),
            OutBind::Acc(ln.beta.grad.as_mut_slice()),
            OutBind::Acc(row_bias.grad.as_mut_slice()),
        ],
        ws,
    );
    ws.recycle_tensor(xhat);
    ws.recycle_tensor(inv_std);
    Tensor::from_vec(res[0].take().expect("leased dx"), [m, n])
}

/// Activations cached between a micro-batch's forward and backward.
/// Pushed/popped LIFO, matching the GPipe fill/drain order.
struct LayerCache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    probs: Vec<Tensor>,
    ctx: Tensor,
    h1: Tensor,
    h: Tensor,
    act: Tensor,
    ln1c: LnCache,
    ln2c: LnCache,
    batch: usize,
    seq: usize,
}

/// One rank's shard of one encoder layer: column shards of the QKV and
/// MLP-expansion weights, row shards of the output projections,
/// replicated layer norms and row biases, plus this rank's compressor
/// instances for the two all-reduce points.
pub struct RankLayer {
    wq: ColumnShard,
    wk: ColumnShard,
    wv: ColumnShard,
    wo: RowShard,
    wo_bias: Parameter,
    ln1: LayerNorm,
    fc1: ColumnShard,
    fc2: RowShard,
    fc2_bias: Parameter,
    ln2: LayerNorm,
    attn_comp: Box<dyn Compressor>,
    ff_comp: Box<dyn Compressor>,
    heads: usize,
    world: usize,
    hidden: usize,
    caches: Vec<LayerCache>,
}

impl RankLayer {
    /// Builds rank `tpi`'s shard of a serial encoder layer.
    ///
    /// # Panics
    ///
    /// Panics if `world` doesn't divide the head count (the runtime
    /// validates this before spawning ranks).
    pub fn from_serial(
        layer: &EncoderLayer,
        tpi: usize,
        world: usize,
        attn_comp: Box<dyn Compressor>,
        ff_comp: Box<dyn Compressor>,
    ) -> Self {
        let attn = &layer.attn;
        let heads = attn.heads();
        assert!(
            world > 0 && heads.is_multiple_of(world),
            "{heads} heads not divisible across {world} workers"
        );
        let take = |mut shards: Vec<ColumnShard>| shards.swap_remove(tpi);
        let take_row = |mut shards: Vec<RowShard>| shards.swap_remove(tpi);
        RankLayer {
            wq: take(ColumnShard::split(
                &attn.wq.weight.value,
                &attn.wq.bias.value,
                world,
            )),
            wk: take(ColumnShard::split(
                &attn.wk.weight.value,
                &attn.wk.bias.value,
                world,
            )),
            wv: take(ColumnShard::split(
                &attn.wv.weight.value,
                &attn.wv.bias.value,
                world,
            )),
            wo: take_row(RowShard::split(&attn.wo.weight.value, world)),
            wo_bias: Parameter::new(attn.wo.bias.value.clone()),
            ln1: layer.ln1.clone(),
            fc1: take(ColumnShard::split(
                &layer.ff.fc1.weight.value,
                &layer.ff.fc1.bias.value,
                world,
            )),
            fc2: take_row(RowShard::split(&layer.ff.fc2.weight.value, world)),
            fc2_bias: Parameter::new(layer.ff.fc2.bias.value.clone()),
            ln2: layer.ln2.clone(),
            attn_comp,
            ff_comp,
            heads,
            world,
            hidden: attn.hidden(),
            caches: Vec::new(),
        }
    }

    fn local_heads(&self) -> usize {
        self.heads / self.world
    }

    fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    /// Forward for one micro-batch over `[batch·seq, hidden]`, running
    /// both compressed all-reduces through the group's ring.
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
        seq: usize,
        tp: &mut TpGroup,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let lh = self.local_heads();
        let d = self.head_dim();
        let (q, k, v, ctx, probs, partial) = timed(&mut timers.compute_s, || {
            let q = self.wq.forward_ws(x, ws);
            let k = self.wk.forward_ws(x, ws);
            let v = self.wv.forward_ws(x, ws);
            let (ctx, probs) = attn_context_forward_ws(&q, &k, &v, batch, seq, lh, d, ws);
            let partial = self.wo.partial_ws(&ctx, ws);
            (q, k, v, ctx, probs, partial)
        });
        let s = tp.compressed_all_reduce(self.attn_comp.as_mut(), &partial, timers, ws);
        ws.recycle_tensor(partial);
        let (h1, ln1c, h, act, partial2) = timed(&mut timers.compute_s, || {
            let (h1, ln1c) = ln_bias_residual_forward(&self.ln1, &s, &self.wo_bias.value, x, ws);
            let (act, h) = mlp_up_forward(&self.fc1, &h1, ws);
            let partial2 = self.fc2.partial_ws(&act, ws);
            (h1, ln1c, h, act, partial2)
        });
        ws.recycle_tensor(s);
        let s2 = tp.compressed_all_reduce(self.ff_comp.as_mut(), &partial2, timers, ws);
        ws.recycle_tensor(partial2);
        let (y, ln2c) = timed(&mut timers.compute_s, || {
            ln_bias_residual_forward(&self.ln2, &s2, &self.fc2_bias.value, &h1, ws)
        });
        ws.recycle_tensor(s2);
        self.caches.push(LayerCache {
            x: x.clone(),
            q,
            k,
            v,
            probs,
            ctx,
            h1,
            h,
            act,
            ln1c,
            ln2c,
            batch,
            seq,
        });
        y
    }

    /// Backward for the most recent un-backwarded micro-batch; returns
    /// the input gradient.
    pub fn backward(
        &mut self,
        dy: &Tensor,
        tp: &mut TpGroup,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let LayerCache {
            x,
            q,
            k,
            v,
            probs,
            ctx,
            h1,
            h,
            act,
            ln1c,
            ln2c,
            batch,
            seq,
        } = self
            .caches
            .pop()
            .expect("RankLayer::backward without forward");
        let lh = self.local_heads();
        let d = self.head_dim();

        let d2 = timed(&mut timers.compute_s, || {
            ln_backward_fused(&mut self.ln2, dy, None, ln2c, &mut self.fc2_bias, ws)
        });
        let dp = tp.compressed_backward(self.ff_comp.as_mut(), &d2, timers);
        let part = timed(&mut timers.compute_s, || {
            let dh = mlp_down_backward(&mut self.fc2, &act, &dp, &h, ws);
            let part = self.fc1.backward_ws(&h1, &dh, ws);
            for tmp in [dh, act, h, h1] {
                ws.recycle_tensor(tmp);
            }
            part
        });
        let df = tp.dense_all_reduce(&part, timers, ws);
        ws.recycle_tensor(part);
        let d1 = timed(&mut timers.compute_s, || {
            ln_backward_fused(&mut self.ln1, &d2, Some(&df), ln1c, &mut self.wo_bias, ws)
        });
        ws.recycle_tensor(d2);
        ws.recycle_tensor(df);
        let dpa = tp.compressed_backward(self.attn_comp.as_mut(), &d1, timers);
        let (pq, pk, pv) = timed(&mut timers.compute_s, || {
            let dctx = self.wo.backward_ws(&ctx, &dpa, ws);
            let (dq, dk, dv) =
                attn_context_backward_ws(&q, &k, &v, &probs, &dctx, batch, seq, lh, d, ws);
            ws.recycle_tensor(dctx);
            let pq = self.wq.backward_ws(&x, &dq, ws);
            let pk = self.wk.backward_ws(&x, &dk, ws);
            let pv = self.wv.backward_ws(&x, &dv, ws);
            for tmp in [dq, dk, dv, ctx, q, k, v] {
                ws.recycle_tensor(tmp);
            }
            (pq, pk, pv)
        });
        // One fused collective instead of three: the reduce is
        // elementwise, so concat → reduce → split gives each block the
        // same rank-order fold, and summing the blocks afterwards keeps
        // the serial `(Σdq + Σdk) + Σdv` association bit for bit —
        // while paying one ring latency instead of three.
        let fused = timed(&mut timers.compute_s, || {
            Tensor::concat_rows(&[&pq, &pk, &pv])
        });
        let n = pq.dims()[0];
        for tmp in [pq, pk, pv] {
            ws.recycle_tensor(tmp);
        }
        let red = tp.dense_all_reduce(&fused, timers, ws);
        ws.recycle_tensor(fused);
        // The three reduced blocks and the residual gradient fold in one
        // elementwise plan (`((dq̂+dk̂)+dv̂)+d1`, same association as the
        // serial executor's fold) with a single leased buffer.
        let dx = timed(&mut timers.compute_s, || {
            let cols = red.dims()[1];
            let r = red.as_slice();
            let mut g = Graph::new();
            let gr0 = g.input(n, cols);
            let gr1 = g.input(n, cols);
            let gr2 = g.input(n, cols);
            let gd1 = g.input(n, cols);
            let t1 = g.residual_add(gr0, gr1);
            let t2 = g.residual_add(t1, gr2);
            let out = g.residual_add(t2, gd1);
            g.mark_output(out);
            let plan = g.compile(FusePolicy::Auto).expect("dx fold graph");
            let mut res = plan.run(
                &[
                    &r[..n * cols],
                    &r[n * cols..2 * n * cols],
                    &r[2 * n * cols..],
                    d1.as_slice(),
                ],
                vec![OutBind::Lease],
                ws,
            );
            Tensor::from_vec(res[0].take().expect("leased dx"), [n, cols])
        });
        ws.recycle_tensor(red);
        ws.recycle_tensor(d1);
        dx
    }

    /// Drops every cached forward activation without running backward —
    /// the forward-only serving path's per-batch cleanup. All cache
    /// tensors are recycled into the workspace arena, so serving a
    /// stream of requests reuses the same buffers instead of growing
    /// the cache stack forever; the reduce compressors drop theirs too.
    pub fn clear_caches(&mut self, ws: &mut Workspace) {
        for c in self.caches.drain(..) {
            let LayerCache {
                x,
                q,
                k,
                v,
                probs,
                ctx,
                h1,
                h,
                act,
                ln1c,
                ln2c,
                ..
            } = c;
            for t in [x, q, k, v, ctx, h1, h, act] {
                ws.recycle_tensor(t);
            }
            for t in probs {
                ws.recycle_tensor(t);
            }
            for cache in [ln1c, ln2c] {
                let (xhat, inv_std) = cache.into_parts();
                ws.recycle_tensor(xhat);
                ws.recycle_tensor(inv_std);
            }
        }
        self.attn_comp.clear_caches();
        self.ff_comp.clear_caches();
    }

    /// Forward caches the two reduce compressors still hold.
    #[cfg(test)]
    pub(crate) fn compressor_cache_depth(&self) -> usize {
        self.attn_comp.cache_depth() + self.ff_comp.cache_depth()
    }

    /// Ring-syncs this layer's compressor-parameter gradients (the
    /// threaded counterpart of the serial `sync_compressor_grads`).
    pub fn sync_compressor_grads(&mut self, tp: &mut TpGroup, timers: &mut PhaseTimers) {
        tp.sync_param_grads(self.attn_comp.as_mut(), timers);
        tp.sync_param_grads(self.ff_comp.as_mut(), timers);
    }

    /// Visits this rank's model parameters (shards, replicated norms and
    /// row biases) in the rank-local canonical order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
        f(&mut self.wo_bias);
        self.ln1.visit_params(f);
        self.fc1.visit_params(f);
        self.fc2.visit_params(f);
        f(&mut self.fc2_bias);
        self.ln2.visit_params(f);
    }

    /// Visits this rank's compressor parameters (attention reduce, then
    /// feed-forward reduce).
    pub fn visit_compressor_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.attn_comp.visit_params(f);
        self.ff_comp.visit_params(f);
    }

    /// Collects the structured gradient snapshot the driver reassembles
    /// into the serial parameter order.
    pub fn grads(&mut self) -> LayerGrads {
        let grab = |p: &Parameter| p.grad.clone();
        LayerGrads {
            wq: vec![grab(&self.wq.weight), grab(&self.wq.bias)],
            wk: vec![grab(&self.wk.weight), grab(&self.wk.bias)],
            wv: vec![grab(&self.wv.weight), grab(&self.wv.bias)],
            wo_weight: grab(&self.wo.weight),
            wo_bias: grab(&self.wo_bias),
            ln1: {
                let mut v = Vec::new();
                self.ln1.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
            fc1: vec![grab(&self.fc1.weight), grab(&self.fc1.bias)],
            fc2_weight: grab(&self.fc2.weight),
            fc2_bias: grab(&self.fc2_bias),
            ln2: {
                let mut v = Vec::new();
                self.ln2.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
            attn_comp: {
                let mut v = Vec::new();
                self.attn_comp.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
            ff_comp: {
                let mut v = Vec::new();
                self.ff_comp.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            },
        }
    }
}

/// One rank's gradient snapshot for one layer, in shard-local form.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Query column shard `[weight, bias]`.
    pub wq: Vec<Tensor>,
    /// Key column shard `[weight, bias]`.
    pub wk: Vec<Tensor>,
    /// Value column shard `[weight, bias]`.
    pub wv: Vec<Tensor>,
    /// Attention output row-shard weight.
    pub wo_weight: Tensor,
    /// Replicated attention output bias.
    pub wo_bias: Tensor,
    /// Replicated post-attention norm `[gain, bias]`.
    pub ln1: Vec<Tensor>,
    /// MLP expansion column shard `[weight, bias]`.
    pub fc1: Vec<Tensor>,
    /// MLP contraction row-shard weight.
    pub fc2_weight: Tensor,
    /// Replicated MLP contraction bias.
    pub fc2_bias: Tensor,
    /// Replicated post-MLP norm `[gain, bias]`.
    pub ln2: Vec<Tensor>,
    /// This rank's attention-reduce compressor parameter gradients.
    pub attn_comp: Vec<Tensor>,
    /// This rank's feed-forward-reduce compressor parameter gradients.
    pub ff_comp: Vec<Tensor>,
}
