//! The per-rank worker: one OS thread owning one tensor-parallel shard
//! of one pipeline stage, driven by commands from the runtime and
//! exchanging activations/gradients with its peers over [`MsgTx`] /
//! [`MsgRx`] links (typed channels in the threads backend, framed
//! transport channels for sockets and process mode).

use crate::comm::TpGroup;
use crate::layer::{LayerGrads, RankLayer};
use crate::link::{MsgRx, MsgTx};
use crate::report::{timed, PhaseTimers, RankReport};
use crate::trace::TraceHandle;
use crate::wire::{put_f32, put_string, put_u8, put_usize, Reader, WireError, WireMsg};
use actcomp_check::{ChannelId, Dir, MsgId, TraceEvent};
use actcomp_compress::{Compressed, Compressor};
use actcomp_distsim::schedule::gpipe_order;
use actcomp_mp::CommBytes;
use actcomp_nn::{Embedding, Layer, LayerNorm, LnCache, Parameter};
use actcomp_tensor::{Tensor, Workspace};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Commands the runtime broadcasts to every rank.
#[derive(Debug, Clone)]
pub(crate) enum Command {
    /// Run the GPipe fill (all micro-batch forwards for this stage).
    Forward {
        /// Token ids for the whole batch (stage 0 slices micro-batches).
        ids: Vec<usize>,
        /// Sequences in the batch.
        batch: usize,
        /// Tokens per sequence.
        seq: usize,
    },
    /// Run the GPipe drain (all micro-batch backwards, reversed).
    Backward {
        /// Gradient of the final hidden states for the whole batch.
        dhidden: Tensor,
    },
    /// Zero every owned gradient.
    ZeroGrad,
    /// Apply one SGD step to every owned parameter.
    SgdStep {
        /// Learning rate.
        lr: f32,
    },
    /// Snapshot owned gradients for reassembly by the driver.
    CollectGrads,
    /// Snapshot timers and byte counters.
    Report,
    /// Drain the rank's recorded audit-trace events.
    TakeTrace,
    /// Exit the worker loop.
    Shutdown,
    /// Write this rank's parameter shard to `dir/rank-<r>.ckpt`,
    /// stamped with `step` and the run's config hash `tag`.
    Checkpoint {
        /// Checkpoint directory (shared by all ranks).
        dir: String,
        /// Training step the checkpoint captures.
        step: usize,
        /// Config hash stamped into the shard.
        tag: u64,
    },
    /// Load this rank's parameter shard back from a checkpoint; the
    /// shard must verify (CRC) and carry the expected `step` and `tag`.
    Restore {
        /// Checkpoint directory (shared by all ranks).
        dir: String,
        /// Training step the checkpoint was taken at.
        step: usize,
        /// Config hash the shard must carry.
        tag: u64,
    },
    /// Forward-only inference over a coalesced request batch: one
    /// micro-batch per request (`micro` of them, overriding the
    /// configured training micro-batch count), no caches retained.
    Infer {
        /// Token ids for the whole request batch, request-major.
        ids: Vec<usize>,
        /// Requests in the batch.
        batch: usize,
        /// Tokens per request.
        seq: usize,
        /// Micro-batch count for this batch (the request count: each
        /// request pipelines through the stages independently).
        micro: usize,
    },
}

impl WireMsg for Command {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Command::Forward { ids, batch, seq } => {
                put_u8(out, 0);
                put_usize(out, ids.len());
                for &id in ids {
                    put_usize(out, id);
                }
                put_usize(out, *batch);
                put_usize(out, *seq);
            }
            Command::Backward { dhidden } => {
                put_u8(out, 1);
                dhidden.encode(out);
            }
            Command::ZeroGrad => put_u8(out, 2),
            Command::SgdStep { lr } => {
                put_u8(out, 3);
                put_f32(out, *lr);
            }
            Command::CollectGrads => put_u8(out, 4),
            Command::Report => put_u8(out, 5),
            Command::TakeTrace => put_u8(out, 6),
            Command::Shutdown => put_u8(out, 7),
            Command::Checkpoint { dir, step, tag } => {
                put_u8(out, 8);
                put_string(out, dir);
                put_usize(out, *step);
                crate::wire::put_u64(out, *tag);
            }
            Command::Restore { dir, step, tag } => {
                put_u8(out, 9);
                put_string(out, dir);
                put_usize(out, *step);
                crate::wire::put_u64(out, *tag);
            }
            Command::Infer {
                ids,
                batch,
                seq,
                micro,
            } => {
                put_u8(out, 10);
                put_usize(out, ids.len());
                for &id in ids {
                    put_usize(out, id);
                }
                put_usize(out, *batch);
                put_usize(out, *seq);
                put_usize(out, *micro);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            // tag, id count, ids, batch, seq (and micro for Infer)
            Command::Forward { ids, .. } => 1 + 8 + 8 * ids.len() + 16,
            Command::Infer { ids, .. } => 1 + 8 + 8 * ids.len() + 24,
            Command::Backward { dhidden } => 1 + dhidden.encoded_len(),
            _ => 0,
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8("command tag")? {
            0 => {
                let n = r.read_usize("forward id count")?;
                if n > 1 << 28 {
                    return Err(WireError {
                        what: "forward id count",
                    });
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.read_usize("forward id")?);
                }
                Command::Forward {
                    ids,
                    batch: r.read_usize("forward batch")?,
                    seq: r.read_usize("forward seq")?,
                }
            }
            1 => Command::Backward {
                dhidden: Tensor::decode(r)?,
            },
            2 => Command::ZeroGrad,
            3 => Command::SgdStep {
                lr: r.read_f32("sgd lr")?,
            },
            4 => Command::CollectGrads,
            5 => Command::Report,
            6 => Command::TakeTrace,
            7 => Command::Shutdown,
            8 => Command::Checkpoint {
                dir: r.read_string("checkpoint dir")?,
                step: r.read_usize("checkpoint step")?,
                tag: r.read_u64("checkpoint tag")?,
            },
            9 => Command::Restore {
                dir: r.read_string("restore dir")?,
                step: r.read_usize("restore step")?,
                tag: r.read_u64("restore tag")?,
            },
            10 => {
                let n = r.read_usize("infer id count")?;
                if n > 1 << 28 {
                    return Err(WireError {
                        what: "infer id count",
                    });
                }
                let mut ids = Vec::with_capacity(n);
                for _ in 0..n {
                    ids.push(r.read_usize("infer id")?);
                }
                Command::Infer {
                    ids,
                    batch: r.read_usize("infer batch")?,
                    seq: r.read_usize("infer seq")?,
                    micro: r.read_usize("infer micro")?,
                }
            }
            _ => {
                return Err(WireError {
                    what: "command tag",
                })
            }
        })
    }
}

/// Responses ranks send back to the runtime.
pub(crate) enum Response {
    /// Command finished on this rank.
    Done,
    /// Final hidden states (sent by the last stage's rank 0 instead of
    /// `Done` for a forward command).
    Output { y: Tensor },
    /// Gradient snapshot.
    Grads { rank: usize, grads: RankGrads },
    /// Timer/byte snapshot.
    Report { report: Box<RankReport> },
    /// Recorded audit-trace events (empty when tracing is off).
    Trace {
        rank: usize,
        events: Vec<TraceEvent>,
    },
}

impl WireMsg for Response {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Response::Done => put_u8(out, 0),
            Response::Output { y } => {
                put_u8(out, 1);
                y.encode(out);
            }
            Response::Grads { rank, grads } => {
                put_u8(out, 2);
                put_usize(out, *rank);
                grads.encode(out);
            }
            Response::Report { report } => {
                put_u8(out, 3);
                // Timers carry no bit-exactness requirement; JSON keeps
                // the codec in one place with the report's disk format.
                put_string(
                    out,
                    &serde_json::to_string(report.as_ref()).expect("report serializes"),
                );
            }
            Response::Trace { rank, events } => {
                // Process mode rejects tracing up front (the audit needs
                // in-process program order), so events are always empty
                // on the wire.
                debug_assert!(events.is_empty(), "trace events cannot cross processes");
                put_u8(out, 4);
                put_usize(out, *rank);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            Response::Output { y } => 1 + y.encoded_len(),
            _ => 0,
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8("response tag")? {
            0 => Response::Done,
            1 => Response::Output {
                y: Tensor::decode(r)?,
            },
            2 => Response::Grads {
                rank: r.read_usize("grads rank")?,
                grads: RankGrads::decode(r)?,
            },
            3 => {
                let json = r.read_string("report json")?;
                let report: RankReport = serde_json::from_str(&json).map_err(|_| WireError {
                    what: "report json",
                })?;
                Response::Report {
                    report: Box::new(report),
                }
            }
            4 => Response::Trace {
                rank: r.read_usize("trace rank")?,
                events: Vec::new(),
            },
            _ => {
                return Err(WireError {
                    what: "response tag",
                })
            }
        })
    }
}

/// A message crossing a pipeline boundary in the forward direction.
pub(crate) enum FwdMsg {
    /// A compressed micro-batch activation.
    Activation(Compressed),
    /// Boundary-compressor parameter gradients, sent after the drain so
    /// the receiver's decode replica applies the identical SGD step.
    GradSync(Vec<Tensor>),
}

impl WireMsg for FwdMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FwdMsg::Activation(c) => {
                put_u8(out, 0);
                c.encode(out);
            }
            FwdMsg::GradSync(v) => {
                put_u8(out, 1);
                v.encode(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            FwdMsg::Activation(c) => c.encoded_len(),
            FwdMsg::GradSync(v) => v.encoded_len(),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(match r.read_u8("boundary message tag")? {
            0 => FwdMsg::Activation(Compressed::decode(r)?),
            1 => FwdMsg::GradSync(Vec::<Tensor>::decode(r)?),
            _ => {
                return Err(WireError {
                    what: "boundary message tag",
                })
            }
        })
    }
}

/// Sending half of a pipeline boundary (owned by `tp_index == 0` of
/// every non-final stage). Holds the authoritative compressor: it
/// compresses forward activations and runs the compressor backward on
/// the returning gradient, accumulating any compressor-parameter grads.
pub(crate) struct BoundarySender {
    pub comp: Box<dyn Compressor>,
    pub bytes: CommBytes,
    pub tx: MsgTx<FwdMsg>,
    pub grad_rx: MsgRx<Tensor>,
}

/// Receiving half of a pipeline boundary (owned by `tp_index == 0` of
/// every non-first stage). Holds a decode-only replica built from the
/// same seed as the sender's compressor and kept in lockstep via
/// [`FwdMsg::GradSync`].
pub(crate) struct BoundaryReceiver {
    pub replica: Box<dyn Compressor>,
    pub rx: MsgRx<FwdMsg>,
    pub grad_tx: MsgTx<Tensor>,
}

/// Replicated first-stage embeddings with per-micro-batch caches.
pub(crate) struct EmbeddingStage {
    pub tok: Embedding,
    pub pos: Embedding,
    pub emb_ln: LayerNorm,
    caches: Vec<(Vec<usize>, Vec<usize>, LnCache)>,
}

impl EmbeddingStage {
    pub fn new(tok: Embedding, pos: Embedding, emb_ln: LayerNorm) -> Self {
        EmbeddingStage {
            tok,
            pos,
            emb_ln,
            caches: Vec::new(),
        }
    }

    fn forward_mb(
        &mut self,
        ids: &[usize],
        mb_batch: usize,
        seq: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        let t = self.tok.forward_cached(ids);
        let pos_ids: Vec<usize> = (0..mb_batch).flat_map(|_| 0..seq).collect();
        let p = self.pos.forward_cached(&pos_ids);
        // Fused residual + LN plan: the token+position sum never leaves
        // the compiled segment.
        let (x, cache) = self.emb_ln.forward_residual_cached_ws(&t, &p, ws);
        ws.recycle_tensor(t);
        ws.recycle_tensor(p);
        self.caches.push((ids.to_vec(), pos_ids, cache));
        x
    }

    fn backward_mb(&mut self, d: &Tensor, ws: &mut Workspace) {
        let (ids, pos_ids, cache) = self
            .caches
            .pop()
            .expect("embedding backward without forward");
        let demb = self.emb_ln.backward_cached_ws(d, cache, ws);
        self.tok.backward_ids(&ids, &demb);
        self.pos.backward_ids(&pos_ids, &demb);
        ws.recycle_tensor(demb);
    }

    /// Drops every cached forward without running backward — the
    /// forward-only serving path's per-batch cleanup. LN cache tensors
    /// go back to the arena.
    fn clear_caches(&mut self, ws: &mut Workspace) {
        for (_, _, cache) in self.caches.drain(..) {
            let (xhat, inv_std) = cache.into_parts();
            ws.recycle_tensor(xhat);
            ws.recycle_tensor(inv_std);
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.tok.visit_params(f);
        self.pos.visit_params(f);
        self.emb_ln.visit_params(f);
    }
}

/// One rank's gradient snapshot, reassembled by the driver into the
/// serial `MpBert::visit_all_params` order.
#[derive(Debug, Clone)]
pub struct RankGrads {
    /// `[tok, pos, emb_ln gain, emb_ln bias]` — stage-0 ranks only.
    pub embedding: Vec<Tensor>,
    /// Per owned layer, in stage order.
    pub layers: Vec<LayerGrads>,
    /// Boundary-compressor parameter grads (boundary senders only).
    pub boundary_comp: Vec<Tensor>,
}

/// One model-parallel rank: an OS thread owning a TP shard of one
/// pipeline stage.
pub(crate) struct RankWorker {
    pub rank: usize,
    pub stage: usize,
    pub tpi: usize,
    pub pp: usize,
    pub micro_batches: usize,
    pub embedding: Option<EmbeddingStage>,
    pub layers: Vec<RankLayer>,
    pub tp: TpGroup,
    /// Intra-stage broadcast: stage rank 0 fans decoded boundary
    /// tensors out to its TP peers.
    pub bcast_tx: Vec<MsgTx<Tensor>>,
    pub bcast_rx: Option<MsgRx<Tensor>>,
    pub send_b: Option<BoundarySender>,
    pub recv_b: Option<BoundaryReceiver>,
    pub timers: PhaseTimers,
    pub cmd_rx: Receiver<Command>,
    pub resp_tx: Sender<Response>,
    /// Audit-trace handle (same cell as this rank's `tp` group) for
    /// boundary and broadcast events; `None` records nothing.
    trace: Option<TraceHandle>,
    /// Stage-broadcast ordinal, reset per step; advances at every
    /// broadcast point even when `tp == 1` (mirrors the static graph).
    bcast_seq: usize,
    /// Per-micro-batch outputs buffered on the last stage.
    fwd_out: Vec<Tensor>,
    /// This rank's scratch arena: packing buffers, head blocks and
    /// gradient temporaries are reused across micro-batches and steps.
    ws: Workspace,
}

impl RankWorker {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        rank: usize,
        stage: usize,
        tpi: usize,
        pp: usize,
        micro_batches: usize,
        embedding: Option<EmbeddingStage>,
        layers: Vec<RankLayer>,
        tp: TpGroup,
        bcast_tx: Vec<MsgTx<Tensor>>,
        bcast_rx: Option<MsgRx<Tensor>>,
        send_b: Option<BoundarySender>,
        recv_b: Option<BoundaryReceiver>,
        cmd_rx: Receiver<Command>,
        resp_tx: Sender<Response>,
        trace: Option<TraceHandle>,
    ) -> Self {
        RankWorker {
            rank,
            stage,
            tpi,
            pp,
            micro_batches,
            embedding,
            layers,
            tp,
            bcast_tx,
            bcast_rx,
            send_b,
            recv_b,
            timers: PhaseTimers::default(),
            cmd_rx,
            resp_tx,
            trace,
            bcast_seq: 0,
            fwd_out: Vec::new(),
            ws: Workspace::new(),
        }
    }

    /// Records one boundary/broadcast event when tracing is on.
    fn trace_event(&self, dir: Dir, channel: ChannelId, msg: MsgId, bytes: Option<usize>) {
        if let Some(trace) = &self.trace {
            trace.record(dir, channel, msg, bytes);
        }
    }

    fn is_last_stage(&self) -> bool {
        self.stage + 1 == self.pp
    }

    /// Whether this step's boundary traffic runs on helper threads that
    /// overlap ship/prefetch with the layer compute loop. Tracing forces
    /// the inline path: the audit compares against program-order event
    /// sequences, which overlap would reorder.
    fn overlap_boundaries(&self) -> bool {
        self.trace.is_none() && (self.send_b.is_some() || self.recv_b.is_some())
    }

    /// The worker loop: block on commands until shutdown.
    pub fn run(mut self) {
        while let Ok(cmd) = self.cmd_rx.recv() {
            match cmd {
                Command::Forward { ids, batch, seq } => self.forward(&ids, batch, seq),
                Command::Backward { dhidden } => self.backward(&dhidden),
                Command::ZeroGrad => {
                    self.visit_owned_params(&mut |p| p.zero_grad());
                    self.done();
                }
                Command::SgdStep { lr } => {
                    self.visit_owned_params(&mut |p| p.value.axpy(-lr, &p.grad));
                    self.done();
                }
                Command::CollectGrads => self.collect_grads(),
                Command::Report => {
                    let report = RankReport {
                        rank: self.rank,
                        stage: self.stage,
                        tp_index: self.tpi,
                        timers: self.timers,
                        reduce_bytes: self.tp.bytes,
                        ring_bytes: self.tp.ring_bytes,
                        boundary_bytes: self.send_b.as_ref().map(|b| b.bytes).unwrap_or_default(),
                    };
                    self.respond(Response::Report {
                        report: Box::new(report),
                    });
                }
                Command::TakeTrace => {
                    let events = self.trace.as_ref().map(|t| t.take()).unwrap_or_default();
                    self.respond(Response::Trace {
                        rank: self.rank,
                        events,
                    });
                }
                Command::Shutdown => break,
                Command::Checkpoint { dir, step, tag } => {
                    self.save_shard(std::path::Path::new(&dir), step, tag);
                    self.done();
                }
                Command::Restore { dir, step, tag } => {
                    self.load_shard(std::path::Path::new(&dir), step, tag);
                    self.done();
                }
                Command::Infer {
                    ids,
                    batch,
                    seq,
                    micro,
                } => self.infer(&ids, batch, seq, micro),
            }
        }
    }

    /// Writes every owned parameter, in visit order, as this rank's
    /// checkpoint shard. A failed write panics: the worker dies, the
    /// launcher sees the loss, and the supervisor treats it like any
    /// other crash — better than acking a checkpoint that isn't there.
    fn save_shard(&mut self, dir: &std::path::Path, step: usize, tag: u64) {
        let mut tensors = Vec::new();
        self.visit_owned_params(&mut |p| tensors.push(p.value.clone()));
        crate::shard::write_shard(dir, self.rank, step, tag, &tensors)
            .unwrap_or_else(|e| panic!("rank {} checkpoint failed: {e}", self.rank));
    }

    /// Restores every owned parameter from this rank's shard, in the
    /// same visit order it was written. Verification failures (CRC,
    /// run/step mismatch, wrong tensor count or shape) panic for the
    /// same reason a failed save does.
    fn load_shard(&mut self, dir: &std::path::Path, step: usize, tag: u64) {
        let tensors = crate::shard::read_shard(dir, self.rank, step, tag)
            .unwrap_or_else(|e| panic!("rank {} restore failed: {e}", self.rank));
        let mut i = 0;
        self.visit_owned_params(&mut |p| {
            let t = tensors
                .get(i)
                .unwrap_or_else(|| panic!("shard has only {i} tensors"));
            assert_eq!(
                t.dims(),
                p.value.dims(),
                "shard tensor {i} shape disagrees with the model"
            );
            p.value = t.clone();
            p.grad = Tensor::zeros_like(&p.value);
            i += 1;
        });
        assert_eq!(i, tensors.len(), "shard holds more tensors than the model");
    }

    fn done(&self) {
        self.respond(Response::Done);
    }

    fn respond(&self, resp: Response) {
        self.resp_tx.send(resp).expect("runtime hung up");
    }

    /// Broadcasts a tensor decoded on stage rank 0 to all TP peers, or
    /// receives it on a peer rank. The broadcast ordinal advances on
    /// every rank at every call — even solo ranks with nothing to send —
    /// so traced sequences stay aligned with the static graph.
    fn stage_broadcast(&mut self, t: Option<Tensor>) -> Tensor {
        let seq = self.bcast_seq;
        self.bcast_seq += 1;
        if self.tpi == 0 {
            let t = t.expect("stage rank 0 provides the broadcast value");
            timed(&mut self.timers.wire_s, || {
                for (i, tx) in self.bcast_tx.iter().enumerate() {
                    if let Some(trace) = &self.trace {
                        trace.record(
                            Dir::Send,
                            ChannelId::Bcast {
                                stage: self.stage,
                                peer: i + 1,
                            },
                            MsgId::Bcast { seq },
                            None,
                        );
                    }
                    tx.send(t.clone()).expect("stage peer hung up");
                }
            });
            t
        } else {
            let rx = self.bcast_rx.as_ref().expect("peer broadcast receiver");
            self.trace_event(
                Dir::Recv,
                ChannelId::Bcast {
                    stage: self.stage,
                    peer: self.tpi,
                },
                MsgId::Bcast { seq },
                None,
            );
            timed(&mut self.timers.wire_s, || {
                rx.recv().expect("stage rank 0 hung up")
            })
        }
    }

    /// GPipe fill: run this stage's forwards in the shared schedule's
    /// micro-batch order.
    fn forward(&mut self, ids: &[usize], batch: usize, seq: usize) {
        let m = self.micro_batches;
        self.run_forward(ids, batch, seq, m);
        self.respond_forward_output();
    }

    /// Forward-only pass over a coalesced request batch: `micro`
    /// micro-batches (one per request) instead of the configured
    /// training count, with every activation cache dropped afterwards —
    /// no backward follows, and serving must not grow memory per
    /// request.
    fn infer(&mut self, ids: &[usize], batch: usize, seq: usize, micro: usize) {
        self.run_forward(ids, batch, seq, micro);
        for layer in &mut self.layers {
            layer.clear_caches(&mut self.ws);
        }
        if let Some(emb) = self.embedding.as_mut() {
            emb.clear_caches(&mut self.ws);
        }
        if let Some(b) = self.send_b.as_mut() {
            b.comp.clear_caches();
        }
        self.respond_forward_output();
    }

    /// Shared fill body for `forward` and `infer`: reset per-step
    /// ordinals, then run the schedule with `m` micro-batches.
    fn run_forward(&mut self, ids: &[usize], batch: usize, seq: usize, m: usize) {
        // A forward command starts a new step: collective and broadcast
        // ordinals restart so traces match the per-step static graph.
        self.tp.reset_step();
        self.bcast_seq = 0;
        self.fwd_out.clear();
        if self.overlap_boundaries() {
            self.forward_overlapped(ids, batch, seq, m);
        } else {
            self.forward_inline(ids, batch, seq, m);
        }
    }

    /// The last stage's rank 0 answers a fill with the concatenated
    /// hidden states; everyone else just acks.
    fn respond_forward_output(&mut self) {
        if self.is_last_stage() && self.tpi == 0 {
            let parts: Vec<&Tensor> = self.fwd_out.iter().collect();
            self.respond(Response::Output {
                y: Tensor::concat_rows(&parts),
            });
        } else {
            self.done();
        }
    }

    /// The compute body of one forward micro-batch: embed or take the
    /// boundary activation (`decoded`, already decompressed on stage
    /// rank 0), broadcast it across the stage, run the owned layers, and
    /// hand the result to `emit` (buffering on the last stage, shipping
    /// across the boundary otherwise).
    fn forward_mb_body(
        &mut self,
        ids: &[usize],
        mb: usize,
        mb_batch: usize,
        seq: usize,
        decoded: Option<Tensor>,
        emit: &mut dyn FnMut(&mut Self, Tensor),
    ) {
        let mut x = if let Some(emb) = self.embedding.as_mut() {
            let lo = mb * mb_batch * seq;
            let hi = lo + mb_batch * seq;
            let t0 = std::time::Instant::now();
            let x = emb.forward_mb(&ids[lo..hi], mb_batch, seq, &mut self.ws);
            self.timers.compute_s += t0.elapsed().as_secs_f64();
            x
        } else {
            self.stage_broadcast(decoded)
        };
        for i in 0..self.layers.len() {
            // Split the borrow: the layer needs &mut self.tp/timers/ws.
            let (layers, tp, timers, ws) = (
                &mut self.layers,
                &mut self.tp,
                &mut self.timers,
                &mut self.ws,
            );
            let y = layers[i].forward(&x, mb_batch, seq, tp, timers, ws);
            self.ws.recycle_tensor(x);
            x = y;
        }
        if self.is_last_stage() {
            self.fwd_out.push(x);
        } else if self.tpi == 0 {
            emit(self, x);
        }
    }

    /// Inline forward path: boundary receives/decodes and encode/sends
    /// run on this thread, interleaved with compute (required under
    /// tracing, and what every non-boundary rank runs).
    fn forward_inline(&mut self, ids: &[usize], batch: usize, seq: usize, m: usize) {
        let mb_batch = batch / m;
        let order = gpipe_order(self.pp, m, self.stage);
        for op in order.into_iter().filter(|o| !o.backward) {
            let decoded = if self.embedding.is_none() && self.tpi == 0 {
                self.trace_event(
                    Dir::Recv,
                    ChannelId::BoundaryFwd {
                        boundary: self.stage - 1,
                    },
                    MsgId::Activation { mb: op.mb },
                    None,
                );
                let b = self.recv_b.as_mut().expect("non-first stage receiver");
                let msg = timed(&mut self.timers.wire_s, || {
                    b.rx.recv().expect("upstream stage hung up")
                });
                let msg = match msg {
                    FwdMsg::Activation(msg) => msg,
                    FwdMsg::GradSync(_) => panic!("grad sync during forward"),
                };
                Some(timed(&mut self.timers.decode_s, || {
                    b.replica.decompress(&msg)
                }))
            } else {
                None
            };
            let stage = self.stage;
            let trace = self.trace.clone();
            self.forward_mb_body(ids, op.mb, mb_batch, seq, decoded, &mut |me, x| {
                let b = me.send_b.as_mut().expect("non-final stage sender");
                let msg = timed(&mut me.timers.encode_s, || b.comp.compress(&x));
                b.bytes.add(CommBytes {
                    wire: msg.wire_bytes(2),
                    dense: x.len() * 2,
                });
                if let Some(trace) = &trace {
                    trace.record(
                        Dir::Send,
                        ChannelId::BoundaryFwd { boundary: stage },
                        MsgId::Activation { mb: op.mb },
                        Some(msg.wire_bytes(2)),
                    );
                }
                timed(&mut me.timers.wire_s, || {
                    b.tx.send(FwdMsg::Activation(msg))
                        .expect("downstream stage hung up")
                });
            });
        }
    }

    /// Overlapped forward path (untraced boundary ranks): a prefetch
    /// thread owns the receiving boundary half and decodes activations
    /// ahead of the compute loop; a ship thread owns the sending half
    /// and encodes/sends behind it. Compressor call order is unchanged
    /// (both hand-offs are FIFO in micro-batch order), so results are
    /// bitwise identical to the inline path.
    fn forward_overlapped(&mut self, ids: &[usize], batch: usize, seq: usize, m: usize) {
        let mb_batch = batch / m;
        let order = gpipe_order(self.pp, m, self.stage);
        let fwd_mbs: Vec<usize> = order
            .into_iter()
            .filter(|o| !o.backward)
            .map(|o| o.mb)
            .collect();
        let n_fwd = fwd_mbs.len();
        let send_b = self.send_b.take();
        let recv_b = self.recv_b.take();
        let (ship_tx, ship_rx) = channel::<Tensor>();
        let (dec_tx, dec_rx) = channel::<Tensor>();

        let (send_b, recv_b) = std::thread::scope(|s| {
            let ship = send_b.map(|mut b| {
                s.spawn(move || {
                    let mut timers = PhaseTimers::default();
                    for x in ship_rx {
                        let msg = timed(&mut timers.encode_s, || b.comp.compress(&x));
                        b.bytes.add(CommBytes {
                            wire: msg.wire_bytes(2),
                            dense: x.len() * 2,
                        });
                        timed(&mut timers.wire_s, || {
                            b.tx.send(FwdMsg::Activation(msg))
                                .expect("downstream stage hung up")
                        });
                    }
                    (b, timers)
                })
            });
            let prefetch = recv_b.map(|b| {
                s.spawn(move || {
                    let mut timers = PhaseTimers::default();
                    for _ in 0..n_fwd {
                        let msg = timed(&mut timers.wire_s, || {
                            b.rx.recv().expect("upstream stage hung up")
                        });
                        let msg = match msg {
                            FwdMsg::Activation(msg) => msg,
                            FwdMsg::GradSync(_) => panic!("grad sync during forward"),
                        };
                        let dec = timed(&mut timers.decode_s, || b.replica.decompress(&msg));
                        if dec_tx.send(dec).is_err() {
                            break;
                        }
                    }
                    (b, timers)
                })
            });

            for &mb in &fwd_mbs {
                let decoded = if self.embedding.is_none() && self.tpi == 0 {
                    Some(timed(&mut self.timers.wire_s, || {
                        dec_rx.recv().expect("upstream stage hung up")
                    }))
                } else {
                    None
                };
                self.forward_mb_body(ids, mb, mb_batch, seq, decoded, &mut |_, x| {
                    ship_tx.send(x).expect("boundary ship thread hung up");
                });
            }
            drop(ship_tx);
            let mut merge = |j: Option<std::thread::ScopedJoinHandle<'_, (_, PhaseTimers)>>| match j
            {
                Some(h) => {
                    let (b, t) = h.join().expect("boundary helper thread");
                    self.timers.add(&t);
                    Some(b)
                }
                None => None,
            };
            let send_b = merge(ship);
            let recv_b = match prefetch {
                Some(h) => {
                    let (b, t) = h.join().expect("boundary helper thread");
                    self.timers.add(&t);
                    Some(b)
                }
                None => None,
            };
            (send_b, recv_b)
        });
        self.send_b = send_b;
        self.recv_b = recv_b;
    }

    /// GPipe drain: run this stage's backwards in the shared schedule's
    /// (reversed) micro-batch order, then ring-sync compressor grads and
    /// forward the boundary grads to the decode replicas.
    fn backward(&mut self, dhidden: &Tensor) {
        if self.overlap_boundaries() {
            self.backward_overlapped(dhidden);
        } else {
            self.backward_inline(dhidden);
        }
        self.post_drain_sync();
        self.done();
    }

    /// The compute body of one backward micro-batch: seed the gradient
    /// (output slice on the last stage, `incoming` elsewhere), broadcast
    /// across the stage, run the owned layers in reverse, and hand the
    /// upstream-bound gradient to `emit` (embedding backward on stage 0,
    /// boundary ship otherwise).
    fn backward_mb_body(
        &mut self,
        dhidden: &Tensor,
        mb: usize,
        mb_rows: usize,
        incoming: Option<Tensor>,
        emit: &mut dyn FnMut(&mut Self, Tensor),
    ) {
        let mut d = if self.is_last_stage() {
            timed(&mut self.timers.compute_s, || {
                dhidden.slice_rows(mb * mb_rows, (mb + 1) * mb_rows)
            })
        } else {
            self.stage_broadcast(incoming)
        };
        for i in (0..self.layers.len()).rev() {
            let (layers, tp, timers, ws) = (
                &mut self.layers,
                &mut self.tp,
                &mut self.timers,
                &mut self.ws,
            );
            let nd = layers[i].backward(&d, tp, timers, ws);
            self.ws.recycle_tensor(d);
            d = nd;
        }
        if let Some(emb) = self.embedding.as_mut() {
            let t0 = std::time::Instant::now();
            let (d_ref, ws) = (&d, &mut self.ws);
            emb.backward_mb(d_ref, ws);
            self.timers.compute_s += t0.elapsed().as_secs_f64();
        } else if self.tpi == 0 {
            emit(self, d);
        }
    }

    /// Inline drain path (required under tracing; what non-boundary
    /// ranks always run).
    fn backward_inline(&mut self, dhidden: &Tensor) {
        let m = self.micro_batches;
        let rows = dhidden.dims()[0];
        let mb_rows = rows / m;
        let order = gpipe_order(self.pp, m, self.stage);
        for op in order.into_iter().filter(|o| o.backward) {
            let incoming = if !self.is_last_stage() && self.tpi == 0 {
                self.trace_event(
                    Dir::Recv,
                    ChannelId::BoundaryGrad {
                        boundary: self.stage,
                    },
                    MsgId::Grad { mb: op.mb },
                    None,
                );
                let b = self.send_b.as_mut().expect("non-final stage sender");
                let dy = timed(&mut self.timers.wire_s, || {
                    b.grad_rx.recv().expect("downstream stage hung up")
                });
                Some(timed(&mut self.timers.encode_s, || b.comp.backward(&dy)))
            } else {
                None
            };
            let stage = self.stage;
            let trace = self.trace.clone();
            self.backward_mb_body(dhidden, op.mb, mb_rows, incoming, &mut |me, d| {
                if let Some(trace) = &trace {
                    trace.record(
                        Dir::Send,
                        ChannelId::BoundaryGrad {
                            boundary: stage - 1,
                        },
                        MsgId::Grad { mb: op.mb },
                        None,
                    );
                }
                let b = me.recv_b.as_mut().expect("non-first stage receiver");
                timed(&mut me.timers.wire_s, || {
                    b.grad_tx.send(d).expect("upstream stage hung up")
                });
            });
        }
    }

    /// Overlapped drain path: a prefetch thread owns the sending
    /// boundary half, receiving downstream gradients and running the
    /// compressor backward ahead of the compute loop; a ship thread owns
    /// the receiving half and sends upstream gradients behind it. FIFO
    /// hand-offs keep the compressor call order identical to inline.
    fn backward_overlapped(&mut self, dhidden: &Tensor) {
        let m = self.micro_batches;
        let rows = dhidden.dims()[0];
        let mb_rows = rows / m;
        let order = gpipe_order(self.pp, m, self.stage);
        let bwd_mbs: Vec<usize> = order
            .into_iter()
            .filter(|o| o.backward)
            .map(|o| o.mb)
            .collect();
        let n_bwd = bwd_mbs.len();
        let send_b = self.send_b.take();
        let recv_b = self.recv_b.take();
        let (grad_out_tx, grad_out_rx) = channel::<Tensor>();
        let (grad_in_tx, grad_in_rx) = channel::<Tensor>();

        let (send_b, recv_b) = std::thread::scope(|s| {
            let prefetch = send_b.map(|mut b| {
                s.spawn(move || {
                    let mut timers = PhaseTimers::default();
                    for _ in 0..n_bwd {
                        let dy = timed(&mut timers.wire_s, || {
                            b.grad_rx.recv().expect("downstream stage hung up")
                        });
                        let d = timed(&mut timers.encode_s, || b.comp.backward(&dy));
                        if grad_in_tx.send(d).is_err() {
                            break;
                        }
                    }
                    (b, timers)
                })
            });
            let ship = recv_b.map(|b| {
                s.spawn(move || {
                    let mut timers = PhaseTimers::default();
                    for d in grad_out_rx {
                        timed(&mut timers.wire_s, || {
                            b.grad_tx.send(d).expect("upstream stage hung up")
                        });
                    }
                    (b, timers)
                })
            });

            for &mb in &bwd_mbs {
                let incoming = if !self.is_last_stage() && self.tpi == 0 {
                    Some(timed(&mut self.timers.wire_s, || {
                        grad_in_rx.recv().expect("downstream stage hung up")
                    }))
                } else {
                    None
                };
                self.backward_mb_body(dhidden, mb, mb_rows, incoming, &mut |_, d| {
                    grad_out_tx.send(d).expect("boundary ship thread hung up");
                });
            }
            drop(grad_out_tx);
            let send_b = match prefetch {
                Some(h) => {
                    let (b, t) = h.join().expect("boundary helper thread");
                    self.timers.add(&t);
                    Some(b)
                }
                None => None,
            };
            let recv_b = match ship {
                Some(h) => {
                    let (b, t) = h.join().expect("boundary helper thread");
                    self.timers.add(&t);
                    Some(b)
                }
                None => None,
            };
            (send_b, recv_b)
        });
        self.send_b = send_b;
        self.recv_b = recv_b;
    }

    /// Post-drain synchronization, in the serial executor's order:
    /// per-layer compressor grads first, then boundary replicas. Runs
    /// with both boundary halves restored to this thread.
    fn post_drain_sync(&mut self) {
        for layer in &mut self.layers {
            layer.sync_compressor_grads(&mut self.tp, &mut self.timers);
        }
        if self.send_b.is_some() {
            self.trace_event(
                Dir::Send,
                ChannelId::BoundaryFwd {
                    boundary: self.stage,
                },
                MsgId::GradSync,
                None,
            );
        }
        if let Some(b) = self.send_b.as_mut() {
            let mut grads = Vec::new();
            b.comp.visit_params(&mut |p| grads.push(p.grad.clone()));
            timed(&mut self.timers.wire_s, || {
                b.tx.send(FwdMsg::GradSync(grads))
                    .expect("downstream stage hung up")
            });
        }
        if self.recv_b.is_some() {
            self.trace_event(
                Dir::Recv,
                ChannelId::BoundaryFwd {
                    boundary: self.stage - 1,
                },
                MsgId::GradSync,
                None,
            );
        }
        if let Some(b) = self.recv_b.as_mut() {
            let msg = timed(&mut self.timers.wire_s, || {
                b.rx.recv().expect("upstream stage hung up")
            });
            match msg {
                FwdMsg::GradSync(grads) => {
                    let mut i = 0;
                    b.replica.visit_params(&mut |p| {
                        p.grad = grads[i].clone();
                        i += 1;
                    });
                }
                FwdMsg::Activation(_) => panic!("activation during grad sync"),
            }
        }
    }

    /// Visits every parameter this rank owns and updates with SGD:
    /// embeddings (stage 0), layer shards and replicas, layer
    /// compressors, and both halves of adjacent pipeline boundaries.
    fn visit_owned_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        if let Some(emb) = self.embedding.as_mut() {
            emb.visit_params(f);
        }
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
        for layer in &mut self.layers {
            layer.visit_compressor_params(f);
        }
        if let Some(b) = self.send_b.as_mut() {
            b.comp.visit_params(f);
        }
        if let Some(b) = self.recv_b.as_mut() {
            b.replica.visit_params(f);
        }
    }

    fn collect_grads(&mut self) {
        let embedding = match self.embedding.as_mut() {
            Some(emb) => {
                let mut v = Vec::new();
                emb.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            }
            None => Vec::new(),
        };
        let layers: Vec<LayerGrads> = self.layers.iter_mut().map(|l| l.grads()).collect();
        let boundary_comp = match self.send_b.as_mut() {
            Some(b) => {
                let mut v = Vec::new();
                b.comp.visit_params(&mut |p| v.push(p.grad.clone()));
                v
            }
            None => Vec::new(),
        };
        self.respond(Response::Grads {
            rank: self.rank,
            grads: RankGrads {
                embedding,
                layers,
                boundary_comp,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::link::typed_world_links;
    use crate::runtime::{Seeds, WorkerBuilder};
    use crate::RuntimeConfig;
    use actcomp_compress::plan::CompressionPlan;
    use actcomp_compress::spec::CompressorSpec;
    use actcomp_mp::MpConfig;
    use actcomp_nn::{BertConfig, BertEncoder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::sync::mpsc::channel;

    #[test]
    fn encoded_len_matches_the_encoding() {
        use super::{Command, FwdMsg, Response};
        use crate::wire::{encode_msg, WireMsg};
        use actcomp_compress::{Compressed, Payload};
        use actcomp_tensor::{Shape, Tensor};
        let t = Tensor::ones([3, 4]);
        let ids = vec![1usize, 2, 3];
        let code = Compressed::new(Payload::Dense(t.clone()), Shape::new(vec![3, 8]));
        fn check<T: WireMsg>(m: &T) {
            assert_eq!(encode_msg(m).len(), m.encoded_len());
        }
        check(&FwdMsg::Activation(code));
        check(&FwdMsg::GradSync(vec![t.clone()]));
        check(&Command::Forward {
            ids: ids.clone(),
            batch: 1,
            seq: 3,
        });
        check(&Command::Infer {
            ids,
            batch: 1,
            seq: 3,
            micro: 1,
        });
        check(&Command::Backward { dhidden: t.clone() });
        check(&Response::Output { y: t });
    }

    #[test]
    fn forward_only_infer_leaves_no_compressor_caches() {
        // tp=2 × pp=2 with A2 on every layer: each rank compresses at
        // every TP reduce, and stage 0 also at the pipeline boundary.
        // Serving never runs backward, so none of those caches may
        // outlive the batch that filled them.
        const SEQ: usize = 8;
        let bert = BertConfig {
            vocab: 32,
            hidden: 16,
            layers: 4,
            heads: 4,
            ff_hidden: 32,
            max_seq: SEQ,
        };
        let cfg = RuntimeConfig {
            mp: MpConfig {
                bert: bert.clone(),
                tp: 2,
                pp: 2,
                plan: CompressionPlan::last_layers(CompressorSpec::A2, 4, 4),
                tokens: SEQ,
                error_feedback: false,
            },
            micro_batches: 1,
            tuning: None,
            trace: false,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let serial = BertEncoder::new(&mut rng, bert);
        let builder = WorkerBuilder::new(&serial, &cfg, Seeds::draw(&cfg, &mut rng));
        let ids: Vec<usize> = (0..2 * SEQ).map(|i| i % 32).collect();
        // The workers are driven directly, not through their command
        // loop; their responses only need somewhere to go.
        let mut responses = Vec::new();
        let handles: Vec<_> = typed_world_links(2, 2)
            .into_iter()
            .enumerate()
            .map(|(rank, links)| {
                let (_, cmd_rx) = channel();
                let (resp_tx, resp_rx) = channel();
                responses.push(resp_rx);
                let mut w = builder.build(rank, links, cmd_rx, resp_tx);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    for _ in 0..5 {
                        w.infer(&ids, 2, SEQ, 2);
                    }
                    w
                })
            })
            .collect();
        for h in handles {
            let w = h.join().expect("rank thread");
            let layers: usize = w.layers.iter().map(|l| l.compressor_cache_depth()).sum();
            assert_eq!(
                layers, 0,
                "rank {}: reduce compressor caches leaked",
                w.rank
            );
            if let Some(b) = &w.send_b {
                assert_eq!(b.comp.name(), "ae");
                assert_eq!(
                    b.comp.cache_depth(),
                    0,
                    "rank {}: boundary cache leaked",
                    w.rank
                );
            }
        }
    }
}
