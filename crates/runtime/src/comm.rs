//! Channel-based ring collectives for one tensor-parallel group.
//!
//! Each rank owns a [`TpGroup`] endpoint of a ring over
//! `std::sync::mpsc` channels. Collectives run the same compressor
//! arithmetic as the serial [`actcomp_mp::CompressedAllReduce`], so a
//! threaded run with the identity compressor is bit-identical to the
//! serial executor.
//!
//! # Ring algorithm
//!
//! Dense reduces and summable-code reduces use a **pipelined chain
//! reduce plus ring broadcast** over row chunks:
//!
//! 1. *Chain reduce* (rank order `0 → 1 → … → p−1`): rank 0 ships each
//!    chunk of its partial; every rank in between adds its own rows to
//!    the buffer it received and forwards it. The buffer arriving at
//!    rank `p−1` holds `((x₀ + x₁) + x₂) + …` — exactly the serial
//!    executor's left fold in rank order, which is what keeps the
//!    threaded runtime bitwise equal to serial.
//! 2. *Broadcast* (`p−1 → 0 → 1 → … → p−2`): the root forwards each
//!    finished chunk around the ring; every rank copies it into its
//!    output.
//!
//! A textbook reduce-scatter + all-gather would be cheaper in maximum
//! per-rank traffic, but it reduces every chunk along a *different* rank
//! walk, so its floating-point association depends on the chunk's owner
//! — it cannot reproduce the serial left fold bit for bit. The chain
//! form keeps the fold while still moving at most `2N` elements per rank
//! (versus the gather-based `(p−1)N`, strictly fewer for `p ≥ 3`) and
//! `2(p−1)N` in aggregate across links, which is bandwidth-optimal for
//! an all-reduce.
//!
//! # Chunking and overlap
//!
//! Tensors are split into row chunks ([`RingTuning`]); chunk `i+1` is
//! being encoded/copied while chunk `i` is on the wire and chunk `i−1`
//! is being summed/decoded downstream. Rank 0 paces the pipeline: it
//! keeps at most `pipeline_depth` reduce chunks in flight beyond the
//! broadcasts it has consumed, so memory stays bounded without any
//! blocking sends (channels are unbounded; the lookahead cap is the only
//! back-pressure needed). Because every rank sends its reduce-phase
//! chunks in index order and broadcast forwards in index order, each
//! link's FIFO matches the receiver's processing order up to the
//! reduce/broadcast interleave, which a small stash absorbs.
//!
//! Summable codecs that declare [`Compressor::chunkable`] (identity,
//! auto-encoder) are encoded per chunk and their codes chain-reduced
//! with [`Compressed::sum`] — per-element rank-order folds, bitwise
//! equal to the unchunked message. Non-chunkable codecs travel as a
//! single chunk, preserving their whole-tensor semantics (global Top-K
//! selection, per-tensor quantization ranges, error-feedback residuals).
//! Non-summable messages still all-gather, but each message is decoded
//! as it arrives so decode overlaps the remaining wire hops; the final
//! summation stays in rank order.

use crate::link::{typed_pair, MsgRx, MsgTx, CHAN_RING};
use crate::report::{timed, PhaseTimers};
use crate::trace::TraceHandle;
use crate::wire::{le32_run_len, put_f32_slice, put_u8, put_usize, Reader, WireError, WireMsg};
use actcomp_check::{ChannelId, Dir, MsgId};
use actcomp_compress::{Compressed, Compressor};
use actcomp_mp::CommBytes;
use actcomp_net::{Transport, TransportError};
use actcomp_tensor::{pool, Tensor, Workspace};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Rows-per-chunk target when no explicit chunk size is configured:
/// split into this many chunks.
const DEFAULT_CHUNKS: usize = 4;

/// Default sender lookahead, in chunks, for the pipeline head (rank 0).
const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// Process-wide `--chunk-rows` override (0 = unset).
static CHUNK_ROWS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide `--pipeline-depth` override (0 = unset).
static PIPELINE_DEPTH: AtomicUsize = AtomicUsize::new(0);

/// Lazily-parsed `ACTCOMP_CHUNK_ROWS` environment value.
static ENV_CHUNK_ROWS: OnceLock<Option<usize>> = OnceLock::new();

/// Overrides the ring-collective chunk size (rows per chunk) for the
/// rest of the process — the CLI's `--chunk-rows` flag lands here after
/// validation. Takes precedence over `ACTCOMP_CHUNK_ROWS`.
///
/// # Panics
///
/// Panics if `rows` is zero (`actcomp check` rejects this statically as
/// `AC0501`); [`try_set_chunk_rows`] reports the same condition as a
/// typed error instead.
pub fn set_chunk_rows(rows: usize) {
    try_set_chunk_rows(rows).expect("chunk row count must be at least 1");
}

/// Fallible form of [`set_chunk_rows`]: rejects a zero row count as
/// [`RuntimeError::ZeroChunkRows`](crate::config::RuntimeError::ZeroChunkRows)
/// instead of panicking.
pub fn try_set_chunk_rows(rows: usize) -> Result<(), crate::config::RuntimeError> {
    if rows == 0 {
        return Err(crate::config::RuntimeError::ZeroChunkRows);
    }
    CHUNK_ROWS.store(rows, Ordering::Relaxed);
    Ok(())
}

/// Overrides the ring pipeline depth (maximum reduce chunks in flight
/// ahead of the broadcast) for the rest of the process — the CLI's
/// `--pipeline-depth` flag lands here after validation.
///
/// # Panics
///
/// Panics if `depth` is zero (`AC0502`); [`try_set_pipeline_depth`]
/// reports the same condition as a typed error instead.
pub fn set_pipeline_depth(depth: usize) {
    try_set_pipeline_depth(depth).expect("pipeline depth must be at least 1");
}

/// Fallible form of [`set_pipeline_depth`]: rejects a zero depth as
/// [`RuntimeError::ZeroPipelineDepth`](crate::config::RuntimeError::ZeroPipelineDepth)
/// instead of panicking.
pub fn try_set_pipeline_depth(depth: usize) -> Result<(), crate::config::RuntimeError> {
    if depth == 0 {
        return Err(crate::config::RuntimeError::ZeroPipelineDepth);
    }
    PIPELINE_DEPTH.store(depth, Ordering::Relaxed);
    Ok(())
}

fn env_chunk_rows() -> Option<usize> {
    *ENV_CHUNK_ROWS.get_or_init(|| match std::env::var("ACTCOMP_CHUNK_ROWS") {
        Ok(v) => match pool::parse_count_spec(&v, "chunk row count") {
            Ok(n) => Some(n),
            Err(e) => {
                eprintln!(
                    "warning: ignoring invalid ACTCOMP_CHUNK_ROWS ({e}); \
                     using automatic chunking"
                );
                None
            }
        },
        Err(_) => None,
    })
}

/// Chunking/pipelining knobs for ring collectives.
///
/// Every endpoint of a ring captures the process-wide configuration at
/// [`TpGroup::ring`] time; tests may override the copy on each endpoint,
/// as long as all endpoints of one ring agree (the chunk plan must be
/// identical on every rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RingTuning {
    /// Rows per chunk; `None` picks `ceil(rows / 4)` per collective.
    pub chunk_rows: Option<usize>,
    /// Maximum reduce chunks rank 0 keeps in flight ahead of the
    /// broadcasts it has consumed (≥ 1).
    pub pipeline_depth: usize,
}

impl RingTuning {
    /// Resolves the process-wide configuration: [`set_chunk_rows`] /
    /// [`set_pipeline_depth`] first, then `ACTCOMP_CHUNK_ROWS`, then
    /// automatic chunking at the default pipeline depth (4).
    pub fn configured() -> RingTuning {
        let chunk_rows = match CHUNK_ROWS.load(Ordering::Relaxed) {
            0 => env_chunk_rows(),
            n => Some(n),
        };
        let pipeline_depth = match PIPELINE_DEPTH.load(Ordering::Relaxed) {
            0 => DEFAULT_PIPELINE_DEPTH,
            n => n,
        };
        RingTuning {
            chunk_rows,
            pipeline_depth,
        }
    }

    /// The per-chunk row counts for a `rows`-row collective. Depends
    /// only on `(self, rows)` — never on runtime state — so every rank
    /// of a ring derives the same plan independently. Public so the
    /// static comm-protocol analyzer can pin its mirror
    /// (`actcomp_check::collectives::ring_chunk_plan`) against the
    /// engine's plan in cross-crate tests.
    pub fn plan(&self, rows: usize) -> Vec<usize> {
        if rows == 0 {
            return vec![0];
        }
        let per = self
            .chunk_rows
            .unwrap_or_else(|| rows.div_ceil(DEFAULT_CHUNKS))
            .max(1);
        let mut plan = Vec::with_capacity(rows.div_ceil(per));
        let mut left = rows;
        while left > 0 {
            let c = per.min(left);
            plan.push(c);
            left -= c;
        }
        plan
    }
}

impl Default for RingTuning {
    fn default() -> Self {
        RingTuning {
            chunk_rows: None,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
        }
    }
}

/// An item travelling a whole-message all-gather, tagged with origin.
#[derive(Debug, Clone)]
pub(crate) enum GatherPayload {
    /// A compressed activation message (non-summable reduce).
    Code(Compressed),
    /// An uncompressed tensor (the gather-based dense reference path).
    Dense(Tensor),
    /// Compressor-parameter gradients (auto-encoder sync).
    Grads(Vec<Tensor>),
}

/// One row chunk of a chain-reduce / broadcast collective.
#[derive(Debug)]
pub(crate) enum ChunkData {
    /// Raw rows of a dense reduce (owned, recycled via `Workspace`).
    Dense(Vec<f32>),
    /// A per-chunk code of a summable compressed reduce.
    Code(Compressed),
}

impl ChunkData {
    /// fp16-equivalent bytes this chunk occupies on the wire.
    fn wire_bytes(&self) -> usize {
        match self {
            ChunkData::Dense(v) => v.len() * 2,
            ChunkData::Code(c) => c.wire_bytes(2),
        }
    }
}

/// A chunk message: reduce-phase (`bcast = false`) or broadcast-phase.
#[derive(Debug)]
pub(crate) struct ChunkMsg {
    bcast: bool,
    idx: usize,
    data: ChunkData,
}

/// Everything a ring link can carry.
#[derive(Debug)]
pub(crate) enum RingMsg {
    Gather(usize, GatherPayload),
    Chunk(ChunkMsg),
}

impl WireMsg for RingMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RingMsg::Gather(origin, payload) => {
                put_u8(out, 0);
                put_usize(out, *origin);
                match payload {
                    GatherPayload::Code(c) => {
                        put_u8(out, 0);
                        c.encode(out);
                    }
                    GatherPayload::Dense(t) => {
                        put_u8(out, 1);
                        t.encode(out);
                    }
                    GatherPayload::Grads(v) => {
                        put_u8(out, 2);
                        v.encode(out);
                    }
                }
            }
            RingMsg::Chunk(m) => {
                put_u8(out, 1);
                put_u8(out, m.bcast as u8);
                put_usize(out, m.idx);
                match &m.data {
                    ChunkData::Dense(rows) => {
                        put_u8(out, 0);
                        put_f32_slice(out, rows);
                    }
                    ChunkData::Code(c) => {
                        put_u8(out, 1);
                        c.encode(out);
                    }
                }
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            RingMsg::Gather(_, payload) => {
                let body = match payload {
                    GatherPayload::Code(c) => c.encoded_len(),
                    GatherPayload::Dense(t) => t.encoded_len(),
                    GatherPayload::Grads(v) => v.encoded_len(),
                };
                // tag, origin, payload tag
                1 + 8 + 1 + body
            }
            RingMsg::Chunk(m) => {
                let body = match &m.data {
                    ChunkData::Dense(rows) => le32_run_len(rows.len()),
                    ChunkData::Code(c) => c.encoded_len(),
                };
                // tag, bcast flag, index, data tag
                1 + 1 + 8 + 1 + body
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8("ring message tag")? {
            0 => {
                let origin = r.read_usize("gather origin")?;
                let payload = match r.read_u8("gather payload tag")? {
                    0 => GatherPayload::Code(Compressed::decode(r)?),
                    1 => GatherPayload::Dense(Tensor::decode(r)?),
                    2 => GatherPayload::Grads(Vec::<Tensor>::decode(r)?),
                    _ => {
                        return Err(WireError {
                            what: "gather payload tag",
                        })
                    }
                };
                Ok(RingMsg::Gather(origin, payload))
            }
            1 => {
                let bcast = r.read_u8("chunk bcast flag")? != 0;
                let idx = r.read_usize("chunk index")?;
                let data = match r.read_u8("chunk data tag")? {
                    0 => ChunkData::Dense(r.read_f32_vec("dense chunk rows")?),
                    1 => ChunkData::Code(Compressed::decode(r)?),
                    _ => {
                        return Err(WireError {
                            what: "chunk data tag",
                        })
                    }
                };
                Ok(RingMsg::Chunk(ChunkMsg { bcast, idx, data }))
            }
            _ => Err(WireError {
                what: "ring message tag",
            }),
        }
    }
}

/// Treats any tensor as `[rows, width]` for chunking purposes (rank-1
/// tensors chunk per element).
fn rows_width(t: &Tensor) -> (usize, usize) {
    let len = t.len();
    if len == 0 {
        return (1, 0);
    }
    let rows = if t.rank() >= 1 { t.dims()[0].max(1) } else { 1 };
    (rows, len / rows)
}

/// Cumulative `(start, end)` element ranges for a row-chunk plan.
fn elem_bounds(plan: &[usize], width: usize) -> Vec<(usize, usize)> {
    let mut bounds = Vec::with_capacity(plan.len());
    let mut at = 0;
    for &rows in plan {
        bounds.push((at * width, (at + rows) * width));
        at += rows;
    }
    bounds
}

/// Cumulative `(start, end)` row ranges for a row-chunk plan.
fn row_bounds(plan: &[usize]) -> Vec<(usize, usize)> {
    let mut bounds = Vec::with_capacity(plan.len());
    let mut at = 0;
    for &rows in plan {
        bounds.push((at, at + rows));
        at += rows;
    }
    bounds
}

/// Encodes chunk `idx` of `partial` (the whole tensor when the plan is a
/// single chunk), charging the compressor to `encode_s` and adding the
/// code's wire size to `own_wire`.
fn encode_chunk(
    comp: &mut dyn Compressor,
    partial: &Tensor,
    bounds: &[(usize, usize)],
    idx: usize,
    timers: &mut PhaseTimers,
    own_wire: &mut usize,
) -> Compressed {
    let code = if bounds.len() == 1 {
        timed(&mut timers.encode_s, || comp.compress(partial))
    } else {
        let (r0, r1) = bounds[idx];
        let chunk = partial.slice_rows(r0, r1);
        timed(&mut timers.encode_s, || comp.compress(&chunk))
    };
    *own_wire += code.wire_bytes(2);
    code
}

/// Decodes a summed chunk code into rows `ebounds[idx]` of `out` (or
/// into `single` when the collective is unchunked, avoiding the copy).
fn consume_total(
    comp: &dyn Compressor,
    code: &Compressed,
    idx: usize,
    ebounds: &[(usize, usize)],
    out: &mut Option<Tensor>,
    single: &mut Option<Tensor>,
    timers: &mut PhaseTimers,
) {
    let dec = timed(&mut timers.decode_s, || comp.decompress(code));
    match out {
        Some(o) => {
            let (s, e) = ebounds[idx];
            o.as_mut_slice()[s..e].copy_from_slice(dec.as_slice());
        }
        None => *single = Some(dec),
    }
}

/// One rank's endpoint of a tensor-parallel ring of `world` ranks.
///
/// All collectives are deterministic: reductions always fold in rank
/// order `0..world` with a chunk plan derived purely from shapes and
/// [`RingTuning`], so the result is independent of thread scheduling and
/// of the chunk plan itself (for dense and chunkable-codec reduces).
pub struct TpGroup {
    /// This rank's index within the group.
    pub rank: usize,
    /// Group size.
    pub world: usize,
    next_tx: Option<MsgTx<RingMsg>>,
    prev_rx: Option<MsgRx<RingMsg>>,
    /// Cumulative reduce traffic (per-rank accounting, matching the
    /// serial executor's formulas — dense backward reduces count
    /// nothing here, exactly as in serial).
    pub bytes: CommBytes,
    /// Ring-vs-gather accounting: `wire` is the fp16-equivalent bytes
    /// this rank *actually sent* in collectives; `dense` is what the
    /// gather-based implementation of the same collectives would have
    /// sent per rank. For the gather reference path the two are equal;
    /// for ring collectives `wire ≤ dense`, strictly less for `p ≥ 3`.
    pub ring_bytes: CommBytes,
    /// Chunking/pipelining knobs, captured from the process-wide
    /// configuration at ring construction. Tests may override, but all
    /// endpoints of one ring must agree.
    pub tuning: RingTuning,
    /// Audit-trace handle; `None` (the default) records nothing.
    trace: Option<TraceHandle>,
    /// Ordinal of the next collective on this ring, reset per step —
    /// the `coll` component of traced chunk/gather message identities.
    coll: usize,
    /// Ordinal of the collective currently in flight.
    active_coll: usize,
}

impl std::fmt::Debug for TpGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TpGroup({}/{})", self.rank, self.world)
    }
}

impl TpGroup {
    /// Builds the endpoints of a ring over `world` ranks; endpoint `t`
    /// sends to `(t + 1) % world` and receives from `(t − 1) % world`.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn ring(world: usize) -> Vec<TpGroup> {
        assert!(world > 0, "ring needs at least one rank");
        if world == 1 {
            return vec![TpGroup::solo()];
        }
        let links: Vec<(MsgTx<RingMsg>, MsgRx<RingMsg>)> =
            (0..world).map(|_| typed_pair()).collect();
        let mut txs: Vec<Option<MsgTx<RingMsg>>> = Vec::with_capacity(world);
        let mut rxs: Vec<Option<MsgRx<RingMsg>>> = Vec::with_capacity(world);
        for (tx, rx) in links {
            txs.push(Some(tx));
            rxs.push(Some(rx));
        }
        // Link `t` carries traffic from rank t to rank (t + 1) % world:
        // rank t holds the sender of link t and the receiver of link
        // (t − 1) % world.
        (0..world)
            .map(|t| {
                TpGroup::from_links(t, world, txs[t].take(), rxs[(t + world - 1) % world].take())
            })
            .collect()
    }

    /// Builds one endpoint from pre-opened links (typed channels or
    /// framed transport channels). `tx`/`rx` must be `Some` whenever
    /// `world > 1`.
    pub(crate) fn from_links(
        rank: usize,
        world: usize,
        tx: Option<MsgTx<RingMsg>>,
        rx: Option<MsgRx<RingMsg>>,
    ) -> TpGroup {
        TpGroup {
            rank,
            world,
            next_tx: tx,
            prev_rx: rx,
            bytes: CommBytes::default(),
            ring_bytes: CommBytes::default(),
            tuning: RingTuning::configured(),
            trace: None,
            coll: 0,
            active_coll: 0,
        }
    }

    /// Builds one endpoint of a ring spanning a transport's whole world:
    /// rank `r` sends to `(r + 1) % world` and receives from
    /// `(r − 1) % world` on the ring channel. Every rank of the
    /// transport's world must call this (the collectives benchmark's
    /// entry point for measuring rings over sockets).
    pub fn over_transport(transport: &mut dyn Transport) -> Result<TpGroup, TransportError> {
        let (rank, world) = (transport.rank(), transport.world());
        if world == 1 {
            return Ok(TpGroup::solo());
        }
        let tx = transport.open_send((rank + 1) % world, CHAN_RING)?;
        let rx = transport.open_recv((rank + world - 1) % world, CHAN_RING)?;
        Ok(TpGroup::from_links(
            rank,
            world,
            Some(MsgTx::Framed(std::sync::Mutex::new(tx))),
            Some(MsgRx::Framed(std::sync::Mutex::new(rx))),
        ))
    }

    /// A single-rank group: collectives degenerate to local arithmetic
    /// (matching the serial executor at `tp = 1`).
    pub fn solo() -> TpGroup {
        TpGroup {
            rank: 0,
            world: 1,
            next_tx: None,
            prev_rx: None,
            bytes: CommBytes::default(),
            ring_bytes: CommBytes::default(),
            tuning: RingTuning::configured(),
            trace: None,
            coll: 0,
            active_coll: 0,
        }
    }

    /// Attaches an audit-trace handle: every subsequent ring send/recv
    /// is recorded in the static analyzer's event vocabulary.
    pub(crate) fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Restarts collective numbering — the worker calls this at the top
    /// of each step so traced ordinals match the per-step static graph.
    pub(crate) fn reset_step(&mut self) {
        self.coll = 0;
    }

    /// Opens the next collective on this ring, fixing the ordinal that
    /// tags its traced messages.
    fn begin_collective(&mut self) {
        self.active_coll = self.coll;
        self.coll += 1;
    }

    /// The traced channel for this rank's outgoing ring link.
    fn trace_send_channel(&self, trace: &TraceHandle) -> ChannelId {
        ChannelId::Ring {
            stage: trace.stage(),
            link: self.rank,
        }
    }

    /// The traced channel for this rank's incoming ring link.
    fn trace_recv_channel(&self, trace: &TraceHandle) -> ChannelId {
        ChannelId::Ring {
            stage: trace.stage(),
            link: (self.rank + self.world - 1) % self.world,
        }
    }

    /// Sends one chunk message to the next rank, counting its actual
    /// wire bytes.
    fn send_chunk(&mut self, bcast: bool, idx: usize, data: ChunkData, timers: &mut PhaseTimers) {
        self.ring_bytes.wire += data.wire_bytes();
        if let Some(trace) = &self.trace {
            trace.record(
                Dir::Send,
                self.trace_send_channel(trace),
                MsgId::Chunk {
                    coll: self.active_coll,
                    bcast,
                    idx,
                },
                Some(data.wire_bytes()),
            );
        }
        let msg = RingMsg::Chunk(ChunkMsg { bcast, idx, data });
        let tx = self.next_tx.as_ref().expect("ring sender");
        timed(&mut timers.wire_s, || {
            tx.send(msg).expect("ring peer hung up");
        });
    }

    /// Receives the chunk message `(bcast, idx)`, stashing any other
    /// chunk that arrives first (the reduce/broadcast interleave on a
    /// link can run at most `pipeline_depth` messages ahead).
    fn recv_chunk(
        &self,
        bcast: bool,
        idx: usize,
        stash: &mut Vec<ChunkMsg>,
        timers: &mut PhaseTimers,
    ) -> ChunkData {
        // Consumption — not channel arrival — is the traced event, so
        // a stash hit records exactly like a direct receive.
        if let Some(trace) = &self.trace {
            trace.record(
                Dir::Recv,
                self.trace_recv_channel(trace),
                MsgId::Chunk {
                    coll: self.active_coll,
                    bcast,
                    idx,
                },
                None,
            );
        }
        if let Some(pos) = stash.iter().position(|m| m.bcast == bcast && m.idx == idx) {
            return stash.swap_remove(pos).data;
        }
        let rx = self.prev_rx.as_ref().expect("ring receiver");
        timed(&mut timers.wire_s, || loop {
            match rx.recv().expect("ring peer hung up") {
                RingMsg::Chunk(m) if m.bcast == bcast && m.idx == idx => return m.data,
                RingMsg::Chunk(m) => stash.push(m),
                RingMsg::Gather(..) => {
                    panic!("ring delivered a gather message to a chunked collective")
                }
            }
        })
    }

    /// Receives a chunk that must be dense rows.
    fn recv_dense_chunk(
        &self,
        bcast: bool,
        idx: usize,
        stash: &mut Vec<ChunkMsg>,
        timers: &mut PhaseTimers,
    ) -> Vec<f32> {
        match self.recv_chunk(bcast, idx, stash, timers) {
            ChunkData::Dense(b) => b,
            ChunkData::Code(_) => panic!("dense reduce received a code chunk"),
        }
    }

    /// Receives a chunk that must be a code.
    fn recv_code_chunk(
        &self,
        bcast: bool,
        idx: usize,
        stash: &mut Vec<ChunkMsg>,
        timers: &mut PhaseTimers,
    ) -> Compressed {
        match self.recv_chunk(bcast, idx, stash, timers) {
            ChunkData::Code(c) => c,
            ChunkData::Dense(_) => panic!("code reduce received a dense chunk"),
        }
    }

    /// All-gathers one payload per rank around the ring, returning the
    /// payloads indexed by origin rank. Blocking time is charged to the
    /// `wire` phase.
    fn all_gather(&mut self, own: GatherPayload, timers: &mut PhaseTimers) -> Vec<GatherPayload> {
        let mut out: Vec<Option<GatherPayload>> = (0..self.world).map(|_| None).collect();
        out[self.rank] = Some(own.clone());
        if self.world == 1 {
            return out.into_iter().map(|o| o.expect("own payload")).collect();
        }
        self.begin_collective();
        timed(&mut timers.wire_s, || {
            let tx = self.next_tx.as_ref().expect("ring sender");
            let rx = self.prev_rx.as_ref().expect("ring receiver");
            let mut carry = (self.rank, own);
            for _ in 0..self.world - 1 {
                if let Some(trace) = &self.trace {
                    trace.record(
                        Dir::Send,
                        self.trace_send_channel(trace),
                        MsgId::Gather {
                            coll: self.active_coll,
                            origin: carry.0,
                        },
                        None,
                    );
                }
                tx.send(RingMsg::Gather(carry.0, carry.1))
                    .expect("ring peer hung up");
                let (origin, payload) = match rx.recv().expect("ring peer hung up") {
                    RingMsg::Gather(origin, payload) => (origin, payload),
                    RingMsg::Chunk(_) => {
                        panic!("ring delivered a chunk message to an all-gather")
                    }
                };
                if let Some(trace) = &self.trace {
                    trace.record(
                        Dir::Recv,
                        self.trace_recv_channel(trace),
                        MsgId::Gather {
                            coll: self.active_coll,
                            origin,
                        },
                        None,
                    );
                }
                out[origin] = Some(payload.clone());
                carry = (origin, payload);
            }
        });
        out.into_iter()
            .map(|o| o.expect("all-gather visited every rank"))
            .collect()
    }

    /// The row-chunk plan `compressed_all_reduce` uses for `t`: a real
    /// plan only when the codec is chunkable, the input is rank 2, and
    /// the group has peers; a single whole-tensor chunk otherwise.
    /// [`TpGroup::compressed_backward`] derives the same plan from the
    /// gradient's (identical) shape to pop the per-chunk caches.
    fn codec_plan(&self, comp: &dyn Compressor, t: &Tensor) -> Vec<usize> {
        if self.world > 1 && comp.chunkable() && t.rank() == 2 && t.dims()[0] > 0 {
            self.tuning.plan(t.dims()[0])
        } else {
            vec![rows_width(t).0]
        }
    }

    /// Compressed all-reduce of this rank's `partial` with the partials
    /// the peer ranks are concurrently contributing.
    ///
    /// Mirrors the serial [`actcomp_mp::CompressedAllReduce`] bit for
    /// bit: summable codes are chain-reduced in rank order and decoded
    /// once (per chunk, for chunkable codecs); non-summable messages are
    /// all-gathered, decoded as they arrive, and summed in rank order.
    /// Byte accounting uses the same formulas as the serial executor and
    /// accumulates into [`TpGroup::bytes`]; the whole call is also
    /// timed into `collective_s` (which overlaps the encode/wire/decode
    /// attribution rather than adding to it).
    pub fn compressed_all_reduce(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        let t0 = Instant::now();
        let out = if self.world == 1 {
            // Solo: compress/decompress locally, zero bytes — identical
            // to the serial executor at tp = 1.
            let msg = timed(&mut timers.encode_s, || comp.compress(partial));
            timed(&mut timers.decode_s, || comp.decompress(&msg))
        } else if comp.summable() {
            self.summable_ring(comp, partial, timers, ws)
        } else {
            self.gathered_reduce(comp, partial, timers)
        };
        timers.collective_s += t0.elapsed().as_secs_f64();
        out
    }

    /// Chain-reduce + broadcast over per-chunk codes of a summable
    /// compressor (see the module docs for the schedule).
    fn summable_ring(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        self.begin_collective();
        let plan = self.codec_plan(comp, partial);
        let total = plan.len();
        let bounds = row_bounds(&plan);
        let (_, width) = rows_width(partial);
        let ebounds = elem_bounds(&plan, width);
        let (r, p) = (self.rank, self.world);
        let depth = self.tuning.pipeline_depth.max(1);
        let mut stash: Vec<ChunkMsg> = Vec::new();
        let mut own_wire = 0usize;
        // Unchunked collectives return the decoded tensor directly
        // (`single`); chunked ones assemble rows into a leased `out`.
        let mut out = (total > 1).then(|| ws.lease_tensor(partial.shape().clone()));
        let mut single: Option<Tensor> = None;

        if r == 0 {
            let mut sent = 0;
            while sent < depth.min(total) {
                let code = encode_chunk(comp, partial, &bounds, sent, timers, &mut own_wire);
                self.send_chunk(false, sent, ChunkData::Code(code), timers);
                sent += 1;
            }
            for idx in 0..total {
                let code = self.recv_code_chunk(true, idx, &mut stash, timers);
                consume_total(&*comp, &code, idx, &ebounds, &mut out, &mut single, timers);
                if p > 2 {
                    self.send_chunk(true, idx, ChunkData::Code(code), timers);
                }
                if sent < total {
                    let code = encode_chunk(comp, partial, &bounds, sent, timers, &mut own_wire);
                    self.send_chunk(false, sent, ChunkData::Code(code), timers);
                    sent += 1;
                }
            }
        } else if r < p - 1 {
            for idx in 0..total {
                // Encoding before the blocking receive overlaps this
                // rank's encode with the upstream chain work.
                let own = encode_chunk(comp, partial, &bounds, idx, timers, &mut own_wire);
                let prev = self.recv_code_chunk(false, idx, &mut stash, timers);
                let summed = timed(&mut timers.decode_s, || prev.sum(&own));
                self.send_chunk(false, idx, ChunkData::Code(summed), timers);
            }
            for idx in 0..total {
                let code = self.recv_code_chunk(true, idx, &mut stash, timers);
                consume_total(&*comp, &code, idx, &ebounds, &mut out, &mut single, timers);
                if r != p - 2 {
                    self.send_chunk(true, idx, ChunkData::Code(code), timers);
                }
            }
        } else {
            for idx in 0..total {
                let own = encode_chunk(comp, partial, &bounds, idx, timers, &mut own_wire);
                let prev = self.recv_code_chunk(false, idx, &mut stash, timers);
                let summed = timed(&mut timers.decode_s, || prev.sum(&own));
                // Ship the total downstream before decoding locally so
                // peers' decodes overlap ours.
                self.send_chunk(true, idx, ChunkData::Code(summed.clone()), timers);
                consume_total(
                    &*comp,
                    &summed,
                    idx,
                    &ebounds,
                    &mut out,
                    &mut single,
                    timers,
                );
            }
        }
        debug_assert!(stash.is_empty(), "collective left chunks in the stash");

        // Serial-matching accounting: an all-reduce of `b` own bytes
        // costs `2 (p−1) b / p` per rank.
        let per_rank_ar = |bytes: usize| 2 * (p - 1) * bytes / p;
        self.bytes.add(CommBytes {
            wire: per_rank_ar(own_wire),
            dense: per_rank_ar(partial.len() * 2),
        });
        // Gather-equivalent baseline for the ring-vs-gather comparison.
        self.ring_bytes.dense += (p - 1) * own_wire;
        match out {
            Some(o) => o,
            None => single.expect("unchunked collective decoded once"),
        }
    }

    /// All-gather reduce for non-summable codecs, decoding each message
    /// as it arrives so decode overlaps the remaining wire hops.
    fn gathered_reduce(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
    ) -> Tensor {
        self.begin_collective();
        let p = self.world;
        let msg = timed(&mut timers.encode_s, || comp.compress(partial));
        let mut gathered_bytes = msg.wire_bytes(2);
        let mut sent_bytes = msg.wire_bytes(2);
        let mut decs: Vec<Option<Tensor>> = (0..p).map(|_| None).collect();
        {
            let tx = self.next_tx.as_ref().expect("ring sender");
            let rx = self.prev_rx.as_ref().expect("ring receiver");
            if let Some(trace) = &self.trace {
                trace.record(
                    Dir::Send,
                    self.trace_send_channel(trace),
                    MsgId::Gather {
                        coll: self.active_coll,
                        origin: self.rank,
                    },
                    Some(msg.wire_bytes(2)),
                );
            }
            timed(&mut timers.wire_s, || {
                tx.send(RingMsg::Gather(self.rank, GatherPayload::Code(msg.clone())))
                    .expect("ring peer hung up");
            });
            // Own decode runs while peers encode and ship.
            decs[self.rank] = Some(timed(&mut timers.decode_s, || comp.decompress(&msg)));
            for hop in 0..p - 1 {
                let (origin, code) = timed(&mut timers.wire_s, || {
                    match rx.recv().expect("ring peer hung up") {
                        RingMsg::Gather(origin, GatherPayload::Code(code)) => (origin, code),
                        _ => panic!("gathered reduce received a non-code message"),
                    }
                });
                if let Some(trace) = &self.trace {
                    trace.record(
                        Dir::Recv,
                        self.trace_recv_channel(trace),
                        MsgId::Gather {
                            coll: self.active_coll,
                            origin,
                        },
                        None,
                    );
                }
                gathered_bytes += code.wire_bytes(2);
                if hop + 1 < p - 1 {
                    sent_bytes += code.wire_bytes(2);
                    if let Some(trace) = &self.trace {
                        trace.record(
                            Dir::Send,
                            self.trace_send_channel(trace),
                            MsgId::Gather {
                                coll: self.active_coll,
                                origin,
                            },
                            Some(code.wire_bytes(2)),
                        );
                    }
                    timed(&mut timers.wire_s, || {
                        tx.send(RingMsg::Gather(origin, GatherPayload::Code(code.clone())))
                            .expect("ring peer hung up");
                    });
                }
                decs[origin] = Some(timed(&mut timers.decode_s, || comp.decompress(&code)));
            }
        }
        let out = timed(&mut timers.decode_s, || {
            let mut it = decs
                .into_iter()
                .map(|d| d.expect("gather visited every rank"));
            let mut acc = it.next().expect("at least one rank");
            for t in it {
                acc.add_assign(&t);
            }
            acc
        });
        self.bytes.add(CommBytes {
            wire: gathered_bytes * (p - 1) / p,
            dense: 2 * (p - 1) * (partial.len() * 2) / p,
        });
        // This path *is* a gather: actual equals the gather baseline.
        self.ring_bytes.add(CommBytes {
            wire: sent_bytes,
            dense: sent_bytes,
        });
        out
    }

    /// Exact (uncompressed) ring all-reduce over row chunks, used for
    /// the backward reductions the serial executor performs as plain
    /// sums — no bytes counted into [`TpGroup::bytes`], to match its
    /// accounting; actual traffic lands in [`TpGroup::ring_bytes`].
    ///
    /// Received chunk buffers are reused in place along the chain (no
    /// full-tensor clone per hop) and recycled into `ws` when consumed.
    pub fn dense_all_reduce(
        &mut self,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        if self.world == 1 || partial.is_empty() {
            return partial.clone();
        }
        let t0 = Instant::now();
        let out = self.dense_ring(partial, timers, ws);
        timers.collective_s += t0.elapsed().as_secs_f64();
        self.ring_bytes.dense += (self.world - 1) * partial.len() * 2;
        out
    }

    /// The chunked chain-reduce + broadcast schedule for dense rows.
    fn dense_ring(
        &mut self,
        partial: &Tensor,
        timers: &mut PhaseTimers,
        ws: &mut Workspace,
    ) -> Tensor {
        self.begin_collective();
        let (rows, width) = rows_width(partial);
        let plan = self.tuning.plan(rows);
        let total = plan.len();
        let bounds = elem_bounds(&plan, width);
        let data = partial.as_slice();
        let mut out = ws.lease_tensor(partial.shape().clone());
        let (r, p) = (self.rank, self.world);
        let depth = self.tuning.pipeline_depth.max(1);
        let mut stash: Vec<ChunkMsg> = Vec::new();

        if r == 0 {
            let mut sent = 0;
            let ship = |g: &mut Self, ws: &mut Workspace, idx: usize, timers: &mut PhaseTimers| {
                let (s, e) = bounds[idx];
                let mut buf = ws.lease(e - s);
                buf.copy_from_slice(&data[s..e]);
                g.send_chunk(false, idx, ChunkData::Dense(buf), timers);
            };
            while sent < depth.min(total) {
                ship(self, ws, sent, timers);
                sent += 1;
            }
            for (idx, &(s, e)) in bounds.iter().enumerate() {
                let buf = self.recv_dense_chunk(true, idx, &mut stash, timers);
                timed(&mut timers.decode_s, || {
                    out.as_mut_slice()[s..e].copy_from_slice(&buf);
                });
                if p > 2 {
                    self.send_chunk(true, idx, ChunkData::Dense(buf), timers);
                } else {
                    ws.recycle(buf);
                }
                if sent < total {
                    ship(self, ws, sent, timers);
                    sent += 1;
                }
            }
        } else if r < p - 1 {
            for (idx, &(s, e)) in bounds.iter().enumerate() {
                let mut buf = self.recv_dense_chunk(false, idx, &mut stash, timers);
                timed(&mut timers.decode_s, || {
                    for (b, &v) in buf.iter_mut().zip(&data[s..e]) {
                        *b += v;
                    }
                });
                self.send_chunk(false, idx, ChunkData::Dense(buf), timers);
            }
            for (idx, &(s, e)) in bounds.iter().enumerate() {
                let buf = self.recv_dense_chunk(true, idx, &mut stash, timers);
                timed(&mut timers.decode_s, || {
                    out.as_mut_slice()[s..e].copy_from_slice(&buf);
                });
                if r != p - 2 {
                    self.send_chunk(true, idx, ChunkData::Dense(buf), timers);
                } else {
                    ws.recycle(buf);
                }
            }
        } else {
            for (idx, &(s, e)) in bounds.iter().enumerate() {
                let mut buf = self.recv_dense_chunk(false, idx, &mut stash, timers);
                timed(&mut timers.decode_s, || {
                    for (b, &v) in buf.iter_mut().zip(&data[s..e]) {
                        *b += v;
                    }
                    out.as_mut_slice()[s..e].copy_from_slice(&buf);
                });
                self.send_chunk(true, idx, ChunkData::Dense(buf), timers);
            }
        }
        debug_assert!(stash.is_empty(), "collective left chunks in the stash");
        out
    }

    /// Reference gather-based dense all-reduce — the pre-ring
    /// implementation, kept as the bitwise oracle for the ring path and
    /// as the "before" side of the collectives benchmark. Clones the
    /// full tensor per hop, sums gathered tensors in rank order.
    pub fn dense_all_reduce_gather(
        &mut self,
        partial: &Tensor,
        timers: &mut PhaseTimers,
    ) -> Tensor {
        let t0 = Instant::now();
        let gathered = self.all_gather(GatherPayload::Dense(partial.clone()), timers);
        let out = timed(&mut timers.decode_s, || {
            let mut total: Option<Tensor> = None;
            for g in &gathered {
                let t = match g {
                    GatherPayload::Dense(t) => t,
                    _ => panic!("ring delivered a non-dense payload to a dense reduce"),
                };
                match &mut total {
                    Some(acc) => acc.add_assign(t),
                    None => total = Some(t.clone()),
                }
            }
            total.expect("at least one rank")
        });
        timers.collective_s += t0.elapsed().as_secs_f64();
        if self.world > 1 {
            let moved = (self.world - 1) * partial.len() * 2;
            self.ring_bytes.add(CommBytes {
                wire: moved,
                dense: moved,
            });
        }
        out
    }

    /// Runs the codec backward for a collective that
    /// [`TpGroup::compressed_all_reduce`] chunked: slices `dy` with the
    /// same shape-only plan, pops the per-chunk LIFO caches in *reverse*
    /// chunk order, and reassembles the per-chunk gradients in forward
    /// order. For unchunked codecs this is exactly `comp.backward(dy)`.
    pub fn compressed_backward(
        &self,
        comp: &mut dyn Compressor,
        dy: &Tensor,
        timers: &mut PhaseTimers,
    ) -> Tensor {
        let plan = self.codec_plan(comp, dy);
        if plan.len() <= 1 {
            return timed(&mut timers.encode_s, || comp.backward(dy));
        }
        timed(&mut timers.encode_s, || {
            let bounds = row_bounds(&plan);
            let mut parts: Vec<Option<Tensor>> = (0..plan.len()).map(|_| None).collect();
            for idx in (0..plan.len()).rev() {
                let (r0, r1) = bounds[idx];
                parts[idx] = Some(comp.backward(&dy.slice_rows(r0, r1)));
            }
            let owned: Vec<Tensor> = parts
                .into_iter()
                .map(|p| p.expect("every chunk ran backward"))
                .collect();
            let refs: Vec<&Tensor> = owned.iter().collect();
            Tensor::concat_rows(&refs)
        })
    }

    /// All-reduces `comp`'s parameter gradients across the group and
    /// installs the sum locally — the threaded counterpart of
    /// [`actcomp_mp::CompressedAllReduce::sync_param_grads`]. Summation
    /// runs in rank order, so replicated auto-encoder parameters stay
    /// bit-identical across ranks.
    pub fn sync_param_grads(&mut self, comp: &mut dyn Compressor, timers: &mut PhaseTimers) {
        let mut own: Vec<Tensor> = Vec::new();
        comp.visit_params(&mut |p| own.push(p.grad.clone()));
        let gathered = self.all_gather(GatherPayload::Grads(own), timers);
        let sums = timed(&mut timers.decode_s, || {
            let mut sums: Vec<Tensor> = Vec::new();
            for g in &gathered {
                let grads = match g {
                    GatherPayload::Grads(v) => v,
                    _ => panic!("ring delivered a non-grad payload to a grad sync"),
                };
                for (i, grad) in grads.iter().enumerate() {
                    if i == sums.len() {
                        sums.push(grad.clone());
                    } else {
                        sums[i].add_assign(grad);
                    }
                }
            }
            sums
        });
        let mut i = 0;
        comp.visit_params(&mut |p| {
            p.grad = sums[i].clone();
            i += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actcomp_compress::Identity;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn solo_reduce_matches_serial_single_worker() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [3, 8], 1.0);
        let mut g = TpGroup::solo();
        let mut comp = Identity::new();
        let mut timers = PhaseTimers::default();
        let mut ws = Workspace::new();
        let out = g.compressed_all_reduce(&mut comp, &x, &mut timers, &mut ws);
        assert_eq!(out, x);
        assert_eq!(g.bytes.wire, 0);
    }

    #[test]
    fn threaded_identity_reduce_sums_in_rank_order() {
        let world = 4;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let parts: Vec<Tensor> = (0..world)
            .map(|_| init::randn(&mut rng, [2, 8], 1.0))
            .collect();
        let mut expect = parts[0].clone();
        for p in &parts[1..] {
            expect.add_assign(p);
        }
        let groups = TpGroup::ring(world);
        let handles: Vec<_> = groups
            .into_iter()
            .zip(parts)
            .map(|(mut g, p)| {
                std::thread::spawn(move || {
                    let mut comp = Identity::new();
                    let mut timers = PhaseTimers::default();
                    let mut ws = Workspace::new();
                    let out = g.compressed_all_reduce(&mut comp, &p, &mut timers, &mut ws);
                    (out, g.bytes)
                })
            })
            .collect();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("rank"))
            .collect();
        for (out, bytes) in &results {
            assert_eq!(out.max_abs_diff(&expect), 0.0, "exact rank-order sum");
            assert_eq!(bytes.wire, bytes.dense, "identity moves dense bytes");
        }
    }

    #[test]
    fn ring_plan_tiles_rows_for_any_chunk_size() {
        for rows in [1usize, 3, 4, 7, 64, 65] {
            for chunk_rows in [None, Some(1), Some(3), Some(64), Some(1000)] {
                let tuning = RingTuning {
                    chunk_rows,
                    pipeline_depth: 4,
                };
                let plan = tuning.plan(rows);
                assert_eq!(plan.iter().sum::<usize>(), rows, "{rows} {chunk_rows:?}");
                assert!(plan.iter().all(|&c| c > 0));
            }
        }
    }

    #[test]
    fn ring_chunk_wire_bytes_are_pinned() {
        // Layout: [tag 1][bcast u8][idx u64][data tag 0][count u64][f32 LE ...].
        let msg = RingMsg::Chunk(ChunkMsg {
            bcast: true,
            idx: 3,
            data: ChunkData::Dense(vec![1.5, -2.0]),
        });
        #[rustfmt::skip]
        let golden: [u8; 27] = [
            1, 1,
            3, 0, 0, 0, 0, 0, 0, 0,
            0,
            2, 0, 0, 0, 0, 0, 0, 0,
            0x00, 0x00, 0xC0, 0x3F,
            0x00, 0x00, 0x00, 0xC0,
        ];
        assert_eq!(crate::wire::encode_msg(&msg), golden);
        assert_eq!(msg.encoded_len(), golden.len());
        match crate::wire::decode_msg::<RingMsg>(&golden).expect("decode") {
            RingMsg::Chunk(ChunkMsg {
                bcast: true,
                idx: 3,
                data: ChunkData::Dense(rows),
            }) => assert_eq!(rows, [1.5, -2.0]),
            other => panic!("decoded {other:?}"),
        }
        let gather = RingMsg::Gather(1, GatherPayload::Grads(vec![Tensor::ones([2, 2])]));
        assert_eq!(crate::wire::encode_msg(&gather).len(), gather.encoded_len());
    }
}
