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
//! The schedules are defined once, in [`actcomp_check::collectives`]:
//! [`TpGroup`] walks the same chain-reduce/broadcast steps and gather
//! hops that the static comm-protocol analyzer expands into the events
//! it proves deadlock-free. Dense reduces and summable-code reduces use
//! a **pipelined chain reduce plus ring broadcast** over row chunks:
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
//! reduce/broadcast interleave, which a small stash absorbs. One walk
//! serves both reduce kinds; a small per-chunk trait supplies the
//! arithmetic (dense rows: copy, add, copy out, recycle; summable codes:
//! encode, [`Compressed::sum`], decode).
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
use actcomp_check::collectives::{
    chain_steps, gather_hops, ring_chunk_plan, ChainStep, DEFAULT_PIPELINE_DEPTH,
};
use actcomp_check::{ChannelId, Dir, MsgId};
use actcomp_compress::{Compressed, Compressor};
use actcomp_mp::CommBytes;
use actcomp_net::{Transport, TransportError};
use actcomp_tensor::{Tensor, Workspace};
use std::time::Instant;

/// Chunking/pipelining knobs for ring collectives.
///
/// An engine takes them from [`RuntimeConfig::tuning`](crate::RuntimeConfig::tuning)
/// (the default when unset); tests may override the copy on each
/// endpoint, as long as all endpoints of one ring agree (the chunk plan
/// must be identical on every rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RingTuning {
    /// Rows per chunk; `None` picks `ceil(rows / 4)` per collective.
    pub chunk_rows: Option<usize>,
    /// Maximum reduce chunks rank 0 keeps in flight ahead of the
    /// broadcasts it has consumed (≥ 1).
    pub pipeline_depth: usize,
}

impl RingTuning {
    /// The per-chunk row counts for a `rows`-row collective
    /// ([`ring_chunk_plan`]). Depends only on `(self, rows)`, so every
    /// rank of a ring derives the same plan independently.
    pub fn plan(&self, rows: usize) -> Vec<usize> {
        ring_chunk_plan(self.chunk_rows, rows)
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

impl GatherPayload {
    /// The wire bytes a traced send of this payload records: codes are
    /// metered, the dense reference path and grad syncs are not.
    fn metered_bytes(&self) -> Option<usize> {
        match self {
            GatherPayload::Code(c) => Some(c.wire_bytes(2)),
            GatherPayload::Dense(_) | GatherPayload::Grads(_) => None,
        }
    }
}

/// One row chunk of a chain-reduce / broadcast collective.
#[derive(Debug, Clone)]
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

    fn into_dense(self) -> Vec<f32> {
        match self {
            ChunkData::Dense(rows) => rows,
            ChunkData::Code(_) => panic!("dense reduce received a code chunk"),
        }
    }

    fn into_code(self) -> Compressed {
        match self {
            ChunkData::Code(c) => c,
            ChunkData::Dense(_) => panic!("code reduce received a dense chunk"),
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

/// The per-chunk arithmetic of one chain-reduce + broadcast collective.
/// [`TpGroup::chain_walk`] runs the shared [`chain_steps`] schedule and
/// calls these at each step; the two impls are dense rows
/// ([`DenseChunks`]) and summable codes ([`CodeChunks`]).
trait ChunkOps {
    /// This rank's contribution to a chunk, prepared before the blocking
    /// receive of the running sum.
    type Own;
    /// Prepares this rank's own chunk `idx`.
    fn own(&mut self, idx: usize, timers: &mut PhaseTimers) -> Self::Own;
    /// Rank 0's chunk `idx` as it starts down the chain.
    fn seed(&mut self, idx: usize, timers: &mut PhaseTimers) -> ChunkData;
    /// Adds the own chunk to the running sum `acc`.
    fn fold(
        &mut self,
        idx: usize,
        acc: ChunkData,
        own: Self::Own,
        timers: &mut PhaseTimers,
    ) -> ChunkData;
    /// The root's step: folds the own chunk into `acc`, hands the total
    /// to `ship` (which starts its broadcast) and keeps it in the
    /// output.
    fn root(
        &mut self,
        idx: usize,
        acc: ChunkData,
        own: Self::Own,
        timers: &mut PhaseTimers,
        ship: impl FnOnce(ChunkData, &mut PhaseTimers),
    );
    /// Writes the broadcast total of chunk `idx` into the output.
    fn consume(&mut self, idx: usize, total: &ChunkData, timers: &mut PhaseTimers);
    /// Takes back a consumed total that travels no further.
    fn retire(&mut self, total: ChunkData);
}

/// Dense rows of an exact all-reduce. Chunks travel as row buffers
/// leased from the workspace: they are summed and forwarded in place,
/// with no copy per hop, and recycled when the broadcast ends.
struct DenseChunks<'a> {
    data: &'a [f32],
    width: usize,
    rows: Vec<(usize, usize)>,
    out: Tensor,
    ws: &'a mut Workspace,
}

impl DenseChunks<'_> {
    /// Element range of chunk `idx`.
    fn span(&self, idx: usize) -> (usize, usize) {
        let (r0, r1) = self.rows[idx];
        (r0 * self.width, r1 * self.width)
    }
}

impl ChunkOps for DenseChunks<'_> {
    type Own = ();

    fn own(&mut self, _idx: usize, _timers: &mut PhaseTimers) {}

    fn seed(&mut self, idx: usize, _timers: &mut PhaseTimers) -> ChunkData {
        let (s, e) = self.span(idx);
        let mut buf = self.ws.lease(e - s);
        buf.copy_from_slice(&self.data[s..e]);
        ChunkData::Dense(buf)
    }

    fn fold(
        &mut self,
        idx: usize,
        acc: ChunkData,
        _own: (),
        timers: &mut PhaseTimers,
    ) -> ChunkData {
        let (s, e) = self.span(idx);
        let mut buf = acc.into_dense();
        timed(&mut timers.decode_s, || {
            for (b, &v) in buf.iter_mut().zip(&self.data[s..e]) {
                *b += v;
            }
        });
        ChunkData::Dense(buf)
    }

    fn root(
        &mut self,
        idx: usize,
        acc: ChunkData,
        own: (),
        timers: &mut PhaseTimers,
        ship: impl FnOnce(ChunkData, &mut PhaseTimers),
    ) {
        // Sum and copy out first, then ship the buffer itself: the
        // total needs no clone.
        let total = self.fold(idx, acc, own, timers);
        self.consume(idx, &total, timers);
        ship(total, timers);
    }

    fn consume(&mut self, idx: usize, total: &ChunkData, timers: &mut PhaseTimers) {
        let (s, e) = self.span(idx);
        let ChunkData::Dense(buf) = total else {
            panic!("dense reduce received a code chunk")
        };
        timed(&mut timers.decode_s, || {
            self.out.as_mut_slice()[s..e].copy_from_slice(buf);
        });
    }

    fn retire(&mut self, total: ChunkData) {
        self.ws.recycle(total.into_dense());
    }
}

/// Per-chunk codes of a summable compressor. Each rank encodes its own
/// rows (the whole tensor when the plan is one chunk), sums codes with
/// [`Compressed::sum`] along the chain and decodes each total once.
struct CodeChunks<'a> {
    comp: &'a mut dyn Compressor,
    partial: &'a Tensor,
    width: usize,
    rows: Vec<(usize, usize)>,
    /// Chunked collectives assemble rows into this leased tensor;
    /// unchunked ones (`None`) return the single decode directly.
    out: Option<Tensor>,
    single: Option<Tensor>,
    /// Wire bytes of this rank's own codes.
    own_wire: usize,
}

impl CodeChunks<'_> {
    fn finish(self) -> Tensor {
        match self.out {
            Some(o) => o,
            None => self.single.expect("unchunked collective decoded once"),
        }
    }
}

impl ChunkOps for CodeChunks<'_> {
    type Own = Compressed;

    /// Encodes before the blocking receive, so this rank's encode
    /// overlaps the upstream chain work.
    fn own(&mut self, idx: usize, timers: &mut PhaseTimers) -> Compressed {
        let code = if self.rows.len() == 1 {
            timed(&mut timers.encode_s, || self.comp.compress(self.partial))
        } else {
            let (r0, r1) = self.rows[idx];
            let chunk = self.partial.slice_rows(r0, r1);
            timed(&mut timers.encode_s, || self.comp.compress(&chunk))
        };
        self.own_wire += code.wire_bytes(2);
        code
    }

    fn seed(&mut self, idx: usize, timers: &mut PhaseTimers) -> ChunkData {
        ChunkData::Code(self.own(idx, timers))
    }

    fn fold(
        &mut self,
        _idx: usize,
        acc: ChunkData,
        own: Compressed,
        timers: &mut PhaseTimers,
    ) -> ChunkData {
        let prev = acc.into_code();
        ChunkData::Code(timed(&mut timers.decode_s, || prev.sum(&own)))
    }

    fn root(
        &mut self,
        idx: usize,
        acc: ChunkData,
        own: Compressed,
        timers: &mut PhaseTimers,
        ship: impl FnOnce(ChunkData, &mut PhaseTimers),
    ) {
        // Ship the total before decoding locally so the peers' decodes
        // overlap ours.
        let total = self.fold(idx, acc, own, timers);
        ship(total.clone(), timers);
        self.consume(idx, &total, timers);
    }

    fn consume(&mut self, idx: usize, total: &ChunkData, timers: &mut PhaseTimers) {
        let ChunkData::Code(code) = total else {
            panic!("code reduce received a dense chunk")
        };
        let dec = timed(&mut timers.decode_s, || self.comp.decompress(code));
        match &mut self.out {
            Some(o) => {
                let (r0, r1) = self.rows[idx];
                o.as_mut_slice()[r0 * self.width..r1 * self.width].copy_from_slice(dec.as_slice());
            }
            None => self.single = Some(dec),
        }
    }

    fn retire(&mut self, _total: ChunkData) {}
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
    /// Chunking/pipelining knobs; the default until the engine installs
    /// its configured tuning. Tests may override, but all endpoints of
    /// one ring must agree.
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
            tuning: RingTuning::default(),
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
            tuning: RingTuning::default(),
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

    /// Sends one gather hop carrying `origin`'s payload to the next
    /// rank, returning its metered wire bytes (0 when unmetered).
    fn send_gather(
        &mut self,
        origin: usize,
        payload: &GatherPayload,
        timers: &mut PhaseTimers,
    ) -> usize {
        let bytes = payload.metered_bytes();
        if let Some(trace) = &self.trace {
            trace.record(
                Dir::Send,
                self.trace_send_channel(trace),
                MsgId::Gather {
                    coll: self.active_coll,
                    origin,
                },
                bytes,
            );
        }
        let tx = self.next_tx.as_ref().expect("ring sender");
        timed(&mut timers.wire_s, || {
            tx.send(RingMsg::Gather(origin, payload.clone()))
                .expect("ring peer hung up");
        });
        bytes.unwrap_or(0)
    }

    /// Receives the next gather hop, which the schedule says carries
    /// rank `expected`'s payload.
    fn recv_gather(&self, expected: usize, timers: &mut PhaseTimers) -> (usize, GatherPayload) {
        let rx = self.prev_rx.as_ref().expect("ring receiver");
        let (origin, payload) = timed(&mut timers.wire_s, || {
            match rx.recv().expect("ring peer hung up") {
                RingMsg::Gather(origin, payload) => (origin, payload),
                RingMsg::Chunk(_) => panic!("ring delivered a chunk message to an all-gather"),
            }
        });
        debug_assert_eq!(origin, expected, "gather hop out of ring order");
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
        (origin, payload)
    }

    /// Walks the ring all-gather ([`gather_hops`]): ships `own`, then
    /// forwards every arriving payload but the last. Each payload, own
    /// first and then arrivals in ring order, goes to `arrive` once it
    /// has been forwarded. Returns the metered bytes this rank sent.
    fn gather_walk(
        &mut self,
        own: GatherPayload,
        timers: &mut PhaseTimers,
        mut arrive: impl FnMut(usize, GatherPayload, &mut PhaseTimers),
    ) -> usize {
        self.begin_collective();
        let mut sent = 0;
        let mut held = (self.rank, own);
        for (_, receive) in gather_hops(self.rank, self.world) {
            sent += self.send_gather(held.0, &held.1, timers);
            arrive(held.0, held.1, timers);
            held = self.recv_gather(receive, timers);
        }
        arrive(held.0, held.1, timers);
        sent
    }

    /// All-gathers one payload per rank around the ring, returning the
    /// payloads indexed by origin rank.
    fn all_gather(&mut self, own: GatherPayload, timers: &mut PhaseTimers) -> Vec<GatherPayload> {
        if self.world == 1 {
            return vec![own];
        }
        let mut out: Vec<Option<GatherPayload>> = (0..self.world).map(|_| None).collect();
        self.gather_walk(own, timers, |origin, payload, _| {
            out[origin] = Some(payload)
        });
        out.into_iter()
            .map(|o| o.expect("all-gather visited every rank"))
            .collect()
    }

    /// Walks this rank's [`chain_steps`] for a `chunks`-chunk
    /// chain-reduce + broadcast, with `ops` doing the per-chunk work.
    fn chain_walk(&mut self, ops: &mut impl ChunkOps, chunks: usize, timers: &mut PhaseTimers) {
        self.begin_collective();
        let mut stash: Vec<ChunkMsg> = Vec::new();
        for step in chain_steps(self.rank, self.world, chunks, self.tuning.pipeline_depth) {
            match step {
                ChainStep::Seed(idx) => {
                    let chunk = ops.seed(idx, timers);
                    self.send_chunk(false, idx, chunk, timers);
                }
                ChainStep::Reduce(idx) => {
                    let own = ops.own(idx, timers);
                    let acc = self.recv_chunk(false, idx, &mut stash, timers);
                    let acc = ops.fold(idx, acc, own, timers);
                    self.send_chunk(false, idx, acc, timers);
                }
                ChainStep::Root(idx) => {
                    let own = ops.own(idx, timers);
                    let acc = self.recv_chunk(false, idx, &mut stash, timers);
                    ops.root(idx, acc, own, timers, |total, timers| {
                        self.send_chunk(true, idx, total, timers)
                    });
                }
                ChainStep::Bcast { idx, forward } => {
                    let total = self.recv_chunk(true, idx, &mut stash, timers);
                    ops.consume(idx, &total, timers);
                    if forward {
                        self.send_chunk(true, idx, total, timers);
                    } else {
                        ops.retire(total);
                    }
                }
            }
        }
        debug_assert!(stash.is_empty(), "collective left chunks in the stash");
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
        let plan = self.codec_plan(comp, partial);
        let mut ops = CodeChunks {
            comp,
            partial,
            width: rows_width(partial).1,
            rows: row_bounds(&plan),
            out: (plan.len() > 1).then(|| ws.lease_tensor(partial.shape().clone())),
            single: None,
            own_wire: 0,
        };
        self.chain_walk(&mut ops, plan.len(), timers);

        // Serial-matching accounting: an all-reduce of `b` own bytes
        // costs `2 (p−1) b / p` per rank.
        let p = self.world;
        let per_rank_ar = |bytes: usize| 2 * (p - 1) * bytes / p;
        self.bytes.add(CommBytes {
            wire: per_rank_ar(ops.own_wire),
            dense: per_rank_ar(partial.len() * 2),
        });
        // Gather-equivalent baseline for the ring-vs-gather comparison.
        self.ring_bytes.dense += (p - 1) * ops.own_wire;
        ops.finish()
    }

    /// All-gather reduce for non-summable codecs, decoding each message
    /// as it arrives so decode overlaps the remaining wire hops.
    fn gathered_reduce(
        &mut self,
        comp: &mut dyn Compressor,
        partial: &Tensor,
        timers: &mut PhaseTimers,
    ) -> Tensor {
        let p = self.world;
        let msg = timed(&mut timers.encode_s, || comp.compress(partial));
        let mut gathered_bytes = 0;
        let mut decs: Vec<Option<Tensor>> = (0..p).map(|_| None).collect();
        // The own decode runs while peers encode and ship.
        let sent_bytes = self.gather_walk(
            GatherPayload::Code(msg),
            timers,
            |origin, payload, timers| {
                let GatherPayload::Code(code) = payload else {
                    panic!("gathered reduce received a non-code message")
                };
                gathered_bytes += code.wire_bytes(2);
                decs[origin] = Some(timed(&mut timers.decode_s, || comp.decompress(&code)));
            },
        );
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
        let (rows, width) = rows_width(partial);
        let plan = self.tuning.plan(rows);
        let mut ops = DenseChunks {
            data: partial.as_slice(),
            width,
            rows: row_bounds(&plan),
            out: ws.lease_tensor(partial.shape().clone()),
            ws,
        };
        self.chain_walk(&mut ops, plan.len(), timers);
        timers.collective_s += t0.elapsed().as_secs_f64();
        self.ring_bytes.dense += (self.world - 1) * partial.len() * 2;
        ops.out
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
