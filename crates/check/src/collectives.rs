//! Ring-collective schedules and their knob checks (`AC0501`–`AC0502`).
//!
//! This module is the single definition of how a tensor-parallel ring
//! collective moves data: the row-chunk plan ([`ring_chunk_plan`]), the
//! per-rank step order of the chunked chain-reduce + ring-broadcast
//! ([`chain_steps`]) and the hop order of the ring all-gather
//! ([`gather_hops`]). `actcomp-runtime`'s `TpGroup` walks these steps
//! to move real chunks; the comm-protocol analyzer
//! ([`crate::comm_graph`]) walks the same steps to emit the send/recv
//! events it proves deadlock-free. A schedule change is therefore one
//! edit here, and the analyzer checks it.
//!
//! Both ring knobs are "at least one" quantities: zero rows per chunk
//! or a zero-deep pipeline would make the schedule degenerate. The pass
//! rejects the config spellings (`runtime.chunk_rows` = 0 → `AC0501`,
//! `runtime.pipeline_depth` = 0 → `AC0502`).

use crate::codes;
use crate::config::ExperimentConfig;
use crate::diagnostics::{Diagnostic, Diagnostics};

/// Chunk count used when no explicit row count is configured.
pub const DEFAULT_CHUNKS: usize = 4;

/// Default reduce chunks rank 0 keeps in flight.
pub const DEFAULT_PIPELINE_DEPTH: usize = 4;

/// The chunk plan of a ring collective over a tensor with `rows` rows:
/// greedy row tiling at `chunk_rows` rows per chunk, or an even
/// [`DEFAULT_CHUNKS`]-way split when unset.
pub fn ring_chunk_plan(chunk_rows: Option<usize>, rows: usize) -> Vec<usize> {
    if rows == 0 {
        return vec![0];
    }
    let per = chunk_rows.unwrap_or(rows.div_ceil(DEFAULT_CHUNKS)).max(1);
    let mut plan = Vec::with_capacity(rows.div_ceil(per));
    let mut done = 0;
    while done < rows {
        let take = per.min(rows - done);
        plan.push(take);
        done += take;
    }
    plan
}

/// One step of a rank's part in a chunked chain-reduce + ring-broadcast
/// collective. Rank 0 seeds the chain, ranks `1..p−1` add their chunk
/// and forward it, rank `p−1` completes each sum and starts its
/// broadcast, which travels `p−1 → 0 → 1 → … → p−2`. The running sum
/// arriving at rank `p−1` is `((x₀ + x₁) + x₂) + …`, the serial
/// executor's left fold in rank order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStep {
    /// Rank 0 ships its own chunk `idx` down the chain.
    Seed(usize),
    /// Receive the running sum of chunk `idx`, add the own chunk, and
    /// forward the sum.
    Reduce(usize),
    /// The last rank receives the running sum of chunk `idx`, adds its
    /// own chunk, and starts the broadcast of the total.
    Root(usize),
    /// Receive the total of chunk `idx` and pass it on if `forward`.
    Bcast {
        /// Chunk index.
        idx: usize,
        /// Whether the next rank still needs this total.
        forward: bool,
    },
}

impl ChainStep {
    /// The chunk index this step handles.
    pub fn idx(self) -> usize {
        match self {
            ChainStep::Seed(idx) | ChainStep::Reduce(idx) | ChainStep::Root(idx) => idx,
            ChainStep::Bcast { idx, .. } => idx,
        }
    }

    /// The leg this step receives on, if it receives: `Some(false)` for
    /// the reduce leg, `Some(true)` for the broadcast leg. A step that
    /// receives does so before it sends.
    pub fn recv_leg(self) -> Option<bool> {
        match self {
            ChainStep::Seed(_) => None,
            ChainStep::Reduce(_) | ChainStep::Root(_) => Some(false),
            ChainStep::Bcast { .. } => Some(true),
        }
    }

    /// The leg this step sends on, if it sends.
    pub fn send_leg(self) -> Option<bool> {
        match self {
            ChainStep::Seed(_) | ChainStep::Reduce(_) => Some(false),
            ChainStep::Root(_) => Some(true),
            ChainStep::Bcast { forward, .. } => forward.then_some(true),
        }
    }
}

/// Rank `rank`'s ordered steps in a chain-reduce + ring-broadcast over
/// `world ≥ 2` ranks and `chunks` chunks.
///
/// Every rank sends its reduce chunks and forwards its broadcast chunks
/// in index order, so each link delivers each leg in FIFO order; the
/// receiver's stash absorbs the interleave of the two legs. Rank 0
/// paces the pipeline: it seeds `pipeline_depth` chunks (at least one),
/// then one more after each broadcast chunk it consumes, which bounds
/// the chunks in flight without any blocking send.
pub fn chain_steps(
    rank: usize,
    world: usize,
    chunks: usize,
    pipeline_depth: usize,
) -> Vec<ChainStep> {
    debug_assert!(
        rank < world && world > 1,
        "rank {rank} of a {world}-rank ring"
    );
    let mut steps = Vec::with_capacity(2 * chunks);
    if rank == 0 {
        let depth = pipeline_depth.max(1).min(chunks);
        steps.extend((0..depth).map(ChainStep::Seed));
        for idx in 0..chunks {
            steps.push(ChainStep::Bcast {
                idx,
                forward: world > 2,
            });
            if depth + idx < chunks {
                steps.push(ChainStep::Seed(depth + idx));
            }
        }
    } else if rank + 1 < world {
        steps.extend((0..chunks).map(ChainStep::Reduce));
        steps.extend((0..chunks).map(|idx| ChainStep::Bcast {
            idx,
            forward: rank + 2 < world,
        }));
    } else {
        steps.extend((0..chunks).map(ChainStep::Root));
    }
    steps
}

/// Rank `rank`'s hops in a ring all-gather over `world` ranks, as
/// `(forwarded origin, received origin)` pairs: hop `j` sends the
/// payload of rank `(rank − j) mod world` to the next rank, then
/// receives the payload of rank `(rank − j − 1) mod world` from the
/// previous one. Hop 0 ships the rank's own payload; the last received
/// payload is not forwarded.
pub fn gather_hops(rank: usize, world: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..world.saturating_sub(1))
        .map(move |j| ((rank + world - j) % world, (rank + world - 1 - j) % world))
}

/// Resolves `(chunk_rows, pipeline_depth)` for a config the way the
/// engine does: explicit `runtime` fields, else automatic chunking and
/// the default depth.
pub fn resolved_ring_tuning(cfg: &ExperimentConfig) -> (Option<usize>, usize) {
    let rt = cfg.runtime.as_ref();
    let chunk = rt.and_then(|r| r.chunk_rows);
    let depth = rt
        .and_then(|r| r.pipeline_depth)
        .unwrap_or(DEFAULT_PIPELINE_DEPTH);
    (chunk, depth)
}

/// The ring-collective pass: validates `runtime.chunk_rows` and
/// `runtime.pipeline_depth`.
pub fn check_collectives(cfg: &ExperimentConfig, diags: &mut Diagnostics) {
    if let Some(rt) = &cfg.runtime {
        check_chunk_rows_field(rt.chunk_rows, diags);
        check_pipeline_depth_field(rt.pipeline_depth, diags);
    }
}

/// Validates the `runtime.chunk_rows` field (`AC0501`).
fn check_chunk_rows_field(chunk_rows: Option<usize>, diags: &mut Diagnostics) {
    if chunk_rows == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::CHUNK_ROWS_INVALID,
                "runtime.chunk_rows",
                "runtime.chunk_rows = 0: a ring collective chunk needs at least one row"
                    .to_string(),
            )
            .with_help("use a positive row count, or omit the field for automatic chunking"),
        );
    }
}

/// Validates the `runtime.pipeline_depth` field (`AC0502`).
fn check_pipeline_depth_field(pipeline_depth: Option<usize>, diags: &mut Diagnostics) {
    if pipeline_depth == Some(0) {
        diags.push(
            Diagnostic::error(
                codes::PIPELINE_DEPTH_INVALID,
                "runtime.pipeline_depth",
                "runtime.pipeline_depth = 0: the ring pipeline needs at least one chunk \
                 in flight"
                    .to_string(),
            )
            .with_help("use a positive depth, or omit the field for the default of 4"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeSection;
    use std::collections::BTreeMap;

    fn codes_of(diags: Diagnostics) -> Vec<&'static str> {
        diags.into_vec().iter().map(|d| d.code).collect()
    }

    #[test]
    fn absent_fields_are_clean() {
        let mut diags = Diagnostics::new();
        check_chunk_rows_field(None, &mut diags);
        check_pipeline_depth_field(None, &mut diags);
        assert!(diags.into_vec().is_empty());
    }

    #[test]
    fn positive_fields_are_clean() {
        let mut diags = Diagnostics::new();
        check_chunk_rows_field(Some(16), &mut diags);
        check_pipeline_depth_field(Some(2), &mut diags);
        assert!(diags.into_vec().is_empty());
    }

    #[test]
    fn zero_fields_are_rejected() {
        let mut diags = Diagnostics::new();
        check_chunk_rows_field(Some(0), &mut diags);
        check_pipeline_depth_field(Some(0), &mut diags);
        assert_eq!(
            codes_of(diags),
            vec![codes::CHUNK_ROWS_INVALID, codes::PIPELINE_DEPTH_INVALID]
        );
    }

    #[test]
    fn config_section_feeds_the_pass() {
        let mut cfg = ExperimentConfig::paper_default();
        let mut rt = RuntimeSection::threads_default();
        rt.chunk_rows = Some(0);
        rt.pipeline_depth = Some(0);
        cfg.runtime = Some(rt);
        let mut diags = Diagnostics::new();
        check_collectives(&cfg, &mut diags);
        let got = codes_of(diags);
        assert!(got.contains(&codes::CHUNK_ROWS_INVALID));
        assert!(got.contains(&codes::PIPELINE_DEPTH_INVALID));
    }

    #[test]
    fn ring_chunk_plan_tiles_exactly() {
        assert_eq!(ring_chunk_plan(None, 0), vec![0]);
        assert_eq!(ring_chunk_plan(None, 8), vec![2, 2, 2, 2]);
        assert_eq!(ring_chunk_plan(None, 9), vec![3, 3, 3]);
        assert_eq!(ring_chunk_plan(Some(4), 10), vec![4, 4, 2]);
        assert_eq!(ring_chunk_plan(Some(100), 10), vec![10]);
        for rows in 1..64usize {
            for chunk in [None, Some(1), Some(3), Some(7), Some(64)] {
                let plan = ring_chunk_plan(chunk, rows);
                assert_eq!(plan.iter().sum::<usize>(), rows, "{chunk:?} rows={rows}");
                assert!(plan.iter().all(|&c| c > 0));
            }
        }
    }

    #[test]
    fn tuning_resolves_fields_before_defaults() {
        let mut cfg = ExperimentConfig::paper_default();
        assert_eq!(resolved_ring_tuning(&cfg), (None, DEFAULT_PIPELINE_DEPTH));
        let mut rt = RuntimeSection::threads_default();
        rt.chunk_rows = Some(16);
        rt.pipeline_depth = Some(2);
        cfg.runtime = Some(rt);
        assert_eq!(resolved_ring_tuning(&cfg), (Some(16), 2));
    }

    /// One ring event of an expanded schedule: collective, leg, chunk.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Key {
        coll: usize,
        bcast: bool,
        idx: usize,
    }

    /// Expands every rank's [`chain_steps`] for `colls` back-to-back
    /// collectives into `(is_send, key)` events. Rank `r` sends on link
    /// `r` and receives on link `r − 1`.
    fn expand(p: usize, chunks: usize, depth: usize, colls: usize) -> Vec<Vec<(bool, Key)>> {
        (0..p)
            .map(|r| {
                let mut events = Vec::new();
                for coll in 0..colls {
                    for step in chain_steps(r, p, chunks, depth) {
                        let idx = step.idx();
                        if let Some(bcast) = step.recv_leg() {
                            events.push((false, Key { coll, bcast, idx }));
                        }
                        if let Some(bcast) = step.send_leg() {
                            events.push((true, Key { coll, bcast, idx }));
                        }
                    }
                }
                events
            })
            .collect()
    }

    /// Runs the expanded program with unbounded links and a selective
    /// receive, returning each event's vector clock (entry `q` counts
    /// rank `q`'s events that happen before or at it). Sends never
    /// block, so the clocks do not depend on the interleaving; the run
    /// only stalls if the schedule can deadlock, which fails the test.
    fn vector_clocks(events: &[Vec<(bool, Key)>], ctx: &str) -> Vec<Vec<Vec<usize>>> {
        let p = events.len();
        let mut clocks: Vec<Vec<Vec<usize>>> = vec![Vec::new(); p];
        let mut in_flight: Vec<BTreeMap<Key, Vec<usize>>> = vec![BTreeMap::new(); p];
        let mut pc = vec![0usize; p];
        loop {
            let mut progressed = false;
            for r in 0..p {
                while let Some(&(send, key)) = events[r].get(pc[r]) {
                    let mut clock = clocks[r].last().cloned().unwrap_or_else(|| vec![0; p]);
                    if send {
                        clock[r] += 1;
                        let prev = in_flight[r].insert(key, clock.clone());
                        assert!(prev.is_none(), "{ctx}: rank {r} sends {key:?} twice");
                    } else {
                        let link = (r + p - 1) % p;
                        let Some(sent) = in_flight[link].remove(&key) else {
                            break;
                        };
                        for (c, s) in clock.iter_mut().zip(&sent) {
                            *c = (*c).max(*s);
                        }
                        clock[r] += 1;
                    }
                    clocks[r].push(clock);
                    pc[r] += 1;
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        for r in 0..p {
            assert_eq!(
                pc[r],
                events[r].len(),
                "{ctx}: rank {r} blocks at event {} (deadlock)",
                pc[r]
            );
            assert!(in_flight[r].is_empty(), "{ctx}: link {r} has orphan sends");
        }
        clocks
    }

    #[test]
    fn chain_schedule_is_sound_for_every_ring_shape() {
        use crate::comm_graph::chain_wire;
        for p in 2..=8usize {
            for chunks in 1..=9usize {
                for depth in 1..=6usize {
                    let ctx = format!("p={p} chunks={chunks} depth={depth}");
                    // Two back-to-back collectives, so stash keys repeat
                    // on every link as they do in the engine.
                    let events = expand(p, chunks, depth, 2);
                    for link in 0..p {
                        let to = (link + 1) % p;
                        let sent: Vec<Key> =
                            events[link].iter().filter(|e| e.0).map(|e| e.1).collect();
                        let got: Vec<Key> =
                            events[to].iter().filter(|e| !e.0).map(|e| e.1).collect();
                        // 1:1 matching per link.
                        let (mut a, mut b) = (sent.clone(), got.clone());
                        a.sort_unstable();
                        b.sort_unstable();
                        let unique = a.windows(2).all(|w| w[0] != w[1]);
                        assert!(unique && a == b, "{ctx}: link {link} does not match 1:1");
                        // Each leg is consumed in the order it was sent;
                        // only the interleave of the legs needs the stash.
                        for leg in [false, true] {
                            let on = |v: &[Key]| -> Vec<Key> {
                                v.iter().copied().filter(|k| k.bcast == leg).collect()
                            };
                            assert_eq!(on(&sent), on(&got), "{ctx}: link {link} leg {leg}");
                        }
                    }
                    // No two in-flight chunks share a (bcast, idx) key:
                    // the receive of collective 0's chunk happens before
                    // the send of collective 1's chunk with the same key.
                    let clocks = vector_clocks(&events, &ctx);
                    for link in 0..p {
                        let to = (link + 1) % p;
                        let recv_at =
                            |key: Key| events[to].iter().position(|&e| e == (false, key)).unwrap();
                        for (i, &(send, key)) in events[link].iter().enumerate() {
                            if !send || key.coll == 0 {
                                continue;
                            }
                            let earlier = recv_at(Key { coll: 0, ..key });
                            assert!(
                                clocks[link][i][to] > earlier,
                                "{ctx}: link {link} may hold two {key:?}-keyed chunks"
                            );
                        }
                    }
                    // The event-sum of send bytes equals the closed form.
                    let bytes: Vec<usize> = (0..chunks).map(|i| 8 * (i % 3 + 1)).collect();
                    let own: usize = bytes.iter().sum();
                    for r in 0..p {
                        let sum: usize = chain_steps(r, p, chunks, depth)
                            .into_iter()
                            .filter(|s| s.send_leg().is_some())
                            .map(|s| bytes[s.idx()])
                            .sum();
                        assert_eq!(sum, chain_wire(r, p, own), "{ctx}: rank {r} bytes");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_hops_pass_every_payload_around_the_ring() {
        for p in 1..=8usize {
            for r in 0..p {
                let hops: Vec<(usize, usize)> = gather_hops(r, p).collect();
                assert_eq!(hops.len(), p - 1);
                // Each rank forwards what it received on the hop before
                // and ends up holding every origin exactly once.
                for w in hops.windows(2) {
                    assert_eq!(w[1].0, w[0].1);
                }
                let mut seen: Vec<usize> = hops.iter().map(|h| h.1).collect();
                seen.push(r);
                seen.sort_unstable();
                assert_eq!(seen, (0..p).collect::<Vec<_>>());
                // The previous rank forwards, hop for hop, what this
                // rank receives.
                let prev: Vec<(usize, usize)> = gather_hops((r + p - 1) % p, p).collect();
                for (mine, theirs) in hops.iter().zip(&prev) {
                    assert_eq!(mine.1, theirs.0);
                }
            }
        }
    }
}
