//! The benchmark's workloads and the model/runtime configuration each
//! one builds. Every model has 4 layers, 4 heads, ff = 4h and vocab 512.

use actcomp_compress::plan::CompressionPlan;
use actcomp_compress::spec::CompressorSpec;
use actcomp_mp::MpConfig;
use actcomp_nn::BertConfig;
use actcomp_runtime::RuntimeConfig;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

pub const LAYERS: usize = 4;
pub const HEADS: usize = 4;
pub const VOCAB: usize = 512;
/// The codec under test: the paper's auto-encoder at its A2 setting.
pub const CODEC: CompressorSpec = CompressorSpec::A2;
/// Layers (counted from the end) the codec covers on compressed workloads.
pub const CODEC_LAYERS: usize = 2;
/// Seed of the model weights (and codec matrices). Fixed, so that runs
/// with different `--seed` values differ only in their inputs.
pub const MODEL_SEED: u64 = 0x00ac_7c0b;
/// Seed of the per-token regression target table (the task).
const TABLE_SEED: u64 = 0x7a5c;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `ThreadedRuntime` over typed in-process links.
    Threads,
    /// `ProcsRuntime`: one OS process per rank over Unix sockets.
    ProcsUds,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub hidden: usize,
    /// Sequences per training step; on the serve workload, `max_batch`.
    pub batch: usize,
    pub seq: usize,
    pub tp: usize,
    pub pp: usize,
    pub compressed: bool,
    serve: bool,
}

impl Workload {
    pub fn all() -> [Workload; 3] {
        [
            Workload {
                name: "train-dense-threads",
                backend: Backend::Threads,
                hidden: 256,
                batch: 4,
                seq: 64,
                tp: 2,
                pp: 1,
                compressed: false,
                serve: false,
            },
            Workload {
                name: "train-ae-procs-uds",
                backend: Backend::ProcsUds,
                hidden: 64,
                batch: 8,
                seq: 128,
                tp: 2,
                pp: 1,
                compressed: true,
                serve: false,
            },
            Workload {
                name: "serve-procs-uds",
                backend: Backend::ProcsUds,
                hidden: 64,
                batch: 8,
                seq: 32,
                tp: 1,
                pp: 2,
                compressed: true,
                serve: true,
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    pub fn is_serve(&self) -> bool {
        self.serve
    }

    pub fn ranks(&self) -> usize {
        self.tp * self.pp
    }

    /// Token rows in one engine forward: a whole training batch, or one
    /// serving request (each request is its own micro-batch).
    pub fn tokens(&self) -> usize {
        if self.serve {
            self.seq
        } else {
            self.batch * self.seq
        }
    }

    fn bert(&self) -> BertConfig {
        BertConfig {
            vocab: VOCAB,
            hidden: self.hidden,
            layers: LAYERS,
            heads: HEADS,
            ff_hidden: 4 * self.hidden,
            max_seq: self.seq,
        }
    }

    fn plan(&self) -> CompressionPlan {
        if self.compressed {
            CompressionPlan::last_layers(CODEC, LAYERS, CODEC_LAYERS)
        } else {
            CompressionPlan::none()
        }
    }

    pub fn runtime_config(&self) -> RuntimeConfig {
        RuntimeConfig {
            mp: MpConfig {
                bert: self.bert(),
                tp: self.tp,
                pp: self.pp,
                plan: self.plan(),
                tokens: self.tokens(),
                error_feedback: false,
            },
            micro_batches: 1,
            tuning: None,
            trace: false,
        }
    }

    /// Width of the rows a collective or boundary frame carries: the
    /// codec's code dimension where it is active, else the hidden width.
    pub fn wire_width(&self) -> usize {
        if self.compressed {
            CODEC.code_dim(self.hidden)
        } else {
            self.hidden
        }
    }

    /// Payload bytes of one ring-collective chunk frame: the runtime's
    /// default plan splits a collective into 4 row chunks of f32 rows.
    pub fn ring_frame_bytes(&self) -> usize {
        self.tokens().div_ceil(4) * self.wire_width() * 4
    }

    /// Payload bytes of one request's activation crossing a stage
    /// boundary (f32 rows at the boundary's wire width).
    pub fn boundary_frame_bytes(&self) -> usize {
        self.seq * self.wire_width() * 4
    }
}

/// Seeded inputs: token ids and arrival gaps, plus the fixed per-token
/// target table the MSE objective regresses the final hidden states onto.
pub struct Data {
    seed: u64,
    rng: ChaCha8Rng,
    hidden: usize,
    table: Vec<f32>,
}

/// Keeps input streams apart from each other.
const DATA_SALT: u64 = 0x5eed_da7a_0000_0001;

impl Data {
    /// Inputs drawn from `seed`, over the fixed target table.
    pub fn new(seed: u64, hidden: usize) -> Data {
        let mut table_rng = ChaCha8Rng::seed_from_u64(TABLE_SEED);
        let table = actcomp_tensor::init::randn(&mut table_rng, [VOCAB, hidden], 1.0).into_vec();
        Data {
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed ^ DATA_SALT),
            hidden,
            table,
        }
    }

    /// An independent input stream over the same target table, so one
    /// phase's inputs do not depend on how many another phase consumed.
    pub fn stream(&self, tag: u64) -> Data {
        let salt = DATA_SALT ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Data {
            seed: self.seed,
            rng: ChaCha8Rng::seed_from_u64(self.seed ^ salt),
            hidden: self.hidden,
            table: self.table.clone(),
        }
    }

    pub fn ids(&mut self, n: usize) -> Vec<usize> {
        (0..n).map(|_| self.rng.gen_range(0..VOCAB)).collect()
    }

    /// An exponentially distributed inter-arrival gap (seconds) of a
    /// Poisson process with mean rate `rate` per second.
    pub fn gap(&mut self, rate: f64) -> f64 {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        -u.ln() / rate
    }

    /// The regression target for `ids`: row `i` is the table row of
    /// token `ids[i]`.
    pub fn target(&self, ids: &[usize]) -> Vec<f32> {
        let h = self.hidden;
        let mut t = Vec::with_capacity(ids.len() * h);
        for &id in ids {
            t.extend_from_slice(&self.table[id * h..(id + 1) * h]);
        }
        t
    }
}
