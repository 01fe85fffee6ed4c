//! # actcomp-compress
//!
//! The four activation-compression families the paper evaluates —
//! sparsification (Top-K / Random-K), quantization, and learning-based
//! auto-encoders — plus identity (no compression) and an error-feedback
//! wrapper (§3.3).
//!
//! A [`Compressor`] turns an activation tensor into a [`Compressed`]
//! message with an accountable wire size, and back. Because compression
//! sits *inside* the training graph (unlike gradient compression), every
//! compressor also defines a backward rule:
//!
//! - Top-K / Random-K: gradients flow only through kept elements (mask),
//! - quantization: straight-through estimator,
//! - auto-encoder: exact gradients through the encoder/decoder matrices,
//!   which are trainable parameters visited alongside the model's.
//!
//! [`spec`] maps the paper's Table 1 notation (`A1`, `T3`, `Q2`, …) to
//! configured compressors, and [`cost`] models the encode/decode latency
//! each algorithm costs on a V100, calibrated to the paper's breakdown
//! tables.
//!
//! # Example
//!
//! ```
//! use actcomp_compress::{Compressor, TopK};
//! use actcomp_tensor::Tensor;
//!
//! let mut c = TopK::new(2);
//! let x = Tensor::from_vec(vec![0.1, -5.0, 0.2, 4.0], [2, 2]);
//! let msg = c.compress(&x);
//! let xhat = c.decompress(&msg);
//! assert_eq!(xhat.as_slice(), &[0.0, -5.0, 0.0, 4.0]);
//! // Two fp16 values + two u32 indices on the wire.
//! assert_eq!(msg.wire_bytes(2), 2 * 2 + 2 * 4);
//! ```

#![warn(missing_docs)]

mod adaptive;
mod autoencoder;
mod error_feedback;
mod identity;
mod lowrank;
mod message;
mod quant;
mod quant_ext;
mod randk;
mod topk;

pub mod cost;
pub mod plan;
pub mod spec;

pub use adaptive::RowTopK;
pub use autoencoder::AutoEncoder;
pub use error_feedback::ErrorFeedback;
pub use identity::Identity;
pub use lowrank::LowRank;
pub use message::{Compressed, Payload};
pub use plan::{CompressionPlan, PlanError};
pub use quant::Quantizer;
pub use quant_ext::{RowQuantizer, StochasticQuantizer};
pub use randk::RandomK;
pub use spec::SpecError;
pub use topk::{pooled_select_beneficial, TopK};

use actcomp_nn::Parameter;
use actcomp_tensor::Tensor;

/// An activation compressor: the `C`/`DC` pair of the paper's Figure 3.
///
/// Implementations cache whatever they need during [`Compressor::compress`]
/// so that [`Compressor::backward`] can route gradients through the
/// (de)compression, because activation compression lives inside the
/// training graph. Caches are LIFO stacks: a microbatched pipeline calls
/// `compress` once per micro-batch during the fill and `backward` in
/// reverse micro-batch order during the drain, and each `backward` pops
/// the cache of the most recent unconsumed `compress`.
///
/// The `Send` bound lets compressor instances move into per-rank worker
/// threads (`actcomp-runtime` gives every model-parallel rank its own
/// instance).
pub trait Compressor: Send {
    /// Human-readable algorithm name (e.g. `"topk"`).
    fn name(&self) -> &'static str;

    /// Encodes an activation tensor into a wire message, caching state for
    /// [`Compressor::backward`].
    fn compress(&mut self, x: &Tensor) -> Compressed;

    /// Decodes a wire message back into a dense activation.
    fn decompress(&self, msg: &Compressed) -> Tensor;

    /// Routes the upstream gradient `dy` through `decompress ∘ compress`,
    /// accumulating gradients into any learnable compressor parameters,
    /// and returns the gradient with respect to the original activation.
    ///
    /// The default is the straight-through estimator (gradient passes
    /// unchanged).
    fn backward(&mut self, dy: &Tensor) -> Tensor {
        dy.clone()
    }

    /// Whether two compressed messages can be summed elementwise on the
    /// wire (required to participate in an all-reduce). True for linear
    /// codes (auto-encoder, identity); false for sparse and quantized
    /// messages, which must travel via all-gather instead (§3.2).
    fn summable(&self) -> bool {
        false
    }

    /// Whether this codec may be applied independently to contiguous row
    /// chunks of a rank-2 activation with results bitwise identical to
    /// compressing the whole tensor at once. True only for codecs whose
    /// per-row output depends on nothing outside the row: identity (per
    /// element) and the auto-encoder (the code's row `r` is `x[r] @ E`).
    /// False for anything with whole-tensor semantics — Top-K's global
    /// selection, per-tensor quantization ranges, error-feedback
    /// residuals — which `actcomp-runtime` therefore ships as a single
    /// chunk. Chunked callers must also run [`Compressor::backward`] once
    /// per chunk in reverse chunk order (the caches are LIFO).
    fn chunkable(&self) -> bool {
        false
    }

    /// Visits learnable compressor parameters (the auto-encoder's encoder
    /// and decoder matrices). Default: none.
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Parameter)) {}

    /// Drops every state cached by [`Compressor::compress`] for a
    /// backward that will never come — the forward-only serving path's
    /// per-batch cleanup. Default: nothing is cached.
    fn clear_caches(&mut self) {}

    /// How many `compress` calls are still waiting for their
    /// [`Compressor::backward`]. Default: `0` (nothing is cached).
    fn cache_depth(&self) -> usize {
        0
    }

    /// Convenience: compress-then-decompress (what the downstream layer
    /// actually receives).
    fn round_trip(&mut self, x: &Tensor) -> Tensor {
        let msg = self.compress(x);
        self.decompress(&msg)
    }
}

impl Compressor for Box<dyn Compressor> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        (**self).compress(x)
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        (**self).decompress(msg)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        (**self).backward(dy)
    }

    fn summable(&self) -> bool {
        (**self).summable()
    }

    fn chunkable(&self) -> bool {
        (**self).chunkable()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        (**self).visit_params(f)
    }

    fn clear_caches(&mut self) {
        (**self).clear_caches()
    }

    fn cache_depth(&self) -> usize {
        (**self).cache_depth()
    }
}
