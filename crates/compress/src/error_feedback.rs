//! Error-feedback wrapper (§3.3: "our implementation also allows the
//! integration of error-feedback compression algorithms by retaining the
//! error information from the previous compression step").

use crate::{Compressed, Compressor};
use actcomp_nn::Parameter;
use actcomp_tensor::Tensor;

/// Wraps any compressor with error feedback: the residual of each
/// compression step is added to the next step's input, so quantization /
/// sparsification error telescopes instead of accumulating.
///
/// # Examples
///
/// ```
/// use actcomp_compress::{Compressor, ErrorFeedback, TopK};
/// use actcomp_tensor::Tensor;
///
/// let mut ef = ErrorFeedback::new(TopK::new(1));
/// let x = Tensor::from_vec(vec![3.0, 2.0], [2]);
/// // Step 1 keeps 3.0 and remembers the dropped 2.0 ...
/// let _ = ef.round_trip(&x);
/// // ... step 2 sees 3.0 and 2.0+2.0=4.0, so the *small* coordinate wins.
/// let y2 = ef.round_trip(&x);
/// assert_eq!(y2.as_slice(), &[0.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorFeedback<C> {
    inner: C,
    residual: Option<Tensor>,
}

impl<C: Compressor> ErrorFeedback<C> {
    /// Wraps `inner` with a zero-initialized residual.
    pub fn new(inner: C) -> Self {
        ErrorFeedback {
            inner,
            residual: None,
        }
    }

    /// The accumulated residual, if any compression has happened yet.
    pub fn residual(&self) -> Option<&Tensor> {
        self.residual.as_ref()
    }

    /// Consumes the wrapper and returns the inner compressor.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: Compressor> Compressor for ErrorFeedback<C> {
    fn name(&self) -> &'static str {
        "error-feedback"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        let corrected = match &self.residual {
            Some(r) if r.shape().same_as(x.shape()) => x.add(r),
            _ => x.clone(),
        };
        let msg = self.inner.compress(&corrected);
        let reconstructed = self.inner.decompress(&msg);
        self.residual = Some(corrected.sub(&reconstructed));
        msg
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        self.inner.decompress(msg)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        // The residual path is treated as constant (standard EF practice):
        // gradients flow through the inner compressor only.
        self.inner.backward(dy)
    }

    fn summable(&self) -> bool {
        self.inner.summable()
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.inner.visit_params(f);
    }

    fn clear_caches(&mut self) {
        self.inner.clear_caches();
    }

    fn cache_depth(&self) -> usize {
        self.inner.cache_depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Quantizer, TopK};
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn residual_tracks_compression_error() {
        let mut ef = ErrorFeedback::new(TopK::new(1));
        let x = Tensor::from_vec(vec![5.0, 1.0], [2]);
        let y = ef.round_trip(&x);
        assert_eq!(y.as_slice(), &[5.0, 0.0]);
        assert_eq!(ef.residual().unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn feedback_reduces_time_averaged_error() {
        // Repeatedly compressing the same tensor: with EF the *running sum*
        // of reconstructions converges to the running sum of inputs.
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [32], 1.0);
        let steps = 50;

        let mut with_ef = ErrorFeedback::new(Quantizer::new(2));
        let mut without = Quantizer::new(2);
        let mut sum_ef = Tensor::zeros_like(&x);
        let mut sum_plain = Tensor::zeros_like(&x);
        for _ in 0..steps {
            sum_ef.add_assign(&with_ef.round_trip(&x));
            sum_plain.add_assign(&without.round_trip(&x));
        }
        let target = x.scale(steps as f32);
        let err_ef = sum_ef.sub(&target).norm() / steps as f32;
        let err_plain = sum_plain.sub(&target).norm() / steps as f32;
        assert!(
            err_ef < err_plain * 0.2,
            "EF mean error {err_ef} not much below plain {err_plain}"
        );
    }

    #[test]
    fn residual_telescopes_boundedly() {
        // EF residual must stay bounded over many steps (no blow-up).
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut ef = ErrorFeedback::new(TopK::new(8));
        let mut max_resid = 0.0f32;
        for _ in 0..100 {
            let x = init::randn(&mut rng, [64], 1.0);
            let _ = ef.round_trip(&x);
            max_resid = max_resid.max(ef.residual().unwrap().norm());
        }
        assert!(max_resid < 50.0, "residual norm {max_resid} exploded");
    }

    #[test]
    fn shape_change_resets_residual() {
        let mut ef = ErrorFeedback::new(TopK::new(1));
        let _ = ef.round_trip(&Tensor::from_vec(vec![5.0, 1.0], [2]));
        // A different shape must not panic; residual restarts.
        let y = ef.round_trip(&Tensor::from_vec(vec![2.0, 1.0, 0.5], [3]));
        assert_eq!(y.as_slice(), &[2.0, 0.0, 0.0]);
    }
}
