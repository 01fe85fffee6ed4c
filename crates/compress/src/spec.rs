//! The paper's Table 1 notation: `A1`, `A2`, `T1`–`T4`, `R1`–`R4`,
//! `Q1`–`Q3`, and the uncompressed baseline `w/o`.
//!
//! Each spec resolves to a configured [`Compressor`] given the activation
//! geometry. The paper defines the settings at BERT-Large scale
//! (`h = 1024`): `A1`/`A2` are auto-encoders with code dims 50/100;
//! `T1`/`R1` match A1's *communication cost*; `T3`/`R3` match A1's
//! *compression ratio* (and `T2`/`T4`/`R2`/`R4` likewise for A2);
//! `Q1`/`Q2`/`Q3` quantize to 2/4/8 bits. At other hidden sizes the code
//! dims scale proportionally so the compression ratios are preserved.

use crate::{AutoEncoder, Compressor, Identity, Quantizer, RandomK, TopK};
use rand::Rng;

/// Hidden size at which the paper defines the Table 1 settings.
pub const PAPER_HIDDEN: usize = 1024;
/// A1 / T1 / R1 / T3 / R3 reference code dimension at `h = 1024`.
pub const A1_CODE_DIM: usize = 50;
/// A2 / T2 / R2 / T4 / R4 reference code dimension at `h = 1024`.
pub const A2_CODE_DIM: usize = 100;
/// Wire bytes of one sparse element: an fp16 value plus a 32-bit index.
pub const SPARSE_ELEM_BYTES: usize = 6;
/// Wire bytes of one dense fp16 element.
pub const DENSE_ELEM_BYTES: usize = 2;

/// A spec was asked for a parameter its family does not define.
///
/// The typed counterpart of the panics in [`CompressorSpec::code_dim`],
/// [`CompressorSpec::quant_bits`] and [`CompressorSpec::sparsifier_k`]:
/// config-driven callers (e.g. the static checker) use the `try_*`
/// variants and surface these as diagnostics instead of crashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecError {
    /// The spec is not AE-relative, so it has no code dimension.
    NoCodeDim(CompressorSpec),
    /// The spec is not a quantizer, so it has no bit width.
    NotQuantizer(CompressorSpec),
    /// The spec is not a sparsifier, so it keeps no top/random elements.
    NotSparsifier(CompressorSpec),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoCodeDim(s) => write!(f, "{} has no code dimension", s.label()),
            SpecError::NotQuantizer(s) => write!(f, "{} has no quantization width", s.label()),
            SpecError::NotSparsifier(s) => write!(f, "{} is not a sparsifier", s.label()),
        }
    }
}

impl std::error::Error for SpecError {}

/// The algorithm family a spec belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Family {
    /// No compression (`w/o`).
    None,
    /// Auto-encoder (learning-based).
    AutoEncoder,
    /// Top-K sparsification.
    TopK,
    /// Random-K sparsification.
    RandomK,
    /// Uniform quantization.
    Quantization,
}

/// One of the paper's named compression settings (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
#[allow(missing_docs)] // variants are the paper's own notation
pub enum CompressorSpec {
    Baseline,
    A1,
    A2,
    T1,
    T2,
    T3,
    T4,
    R1,
    R2,
    R3,
    R4,
    Q1,
    Q2,
    Q3,
}

impl CompressorSpec {
    /// Every spec, in the paper's table order (baseline first).
    pub fn all() -> [CompressorSpec; 14] {
        use CompressorSpec::*;
        [Baseline, A1, A2, T1, T2, T3, T4, R1, R2, R3, R4, Q1, Q2, Q3]
    }

    /// The specs evaluated in the paper's main tables (no `Q3`).
    pub fn main_table() -> [CompressorSpec; 13] {
        use CompressorSpec::*;
        [Baseline, A1, A2, T1, T2, T3, T4, R1, R2, R3, R4, Q1, Q2]
    }

    /// The paper's label for this spec.
    pub fn label(&self) -> &'static str {
        use CompressorSpec::*;
        match self {
            Baseline => "w/o",
            A1 => "A1",
            A2 => "A2",
            T1 => "T1",
            T2 => "T2",
            T3 => "T3",
            T4 => "T4",
            R1 => "R1",
            R2 => "R2",
            R3 => "R3",
            R4 => "R4",
            Q1 => "Q1",
            Q2 => "Q2",
            Q3 => "Q3",
        }
    }

    /// Algorithm family.
    pub fn family(&self) -> Family {
        use CompressorSpec::*;
        match self {
            Baseline => Family::None,
            A1 | A2 => Family::AutoEncoder,
            T1 | T2 | T3 | T4 => Family::TopK,
            R1 | R2 | R3 | R4 => Family::RandomK,
            Q1 | Q2 | Q3 => Family::Quantization,
        }
    }

    /// The reference code dimension (`c` at `h = 1024`) this spec derives
    /// from, if it is AE-relative.
    fn reference_code_dim(&self) -> Option<usize> {
        use CompressorSpec::*;
        match self {
            A1 | T1 | T3 | R1 | R3 => Some(A1_CODE_DIM),
            A2 | T2 | T4 | R2 | R4 => Some(A2_CODE_DIM),
            _ => None,
        }
    }

    /// Auto-encoder code dimension at hidden size `h` (scaled from the
    /// paper's `h = 1024` definition, minimum 1), or [`SpecError`] when
    /// the spec is not AE-relative.
    pub fn try_code_dim(&self, h: usize) -> Result<usize, SpecError> {
        let c = self
            .reference_code_dim()
            .ok_or(SpecError::NoCodeDim(*self))?;
        Ok((c * h / PAPER_HIDDEN).max(1))
    }

    /// Auto-encoder code dimension at hidden size `h` (scaled from the
    /// paper's `h = 1024` definition, minimum 1).
    ///
    /// # Panics
    ///
    /// Panics if the spec is not AE-relative.
    pub fn code_dim(&self, h: usize) -> usize {
        self.try_code_dim(h).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Quantization width in bits, or [`SpecError`] when the spec is not
    /// a quantizer.
    pub fn try_quant_bits(&self) -> Result<u8, SpecError> {
        use CompressorSpec::*;
        match self {
            Q1 => Ok(2),
            Q2 => Ok(4),
            Q3 => Ok(8),
            _ => Err(SpecError::NotQuantizer(*self)),
        }
    }

    /// Quantization width in bits.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not a quantizer.
    pub fn quant_bits(&self) -> u8 {
        self.try_quant_bits().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of kept elements for sparsifiers, for an activation of `n`
    /// elements and hidden width `h`.
    ///
    /// `T1/T2/R1/R2` match the AE's *communication cost*: the AE sends
    /// `n·c/h` dense fp16 values, a sparse element costs 3× more bytes, so
    /// `k = n·c/(3h)`. `T3/T4/R3/R4` match the AE's *compression ratio*
    /// (`h/c`), so `k = n·c/h`.
    ///
    /// Typed variant of [`CompressorSpec::sparsifier_k`]: [`SpecError`]
    /// when the spec is not a sparsifier.
    pub fn try_sparsifier_k(&self, n: usize, h: usize) -> Result<usize, SpecError> {
        use CompressorSpec::*;
        if !matches!(self.family(), Family::TopK | Family::RandomK) {
            return Err(SpecError::NotSparsifier(*self));
        }
        let c = self
            .reference_code_dim()
            .expect("sparsifiers are AE-relative");
        // The scaled code dim is c·h/1024, so k as a fraction of n depends
        // only on the reference c: k/n = c_scaled/h = c/1024 (and a third of
        // that when matching bytes instead of ratio). `h` is accepted for
        // signature symmetry with the AE path.
        let _ = h;
        let k = match self {
            T1 | T2 | R1 | R2 => n * c / PAPER_HIDDEN / (SPARSE_ELEM_BYTES / DENSE_ELEM_BYTES),
            _ => n * c / PAPER_HIDDEN,
        };
        Ok(k.max(1))
    }

    /// # Panics
    ///
    /// Panics if the spec is not a sparsifier.
    pub fn sparsifier_k(&self, n: usize, h: usize) -> usize {
        self.try_sparsifier_k(n, h)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Expected wire bytes for an activation of `n` elements at hidden
    /// width `h`, at fp16 dense width. The baseline sends `2n` bytes.
    pub fn wire_bytes(&self, n: usize, h: usize) -> usize {
        match self.family() {
            Family::None => n * DENSE_ELEM_BYTES,
            Family::AutoEncoder => {
                let c = self.code_dim(h);
                n / h * c * DENSE_ELEM_BYTES
            }
            Family::TopK | Family::RandomK => self.sparsifier_k(n, h) * SPARSE_ELEM_BYTES,
            Family::Quantization => n * self.quant_bits() as usize / 8 + 8,
        }
    }

    /// Builds the configured compressor for activations of `n` elements
    /// with hidden width `h`. The RNG seeds the auto-encoder's matrices
    /// and Random-K's sampling stream.
    pub fn build(&self, rng: &mut impl Rng, n: usize, h: usize) -> Box<dyn Compressor> {
        match self.family() {
            Family::None => Box::new(Identity::new()),
            Family::AutoEncoder => Box::new(AutoEncoder::new(rng, h, self.code_dim(h))),
            Family::TopK => Box::new(TopK::new(self.sparsifier_k(n, h))),
            Family::RandomK => Box::new(RandomK::new(self.sparsifier_k(n, h), rng.gen())),
            Family::Quantization => Box::new(Quantizer::new(self.quant_bits())),
        }
    }
}

impl std::fmt::Display for CompressorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use CompressorSpec::*;

    #[test]
    fn paper_scale_code_dims() {
        assert_eq!(A1.code_dim(1024), 50);
        assert_eq!(A2.code_dim(1024), 100);
        // Tiny model keeps the ratio (~20x / ~10x).
        assert_eq!(A1.code_dim(64), 3);
        assert_eq!(A2.code_dim(64), 6);
    }

    #[test]
    fn comm_cost_matched_specs_send_ae_bytes() {
        // T1 at paper scale must cost (approximately) what A1 costs.
        let n = 32 * 512 * 1024; // b·s·h
        let a1 = A1.wire_bytes(n, 1024);
        let t1 = T1.wire_bytes(n, 1024);
        let rel = (a1 as f64 - t1 as f64).abs() / a1 as f64;
        assert!(rel < 0.05, "A1 {a1} vs T1 {t1}");
    }

    #[test]
    fn ratio_matched_specs_keep_ae_ratio() {
        // T3's element ratio equals A1's compression ratio (~20.5x).
        let n = 1024 * 1024;
        let k = T3.sparsifier_k(n, 1024);
        let ratio = n as f64 / k as f64;
        assert!((ratio - 20.48).abs() < 0.5, "ratio {ratio}");
        // ...which makes T3's *bytes* 3x A1's.
        let bytes_ratio = T3.wire_bytes(n, 1024) as f64 / A1.wire_bytes(n, 1024) as f64;
        assert!((bytes_ratio - 3.0).abs() < 0.1, "byte ratio {bytes_ratio}");
    }

    #[test]
    fn quant_bits_and_bytes() {
        assert_eq!(Q1.quant_bits(), 2);
        assert_eq!(Q2.quant_bits(), 4);
        assert_eq!(Q3.quant_bits(), 8);
        let n = 4096;
        assert!(Q1.wire_bytes(n, 1024) < Q2.wire_bytes(n, 1024));
        assert!(Q2.wire_bytes(n, 1024) < Q3.wire_bytes(n, 1024));
        // 2-bit quant is 8x smaller than fp16.
        assert!(
            (Baseline.wire_bytes(n, 1024) as f64 / Q1.wire_bytes(n, 1024) as f64 - 8.0).abs() < 0.2
        );
    }

    #[test]
    fn build_produces_right_family() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let n = 8 * 1024;
        assert_eq!(Baseline.build(&mut rng, n, 1024).name(), "identity");
        assert_eq!(A1.build(&mut rng, n, 1024).name(), "ae");
        assert_eq!(T2.build(&mut rng, n, 1024).name(), "topk");
        assert_eq!(R3.build(&mut rng, n, 1024).name(), "randk");
        assert_eq!(Q2.build(&mut rng, n, 1024).name(), "quant");
    }

    #[test]
    fn clear_caches_drops_every_pending_backward() {
        // A forward-only caller never runs backward; clearing must leave
        // no cached state behind for any codec, with or without error
        // feedback, and must not disturb a later compress/backward pair.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = actcomp_tensor::Tensor::ones([4, 16]);
        for spec in CompressorSpec::all() {
            for ef in [false, true] {
                let mut c = spec.build(&mut rng, 64, 16);
                if ef {
                    c = Box::new(crate::ErrorFeedback::new(c));
                }
                for _ in 0..3 {
                    let _ = c.compress(&x);
                }
                let cached = matches!(
                    spec.family(),
                    Family::AutoEncoder | Family::TopK | Family::RandomK
                );
                assert_eq!(
                    c.cache_depth(),
                    if cached { 3 } else { 0 },
                    "{spec} ef={ef}"
                );
                c.clear_caches();
                assert_eq!(c.cache_depth(), 0, "{spec} ef={ef}");
                let _ = c.compress(&x);
                let _ = c.backward(&x);
                assert_eq!(c.cache_depth(), 0, "{spec} ef={ef}");
            }
        }
    }

    #[test]
    fn all_contains_unique_labels() {
        let labels: std::collections::HashSet<_> =
            CompressorSpec::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 14);
    }

    #[test]
    fn only_ae_and_baseline_are_summable() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for spec in CompressorSpec::all() {
            let c = spec.build(&mut rng, 4096, 1024);
            let expect = matches!(spec.family(), Family::None | Family::AutoEncoder);
            assert_eq!(c.summable(), expect, "{spec}");
        }
    }
}
