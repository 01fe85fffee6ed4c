//! Adaptive (per-row) sparsification — a follow-up the paper's analysis
//! invites.
//!
//! Per-tensor Top-K lets rows with large dynamic range monopolize the
//! budget: a few high-magnitude tokens can consume every slot while other
//! tokens lose *all* their activation mass (one suspected mechanism behind
//! the paper's CoLA/RTE collapses). [`RowTopK`] gives every row (token)
//! its own `k`, guaranteeing per-token signal survives.

use crate::message::scatter_sparse;
use crate::{Compressed, Compressor, Payload};
use actcomp_tensor::Tensor;

/// Keeps the `k_per_row` largest-magnitude entries of *each row* of a
/// `[tokens, features]` activation.
///
/// Wire format matches [`crate::TopK`] (values + flat indices), so the
/// cost model and byte accounting carry over; gradients flow through kept
/// positions only.
///
/// # Examples
///
/// ```
/// use actcomp_compress::{Compressor, RowTopK};
/// use actcomp_tensor::Tensor;
///
/// let mut c = RowTopK::new(1);
/// let x = Tensor::from_vec(vec![9.0, 1.0, 1.0, 8.0], [2, 2]);
/// let y = c.round_trip(&x);
/// // Each row keeps its own maximum — no row is starved.
/// assert_eq!(y.as_slice(), &[9.0, 0.0, 0.0, 8.0]);
/// ```
#[derive(Debug, Clone)]
pub struct RowTopK {
    k_per_row: usize,
    /// LIFO stack of kept-index sets, one per unconsumed `compress`.
    cache_masks: Vec<Vec<u32>>,
}

impl RowTopK {
    /// Keeps `k_per_row` elements per row.
    ///
    /// # Panics
    ///
    /// Panics if `k_per_row == 0`.
    pub fn new(k_per_row: usize) -> Self {
        assert!(k_per_row > 0, "RowTopK requires k > 0");
        RowTopK {
            k_per_row,
            cache_masks: Vec::new(),
        }
    }

    /// Elements kept per row.
    pub fn k_per_row(&self) -> usize {
        self.k_per_row
    }
}

impl Compressor for RowTopK {
    fn name(&self) -> &'static str {
        "rowtopk"
    }

    fn compress(&mut self, x: &Tensor) -> Compressed {
        assert_eq!(
            x.rank(),
            2,
            "RowTopK input must be rank 2, got {}",
            x.shape()
        );
        let (m, n) = (x.dims()[0], x.dims()[1]);
        let k = self.k_per_row.min(n);
        let data = x.as_slice();
        let mut indices: Vec<u32> = Vec::with_capacity(m * k);
        for i in 0..m {
            let mut order: Vec<u32> = (0..n as u32).collect();
            if k < n {
                order.select_nth_unstable_by(k - 1, |&a, &b| {
                    data[i * n + b as usize]
                        .abs()
                        .partial_cmp(&data[i * n + a as usize].abs())
                        .expect("activations are finite")
                });
                order.truncate(k);
            }
            order.sort_unstable();
            indices.extend(order.iter().map(|&j| (i * n) as u32 + j));
        }
        let values: Vec<f32> = indices.iter().map(|&i| data[i as usize]).collect();
        self.cache_masks.push(indices.clone());
        Compressed::new(Payload::Sparse { values, indices }, x.shape().clone())
    }

    fn clear_caches(&mut self) {
        self.cache_masks.clear();
    }

    fn cache_depth(&self) -> usize {
        self.cache_masks.len()
    }

    fn decompress(&self, msg: &Compressed) -> Tensor {
        match msg.payload() {
            Payload::Sparse { values, indices } => scatter_sparse(values, indices, msg.shape()),
            _ => panic!("RowTopK received a non-sparse message"),
        }
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mask = self
            .cache_masks
            .pop()
            .expect("RowTopK::backward called without compress");
        let mut dx = Tensor::zeros_like(dy);
        for &i in &mask {
            dx[i as usize] = dy[i as usize];
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopK;
    use actcomp_tensor::init;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn every_row_keeps_exactly_k() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let x = init::randn(&mut rng, [8, 16], 1.0);
        let mut c = RowTopK::new(3);
        let y = c.round_trip(&x);
        for i in 0..8 {
            let kept = y
                .slice_rows(i, i + 1)
                .as_slice()
                .iter()
                .filter(|v| **v != 0.0)
                .count();
            assert_eq!(kept, 3, "row {i}");
        }
    }

    #[test]
    fn no_row_starvation_under_skewed_magnitudes() {
        // One row 100x larger than the rest: per-tensor Top-K starves the
        // small rows; per-row Top-K does not.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut x = init::randn(&mut rng, [4, 16], 0.01);
        for j in 0..16 {
            x.set(&[0, j], 5.0 + j as f32);
        }
        let budget = 4 * 4; // same total elements
        let y_tensor = TopK::new(budget).round_trip(&x);
        let y_row = RowTopK::new(4).round_trip(&x);
        let starved_tensor = (1..4)
            .filter(|&i| y_tensor.slice_rows(i, i + 1).norm() == 0.0)
            .count();
        let starved_row = (1..4)
            .filter(|&i| y_row.slice_rows(i, i + 1).norm() == 0.0)
            .count();
        assert!(starved_tensor >= 3, "per-tensor should starve small rows");
        assert_eq!(starved_row, 0, "per-row must preserve every token");
    }

    #[test]
    fn same_wire_cost_as_tensor_topk_at_equal_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let x = init::randn(&mut rng, [8, 32], 1.0);
        let row = RowTopK::new(4).compress(&x).wire_bytes(2);
        let tensor = TopK::new(32).compress(&x).wire_bytes(2);
        assert_eq!(row, tensor);
    }

    #[test]
    fn backward_masks_per_row() {
        let x = Tensor::from_vec(vec![5.0, 0.1, 0.2, 7.0], [2, 2]);
        let mut c = RowTopK::new(1);
        let _ = c.compress(&x);
        let dx = c.backward(&Tensor::ones([2, 2]));
        assert_eq!(dx.as_slice(), &[1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn k_clamped_to_width() {
        let x = Tensor::ones([2, 3]);
        let mut c = RowTopK::new(10);
        assert_eq!(c.round_trip(&x), x);
    }
}
