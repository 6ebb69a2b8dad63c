//! Single-pass feature extraction with reusable scratch buffers — the
//! one implementation behind every [`MatrixStats`] in the workspace.
//!
//! [`FeatureExtractor`] computes [`MatrixStats`] from one walk over the
//! CSR row pointers (counts, nnz, min/max, warp chunks, HYB histogram),
//! one walk over the cache-resident counts scratch (the mean-relative
//! deviation sums, which cannot ride the first walk because they need the
//! mean), and one walk over the column indices (diagonal census). All
//! scratch buffers are reused across calls and cleared in O(1) with an
//! epoch stamp, so a warmed extractor performs zero heap allocations.
//! [`MatrixStats::from_csr`] and [`MatrixStats::from_row_counts`] run a
//! fresh extractor; the serving engine keeps one warm per thread.
//! `crates/features/tests/properties.rs` pins the result bit for bit to a
//! straightforward multi-pass oracle over random, empty, single-row, hub,
//! banded, and power-law matrices.

use crate::stats::WARP_ROWS;
use crate::{FeatureVector, MatrixStats};
use spsel_matrix::hyb::{DEFAULT_BREAKEVEN_THRESHOLD, DEFAULT_RELATIVE_SPEED};
use spsel_matrix::{CsrMatrix, SpMv};

/// Reusable scratch state for single-pass [`MatrixStats`] extraction.
///
/// One extractor per thread: methods take `&mut self` and reuse the
/// buffers, so a warmed extractor (one that has already seen a matrix at
/// least as large) allocates nothing.
#[derive(Debug, Default)]
pub struct FeatureExtractor {
    /// Per-row nonzero counts for the current matrix (first `nrows` live).
    counts: Vec<usize>,
    /// Row-count histogram values; `hist[c]` is live iff
    /// `hist_epoch[c] == epoch`.
    hist: Vec<usize>,
    hist_epoch: Vec<u32>,
    /// Diagonal occupancy stamps; offset `d` is occupied iff
    /// `diag_epoch[d] == epoch`.
    diag_epoch: Vec<u32>,
    /// Current generation for both epoch-stamped buffers. Bumping it
    /// invalidates every stale entry at once — the O(1) "clear".
    epoch: u32,
}

impl FeatureExtractor {
    /// Fresh extractor with empty scratch (first call sizes the buffers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a new matrix: invalidate both epoch-stamped buffers in O(1).
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            // One O(len) reset every 2^32 - 1 matrices keeps stale stamps
            // from a previous generation cycle from reading as live.
            self.hist_epoch.fill(0);
            self.diag_epoch.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Compute all statistics of `csr`, reusing this extractor's scratch.
    pub fn stats(&mut self, csr: &CsrMatrix) -> MatrixStats {
        let (nrows, ncols) = (csr.nrows(), csr.ncols());
        let row_ptr = csr.row_ptr();
        let mut stats = self.row_stats(nrows, ncols, row_ptr.windows(2).map(|w| w[1] - w[0]));

        // Walk 3: the column indices — diagonal census over the
        // `nrows + ncols - 1` possible offsets, occupancy tracked by
        // epoch stamp instead of a freshly-zeroed bitmap.
        if nrows > 0 && ncols > 0 {
            let epoch = self.epoch;
            let offsets = nrows + ncols - 1;
            if self.diag_epoch.len() < offsets {
                self.diag_epoch.resize(offsets, 0);
            }
            let col_idx = csr.col_idx();
            let mut diagonals = 0usize;
            for r in 0..nrows {
                for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                    let idx = c as usize + nrows - 1 - r;
                    if self.diag_epoch[idx] != epoch {
                        self.diag_epoch[idx] = epoch;
                        diagonals += 1;
                    }
                }
            }
            stats.diagonals = diagonals;
            stats.dia_size = diagonals * nrows;
        }
        stats
    }

    /// The row-length statistics of a matrix whose per-row nonzero
    /// counts are `counts` (exactly `nrows` of them), with the diagonal
    /// census left at zero. Starts a new epoch; [`Self::stats`] runs its
    /// census in the same one.
    pub(crate) fn row_stats(
        &mut self,
        nrows: usize,
        ncols: usize,
        counts: impl Iterator<Item = usize>,
    ) -> MatrixStats {
        self.next_epoch();
        let epoch = self.epoch;
        if self.counts.len() < nrows {
            self.counts.resize(nrows, 0);
        }

        // Walk 1: the row counts. Fills the counts scratch and folds in
        // every aggregate that does not depend on the mean.
        let mut nnz = 0usize;
        let mut nnz_min = usize::MAX;
        let mut nnz_max = 0usize;
        let mut csr_max = 0usize;
        let mut warp_sum = 0usize;
        for (r, c) in counts.enumerate() {
            self.counts[r] = c;
            nnz += c;
            nnz_min = nnz_min.min(c);
            nnz_max = nnz_max.max(c);
            warp_sum += c;
            if (r + 1) % WARP_ROWS == 0 {
                csr_max = csr_max.max(warp_sum);
                warp_sum = 0;
            }
            // Histogram bucket for the HYB split; stale entries are dead
            // because their stamp is from an earlier epoch.
            if self.hist.len() <= c {
                self.hist.resize(c + 1, 0);
                self.hist_epoch.resize(c + 1, 0);
            }
            if self.hist_epoch[c] == epoch {
                self.hist[c] += 1;
            } else {
                self.hist[c] = 1;
                self.hist_epoch[c] = epoch;
            }
        }
        if !nrows.is_multiple_of(WARP_ROWS) {
            csr_max = csr_max.max(warp_sum);
        }
        if nrows == 0 {
            nnz_min = 0;
        }
        let mean = if nrows == 0 {
            0.0
        } else {
            nnz as f64 / nrows as f64
        };

        // HYB split width straight off the histogram (CUSP's rule, same
        // arithmetic as `spsel_matrix::hyb::optimal_ell_width`).
        let hyb_ell_width = if nrows == 0 {
            0
        } else {
            let cutoff =
                ((nrows as f64 / DEFAULT_RELATIVE_SPEED) as usize).min(DEFAULT_BREAKEVEN_THRESHOLD);
            let mut count_ge = nrows;
            let mut width = 0;
            for k in 1..=nnz_max {
                count_ge -= if self.hist_epoch[k - 1] == epoch {
                    self.hist[k - 1]
                } else {
                    0
                };
                if count_ge > cutoff {
                    width = k;
                } else {
                    break;
                }
            }
            width
        };

        // Walk 2: the counts scratch, in row order. The deviation sums
        // need the mean, so they cannot ride walk 1.
        let mut var_sum = 0.0;
        let mut lower_sum = 0.0;
        let mut lower_n = 0usize;
        let mut higher_sum = 0.0;
        let mut higher_n = 0usize;
        let mut hyb_ell_nnz = 0usize;
        for &c in &self.counts[..nrows] {
            let d = c as f64 - mean;
            var_sum += d * d;
            if d < 0.0 {
                lower_sum += d * d;
                lower_n += 1;
            } else if d > 0.0 {
                higher_sum += d * d;
                higher_n += 1;
            }
            hyb_ell_nnz += c.min(hyb_ell_width);
        }
        let nnz_std = if nrows == 0 {
            0.0
        } else {
            (var_sum / nrows as f64).sqrt()
        };
        let sig_lower = if lower_n == 0 {
            0.0
        } else {
            (lower_sum / lower_n as f64).sqrt()
        };
        let sig_higher = if higher_n == 0 {
            0.0
        } else {
            (higher_sum / higher_n as f64).sqrt()
        };

        MatrixStats {
            nrows,
            ncols,
            nnz,
            nnz_min,
            nnz_max,
            nnz_mean: mean,
            nnz_std,
            sig_lower,
            sig_higher,
            csr_max,
            hyb_ell_width,
            hyb_ell_size: hyb_ell_width * nrows,
            hyb_ell_nnz,
            hyb_coo_nnz: nnz - hyb_ell_nnz,
            diagonals: 0,
            dia_size: 0,
            ell_size: nnz_max * nrows,
        }
    }

    /// Extract the Table 1 feature vector of `csr` via [`Self::stats`].
    pub fn features(&mut self, csr: &CsrMatrix) -> FeatureVector {
        FeatureVector::from_stats(&self.stats(csr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::gen;

    // `MatrixStats::from_csr` runs a fresh extractor, so these pin a warm
    // extractor to a cold one.

    #[test]
    fn scratch_reuse_across_shrinking_matrices() {
        // A large matrix warms the scratch; smaller ones after it must
        // not read stale histogram or diagonal stamps.
        let mut ex = FeatureExtractor::new();
        let big = CsrMatrix::from(&gen::power_law(400, 400, 3, 2.1, 200, 1));
        assert_eq!(ex.stats(&big), MatrixStats::from_csr(&big));
        let small = CsrMatrix::from(&gen::stencil2d(5, 0));
        assert_eq!(ex.stats(&small), MatrixStats::from_csr(&small));
        let tiny = CsrMatrix::from(&spsel_matrix::CooMatrix::zeros(1, 1));
        assert_eq!(ex.stats(&tiny), MatrixStats::from_csr(&tiny));
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let mut ex = FeatureExtractor::new();
        for coo in [
            spsel_matrix::CooMatrix::zeros(0, 0),
            spsel_matrix::CooMatrix::zeros(3, 0),
            spsel_matrix::CooMatrix::zeros(0, 3),
            spsel_matrix::CooMatrix::zeros(4, 4),
        ] {
            let csr = CsrMatrix::from(&coo);
            assert_eq!(ex.stats(&csr), MatrixStats::from_csr(&csr));
        }
    }
}
