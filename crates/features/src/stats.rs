//! Raw per-matrix structural statistics, computed in O(nnz).
//!
//! [`MatrixStats`] holds every raw quantity the Table 1 features and the
//! GPU performance model need. Both constructors run the single-pass
//! [`FeatureExtractor`] with fresh scratch: one walk over the row
//! lengths, one over the cache-resident counts, and one over the entries
//! (the diagonal census), matching the paper's requirement that features
//! be computable in time proportional to the number of nonzeros.

use crate::FeatureExtractor;
use serde::{Deserialize, Serialize};
use spsel_matrix::CsrMatrix;

/// Number of rows a warp covers in the scalar CSR kernel (one thread per
/// row, 32 threads per warp).
pub const WARP_ROWS: usize = 32;

/// Raw structural statistics of a sparse matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixStats {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Number of stored nonzeros.
    pub nnz: usize,
    /// Minimum nonzeros in a row.
    pub nnz_min: usize,
    /// Maximum nonzeros in a row.
    pub nnz_max: usize,
    /// Mean nonzeros per row.
    pub nnz_mean: f64,
    /// Standard deviation of nonzeros per row.
    pub nnz_std: f64,
    /// RMS deviation of row counts below the mean (paper's `sig_lower`).
    pub sig_lower: f64,
    /// RMS deviation of row counts above the mean (paper's `sig_higher`).
    pub sig_higher: f64,
    /// Maximum nonzeros processed by one warp of the scalar CSR kernel
    /// (32 consecutive rows, one row per thread) — the paper's `csr_max`
    /// load-imbalance indicator.
    pub csr_max: usize,
    /// ELL width of the CUSP HYB split.
    pub hyb_ell_width: usize,
    /// Slab slots in the HYB ELL part (paper's `hyb_ell_size`).
    pub hyb_ell_size: usize,
    /// True nonzeros stored in the HYB ELL part.
    pub hyb_ell_nnz: usize,
    /// Nonzeros in the HYB COO tail (paper's `hyb_coo`).
    pub hyb_coo_nnz: usize,
    /// Number of occupied diagonals (paper's `diagonals`).
    pub diagonals: usize,
    /// Slots a DIA structure would store (paper's `dia_size`).
    pub dia_size: usize,
    /// Slab slots in a pure ELL structure (paper's `ell_size`).
    pub ell_size: usize,
}

impl MatrixStats {
    /// Compute all statistics from a CSR matrix in O(nnz).
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        FeatureExtractor::new().stats(csr)
    }

    /// Compute the row-length-derived statistics only (diagonal census left
    /// at zero). Useful for tests and for synthetic workloads where only
    /// row counts are known.
    pub fn from_row_counts(nrows: usize, ncols: usize, counts: &[usize]) -> Self {
        assert_eq!(counts.len(), nrows, "one count per row");
        FeatureExtractor::new().row_stats(nrows, ncols, counts.iter().copied())
    }

    /// Fraction of positions that are nonzero (`nnz / (nrows * ncols)`).
    pub fn density(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz as f64 / cells
        }
    }

    /// Fraction of true nonzeros in a pure ELL slab (paper's `ell_frac`).
    pub fn ell_fraction(&self) -> f64 {
        if self.ell_size == 0 {
            1.0
        } else {
            self.nnz as f64 / self.ell_size as f64
        }
    }

    /// Fraction of DIA slots that are true nonzeros (paper's `dia_frac`).
    pub fn dia_fraction(&self) -> f64 {
        if self.dia_size == 0 {
            1.0
        } else {
            self.nnz as f64 / self.dia_size as f64
        }
    }

    /// Fraction of nonzeros stored in the HYB ELL part (paper's
    /// `hyb_ell_frac`).
    pub fn hyb_ell_fraction(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.hyb_ell_nnz as f64 / self.nnz as f64
        }
    }

    /// Bytes each benchmarked format would occupy; consumed by the GPU
    /// model's out-of-memory checks. Order matches [`spsel_matrix::Format::ALL`].
    pub fn format_bytes(&self) -> [usize; 4] {
        let coo = self.nnz * 16;
        let csr = (self.nrows + 1) * 8 + self.nnz * 12;
        let ell = self.ell_size * 12;
        let hyb = self.hyb_ell_size * 12 + self.hyb_coo_nnz * 16;
        [coo, csr, ell, hyb]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::{gen, SpMv};

    #[test]
    fn uniform_rows_have_zero_std() {
        let s = MatrixStats::from_row_counts(4, 10, &[3, 3, 3, 3]);
        assert_eq!(s.nnz, 12);
        assert_eq!(s.nnz_std, 0.0);
        assert_eq!(s.sig_lower, 0.0);
        assert_eq!(s.sig_higher, 0.0);
        assert_eq!(s.nnz_min, 3);
        assert_eq!(s.nnz_max, 3);
        assert_eq!(s.ell_size, 12);
        assert!((s.ell_fraction() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn skewed_rows_split_sigmas() {
        // counts: [0, 0, 0, 8] -> mean 2
        let s = MatrixStats::from_row_counts(4, 10, &[0, 0, 0, 8]);
        assert!((s.nnz_mean - 2.0).abs() < 1e-15);
        assert!((s.sig_lower - 2.0).abs() < 1e-15); // rows below mean deviate by 2
        assert!((s.sig_higher - 6.0).abs() < 1e-15); // one row deviates by 6
        assert!(s.nnz_std > s.sig_lower && s.nnz_std < s.sig_higher);
    }

    #[test]
    fn csr_max_covers_warp_chunks() {
        // 64 rows of 1 plus one warp with a heavy row.
        let mut counts = vec![1usize; 64];
        counts[40] = 100;
        let s = MatrixStats::from_row_counts(64, 1000, &counts);
        // Warp 1 (rows 32..64) holds 31 * 1 + 100 = 131.
        assert_eq!(s.csr_max, 131);
    }

    #[test]
    fn diagonal_census_matches_dia() {
        let coo = gen::multi_diagonal(40, 7, 3);
        let csr = CsrMatrix::from(&coo);
        let s = MatrixStats::from_csr(&csr);
        let dia = spsel_matrix::DiaMatrix::try_from_csr(&csr, 64).unwrap();
        assert_eq!(s.diagonals, dia.num_diagonals());
        assert_eq!(s.dia_size, dia.storage_size());
        assert!((s.dia_fraction() - dia.fill_fraction()).abs() < 1e-15);
    }

    #[test]
    fn hyb_split_matches_hyb_matrix() {
        let coo = gen::row_skewed(200, 1000, 3, 120, 0.05, 9);
        let csr = CsrMatrix::from(&coo);
        let s = MatrixStats::from_csr(&csr);
        let hyb = spsel_matrix::HybMatrix::from_csr(&csr);
        assert_eq!(s.hyb_ell_width, hyb.ell_width());
        assert_eq!(s.hyb_ell_size, hyb.ell_slab_size());
        assert_eq!(s.hyb_coo_nnz, hyb.coo_nnz());
        assert_eq!(s.hyb_ell_nnz, hyb.ell_nnz());
    }

    #[test]
    fn ell_size_matches_ell_matrix() {
        let coo = gen::random_uniform(64, 64, 6, 4);
        let csr = CsrMatrix::from(&coo);
        let s = MatrixStats::from_csr(&csr);
        let ell = spsel_matrix::EllMatrix::try_from_csr(&csr).unwrap();
        assert_eq!(s.ell_size, ell.slab_size());
        assert!((s.ell_fraction() - ell.fill_fraction()).abs() < 1e-15);
    }

    #[test]
    fn format_bytes_match_structures() {
        let coo = gen::banded(100, 4, 0.8, 5);
        let csr = CsrMatrix::from(&coo);
        let s = MatrixStats::from_csr(&csr);
        let [coo_b, csr_b, ell_b, hyb_b] = s.format_bytes();
        assert_eq!(coo_b, coo.memory_bytes());
        assert_eq!(csr_b, csr.memory_bytes());
        let ell = spsel_matrix::EllMatrix::try_from_csr(&csr).unwrap();
        assert_eq!(ell_b, ell.memory_bytes());
        let hyb = spsel_matrix::HybMatrix::from_csr(&csr);
        assert_eq!(hyb_b, hyb.memory_bytes());
    }

    #[test]
    fn empty_matrix_stats() {
        let s = MatrixStats::from_row_counts(0, 0, &[]);
        assert_eq!(s.nnz, 0);
        assert_eq!(s.density(), 0.0);
        assert_eq!(s.ell_fraction(), 1.0);
    }

    #[test]
    fn density() {
        let s = MatrixStats::from_row_counts(2, 5, &[2, 3]);
        assert!((s.density() - 0.5).abs() < 1e-15);
    }
}
