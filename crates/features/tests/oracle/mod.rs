//! The multi-pass reference walk the shipped extractor is pinned to.
//!
//! Each statistic is computed the obvious way, one independent pass per
//! aggregate: a row-counts `Vec`, then the sum, min, max and deviation
//! sums over it, `csr_max` over 32-row chunks, the HYB split through
//! `spsel_matrix::hyb::optimal_ell_width`, and a diagonal census over a
//! freshly zeroed occupancy bitmap. It is slow and allocation-heavy on
//! purpose: nothing about it shares code or scratch with
//! `FeatureExtractor`, so agreement between the two is evidence.

use spsel_features::stats::WARP_ROWS;
use spsel_features::MatrixStats;
use spsel_matrix::hyb::{optimal_ell_width, DEFAULT_BREAKEVEN_THRESHOLD, DEFAULT_RELATIVE_SPEED};
use spsel_matrix::{CsrMatrix, SpMv};

/// All statistics of `csr`.
pub fn stats(csr: &CsrMatrix) -> MatrixStats {
    let (nrows, ncols) = (csr.nrows(), csr.ncols());
    let mut stats = row_stats(nrows, ncols, &csr.row_counts());
    if nrows > 0 && ncols > 0 {
        let mut occupied = vec![false; nrows + ncols - 1];
        let mut diagonals = 0usize;
        for (r, c, _) in csr.iter() {
            let idx = c + nrows - 1 - r;
            if !occupied[idx] {
                occupied[idx] = true;
                diagonals += 1;
            }
        }
        stats.diagonals = diagonals;
        stats.dia_size = diagonals * nrows;
    }
    stats
}

/// The row-length statistics of `counts`, diagonal census left at zero.
pub fn row_stats(nrows: usize, ncols: usize, counts: &[usize]) -> MatrixStats {
    assert_eq!(counts.len(), nrows, "one count per row");
    let nnz: usize = counts.iter().sum();
    let mean = if nrows == 0 {
        0.0
    } else {
        nnz as f64 / nrows as f64
    };
    let nnz_min = counts.iter().copied().min().unwrap_or(0);
    let nnz_max = counts.iter().copied().max().unwrap_or(0);

    let mut var_sum = 0.0;
    let mut lower_sum = 0.0;
    let mut lower_n = 0usize;
    let mut higher_sum = 0.0;
    let mut higher_n = 0usize;
    for &c in counts {
        let d = c as f64 - mean;
        var_sum += d * d;
        if d < 0.0 {
            lower_sum += d * d;
            lower_n += 1;
        } else if d > 0.0 {
            higher_sum += d * d;
            higher_n += 1;
        }
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

    let csr_max = counts
        .chunks(WARP_ROWS)
        .map(|w| w.iter().sum::<usize>())
        .max()
        .unwrap_or(0);

    let hyb_ell_width =
        optimal_ell_width(counts, DEFAULT_RELATIVE_SPEED, DEFAULT_BREAKEVEN_THRESHOLD);
    let hyb_ell_nnz: usize = counts.iter().map(|&c| c.min(hyb_ell_width)).sum();

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
