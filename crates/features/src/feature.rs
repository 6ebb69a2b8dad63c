//! The 21 statistical features of Table 1 in the paper.

use crate::MatrixStats;
use serde::{Deserialize, Serialize};
use spsel_matrix::CsrMatrix;

/// Number of features in Table 1.
pub const NUM_FEATURES: usize = 21;

/// Identifier of a Table 1 feature; `FeatureId::ALL` matches the table's
/// row order exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureId {
    /// Number of rows.
    NRows,
    /// Number of columns.
    NCols,
    /// Number of nonzeros.
    Nnz,
    /// Fraction of nonzeros (density).
    NnzFrac,
    /// Average number of nonzeros per row.
    NnzMu,
    /// Minimum number of nonzeros per row.
    NnzMin,
    /// Maximum number of nonzeros per row.
    NnzMax,
    /// Standard deviation of nonzeros per row.
    NnzSig,
    /// `nnz_max - nnz_mu`.
    MaxMu,
    /// `nnz_mu - nnz_min`.
    MuMin,
    /// Maximum nonzeros a warp processes in the scalar CSR kernel.
    CsrMax,
    /// RMS deviation of row counts below the mean.
    SigLower,
    /// RMS deviation of row counts above the mean.
    SigHigher,
    /// Slab size of the ELL part of the HYB representation.
    HybEllSize,
    /// Nonzeros in the COO part of the HYB representation.
    HybCoo,
    /// Fraction of nonzeros stored in the ELL part of HYB.
    HybEllFrac,
    /// Number of non-empty diagonals.
    Diagonals,
    /// Entries a DIA structure would store.
    DiaSize,
    /// Fraction of DIA entries that are true nonzeros.
    DiaFrac,
    /// Fraction of true nonzeros in the ELL slab.
    EllFrac,
    /// Size of the ELL slab.
    EllSize,
}

impl FeatureId {
    /// All features in Table 1 order.
    pub const ALL: [FeatureId; NUM_FEATURES] = [
        FeatureId::NRows,
        FeatureId::NCols,
        FeatureId::Nnz,
        FeatureId::NnzFrac,
        FeatureId::NnzMu,
        FeatureId::NnzMin,
        FeatureId::NnzMax,
        FeatureId::NnzSig,
        FeatureId::MaxMu,
        FeatureId::MuMin,
        FeatureId::CsrMax,
        FeatureId::SigLower,
        FeatureId::SigHigher,
        FeatureId::HybEllSize,
        FeatureId::HybCoo,
        FeatureId::HybEllFrac,
        FeatureId::Diagonals,
        FeatureId::DiaSize,
        FeatureId::DiaFrac,
        FeatureId::EllFrac,
        FeatureId::EllSize,
    ];

    /// Position in [`FeatureId::ALL`]. The enum declares its variants in
    /// Table 1 order, so the discriminant *is* the position — a constant-
    /// time cast instead of a scan (`all_ids_index_by_discriminant` pins
    /// the declaration order to `ALL`).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The paper's snake_case feature name.
    pub fn name(self) -> &'static str {
        match self {
            FeatureId::NRows => "nrows",
            FeatureId::NCols => "ncols",
            FeatureId::Nnz => "nnz",
            FeatureId::NnzFrac => "nnz_frac",
            FeatureId::NnzMu => "nnz_mu",
            FeatureId::NnzMin => "nnz_min",
            FeatureId::NnzMax => "nnz_max",
            FeatureId::NnzSig => "nnz_sig",
            FeatureId::MaxMu => "max_mu",
            FeatureId::MuMin => "mu_min",
            FeatureId::CsrMax => "csr_max",
            FeatureId::SigLower => "sig_lower",
            FeatureId::SigHigher => "sig_higher",
            FeatureId::HybEllSize => "hyb_ell_size",
            FeatureId::HybCoo => "hyb_coo",
            FeatureId::HybEllFrac => "hyb_ell_frac",
            FeatureId::Diagonals => "diagonals",
            FeatureId::DiaSize => "dia_size",
            FeatureId::DiaFrac => "dia_frac",
            FeatureId::EllFrac => "ell_frac",
            FeatureId::EllSize => "ell_size",
        }
    }

    /// Whether this feature's value distribution over a realistic corpus is
    /// heavy-tailed (counts and sizes follow power laws over matrices of
    /// wildly different scales). These get a `log1p` transform by default;
    /// the remaining bounded fraction-like features keep their scale.
    pub fn is_heavy_tailed(self) -> bool {
        !matches!(
            self,
            FeatureId::NnzFrac | FeatureId::HybEllFrac | FeatureId::DiaFrac | FeatureId::EllFrac
        )
    }
}

impl std::fmt::Display for FeatureId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense vector of the 21 Table 1 features for one matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureVector {
    values: [f64; NUM_FEATURES],
}

impl FeatureVector {
    /// Derive the features from precomputed [`MatrixStats`].
    pub fn from_stats(s: &MatrixStats) -> Self {
        let mut v = [0.0; NUM_FEATURES];
        v[FeatureId::NRows.index()] = s.nrows as f64;
        v[FeatureId::NCols.index()] = s.ncols as f64;
        v[FeatureId::Nnz.index()] = s.nnz as f64;
        v[FeatureId::NnzFrac.index()] = s.density();
        v[FeatureId::NnzMu.index()] = s.nnz_mean;
        v[FeatureId::NnzMin.index()] = s.nnz_min as f64;
        v[FeatureId::NnzMax.index()] = s.nnz_max as f64;
        v[FeatureId::NnzSig.index()] = s.nnz_std;
        v[FeatureId::MaxMu.index()] = s.nnz_max as f64 - s.nnz_mean;
        v[FeatureId::MuMin.index()] = s.nnz_mean - s.nnz_min as f64;
        v[FeatureId::CsrMax.index()] = s.csr_max as f64;
        v[FeatureId::SigLower.index()] = s.sig_lower;
        v[FeatureId::SigHigher.index()] = s.sig_higher;
        v[FeatureId::HybEllSize.index()] = s.hyb_ell_size as f64;
        v[FeatureId::HybCoo.index()] = s.hyb_coo_nnz as f64;
        v[FeatureId::HybEllFrac.index()] = s.hyb_ell_fraction();
        v[FeatureId::Diagonals.index()] = s.diagonals as f64;
        v[FeatureId::DiaSize.index()] = s.dia_size as f64;
        v[FeatureId::DiaFrac.index()] = s.dia_fraction();
        v[FeatureId::EllFrac.index()] = s.ell_fraction();
        v[FeatureId::EllSize.index()] = s.ell_size as f64;
        FeatureVector { values: v }
    }

    /// Extract features directly from a CSR matrix, via
    /// [`MatrixStats::from_csr`] (a fresh single-pass extractor).
    pub fn from_csr(csr: &CsrMatrix) -> Self {
        Self::from_stats(&MatrixStats::from_csr(csr))
    }

    /// Wrap a raw value array (for tests and deserialization paths).
    pub fn from_raw(values: [f64; NUM_FEATURES]) -> Self {
        FeatureVector { values }
    }

    /// Value of one feature.
    #[inline]
    pub fn get(&self, id: FeatureId) -> f64 {
        self.values[id.index()]
    }

    /// The full value slice in Table 1 order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Project onto a subset of features, producing a plain vector in the
    /// order given (supervised models use per-model feature subsets).
    pub fn select(&self, ids: &[FeatureId]) -> Vec<f64> {
        ids.iter().map(|&id| self.get(id)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsel_matrix::gen;

    #[test]
    fn all_ids_have_unique_indices() {
        let mut seen = [false; NUM_FEATURES];
        for id in FeatureId::ALL {
            assert!(!seen[id.index()], "{id} duplicated");
            seen[id.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn all_ids_index_by_discriminant() {
        // `index()` is a discriminant cast; it is only correct while the
        // enum declaration order matches `ALL` (Table 1 order).
        for (i, id) in FeatureId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "{id} out of declaration order");
            assert_eq!(FeatureId::ALL[id.index()], *id);
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = FeatureId::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), NUM_FEATURES);
    }

    #[test]
    fn fraction_features_are_bounded() {
        let csr = CsrMatrix::from(&gen::power_law(300, 300, 2, 2.2, 200, 1));
        let fv = FeatureVector::from_csr(&csr);
        for id in [
            FeatureId::NnzFrac,
            FeatureId::HybEllFrac,
            FeatureId::DiaFrac,
            FeatureId::EllFrac,
        ] {
            let v = fv.get(id);
            assert!((0.0..=1.0).contains(&v), "{id} = {v}");
            assert!(!id.is_heavy_tailed());
        }
        assert!(FeatureId::Nnz.is_heavy_tailed());
    }

    #[test]
    fn derived_differences() {
        let csr = CsrMatrix::from(&gen::row_skewed(128, 512, 2, 60, 0.1, 2));
        let fv = FeatureVector::from_csr(&csr);
        let max_mu = fv.get(FeatureId::NnzMax) - fv.get(FeatureId::NnzMu);
        assert!((fv.get(FeatureId::MaxMu) - max_mu).abs() < 1e-12);
        let mu_min = fv.get(FeatureId::NnzMu) - fv.get(FeatureId::NnzMin);
        assert!((fv.get(FeatureId::MuMin) - mu_min).abs() < 1e-12);
    }

    #[test]
    fn select_projects_in_order() {
        let csr = CsrMatrix::from(&gen::stencil2d(8, 0));
        let fv = FeatureVector::from_csr(&csr);
        let sub = fv.select(&[FeatureId::NnzMax, FeatureId::NRows]);
        assert_eq!(
            sub,
            vec![fv.get(FeatureId::NnzMax), fv.get(FeatureId::NRows)]
        );
    }

    #[test]
    fn stencil_features() {
        let csr = CsrMatrix::from(&gen::stencil2d(10, 0));
        let fv = FeatureVector::from_csr(&csr);
        assert_eq!(fv.get(FeatureId::NRows), 100.0);
        assert_eq!(fv.get(FeatureId::NnzMax), 5.0);
        assert_eq!(fv.get(FeatureId::NnzMin), 3.0);
        // 2-D stencil occupies exactly 5 diagonals.
        assert_eq!(fv.get(FeatureId::Diagonals), 5.0);
    }
}
