//! Overhead-conscious format selection.
//!
//! The paper's related work (Zhao et al., IPDPS'18 / TPDS'20) points out
//! that a *qualitative* "fastest kernel" answer is not what an application
//! needs: switching away from CSR costs a conversion (Table 8: up to 147
//! CSR-SpMV-equivalents for HYB), so the best format depends on how many
//! SpMV iterations will amortize it. This module extends the selector
//! with that quantitative decision rule.

use serde::{Deserialize, Serialize};
use spsel_gpusim::cost::ConversionCostModel;
use spsel_gpusim::{SpmvTimes, WorkloadTimes};
use spsel_matrix::Format;

/// Decision produced by the overhead-conscious rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmortizedChoice {
    /// The format minimizing total cost at the given iteration count.
    pub format: Format,
    /// Total cost (conversion + iterations * kernel) in microseconds.
    pub total_us: f64,
    /// Total cost of staying with CSR.
    pub csr_total_us: f64,
}

/// The amortized-cost rule: among `formats`, the one minimizing
/// `conversion + iterations * kernel`, where `time(f)` is one kernel call
/// of `f` and conversion is priced in CSR-kernel equivalents. Formats
/// that are out of memory (or whose CSR unit is) cost infinity; ties go
/// to the earliest format; an empty set stays on CSR.
fn amortize(
    time: impl Fn(Format) -> f64,
    formats: impl IntoIterator<Item = Format>,
    conv: &ConversionCostModel,
    iterations: usize,
) -> AmortizedChoice {
    let csr_unit = time(Format::Csr);
    let total = |f: Format| -> f64 {
        let t = time(f);
        if !t.is_finite() || !csr_unit.is_finite() {
            return f64::INFINITY;
        }
        conv.relative(f) * csr_unit + iterations as f64 * t
    };
    let csr_total = total(Format::Csr);
    let (format, total_us) = formats
        .into_iter()
        .map(|f| (f, total(f)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((Format::Csr, csr_total));
    AmortizedChoice {
        format,
        total_us,
        csr_total_us: csr_total,
    }
}

/// The break-even rule: the smallest number of kernel calls after which
/// converting from CSR to `format` pays off, or `None` if `format` is
/// never faster than CSR (or does not fit in memory).
fn break_even(
    time: impl Fn(Format) -> f64,
    conv: &ConversionCostModel,
    format: Format,
) -> Option<usize> {
    let csr = time(Format::Csr);
    if format == Format::Csr {
        return csr.is_finite().then_some(0);
    }
    let t = time(format);
    if !t.is_finite() || !csr.is_finite() || t >= csr {
        return None;
    }
    // conversion * csr + n * t <= n * csr  =>  n >= conversion * csr / (csr - t)
    let n = (conv.relative(format) * csr / (csr - t)).ceil();
    Some(n as usize)
}

/// Pick the format minimizing `conversion + iterations * kernel_time`,
/// starting from CSR (the storage format matrices arrive in).
///
/// Infeasible (out-of-memory) formats are never chosen.
///
/// ```
/// use spsel_core::overhead::amortized_best;
/// use spsel_gpusim::{cost::ConversionCostModel, SpmvTimes};
/// use spsel_matrix::Format;
/// // HYB is 2x faster per SpMV but costs 147 CSR-SpMVs to build.
/// let times = SpmvTimes { us: [30.0, 10.0, 25.0, 5.0] };
/// let conv = ConversionCostModel::default();
/// assert_eq!(amortized_best(&times, &conv, 1).format, Format::Csr);
/// assert_eq!(amortized_best(&times, &conv, 100_000).format, Format::Hyb);
/// ```
pub fn amortized_best(
    times: &SpmvTimes,
    conv: &ConversionCostModel,
    iterations: usize,
) -> AmortizedChoice {
    amortize(|f| times.get(f), Format::ALL, conv, iterations)
}

/// [`amortized_best`] generalized to any workload and format set: pick
/// the format in `formats` minimizing `conversion + iterations * kernel`,
/// where kernel times come from a [`WorkloadTimes`] table (SpMV or SpMM)
/// and conversion is still priced in CSR-SpMV-equivalents, with the CSR
/// entry of `times` standing in for one "unit" of work.
///
/// `formats` must contain [`Format::Csr`] (every registry does); entries
/// absent from `formats` are never chosen even if `times` has them.
pub fn amortized_best_workload(
    times: &WorkloadTimes,
    formats: &[Format],
    conv: &ConversionCostModel,
    iterations: usize,
) -> AmortizedChoice {
    amortize(|f| times.get(f), formats.iter().copied(), conv, iterations)
}

/// [`break_even_iterations`] over a [`WorkloadTimes`] table: the smallest
/// number of workload invocations after which converting from CSR pays
/// off, or `None` if `format` is never faster than CSR (or infeasible).
pub fn break_even_iterations_workload(
    times: &WorkloadTimes,
    conv: &ConversionCostModel,
    format: Format,
) -> Option<usize> {
    break_even(|f| times.get(f), conv, format)
}

/// The break-even iteration count for `format`: the smallest number of
/// SpMV calls after which converting from CSR pays off, or `None` if the
/// format is never faster than CSR (or does not fit in memory).
pub fn break_even_iterations(
    times: &SpmvTimes,
    conv: &ConversionCostModel,
    format: Format,
) -> Option<usize> {
    break_even(|f| times.get(f), conv, format)
}

/// Sweep iteration counts and report where the amortized choice flips —
/// the crossover structure an overhead-conscious selector exposes.
pub fn choice_crossovers(
    times: &SpmvTimes,
    conv: &ConversionCostModel,
    max_iterations: usize,
) -> Vec<(usize, Format)> {
    let mut out = Vec::new();
    let mut last: Option<Format> = None;
    let mut n = 1usize;
    while n <= max_iterations {
        let choice = amortized_best(times, conv, n).format;
        if last != Some(choice) {
            out.push((n, choice));
            last = Some(choice);
        }
        // Exponential sweep with fill-in around decade boundaries keeps
        // this cheap while catching every flip of a monotone rule.
        n = (n + n / 4).max(n + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn times(us: [f64; 4]) -> SpmvTimes {
        SpmvTimes { us }
    }

    fn conv() -> ConversionCostModel {
        ConversionCostModel::default()
    }

    #[test]
    fn single_iteration_stays_csr() {
        // HYB kernel is 2x faster but conversion costs 147 CSR-SpMVs.
        let t = times([30.0, 10.0, 25.0, 5.0]);
        let c = amortized_best(&t, &conv(), 1);
        assert_eq!(c.format, Format::Csr);
    }

    #[test]
    fn many_iterations_switch_to_fastest() {
        let t = times([30.0, 10.0, 25.0, 5.0]);
        let c = amortized_best(&t, &conv(), 10_000);
        assert_eq!(c.format, Format::Hyb);
        assert!(c.total_us < c.csr_total_us);
    }

    #[test]
    fn break_even_matches_definition() {
        let t = times([30.0, 10.0, 25.0, 5.0]);
        let n = break_even_iterations(&t, &conv(), Format::Hyb).unwrap();
        // conversion = 147 * 10 us = 1470 us; gain per iter = 5 us -> 294.
        assert_eq!(n, 294);
        // One iteration before the break-even CSR still wins; at the
        // break-even the switch is at least as good (ties stay CSR), and
        // one past it HYB strictly wins.
        let before = amortized_best(&t, &conv(), n - 1);
        assert_eq!(before.format, Format::Csr);
        let at = amortized_best(&t, &conv(), n);
        assert!(at.total_us <= at.csr_total_us + 1e-9);
        let past = amortized_best(&t, &conv(), n + 1);
        assert_eq!(past.format, Format::Hyb);
    }

    #[test]
    fn never_profitable_formats_have_no_break_even() {
        let t = times([30.0, 10.0, 25.0, 50.0]);
        assert_eq!(break_even_iterations(&t, &conv(), Format::Hyb), None);
        assert_eq!(break_even_iterations(&t, &conv(), Format::Ell), None);
        assert_eq!(break_even_iterations(&t, &conv(), Format::Csr), Some(0));
    }

    #[test]
    fn infeasible_formats_never_chosen() {
        let t = times([30.0, 10.0, f64::INFINITY, 5.0]);
        assert_eq!(break_even_iterations(&t, &conv(), Format::Ell), None);
        let c = amortized_best(&t, &conv(), 100_000);
        assert_ne!(c.format, Format::Ell);
    }

    #[test]
    fn crossovers_are_monotone_in_speed() {
        let t = times([8.0, 10.0, 25.0, 5.0]);
        let flips = choice_crossovers(&t, &conv(), 1_000_000);
        // Starts at CSR, eventually lands on the fastest format.
        assert_eq!(flips.first().unwrap().1, Format::Csr);
        assert_eq!(flips.last().unwrap().1, Format::Hyb);
        // Iteration counts strictly increase.
        assert!(flips.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn workload_amortized_matches_spmv_rule_on_default_formats() {
        // Same numbers routed through the workload-generic helper must
        // reproduce the SpMV-specific rule exactly.
        let t = times([30.0, 10.0, 25.0, 5.0]);
        let mut us = [f64::INFINITY; Format::UNIVERSE_COUNT];
        us[..4].copy_from_slice(&t.us);
        let wt = WorkloadTimes { us };
        for iters in [1usize, 100, 294, 10_000] {
            let a = amortized_best(&t, &conv(), iters);
            let b = amortized_best_workload(&wt, &Format::ALL, &conv(), iters);
            assert_eq!(a.format, b.format, "iters={iters}");
            assert_eq!(a.total_us, b.total_us);
            assert_eq!(a.csr_total_us, b.csr_total_us);
        }
        assert_eq!(
            break_even_iterations(&t, &conv(), Format::Hyb),
            break_even_iterations_workload(&wt, &conv(), Format::Hyb),
        );
    }

    #[test]
    fn workload_amortized_respects_the_format_set() {
        let mut us = [f64::INFINITY; Format::UNIVERSE_COUNT];
        us[Format::Csr.index()] = 10.0;
        us[Format::Hyb.index()] = 5.0;
        us[Format::Bsr.index()] = 1.0; // fastest, but not in the set below
        let wt = WorkloadTimes { us };
        let small = [Format::Csr, Format::Hyb];
        let c = amortized_best_workload(&wt, &small, &conv(), 1_000_000);
        assert_eq!(c.format, Format::Hyb);
        let wide = [Format::Csr, Format::Hyb, Format::Bsr];
        let c = amortized_best_workload(&wt, &wide, &conv(), 1_000_000);
        assert_eq!(c.format, Format::Bsr);
        assert!(break_even_iterations_workload(&wt, &conv(), Format::Bsr).is_some());
    }

    #[test]
    fn cheap_coo_conversion_flips_early() {
        // COO conversion costs only 9 CSR-SpMVs, so a modest kernel win
        // flips quickly.
        let t = times([8.0, 10.0, 25.0, 9.0]);
        let n = break_even_iterations(&t, &conv(), Format::Coo).unwrap();
        assert_eq!(n, 45); // 9 * 10 / (10 - 8) = 45
    }
}
