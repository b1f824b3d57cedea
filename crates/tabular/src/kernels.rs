//! Compiled aggregation kernels: streaming moment accumulators, sorted-run order-statistic
//! kernels and dictionary-code frequency kernels.
//!
//! [`AggFunc::apply`] is the *reference* implementation of the fifteen aggregation functions: it
//! receives one group's values as a freshly materialised slice and recomputes everything from
//! scratch — including a full copy + sort for the order statistics. That is exactly the per-
//! candidate cost a compiled query engine wants to avoid, so this module splits the functions
//! into three kernel families (see [`KernelFamily`]) that an engine can drive incrementally:
//!
//! * **`Stream`** — one pass, O(1) state per group (`SUM`, `MIN`, `MAX`, `COUNT`, `AVG`).
//! * **`Moment`** — two streaming passes per group (`VAR`, `VAR_SAMPLE`, `STD`, `STD_SAMPLE`,
//!   `KURTOSIS`): pass 1 accumulates the sum, pass 2 accumulates the centred power sums `m2`
//!   (and `m4` for kurtosis) with [`accumulate_m2`] / [`accumulate_m4`], and
//!   [`moment_finalize`] turns them into the aggregate. No per-group value buffer is needed.
//! * **`OrderStat`** — kernels over a group's non-null values *pre-sorted by
//!   [`f64::total_cmp`]* (`MEDIAN`, `MAD`, `MODE`, `ENTROPY`, `COUNT_DISTINCT`): an engine that
//!   keeps per-group sorted runs (or merges a selection out of them) calls the `*_sorted`
//!   functions and skips the per-candidate copy + sort entirely. [`CodeFreqKernel`] is the
//!   companion for dictionary-coded categorical values, counting frequencies in a dense array
//!   instead of sorting.
//!
//! Every kernel is **bit-identical** to [`AggFunc::apply`] (post ±0.0/NaN canonicalization — see
//! the [`crate::aggregate`] module docs): accumulations use the same operations in the same
//! ascending-value or ascending-row order as the reference, which the property tests in
//! `tests/proptests.rs` (this crate and the workspace root) enforce over adversarial inputs.
//! [`apply_kernel`] packages the three families behind the same slice-in/value-out signature as
//! `apply`, as the equivalence target and for callers without incremental state.

use crate::aggregate::{canonical, canonical_nan, AggFunc};

/// The kernel family that evaluates an [`AggFunc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFamily {
    /// One-pass streaming accumulator (`SUM`, `MIN`, `MAX`, `COUNT`, `AVG`).
    Stream,
    /// Two-pass streaming moments (`VAR`, `VAR_SAMPLE`, `STD`, `STD_SAMPLE`, `KURTOSIS`).
    Moment,
    /// Order statistics / frequencies over sorted values (`MEDIAN`, `MAD`, `MODE`, `ENTROPY`,
    /// `COUNT_DISTINCT`).
    OrderStat,
}

impl KernelFamily {
    /// Which family evaluates `agg`.
    pub fn of(agg: AggFunc) -> KernelFamily {
        match agg {
            AggFunc::Sum | AggFunc::Min | AggFunc::Max | AggFunc::Count | AggFunc::Avg => {
                KernelFamily::Stream
            }
            AggFunc::Var
            | AggFunc::VarSample
            | AggFunc::Std
            | AggFunc::StdSample
            | AggFunc::Kurtosis => KernelFamily::Moment,
            AggFunc::CountDistinct
            | AggFunc::Entropy
            | AggFunc::Mode
            | AggFunc::Mad
            | AggFunc::Median => KernelFamily::OrderStat,
        }
    }
}

// ---------------------------------------------------------------------------
// Moment kernels
// ---------------------------------------------------------------------------

/// Pass-2 accumulation step for the centred second moment. Must use exactly
/// `(v - mean) * (v - mean)` — the reference's operation — for bit identity.
#[inline]
pub fn accumulate_m2(m2: &mut f64, v: f64, mean: f64) {
    *m2 += (v - mean) * (v - mean);
}

/// Pass-2 accumulation step for the centred fourth moment (kurtosis only). Must use exactly
/// `(v - mean).powi(4)` — the reference's operation — for bit identity.
#[inline]
pub fn accumulate_m4(m4: &mut f64, v: f64, mean: f64) {
    *m4 += (v - mean).powi(4);
}

/// Finalize a moment aggregate from the non-null count `n`, the centred second power sum `m2`
/// and (for kurtosis) the centred fourth power sum `m4`. The caller streams: pass 1 sums the
/// values in row order and derives `mean = sum / n`; pass 2 accumulates `m2`/`m4` in the same
/// row order. Matches [`AggFunc::apply`] bit for bit, including the `n < 2 → 0.0` sample-
/// statistic convention and kurtosis' degenerate-variance cutoff.
///
/// Returns `None` for `n == 0` (NULL, like every non-count aggregate of an empty group).
pub fn moment_finalize(agg: AggFunc, n: usize, m2: f64, m4: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    let value = match agg {
        AggFunc::Var => m2 / n as f64,
        AggFunc::Std => (m2 / n as f64).sqrt(),
        AggFunc::VarSample => {
            if n < 2 {
                0.0
            } else {
                m2 / (n - 1) as f64
            }
        }
        AggFunc::StdSample => {
            if n < 2 {
                0.0
            } else {
                (m2 / (n - 1) as f64).sqrt()
            }
        }
        AggFunc::Kurtosis => {
            let var = m2 / n as f64;
            if var <= 1e-300 {
                0.0
            } else {
                (m4 / n as f64) / (var * var) - 3.0
            }
        }
        other => unreachable!("{other:?} is not a moment aggregate"),
    };
    Some(canonical_nan(value))
}

// ---------------------------------------------------------------------------
// Sorted-run order-statistic kernels
// ---------------------------------------------------------------------------
//
// Input contract for every `*_sorted` kernel: the group's non-null values sorted ascending by
// `f64::total_cmp` — the exact order the reference's `sort_by(total_cmp)` produces. In that
// order the canonical frequency classes are contiguous except NaN, which `total_cmp` splits
// into a negative-payload prefix and a positive-payload suffix; `for_each_canonical_run`
// re-unifies them as one class emitted last (canonical NaN is positive, so "last" is also its
// canonical sort position).

/// Visit the canonical frequency classes of a `total_cmp`-sorted slice as `(value, count)`, in
/// ascending canonical order with the NaN class (if any) last.
fn for_each_canonical_run(sorted: &[f64], mut f: impl FnMut(f64, usize)) {
    let nan_count = sorted.iter().filter(|v| v.is_nan()).count();
    let mut i = 0;
    while i < sorted.len() {
        if sorted[i].is_nan() {
            i += 1;
            continue;
        }
        let bits = canonical(sorted[i]).to_bits();
        let start = i;
        while i < sorted.len() && !sorted[i].is_nan() && canonical(sorted[i]).to_bits() == bits {
            i += 1;
        }
        f(f64::from_bits(bits), i - start);
    }
    if nan_count > 0 {
        f(f64::NAN, nan_count);
    }
}

/// `MEDIAN` over a `total_cmp`-sorted non-empty slice.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    let med = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    };
    canonical_nan(med)
}

/// `MAD` over a `total_cmp`-sorted non-empty slice; `dev_buf` is reusable scratch for the
/// deviations (sorting a multiset by `total_cmp` is order-independent, so taking deviations in
/// sorted-value order instead of row order yields the reference's bits).
pub fn mad_sorted(sorted: &[f64], dev_buf: &mut Vec<f64>) -> f64 {
    let med = median_sorted(sorted);
    dev_buf.clear();
    dev_buf.extend(sorted.iter().map(|v| (v - med).abs()));
    dev_buf.sort_by(|a, b| a.total_cmp(b));
    median_sorted(dev_buf)
}

/// `MODE` over a `total_cmp`-sorted non-empty slice: the most frequent canonical value, ties
/// broken towards the smallest (NaN counting as the largest).
pub fn mode_sorted(sorted: &[f64]) -> f64 {
    let mut best_val = f64::NAN;
    let mut best_count = 0usize;
    for_each_canonical_run(sorted, |v, count| {
        if count > best_count {
            best_count = count;
            best_val = v;
        }
    });
    best_val
}

/// `ENTROPY` over a `total_cmp`-sorted non-empty slice, summed in ascending canonical-value
/// order (deterministic floating-point accumulation).
pub fn entropy_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len() as f64;
    let mut total = 0.0;
    for_each_canonical_run(sorted, |_, count| {
        let p = count as f64 / n;
        total += -p * p.ln();
    });
    total
}

/// `COUNT_DISTINCT` over a `total_cmp`-sorted slice (0 for an empty slice).
pub fn count_distinct_sorted(sorted: &[f64]) -> f64 {
    let mut distinct = 0usize;
    for_each_canonical_run(sorted, |_, _| distinct += 1);
    distinct as f64
}

// ---------------------------------------------------------------------------
// Dictionary-code frequency kernel
// ---------------------------------------------------------------------------

/// Frequency kernel over dictionary codes: counts occurrences in a dense array indexed by code
/// instead of sorting values. Codes are small non-negative integers, so ascending code order
/// *is* ascending canonical value order — `MODE`/`ENTROPY`/`COUNT_DISTINCT` computed here are
/// bit-identical to the sorted-run kernels (and to [`AggFunc::apply`]) over the same codes.
///
/// The kernel is reusable: [`CodeFreqKernel::reset`] clears only the touched slots, so feeding
/// one group after another costs O(values + distinct codes) per group regardless of the
/// dictionary's cardinality.
#[derive(Debug, Default)]
pub struct CodeFreqKernel {
    counts: Vec<u32>,
    used: Vec<u32>,
    total: usize,
}

impl CodeFreqKernel {
    /// A fresh kernel (the count table grows on demand).
    pub fn new() -> CodeFreqKernel {
        CodeFreqKernel::default()
    }

    /// Count one dictionary code (a small non-negative integer stored as `f64`).
    pub fn add(&mut self, code: f64) {
        let idx = code as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        if self.counts[idx] == 0 {
            self.used.push(idx as u32);
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Number of values counted since the last reset.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no values have been counted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// `MODE`: smallest code with the maximal count (NaN for an empty kernel).
    pub fn mode(&mut self) -> f64 {
        self.used.sort_unstable();
        let mut best_val = f64::NAN;
        let mut best_count = 0u32;
        for &code in &self.used {
            let count = self.counts[code as usize];
            if count > best_count {
                best_count = count;
                best_val = code as f64;
            }
        }
        best_val
    }

    /// `ENTROPY`, summed in ascending code order.
    pub fn entropy(&mut self) -> f64 {
        self.used.sort_unstable();
        let n = self.total as f64;
        let mut total = 0.0;
        for &code in &self.used {
            let p = self.counts[code as usize] as f64 / n;
            total += -p * p.ln();
        }
        total
    }

    /// `COUNT_DISTINCT`.
    pub fn count_distinct(&self) -> f64 {
        self.used.len() as f64
    }

    /// Clear the touched counts, keeping the allocation for the next group.
    pub fn reset(&mut self) {
        for &code in &self.used {
            self.counts[code as usize] = 0;
        }
        self.used.clear();
        self.total = 0;
    }
}

// ---------------------------------------------------------------------------
// Mergeable delta accumulators (incremental ingestion)
// ---------------------------------------------------------------------------

/// Resumable one-pass state for one group of a `Stream`-family aggregate
/// (`SUM`, `MIN`, `MAX`, `COUNT`, `AVG`).
///
/// An incremental engine keeps one `StreamDelta` per group and, when new rows
/// arrive, *continues the fold* by calling [`StreamDelta::observe`] on the
/// appended values in ascending row order. Because the appended rows all come
/// after the rows already folded, the continued fold performs exactly the
/// same operations in exactly the same order as a from-scratch pass over the
/// concatenated rows — so [`StreamDelta::finalize`] is **bit-identical** to a
/// full recompute (the property tests pin it against [`apply_kernel`]).
///
/// Note the deliberate asymmetry with a tree-shaped combine: floating-point
/// addition is not associative, so merging two *finished* partial sums would
/// not reproduce the sequential fold's bits. The mergeable unit is therefore
/// (state, new values in row order), not (state, state).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamDelta {
    /// Rows observed (selected rows, null values included) — the presence
    /// count deciding group-absent (`None`) semantics.
    pub sel: u64,
    /// Values folded into `acc` (non-null; for `MIN`/`MAX` also non-NaN).
    pub nonnull: u64,
    /// The running fold value.
    pub acc: f64,
}

impl StreamDelta {
    /// Fresh state for `agg`: the fold's neutral element (`-0.0` for sums —
    /// `Iterator::sum`'s identity — and the appropriate infinity for
    /// `MIN`/`MAX`).
    pub fn new(agg: AggFunc) -> StreamDelta {
        let acc = match agg {
            AggFunc::Min => f64::INFINITY,
            AggFunc::Max => f64::NEG_INFINITY,
            AggFunc::Sum | AggFunc::Avg | AggFunc::Count => -0.0,
            other => unreachable!("{other:?} is not a streaming aggregate"),
        };
        StreamDelta {
            sel: 0,
            nonnull: 0,
            acc,
        }
    }

    /// Fold one more selected row's value (`None` = SQL NULL). Values must
    /// arrive in ascending row order across every batch for bit identity.
    #[inline]
    pub fn observe(&mut self, agg: AggFunc, value: Option<f64>) {
        self.sel += 1;
        let Some(v) = value else { return };
        match agg {
            AggFunc::Sum | AggFunc::Avg => {
                self.nonnull += 1;
                self.acc += v;
            }
            AggFunc::Count => self.nonnull += 1,
            // MIN/MAX skip NaNs so an all-NaN group finalizes to NULL.
            AggFunc::Min => {
                if !v.is_nan() {
                    self.nonnull += 1;
                    self.acc = self.acc.min(v);
                }
            }
            AggFunc::Max => {
                if !v.is_nan() {
                    self.nonnull += 1;
                    self.acc = self.acc.max(v);
                }
            }
            other => unreachable!("{other:?} is not a streaming aggregate"),
        }
    }

    /// The aggregate value at this point of the stream: `None` when the group
    /// has no selected rows (group absent) or no participating values
    /// (every non-count aggregate of an all-NULL group). Canonical-NaN
    /// pinned, like every kernel output.
    pub fn finalize(&self, agg: AggFunc) -> Option<f64> {
        if self.sel == 0 {
            return None;
        }
        let value = match agg {
            AggFunc::Count => Some(self.nonnull as f64),
            _ if self.nonnull == 0 => None,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => Some(self.acc),
            AggFunc::Avg => Some(self.acc / self.nonnull as f64),
            other => unreachable!("{other:?} is not a streaming aggregate"),
        };
        value.map(canonical_nan)
    }
}

/// Resumable pass-1 state for one group of a `Moment`-family aggregate
/// (`VAR`, `VAR_SAMPLE`, `STD`, `STD_SAMPLE`, `KURTOSIS`): the non-null count
/// and the running sum, folded in ascending row order.
///
/// Appending rows continues the sum fold bit-identically (same argument as
/// [`StreamDelta`]); pass 2 then recomputes the centred power sums over the
/// group's *full* value sequence with the new mean — the mean shifted, so the
/// centred terms of the old rows changed and cannot be reused. An append
/// therefore costs pass 2 only for the touched groups.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MomentDelta {
    /// Rows observed (selected rows, null values included).
    pub sel: u64,
    /// Non-null values folded into `sum`.
    pub nonnull: u64,
    /// The running sum (`-0.0`-seeded, `Iterator::sum`'s identity).
    pub sum: f64,
}

impl Default for MomentDelta {
    fn default() -> MomentDelta {
        MomentDelta::new()
    }
}

impl MomentDelta {
    /// Fresh (empty) pass-1 state.
    pub fn new() -> MomentDelta {
        MomentDelta {
            sel: 0,
            nonnull: 0,
            sum: -0.0,
        }
    }

    /// Fold one more selected row's value (`None` = SQL NULL), in ascending
    /// row order.
    #[inline]
    pub fn observe(&mut self, value: Option<f64>) {
        self.sel += 1;
        if let Some(v) = value {
            self.nonnull += 1;
            self.sum += v;
        }
    }

    /// The group mean pass 2 centres on — exactly `sum / n`, the reference's
    /// operation on the reference's sum bits.
    pub fn mean(&self) -> f64 {
        self.sum / self.nonnull as f64
    }
}

// ---------------------------------------------------------------------------
// Slice-level entry point
// ---------------------------------------------------------------------------

/// Evaluate `agg` over one group's non-null values through the kernel layer. Bit-identical to
/// [`AggFunc::apply`] on every input; the property tests pin the equivalence. Engines with
/// incremental per-group state (streamed sums, pre-sorted runs) call the family kernels
/// directly instead.
pub fn apply_kernel(agg: AggFunc, values: &[f64]) -> Option<f64> {
    let n = values.len();
    let result = match KernelFamily::of(agg) {
        KernelFamily::Stream => match agg {
            AggFunc::Count => Some(n as f64),
            _ if n == 0 => None,
            AggFunc::Sum => Some(values.iter().sum()),
            AggFunc::Avg => Some(values.iter().sum::<f64>() / n as f64),
            AggFunc::Min => {
                let mut acc = f64::INFINITY;
                let mut seen = false;
                for &v in values {
                    if !v.is_nan() {
                        seen = true;
                        acc = acc.min(v);
                    }
                }
                seen.then_some(acc)
            }
            AggFunc::Max => {
                let mut acc = f64::NEG_INFINITY;
                let mut seen = false;
                for &v in values {
                    if !v.is_nan() {
                        seen = true;
                        acc = acc.max(v);
                    }
                }
                seen.then_some(acc)
            }
            other => unreachable!("{other:?} is not a streaming aggregate"),
        },
        KernelFamily::Moment => {
            if n == 0 {
                return None;
            }
            let sum: f64 = values.iter().sum();
            let mean = sum / n as f64;
            let mut m2 = 0.0;
            let mut m4 = 0.0;
            for &v in values {
                accumulate_m2(&mut m2, v, mean);
            }
            if agg == AggFunc::Kurtosis {
                for &v in values {
                    accumulate_m4(&mut m4, v, mean);
                }
            }
            moment_finalize(agg, n, m2, m4)
        }
        KernelFamily::OrderStat => {
            if agg == AggFunc::CountDistinct && n == 0 {
                return Some(0.0);
            }
            if n == 0 {
                return None;
            }
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let value = match agg {
                AggFunc::Median => median_sorted(&sorted),
                AggFunc::Mad => mad_sorted(&sorted, &mut Vec::new()),
                AggFunc::Mode => mode_sorted(&sorted),
                AggFunc::Entropy => entropy_sorted(&sorted),
                AggFunc::CountDistinct => count_distinct_sorted(&sorted),
                other => unreachable!("{other:?} is not an order statistic"),
            };
            Some(value)
        }
    };
    result.map(canonical_nan)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A value palette that stresses every float-semantics edge: signed zeros, NaN payloads of
    /// both signs, infinities, and ordinary values.
    fn adversarial_values() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(f64::NAN.to_bits() ^ 1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e-300,
            3.5,
            3.5,
        ]
    }

    #[test]
    fn every_agg_func_has_exactly_one_family() {
        let mut stream = 0;
        let mut moment = 0;
        let mut order = 0;
        for &agg in AggFunc::all() {
            match KernelFamily::of(agg) {
                KernelFamily::Stream => stream += 1,
                KernelFamily::Moment => moment += 1,
                KernelFamily::OrderStat => order += 1,
            }
        }
        assert_eq!((stream, moment, order), (5, 5, 5));
    }

    #[test]
    fn apply_kernel_matches_apply_on_adversarial_slices() {
        let palette = adversarial_values();
        // Whole palette, prefixes, single elements and all-equal runs.
        let mut cases: Vec<Vec<f64>> = vec![vec![], palette.clone()];
        for len in 1..palette.len() {
            cases.push(palette[..len].to_vec());
        }
        for &v in &palette {
            cases.push(vec![v]);
            cases.push(vec![v; 4]);
        }
        for values in &cases {
            for &agg in AggFunc::all() {
                let reference = agg.apply(values);
                let kernel = apply_kernel(agg, values);
                assert_eq!(
                    reference.map(f64::to_bits),
                    kernel.map(f64::to_bits),
                    "{agg} over {values:?}: reference {reference:?} vs kernel {kernel:?}"
                );
            }
        }
    }

    #[test]
    fn sorted_kernels_match_apply_when_input_is_presorted() {
        let mut sorted = adversarial_values();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let check = |agg: AggFunc, got: f64| {
            let want = agg.apply(&sorted).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "{agg}: {got} vs {want}");
        };
        check(AggFunc::Median, median_sorted(&sorted));
        check(AggFunc::Mad, mad_sorted(&sorted, &mut Vec::new()));
        check(AggFunc::Mode, mode_sorted(&sorted));
        check(AggFunc::Entropy, entropy_sorted(&sorted));
        check(AggFunc::CountDistinct, count_distinct_sorted(&sorted));
    }

    #[test]
    fn code_freq_kernel_matches_apply_over_codes_and_resets_cleanly() {
        let groups: Vec<Vec<f64>> = vec![
            vec![2.0, 0.0, 2.0, 5.0, 0.0, 2.0],
            vec![1.0, 1.0],
            vec![7.0],
            vec![0.0, 1.0],
        ];
        let mut kernel = CodeFreqKernel::new();
        for codes in &groups {
            for &c in codes {
                kernel.add(c);
            }
            assert_eq!(kernel.len(), codes.len());
            let mode = kernel.mode();
            let entropy = kernel.entropy();
            let distinct = kernel.count_distinct();
            assert_eq!(
                mode.to_bits(),
                AggFunc::Mode.apply(codes).unwrap().to_bits()
            );
            assert_eq!(
                entropy.to_bits(),
                AggFunc::Entropy.apply(codes).unwrap().to_bits()
            );
            assert_eq!(distinct, AggFunc::CountDistinct.apply(codes).unwrap());
            kernel.reset();
            assert!(kernel.is_empty());
        }
        // An empty kernel mirrors the empty-group conventions.
        assert!(kernel.mode().is_nan());
        assert_eq!(kernel.count_distinct(), 0.0);
    }

    #[test]
    fn moment_finalize_handles_degenerate_counts() {
        assert_eq!(moment_finalize(AggFunc::Var, 0, 0.0, 0.0), None);
        assert_eq!(moment_finalize(AggFunc::VarSample, 1, 0.0, 0.0), Some(0.0));
        assert_eq!(moment_finalize(AggFunc::StdSample, 1, 0.0, 0.0), Some(0.0));
        assert_eq!(moment_finalize(AggFunc::Kurtosis, 2, 0.0, 0.0), Some(0.0));
    }

    /// A value stream with NULLs interleaved among the adversarial floats.
    fn adversarial_stream() -> Vec<Option<f64>> {
        let mut stream = Vec::new();
        for (i, v) in adversarial_values().into_iter().enumerate() {
            stream.push(Some(v));
            if i % 3 == 0 {
                stream.push(None);
            }
        }
        stream
    }

    /// Feeding a `StreamDelta` in one pass or resumed across every possible
    /// split point must finalize to the same bits as `apply_kernel` over the
    /// non-null values — the continuation property `append_relevant` rests on.
    #[test]
    fn stream_delta_continuation_is_bit_identical_to_one_pass() {
        let stream = adversarial_stream();
        for &agg in &[
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            let nonnull: Vec<f64> = stream.iter().filter_map(|v| *v).collect();
            let reference = apply_kernel(agg, &nonnull);
            for split in 0..=stream.len() {
                let mut delta = StreamDelta::new(agg);
                for v in &stream[..split] {
                    delta.observe(agg, *v);
                }
                // Resume from a copied state, as an epoch clone would.
                let mut resumed = delta;
                for v in &stream[split..] {
                    resumed.observe(agg, *v);
                }
                assert_eq!(resumed.sel as usize, stream.len());
                assert_eq!(
                    resumed.finalize(agg).map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "{agg} split at {split}"
                );
            }
        }
    }

    /// No selected rows means the group is absent (`None`); an all-NULL group
    /// is NULL for everything but COUNT, which reports zero.
    #[test]
    fn stream_delta_empty_and_all_null_conventions() {
        for &agg in &[
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            assert_eq!(StreamDelta::new(agg).finalize(agg), None, "{agg} empty");
            let mut delta = StreamDelta::new(agg);
            delta.observe(agg, None);
            delta.observe(agg, None);
            let want = if agg == AggFunc::Count {
                Some(0.0)
            } else {
                None
            };
            assert_eq!(delta.finalize(agg), want, "{agg} all-null");
        }
        // MIN/MAX treat NaN like NULL: an all-NaN group stays absent-valued.
        for &agg in &[AggFunc::Min, AggFunc::Max] {
            let mut delta = StreamDelta::new(agg);
            delta.observe(agg, Some(f64::NAN));
            assert_eq!(delta.finalize(agg), None, "{agg} all-NaN");
        }
    }

    /// The pass-1 sum fold continues bit-identically across splits, and the
    /// mean it yields drives `accumulate_m2`/`moment_finalize` to the same
    /// bits as the one-shot kernel.
    #[test]
    fn moment_delta_pass1_continuation_is_bit_identical() {
        let stream: Vec<Option<f64>> = adversarial_stream()
            .into_iter()
            .filter(|v| !matches!(v, Some(x) if x.is_nan() || x.is_infinite()))
            .collect();
        let nonnull: Vec<f64> = stream.iter().filter_map(|v| *v).collect();
        for &agg in &[
            AggFunc::Var,
            AggFunc::VarSample,
            AggFunc::Std,
            AggFunc::StdSample,
            AggFunc::Kurtosis,
        ] {
            let reference = apply_kernel(agg, &nonnull);
            for split in 0..=stream.len() {
                let mut delta = MomentDelta::new();
                for v in &stream[..split] {
                    delta.observe(*v);
                }
                let mut resumed = delta;
                for v in &stream[split..] {
                    resumed.observe(*v);
                }
                // Pass 2 over the full value sequence with the continued mean.
                let mean = resumed.mean();
                let (mut m2, mut m4) = (0.0, 0.0);
                for &v in &nonnull {
                    accumulate_m2(&mut m2, v, mean);
                    if agg == AggFunc::Kurtosis {
                        accumulate_m4(&mut m4, v, mean);
                    }
                }
                let got = moment_finalize(agg, resumed.nonnull as usize, m2, m4);
                assert_eq!(
                    got.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "{agg} split at {split}"
                );
            }
        }
    }
}
