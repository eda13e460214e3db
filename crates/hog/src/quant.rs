//! Fixed-point feature storage and the integer scoring kernel of the i16
//! datapath — the CPU mirror of the paper's fixed-point hardware MACs.
//!
//! This module is **integer-only by construction**: it never names a
//! floating-point type, and `rtped-lint` enforces that (rule
//! `FLOAT_IN_QUANT_KERNEL`). All float → integer conversion happens at the
//! designated boundaries — `FeatureMap::quantize_rows_into` for features
//! and `rtped_svm::QuantModel` for weights — so every arithmetic operation
//! here is exact two's-complement integer math. That is what makes the
//! i16 path bit-reproducible across hosts, compilers, and thread counts:
//! integer addition is associative, so any evaluation order of the window
//! sum yields the same bits.
//!
//! ## Overflow contract
//!
//! Features are clamped to `±2^FEATURE_FRAC_BITS` at the quantization
//! boundary. Weights must satisfy
//! `max|w| * 2^FEATURE_FRAC_BITS * row_len < 2^31` (enforced by
//! `QuantModel`'s scale selection), so one window row's dot product fits
//! an `i32` without wrapping; rows are then reduced in `i64`, which has
//! headroom for billions of rows.
//!
//! ## Kernels
//!
//! `score_window_row` runs one of two row kernels, chosen per call:
//!
//! - an AVX2 kernel (`vpmaddwd` + `vpaddd`, 16 terms per step) when
//!   `is_x86_feature_detected!("avx2")` holds;
//! - otherwise a portable kernel: 16 lane-wise `i32` accumulators over
//!   fixed-width chunks, which LLVM vectorizes for the baseline target
//!   (SSE2 on x86-64; aarch64 takes this kernel too).
//!
//! Both finish with a scalar tail, so any row length works. Every lane
//! and every `vpmaddwd` pair adds a subset of one row's terms, and the
//! contract bounds the whole row's `Σ|w|·|v|` below `2^31`, so no partial
//! sum wraps: both kernels return the bits of the plain scalar loop kept
//! as the golden kernel in this module's tests.

use std::ops::Range;

/// Fraction bits of quantized features (Q12: unit value = 4096).
///
/// Chosen two bits above the ~Q10 floor where the PR-4 quantization
/// ablation first shows accuracy drift, while leaving i32 headroom for
/// 288-term rows at useful weight precision.
pub const FEATURE_FRAC_BITS: u32 = 12;

/// Cell-major `i16` feature plane — the quantized twin of `FeatureMap`,
/// with the identical layout
/// `data[(cy * cells_x + cx) * 4 * bins + role * bins + bin]`
/// so each window row the scoring kernel reads is one contiguous,
/// stride-1 `i16` dot product (see the module's kernels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantFeatureMap {
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    data: Vec<i16>,
}

impl QuantFeatureMap {
    /// Creates a zeroed map of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(cells_x: usize, cells_y: usize, bins: usize) -> Self {
        assert!(cells_x > 0 && cells_y > 0 && bins > 0, "empty feature map");
        Self {
            cells_x,
            cells_y,
            bins,
            data: vec![0i16; cells_x * cells_y * 4 * bins],
        }
    }

    /// Grid size `(cells_x, cells_y)`.
    #[must_use]
    pub fn cells(&self) -> (usize, usize) {
        (self.cells_x, self.cells_y)
    }

    /// Orientation bin count per role.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Features per cell (`4 * bins`).
    #[must_use]
    pub fn cell_features(&self) -> usize {
        4 * self.bins
    }

    /// Borrows the raw quantized buffer (cell-major).
    #[must_use]
    pub fn as_raw(&self) -> &[i16] {
        &self.data
    }

    /// Mutably borrows the data of cell rows `rows` (the quantization
    /// boundary writes through this).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is out of bounds.
    pub fn rows_mut(&mut self, rows: Range<usize>) -> &mut [i16] {
        assert!(rows.end <= self.cells_y, "cell rows out of bounds");
        let row_len = self.cells_x * 4 * self.bins;
        &mut self.data[rows.start * row_len..rows.end * row_len]
    }

    /// Scores every window of window-row `cy`: window `col` spans cells
    /// `(col * stride .. col * stride + wc, cy .. cy + hc)` and its raw
    /// integer decision value (feature Q-bits times weight Q-bits, no bias)
    /// is written to `out[col]`.
    ///
    /// Each window row is a contiguous `wc * 4 * bins`-term i16 dot
    /// product accumulated in `i32` lanes by the AVX2 or the portable
    /// kernel — exact under the module's overflow contract — and rows
    /// reduce in `i64`. Being all-integer, the result is identical for any
    /// kernel, host, band split or thread count.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != hc * wc * 4 * bins`, if `out` is
    /// shorter than `cols`, or if any window exceeds the map bounds.
    #[allow(clippy::too_many_arguments)] // bare window geometry, kept flat for the hot path
    pub fn score_window_row(
        &self,
        weights: &[i16],
        wc: usize,
        hc: usize,
        cy: usize,
        cols: usize,
        stride: usize,
        out: &mut [i64],
    ) {
        let row_len = wc * self.cell_features();
        assert_eq!(weights.len(), hc * row_len, "weight length mismatch");
        assert!(out.len() >= cols, "output buffer too short");
        assert!(cy + hc <= self.cells_y, "window rows out of bounds");
        assert!(
            cols == 0 || (cols - 1) * stride + wc <= self.cells_x,
            "window columns out of bounds"
        );
        let out = &mut out[..cols];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `is_x86_feature_detected!` just confirmed AVX2 on
            // this CPU, which is the only requirement of the
            // `#[target_feature]` function; its slicing stays inside the
            // bounds asserted above.
            unsafe { self.scan_avx2(weights, wc, hc, cy, stride, out) };
            return;
        }
        self.scan(weights, wc, hc, cy, stride, out, dot_row);
    }

    /// The window walk shared by both kernels: `dot` is one window row's
    /// `wc * 4 * bins`-term dot product, and each window's rows add up in
    /// `i64`. Weight rows go outermost, so one weight row and one feature
    /// row stay in L1 while every window of the row reads them. Callers
    /// have asserted the window bounds.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // as `score_window_row`, plus the row kernel
    fn scan(
        &self,
        weights: &[i16],
        wc: usize,
        hc: usize,
        cy: usize,
        stride: usize,
        out: &mut [i64],
        dot: impl Fn(&[i16], &[i16]) -> i32,
    ) {
        let f = self.cell_features();
        let row_len = wc * f;
        let feature_row = self.cells_x * f;
        out.fill(0);
        for dy in 0..hc {
            let wrow = &weights[dy * row_len..(dy + 1) * row_len];
            let base = (cy + dy) * feature_row;
            let frows = &self.data[base..base + feature_row];
            for (col, o) in out.iter_mut().enumerate() {
                let start = col * stride * f;
                let frow = &frows[start..start + row_len];
                *o = o.wrapping_add(i64::from(dot(wrow, frow)));
            }
        }
    }

    /// [`Self::scan`] with the AVX2 row kernel inlined. Calling it from
    /// code without AVX2 enabled is `unsafe`: the caller must have
    /// detected AVX2 at run time.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn scan_avx2(
        &self,
        weights: &[i16],
        wc: usize,
        hc: usize,
        cy: usize,
        stride: usize,
        out: &mut [i64],
    ) {
        self.scan(weights, wc, hc, cy, stride, out, |w, v| dot_row_avx2(w, v));
    }
}

/// SIMD width of the row kernels, in `i16` terms (one 256-bit register).
const LANES: usize = 16;

/// One multiply-accumulate of the row kernels. The wrapping forms are
/// exact under the module's overflow contract: every lane or pair sum
/// adds a subset of one window row's terms, and the contract bounds the
/// sum of `|w|·|v|` over the whole row below `2^31`. Outside the contract
/// the two kernels still agree, since wrapping addition is associative.
#[inline(always)]
fn mac(acc: i32, (&w, &v): (&i16, &i16)) -> i32 {
    acc.wrapping_add(i32::from(w).wrapping_mul(i32::from(v)))
}

/// Portable row kernel: `LANES` lane-wise `i32` accumulators over
/// fixed-width chunks (a shape LLVM vectorizes on any target), then a
/// scalar tail for row lengths that are not a multiple of `LANES`.
#[inline(always)]
fn dot_row(w: &[i16], v: &[i16]) -> i32 {
    let (wc, vc) = (w.chunks_exact(LANES), v.chunks_exact(LANES));
    let tail = wc.remainder().iter().zip(vc.remainder()).fold(0, mac);
    let mut lanes = [0i32; LANES];
    for (w16, v16) in wc.zip(vc) {
        for (l, wv) in lanes.iter_mut().zip(w16.iter().zip(v16)) {
            *l = mac(*l, wv);
        }
    }
    lanes.iter().fold(tail, |s, &l| s.wrapping_add(l))
}

/// AVX2 row kernel: `vpmaddwd` multiplies 16 `i16` pairs and adds
/// adjacent products into 8 `i32` lanes; `vpaddd` accumulates them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn dot_row_avx2(w: &[i16], v: &[i16]) -> i32 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_extracti128_si256,
        _mm256_loadu_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_shuffle_epi32,
    };
    let (wc, vc) = (w.chunks_exact(LANES), v.chunks_exact(LANES));
    let tail = wc.remainder().iter().zip(vc.remainder()).fold(0, mac);
    let mut acc = _mm256_setzero_si256();
    for (w16, v16) in wc.zip(vc) {
        // SAFETY: each chunk holds exactly `LANES` i16s, i.e. the 32 bytes
        // one unaligned 256-bit load reads; AVX2 is enabled on this
        // function and was runtime-detected by its only caller.
        let (a, b) = unsafe {
            (
                _mm256_loadu_si256(w16.as_ptr().cast::<__m256i>()),
                _mm256_loadu_si256(v16.as_ptr().cast::<__m256i>()),
            )
        };
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
    }
    let s = _mm_add_epi32(
        _mm256_castsi256_si128(acc),
        _mm256_extracti128_si256::<1>(acc),
    );
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01_00_11_10>(s));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b10_11_00_01>(s));
    _mm_cvtsi128_si32(s).wrapping_add(tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_map_is_zeroed() {
        let q = QuantFeatureMap::new(3, 4, 9);
        assert_eq!(q.cells(), (3, 4));
        assert_eq!(q.cell_features(), 36);
        assert!(q.as_raw().iter().all(|&v| v == 0));
    }

    #[test]
    fn rows_mut_spans_exactly_the_requested_rows() {
        let mut q = QuantFeatureMap::new(2, 3, 9);
        q.rows_mut(1..2).fill(7);
        let row_len = 2 * 36;
        let raw = q.as_raw();
        assert!(raw[..row_len].iter().all(|&v| v == 0));
        assert!(raw[row_len..2 * row_len].iter().all(|&v| v == 7));
        assert!(raw[2 * row_len..].iter().all(|&v| v == 0));
    }

    #[test]
    fn score_window_row_matches_naive_dot() {
        // 4x3-cell map, 2x2-cell window, stride 1: 3 columns.
        let mut q = QuantFeatureMap::new(4, 3, 9);
        for (i, v) in q.rows_mut(0..3).iter_mut().enumerate() {
            *v = (i % 31) as i16 - 15;
        }
        let f = q.cell_features();
        let (wc, hc) = (2usize, 2usize);
        let weights: Vec<i16> = (0..hc * wc * f).map(|i| (i % 23) as i16 - 11).collect();
        let mut out = vec![0i64; 3];
        q.score_window_row(&weights, wc, hc, 1, 3, 1, &mut out);
        for (col, &got) in out.iter().enumerate() {
            let mut want: i64 = 0;
            for dy in 0..hc {
                for dx in 0..wc {
                    for k in 0..f {
                        let v = q.as_raw()[((1 + dy) * 4 + col + dx) * f + k];
                        let w = weights[(dy * wc + dx) * f + k];
                        want += i64::from(v) * i64::from(w);
                    }
                }
            }
            assert_eq!(got, want, "column {col}");
        }
    }

    /// The pre-SIMD scalar loop, kept as the golden kernel. Plain `+=`
    /// and `*`, so a debug build panics if any input overflows `i32`.
    #[allow(clippy::too_many_arguments)]
    fn golden(
        q: &QuantFeatureMap,
        weights: &[i16],
        wc: usize,
        hc: usize,
        cy: usize,
        cols: usize,
        stride: usize,
        out: &mut [i64],
    ) {
        let f = q.cell_features();
        let row_len = wc * f;
        let gx = q.cells_x;
        for (col, o) in out.iter_mut().take(cols).enumerate() {
            let cx = col * stride;
            let mut total: i64 = 0;
            for dy in 0..hc {
                let base = ((cy + dy) * gx + cx) * f;
                let frow = &q.data[base..base + row_len];
                let wrow = &weights[dy * row_len..(dy + 1) * row_len];
                let mut acc: i32 = 0;
                for (&w, &v) in wrow.iter().zip(frow) {
                    acc += i32::from(w) * i32::from(v);
                }
                total = total.wrapping_add(i64::from(acc));
            }
            *o = total;
        }
    }

    /// `QuantModel`'s weight bound for `row_len`-term rows.
    fn weight_limit(row_len: usize) -> i16 {
        let bound = i64::from(i32::MAX) / ((1i64 << FEATURE_FRAC_BITS) * row_len as i64);
        bound.min(i64::from(i16::MAX)) as i16
    }

    /// Asserts that the portable kernel, the AVX2 kernel (when this CPU
    /// has AVX2) and the dispatching entry point all return the golden
    /// kernel's scores for every window of row `cy`, and returns them.
    fn assert_kernels_match_golden(
        q: &QuantFeatureMap,
        weights: &[i16],
        (wc, hc, cy, cols, stride): (usize, usize, usize, usize, usize),
    ) -> Vec<i64> {
        let mut want = vec![0i64; cols];
        golden(q, weights, wc, hc, cy, cols, stride, &mut want);
        let mut got = vec![0i64; cols];
        q.scan(weights, wc, hc, cy, stride, &mut got, dot_row);
        assert_eq!(got, want, "portable kernel");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            got.fill(0);
            // SAFETY: AVX2 was detected just above; the geometry is the
            // one the golden kernel just scanned in bounds.
            unsafe { q.scan_avx2(weights, wc, hc, cy, stride, &mut got) };
            assert_eq!(got, want, "AVX2 kernel");
        }
        got.fill(0);
        q.score_window_row(weights, wc, hc, cy, cols, stride, &mut got);
        assert_eq!(got, want, "dispatched kernel");
        want
    }

    rtped_core::check! {
        #![cases = 96]
        fn kernels_are_bit_identical_to_golden(
            bins in rtped_core::check::choice(vec![4usize, 6, 9]),
            wc in 1..=10usize,
            hc in 1..=10usize,
            stride in 1..=3usize,
            cols in 0..=5usize,
            seed in 0..u64::MAX,
        ) {
            use rtped_core::rng::{Rng, SeedRng};
            let mut rng = SeedRng::seed_from_u64(seed);
            let cy = rng.gen_range(0..=2usize);
            let cells_x = cols.saturating_sub(1) * stride + wc + rng.gen_range(0..=2usize);
            let cells_y = hc + cy + rng.gen_range(0..=1usize);
            let mut q = QuantFeatureMap::new(cells_x, cells_y, bins);
            let fmax: i16 = 1 << FEATURE_FRAC_BITS;
            let wmax = weight_limit(wc * 4 * bins);
            // A quarter of the terms sit at the contract's extremes.
            let mut draw = |m: i16| match rng.gen_range(0..8u32) {
                0 => m,
                1 => -m,
                _ => rng.gen_range(-m..=m),
            };
            for v in q.rows_mut(0..cells_y) {
                *v = draw(fmax);
            }
            let weights: Vec<i16> = (0..hc * wc * 4 * bins).map(|_| draw(wmax)).collect();
            assert_kernels_match_golden(&q, &weights, (wc, hc, cy, cols, stride));
        }
    }

    #[test]
    fn kernels_match_golden_at_the_contract_extremes() {
        // Features at ±4096 and weights at ±limit, signed so every product
        // has the same sign: |row dot| = limit · 4096 · row_len, the
        // largest the overflow contract admits.
        let fmax: i16 = 1 << FEATURE_FRAC_BITS;
        for bins in [4, 6, 9] {
            for wc in 1..=10 {
                let (hc, cols) = (3, 4);
                let mut q = QuantFeatureMap::new(cols + wc - 1, hc, bins);
                let wmax = weight_limit(wc * 4 * bins);
                for (i, v) in q.rows_mut(0..hc).iter_mut().enumerate() {
                    *v = if i % 3 == 0 { -fmax } else { fmax };
                }
                for sign in [1, -1] {
                    // Window column 0 sees the same sign pattern as the
                    // weights; the other columns sit at shifted phases.
                    let weights: Vec<i16> = (0..hc * wc * 4 * bins)
                        .map(|i| {
                            let row = i / (wc * 4 * bins);
                            let v =
                                q.as_raw()[row * (cols + wc - 1) * 4 * bins + i % (wc * 4 * bins)];
                            sign * v.signum() * wmax
                        })
                        .collect();
                    let out = assert_kernels_match_golden(&q, &weights, (wc, hc, 0, cols, 1));
                    let row_max = i64::from(wmax) * i64::from(fmax) * (wc * 4 * bins) as i64;
                    assert_eq!(out[0], i64::from(sign) * row_max * hc as i64);
                    assert!(row_max <= i64::from(i32::MAX));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "weight length mismatch")]
    fn score_checks_weight_length() {
        let q = QuantFeatureMap::new(4, 3, 9);
        let mut out = vec![0i64; 1];
        q.score_window_row(&[0i16; 10], 2, 2, 0, 1, 1, &mut out);
    }
}
