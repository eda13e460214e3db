//! Block normalization schemes (paper §3.1, final HOG stage).
//!
//! Normalization across groups of adjacent cells ("blocks") suppresses
//! local brightness and contrast variation. Dalal & Triggs evaluated four
//! schemes; L2-Hys is the standard choice for pedestrians and the paper's
//! default.

/// Block normalization scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NormKind {
    /// `v / (||v||_1 + eps)`.
    L1 { epsilon: f32 },
    /// `sqrt(v / (||v||_1 + eps))`.
    L1Sqrt { epsilon: f32 },
    /// `v / sqrt(||v||_2² + eps²)`.
    L2 { epsilon: f32 },
    /// L2, clip every component at `clip`, renormalize (Dalal's L2-Hys).
    L2Hys { epsilon: f32, clip: f32 },
}

impl Default for NormKind {
    /// L2-Hys with the standard `eps = 1e-2` (relative to unit-scale
    /// energies) and `clip = 0.2`.
    fn default() -> Self {
        NormKind::L2Hys {
            epsilon: 1e-2,
            clip: 0.2,
        }
    }
}

impl NormKind {
    /// Normalizes `v` in place according to the scheme.
    ///
    /// All schemes are scale-covariant up to the epsilon regularizer and
    /// leave an all-zero vector all-zero.
    pub fn normalize(&self, v: &mut [f32]) {
        self.normalize_lanes(v.as_chunks_mut::<1>().0);
    }

    /// Normalizes `L` vectors at once: `v[k][lane]` is element `k` of
    /// vector `lane`.
    ///
    /// Every lane runs exactly the arithmetic of [`NormKind::normalize`]
    /// (which is this function with one lane): the same sequential sums in
    /// the same order, so each lane's result is bit-identical to
    /// normalizing that vector alone. What changes is that the `L` add
    /// chains run side by side in packed registers instead of one after
    /// another.
    pub(crate) fn normalize_lanes<const L: usize>(&self, v: &mut [[f32; L]]) {
        match *self {
            NormKind::L1 { epsilon } => {
                let norm = lane_sums(v, f32::abs).map(|s| s + epsilon);
                lane_map(v, norm, |x, n| x / n);
            }
            NormKind::L1Sqrt { epsilon } => {
                let norm = lane_sums(v, f32::abs).map(|s| s + epsilon);
                lane_map(v, norm, |x, n| (x / n).max(0.0).sqrt());
            }
            NormKind::L2 { epsilon } => {
                let norm = lane_sums(v, |x| x * x).map(|s| (s + epsilon * epsilon).sqrt());
                lane_map(v, norm, |x, n| x / n);
            }
            NormKind::L2Hys { epsilon, clip } => {
                let norm = lane_sums(v, |x| x * x).map(|s| (s + epsilon * epsilon).sqrt());
                lane_map(v, norm, |x, n| (x / n).min(clip));
                let norm2 = lane_sums(v, |x| x * x).map(|s| (s + epsilon * epsilon).sqrt());
                lane_map(v, norm2, |x, n| x / n);
            }
        }
    }

    /// Returns a normalized copy of `v`.
    #[must_use]
    pub fn normalized(&self, v: &[f32]) -> Vec<f32> {
        let mut out = v.to_vec();
        self.normalize(&mut out);
        out
    }
}

/// Per-lane left fold of `term(x)` over the elements, in element order —
/// the order of `v.iter().map(term).sum::<f32>()` on one vector.
fn lane_sums<const L: usize>(v: &[[f32; L]], term: impl Fn(f32) -> f32) -> [f32; L] {
    let mut acc = [-0.0f32; L];
    for x in v {
        for l in 0..L {
            acc[l] += term(x[l]);
        }
    }
    acc
}

/// Replaces every element `x` of lane `l` with `f(x, norm[l])`.
fn lane_map<const L: usize>(v: &mut [[f32; L]], norm: [f32; L], f: impl Fn(f32, f32) -> f32) {
    for x in v {
        for l in 0..L {
            x[l] = f(x[l], norm[l]);
        }
    }
}

/// Gathers the `block_cells x block_cells` cell histograms with block origin
/// `(bx, by)` from a cell-major histogram buffer and returns the normalized
/// block feature vector.
///
/// `histograms` is indexed as `histograms[(cy * cells_x + cx) * bins ..]`.
///
/// # Panics
///
/// Panics if the block extends past the grid.
#[must_use]
#[allow(clippy::too_many_arguments)] // grid geometry + block origin + style
pub fn block_feature(
    histograms: &[f32],
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    bx: usize,
    by: usize,
    block_cells: usize,
    norm: NormKind,
) -> Vec<f32> {
    assert!(
        bx + block_cells <= cells_x && by + block_cells <= cells_y,
        "block out of bounds"
    );
    let mut v = Vec::with_capacity(block_cells * block_cells * bins);
    for dy in 0..block_cells {
        for dx in 0..block_cells {
            let base = ((by + dy) * cells_x + (bx + dx)) * bins;
            v.extend_from_slice(&histograms[base..base + bins]);
        }
    }
    norm.normalize(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2(v: &[f32]) -> f32 {
        v.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// The one-vector-at-a-time bodies `normalize` ran before the lanes.
    fn normalize_reference(kind: NormKind, v: &mut [f32]) {
        match kind {
            NormKind::L1 { epsilon } => {
                let norm: f32 = v.iter().map(|x| x.abs()).sum::<f32>() + epsilon;
                for x in v.iter_mut() {
                    *x /= norm;
                }
            }
            NormKind::L1Sqrt { epsilon } => {
                let norm: f32 = v.iter().map(|x| x.abs()).sum::<f32>() + epsilon;
                for x in v.iter_mut() {
                    *x = (*x / norm).max(0.0).sqrt();
                }
            }
            NormKind::L2 { epsilon } => {
                let norm = (v.iter().map(|x| x * x).sum::<f32>() + epsilon * epsilon).sqrt();
                for x in v.iter_mut() {
                    *x /= norm;
                }
            }
            NormKind::L2Hys { epsilon, clip } => {
                let norm = (v.iter().map(|x| x * x).sum::<f32>() + epsilon * epsilon).sqrt();
                for x in v.iter_mut() {
                    *x = (*x / norm).min(clip);
                }
                let norm2 = (v.iter().map(|x| x * x).sum::<f32>() + epsilon * epsilon).sqrt();
                for x in v.iter_mut() {
                    *x /= norm2;
                }
            }
        }
    }

    rtped_core::check! {
        #![cases = 256]
        fn lanes_match_one_vector_at_a_time(
            values in rtped_core::check::vec_of(-2.0f32..60.0, 8 * 36),
            zeros in rtped_core::check::vec_of(0usize..8, 0..=3),
            kind in rtped_core::check::choice(vec![
                NormKind::L1 { epsilon: 1e-2 },
                NormKind::L1Sqrt { epsilon: 1e-2 },
                NormKind::L2 { epsilon: 1e-2 },
                NormKind::default(),
            ]),
        ) {
            // Lane l holds values[l*36..]; the lanes in `zeros` are all
            // zero (empty blocks), the rest are clipped at zero in places.
            let vector = |l: usize| -> Vec<f32> {
                let v = &values[l * 36..(l + 1) * 36];
                v.iter().map(|&x| if zeros.contains(&l) { 0.0 } else { x.max(0.0) }).collect()
            };
            let vectors: Vec<Vec<f32>> = (0..8).map(vector).collect();
            let mut lanes: Vec<[f32; 8]> =
                (0..36).map(|k| std::array::from_fn(|l| vectors[l][k])).collect();
            kind.normalize_lanes(&mut lanes);
            for l in 0..8 {
                let mut want = vector(l);
                normalize_reference(kind, &mut want);
                let mut one = vector(l);
                kind.normalize(&mut one);
                let got: Vec<u32> = lanes.iter().map(|x| x[l].to_bits()).collect();
                let want: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
                let one: Vec<u32> = one.iter().map(|x| x.to_bits()).collect();
                rtped_core::check_assert_eq!(&got, &want, "lane {}", l);
                rtped_core::check_assert_eq!(&one, &want);
            }
        }
    }

    fn sample() -> Vec<f32> {
        vec![3.0, 4.0, 0.0, 1.0, 2.0, 0.5, 0.0, 0.0, 1.5]
    }

    #[test]
    fn l2_normalized_has_near_unit_norm() {
        let mut v = sample();
        NormKind::L2 { epsilon: 1e-3 }.normalize(&mut v);
        assert!((l2(&v) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn l1_normalized_sums_to_one() {
        let mut v = sample();
        NormKind::L1 { epsilon: 1e-3 }.normalize(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3);
    }

    #[test]
    fn l1_sqrt_components_are_sqrt_of_l1() {
        let v = sample();
        let l1 = NormKind::L1 { epsilon: 1e-3 }.normalized(&v);
        let l1s = NormKind::L1Sqrt { epsilon: 1e-3 }.normalized(&v);
        for (a, b) in l1.iter().zip(&l1s) {
            assert!((a.max(0.0).sqrt() - b).abs() < 1e-5);
        }
    }

    #[test]
    fn l2hys_clips_dominant_components() {
        // One huge component: after L2-Hys it must not exceed clip by much
        // (the renormalization can push it slightly above clip/norm2 but
        // never above clip / (clip) = 1; check against plain L2 instead).
        let mut v = vec![100.0, 1.0, 1.0, 1.0];
        let norm = NormKind::L2Hys {
            epsilon: 1e-3,
            clip: 0.2,
        };
        norm.normalize(&mut v);
        // Clipping caps the dominant component's share *before* the second
        // normalization, so the small components gain relative weight: the
        // small/large ratio grows from 0.01 (plain L2) to ~0.05.
        let plain = NormKind::L2 { epsilon: 1e-3 }.normalized(&[100.0, 1.0, 1.0, 1.0]);
        assert!(v[1] / v[0] > 3.0 * plain[1] / plain[0]);
        assert!(v[0] <= 1.0 + 1e-5);
        assert!((l2(&v) - 1.0).abs() < 0.05);
    }

    #[test]
    fn all_schemes_leave_zero_vector_zero() {
        for norm in [
            NormKind::L1 { epsilon: 1e-2 },
            NormKind::L1Sqrt { epsilon: 1e-2 },
            NormKind::L2 { epsilon: 1e-2 },
            NormKind::default(),
        ] {
            let mut v = vec![0.0f32; 9];
            norm.normalize(&mut v);
            assert!(v.iter().all(|&x| x == 0.0), "{norm:?} created energy");
        }
    }

    #[test]
    fn normalization_is_scale_invariant_for_large_inputs() {
        // For inputs far above epsilon, scaling the input must not change
        // the output.
        let v1: Vec<f32> = sample().iter().map(|x| x * 100.0).collect();
        let v2: Vec<f32> = sample().iter().map(|x| x * 500.0).collect();
        for norm in [
            NormKind::L1 { epsilon: 1e-2 },
            NormKind::L2 { epsilon: 1e-2 },
            NormKind::default(),
        ] {
            let n1 = norm.normalized(&v1);
            let n2 = norm.normalized(&v2);
            for (a, b) in n1.iter().zip(&n2) {
                assert!((a - b).abs() < 1e-3, "{norm:?} not scale invariant");
            }
        }
    }

    #[test]
    fn default_is_l2hys_with_standard_constants() {
        match NormKind::default() {
            NormKind::L2Hys { epsilon, clip } => {
                assert!((clip - 0.2).abs() < 1e-9);
                assert!(epsilon > 0.0);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn block_feature_gathers_four_cells() {
        // 3x3 grid of 2-bin histograms; block at (1,1) covers cells
        // (1,1),(2,1),(1,2),(2,2).
        let bins = 2;
        let mut hist = vec![0.0f32; 9 * bins];
        for (i, h) in hist.chunks_exact_mut(bins).enumerate() {
            h[0] = i as f32;
            h[1] = 10.0 + i as f32;
        }
        let block = block_feature(&hist, 3, 3, bins, 1, 1, 2, NormKind::L2 { epsilon: 0.0 });
        assert_eq!(block.len(), 8);
        // Unnormalized gathered order: cells 4, 5, 7, 8.
        let raw: Vec<f32> = vec![4.0, 14.0, 5.0, 15.0, 7.0, 17.0, 8.0, 18.0];
        let norm = l2(&raw);
        for (b, r) in block.iter().zip(&raw) {
            assert!((b - r / norm).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "block out of bounds")]
    fn block_feature_checks_bounds() {
        let hist = vec![0.0f32; 9 * 2];
        let _ = block_feature(&hist, 3, 3, 2, 2, 2, 2, NormKind::default());
    }
}
