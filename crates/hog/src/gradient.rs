//! Image gradients: magnitude and orientation planes (paper eqs. 1–2).

use std::sync::OnceLock;

use rtped_image::GrayImage;

/// Width of one axis of the gradient lookup table: centered differences of
/// 8-bit pixels land in `[-255, 255]`, i.e. 511 distinct values per axis.
pub(crate) const GRAD_LUT_SPAN: usize = 511;

/// Precomputed magnitude/orientation for every centered-difference pair
/// `(fx, fy) ∈ [-255, 255]²`.
///
/// The differences of 8-bit pixels are exact small integers, so `sqrt` and
/// `atan2` are functions of at most 511 × 511 inputs. Each table entry is
/// computed with the *identical* `f32` expressions the scalar path uses,
/// which makes LUT results bit-identical to direct evaluation — this is a
/// speed optimization only, not an approximation (and it mirrors the
/// CORDIC-free arctan tables real HOG accelerators ship).
pub(crate) struct GradLut {
    pub(crate) mag: Vec<f32>,
    pub(crate) ang: Vec<f32>,
}

impl GradLut {
    /// Table index for the integer difference pair `(fx, fy)`.
    #[inline]
    pub(crate) const fn index(fx: i32, fy: i32) -> usize {
        ((fy + 255) * GRAD_LUT_SPAN as i32 + (fx + 255)) as usize
    }

    fn build(signed: bool) -> GradLut {
        let mut mag = vec![0.0f32; GRAD_LUT_SPAN * GRAD_LUT_SPAN];
        let mut ang = vec![0.0f32; GRAD_LUT_SPAN * GRAD_LUT_SPAN];
        for fy in -255i32..=255 {
            for fx in -255i32..=255 {
                let idx = Self::index(fx, fy);
                (mag[idx], ang[idx]) = magnitude_orientation(fx, fy, signed);
            }
        }
        GradLut { mag, ang }
    }
}

/// Magnitude and folded orientation of the integer difference pair
/// `(fx, fy)`: exactly the scalar path's arithmetic, integer-valued `f32`
/// inputs through the same `sqrt`/`atan2`/[`fold_angle`] expressions.
/// Every gradient table is built from this one function.
pub(crate) fn magnitude_orientation(fx: i32, fy: i32, signed: bool) -> (f32, f32) {
    let fxf = fx as f32;
    let fyf = fy as f32;
    (
        (fxf * fxf + fyf * fyf).sqrt(),
        fold_angle(fyf.atan2(fxf), signed),
    )
}

/// The gradient-table index of a zero gradient (`fx == fy == 0`), the one
/// pixel class that casts no vote.
pub(crate) const ZERO_GRADIENT: u32 = GradLut::index(0, 0) as u32;

/// Writes the gradient-table index ([`GradLut::index`]) of every pixel of
/// row `y` of the `w × h` image `raw` into `out[..w]`.
///
/// Centered differences clamp at the image border. The two border columns
/// are handled once here, so the interior loop carries no per-pixel
/// `saturating_sub`/`min` and compiles to packed integer arithmetic.
pub(crate) fn row_indices(raw: &[u8], w: usize, h: usize, y: usize, out: &mut [u32]) {
    let row = &raw[y * w..(y + 1) * w];
    let up = &raw[y.saturating_sub(1) * w..][..w];
    let dn = &raw[(h - 1).min(y + 1) * w..][..w];
    let out = &mut out[..w];
    let index = |fx: i32, x: usize| {
        let fy = i32::from(dn[x]) - i32::from(up[x]);
        GradLut::index(fx, fy) as u32
    };
    if w == 1 {
        out[0] = index(0, 0);
        return;
    }
    out[0] = index(i32::from(row[1]) - i32::from(row[0]), 0);
    out[w - 1] = index(i32::from(row[w - 1]) - i32::from(row[w - 2]), w - 1);
    let interior = out[1..w - 1]
        .iter_mut()
        .zip(row[2..].iter().zip(&row[..w - 2]))
        .zip(dn[1..].iter().zip(&up[1..]));
    for ((o, (&r, &l)), (&d, &u)) in interior {
        let fx = i32::from(r) - i32::from(l);
        let fy = i32::from(d) - i32::from(u);
        *o = GradLut::index(fx, fy) as u32;
    }
}

/// The process-wide gradient tables, one per orientation convention,
/// built lazily on first use (~4 ms, amortized over every frame).
pub(crate) fn grad_lut(signed: bool) -> &'static GradLut {
    static UNSIGNED: OnceLock<GradLut> = OnceLock::new();
    static SIGNED: OnceLock<GradLut> = OnceLock::new();
    if signed {
        SIGNED.get_or_init(|| GradLut::build(true))
    } else {
        UNSIGNED.get_or_init(|| GradLut::build(false))
    }
}

/// Gamma (power-law) intensity normalization applied ahead of gradient
/// computation — Dalal & Triggs' first pipeline stage. `gamma = 0.5`
/// (square-root compression) was their best setting; `1.0` is identity.
///
/// # Panics
///
/// Panics if `gamma` is not finite and positive.
#[must_use]
pub fn gamma_correct(img: &GrayImage, gamma: f32) -> GrayImage {
    assert!(gamma.is_finite() && gamma > 0.0, "gamma must be positive");
    if (gamma - 1.0).abs() < 1e-9 {
        return img.clone();
    }
    // 256-entry LUT, exactly what a hardware implementation would hold.
    let mut lut = [0u8; 256];
    for (i, out) in lut.iter_mut().enumerate() {
        let normalized = (i as f32 / 255.0).powf(gamma);
        *out = (normalized * 255.0).round().clamp(0.0, 255.0) as u8;
    }
    GrayImage::from_fn(img.width(), img.height(), |x, y| {
        lut[usize::from(img.get(x, y))]
    })
}

/// Per-pixel gradient magnitude and orientation for a whole image.
///
/// Gradients use centered differences `fx = I(x+1,y) - I(x-1,y)` and
/// `fy = I(x,y+1) - I(x,y-1)` with clamped borders (the `[-1, 0, 1]` mask
/// Dalal & Triggs found best). Orientation is
/// `θ = atan2(fy, fx)` folded into `[0, π)` for the unsigned convention or
/// `[0, 2π)` for the signed one; magnitude is `sqrt(fx² + fy²)`.
///
/// # Example
///
/// ```
/// use rtped_hog::gradient::GradientField;
/// use rtped_image::GrayImage;
///
/// // A vertical step edge has a horizontal gradient: θ ≈ 0.
/// let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0 } else { 200 });
/// let g = GradientField::compute(&img, false);
/// assert!(g.magnitude(4, 4) > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GradientField {
    width: usize,
    height: usize,
    magnitude: Vec<f32>,
    orientation: Vec<f32>,
    signed: bool,
}

impl GradientField {
    /// Computes the gradient field of `img`.
    ///
    /// `signed` selects the orientation range: `false` folds angles into
    /// `[0, π)` (standard for pedestrians), `true` keeps `[0, 2π)`.
    ///
    /// Internally this looks up magnitude/orientation in a precomputed
    /// 511 × 511 table over the integer difference pair (see [`GradLut`]);
    /// results are bit-identical to evaluating `sqrt`/`atan2` per pixel.
    #[must_use]
    pub fn compute(img: &GrayImage, signed: bool) -> Self {
        let (w, h) = img.dimensions();
        let lut = grad_lut(signed);
        let raw = img.as_raw();
        let mut magnitude = vec![0.0f32; w * h];
        let mut orientation = vec![0.0f32; w * h];
        let mut idx = vec![0u32; w];
        let rows = magnitude
            .chunks_exact_mut(w)
            .zip(orientation.chunks_exact_mut(w));
        for (y, (mag_row, ang_row)) in rows.enumerate() {
            row_indices(raw, w, h, y, &mut idx);
            for ((m, a), &e) in mag_row.iter_mut().zip(ang_row.iter_mut()).zip(&idx) {
                *m = lut.mag[e as usize];
                *a = lut.ang[e as usize];
            }
        }
        Self {
            width: w,
            height: h,
            magnitude,
            orientation,
            signed,
        }
    }

    /// Raw centered-difference gradient at `(x, y)` with clamped borders.
    #[must_use]
    pub fn central_difference(img: &GrayImage, x: usize, y: usize) -> (f32, f32) {
        let xi = x as isize;
        let yi = y as isize;
        let fx = f32::from(img.get_clamped(xi + 1, yi)) - f32::from(img.get_clamped(xi - 1, yi));
        let fy = f32::from(img.get_clamped(xi, yi + 1)) - f32::from(img.get_clamped(xi, yi - 1));
        (fx, fy)
    }

    /// Field width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Field height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Whether orientations span `[0, 2π)` rather than `[0, π)`.
    #[must_use]
    pub fn signed(&self) -> bool {
        self.signed
    }

    /// Gradient magnitude at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[must_use]
    pub fn magnitude(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.magnitude[y * self.width + x]
    }

    /// Gradient orientation at `(x, y)` in the configured range.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[must_use]
    pub fn orientation(&self, x: usize, y: usize) -> f32 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.orientation[y * self.width + x]
    }

    /// Borrow the raw magnitude plane (row-major).
    #[must_use]
    pub fn magnitude_plane(&self) -> &[f32] {
        &self.magnitude
    }

    /// Borrow the raw orientation plane (row-major).
    #[must_use]
    pub fn orientation_plane(&self) -> &[f32] {
        &self.orientation
    }
}

/// Folds `angle` (from `atan2`, in `(-π, π]`) into `[0, π)` (unsigned) or
/// `[0, 2π)` (signed).
#[must_use]
pub fn fold_angle(angle: f32, signed: bool) -> f32 {
    use std::f32::consts::PI;
    if signed {
        let mut a = angle;
        if a < 0.0 {
            a += 2.0 * PI;
        }
        if a >= 2.0 * PI {
            a -= 2.0 * PI;
        }
        a
    } else {
        let mut a = angle;
        if a < 0.0 {
            a += PI;
        }
        if a >= PI {
            a -= PI;
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::PI;

    #[test]
    fn flat_image_has_zero_gradient() {
        let mut img = GrayImage::new(8, 8);
        img.fill(100);
        let g = GradientField::compute(&img, false);
        assert!(g.magnitude_plane().iter().all(|&m| m == 0.0));
    }

    #[test]
    fn vertical_edge_has_horizontal_gradient() {
        let img = GrayImage::from_fn(8, 8, |x, _| if x < 4 { 0 } else { 200 });
        let g = GradientField::compute(&img, false);
        // At the edge column the gradient is purely horizontal: θ = 0.
        assert!(g.magnitude(4, 4) > 0.0);
        assert!(g.orientation(4, 4).abs() < 1e-6);
    }

    #[test]
    fn horizontal_edge_has_vertical_gradient() {
        let img = GrayImage::from_fn(8, 8, |_, y| if y < 4 { 0 } else { 200 });
        let g = GradientField::compute(&img, false);
        assert!(g.magnitude(4, 4) > 0.0);
        assert!((g.orientation(4, 4) - PI / 2.0).abs() < 1e-6);
    }

    #[test]
    fn unsigned_orientation_folds_opposite_directions_together() {
        // Rising and falling edges produce the same unsigned orientation.
        let rising = GrayImage::from_fn(9, 3, |x, _| (x * 28) as u8);
        let falling = GrayImage::from_fn(9, 3, |x, _| ((8 - x) * 28) as u8);
        let gr = GradientField::compute(&rising, false);
        let gf = GradientField::compute(&falling, false);
        assert!((gr.orientation(4, 1) - gf.orientation(4, 1)).abs() < 1e-6);
    }

    #[test]
    fn signed_orientation_distinguishes_directions() {
        let rising = GrayImage::from_fn(9, 3, |x, _| (x * 28) as u8);
        let falling = GrayImage::from_fn(9, 3, |x, _| ((8 - x) * 28) as u8);
        let gr = GradientField::compute(&rising, true);
        let gf = GradientField::compute(&falling, true);
        let diff = (gr.orientation(4, 1) - gf.orientation(4, 1)).abs();
        assert!((diff - PI).abs() < 1e-6, "expected opposite angles");
    }

    #[test]
    fn diagonal_edge_has_45_degree_gradient() {
        // Intensity grows along x+y: gradient points at 45°.
        let img = GrayImage::from_fn(16, 16, |x, y| ((x + y) * 8) as u8);
        let g = GradientField::compute(&img, false);
        assert!((g.orientation(8, 8) - PI / 4.0).abs() < 1e-3);
    }

    #[test]
    fn magnitude_matches_hand_computation() {
        let mut img = GrayImage::new(3, 3);
        img.put(0, 1, 10);
        img.put(2, 1, 50);
        img.put(1, 0, 20);
        img.put(1, 2, 80);
        let g = GradientField::compute(&img, false);
        // fx = 50 - 10 = 40, fy = 80 - 20 = 60.
        assert!((g.magnitude(1, 1) - (40.0f32 * 40.0 + 60.0 * 60.0).sqrt()).abs() < 1e-4);
    }

    #[test]
    fn borders_are_clamped_not_wrapped() {
        // A single bright rightmost column: the leftmost pixel must see no
        // wraparound gradient.
        let img = GrayImage::from_fn(8, 1, |x, _| if x == 7 { 255 } else { 0 });
        let g = GradientField::compute(&img, false);
        assert_eq!(g.magnitude(0, 0), 0.0);
        // x = 6 sees the step.
        assert!(g.magnitude(6, 0) > 0.0);
    }

    #[test]
    fn lut_compute_is_bit_identical_to_scalar_evaluation() {
        let img = GrayImage::from_fn(37, 29, |x, y| ((x * 7 + y * 13 + (x * y) % 5) % 256) as u8);
        for signed in [false, true] {
            let g = GradientField::compute(&img, signed);
            for y in 0..29 {
                for x in 0..37 {
                    let (fx, fy) = GradientField::central_difference(&img, x, y);
                    let m = (fx * fx + fy * fy).sqrt();
                    let o = fold_angle(fy.atan2(fx), signed);
                    assert_eq!(g.magnitude(x, y).to_bits(), m.to_bits(), "mag at {x},{y}");
                    assert_eq!(g.orientation(x, y).to_bits(), o.to_bits(), "ang at {x},{y}");
                }
            }
        }
    }

    #[test]
    fn gamma_identity_is_clone() {
        let img = GrayImage::from_fn(8, 8, |x, y| (x * 31 + y) as u8);
        assert_eq!(gamma_correct(&img, 1.0), img);
    }

    #[test]
    fn gamma_half_is_square_root_compression() {
        let img = GrayImage::from_fn(2, 1, |x, _| if x == 0 { 64 } else { 255 });
        let out = gamma_correct(&img, 0.5);
        // sqrt(64/255)*255 = 127.75 -> 128.
        assert_eq!(out.get(0, 0), 128);
        assert_eq!(out.get(1, 0), 255);
    }

    #[test]
    fn gamma_preserves_extremes_and_monotonicity() {
        let img = GrayImage::from_fn(256, 1, |x, _| x as u8);
        for gamma in [0.4f32, 0.5, 2.0] {
            let out = gamma_correct(&img, gamma);
            assert_eq!(out.get(0, 0), 0);
            assert_eq!(out.get(255, 0), 255);
            for x in 1..256 {
                assert!(
                    out.get(x, 0) >= out.get(x - 1, 0),
                    "gamma {gamma} not monotone"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "gamma must be positive")]
    fn gamma_rejects_zero() {
        let _ = gamma_correct(&GrayImage::new(2, 2), 0.0);
    }

    #[test]
    fn fold_angle_ranges() {
        for signed in [false, true] {
            let limit = if signed { 2.0 * PI } else { PI };
            for i in -314..=314 {
                let a = i as f32 / 100.0;
                let folded = fold_angle(a, signed);
                assert!(
                    (0.0..limit).contains(&folded),
                    "fold_angle({a}, {signed}) = {folded} out of range"
                );
            }
        }
    }
}
