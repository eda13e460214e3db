//! The cell-histogram plane of a whole image.
//!
//! # Row pass
//!
//! Without spatial interpolation, gradient and voting are fused into one
//! pass per pixel row: [`gradient::row_indices`] turns the row into
//! gradient-table indices (border columns handled once, interior loop
//! branch-free), then the row is walked one cell at a time and each pixel
//! adds its two bin votes. A cell still receives its votes row-major within
//! the cell, so every `f32` sum is accumulated in the same order as in
//! [`CellGrid::from_gradients`].
//!
//! # The packed vote table
//!
//! For the canonical geometry (9 unsigned bins) the votes come from one
//! table of 12-byte [`Vote`] entries indexed by the difference pair: both
//! target bins and both pre-multiplied weights, so one load per pixel
//! replaces the magnitude, two factors and two bin loads. Pre-multiplying
//! is exact: [`cell::split_vote`] returns `mag * (1.0 - frac)` and
//! `mag * frac`, and the table stores exactly those IEEE products for the
//! entry's own `mag` — the values a per-pixel `split_vote` call would add.
//! The table is built straight from the `sqrt`/`atan2`/`fold_angle`
//! expressions, not from the gradient table, so only 3 MB stay resident.
//!
//! # Cell-row bands
//!
//! Each cell's histogram depends only on its own pixels (and their ±1
//! neighbours), so disjoint cell-row bands are voted on separate workers
//! with identical results. The normalization and quantization passes in
//! `feature_map` use the same split ([`for_each_row_band`]). Planes below
//! [`PAR_MIN_CELLS`] stay on the calling thread.

use std::ops::Range;
use std::sync::OnceLock;

use rtped_core::par;
use rtped_image::GrayImage;

use crate::cell;
use crate::gradient::{self, grad_lut, GradLut, GradientField, GRAD_LUT_SPAN, ZERO_GRADIENT};
use crate::params::HogParams;

/// Extraction planes (cell histograms, block normalization, Q12
/// quantization) with fewer cells than this are filled on the calling
/// thread. 2^13 cells is 2^19 pixels at the canonical 8-pixel cell, so
/// 720p (14,400 cells) and up are split and VGA (4,800 cells) is not. On a
/// 2-vCPU host two threads ran each layer 1.2–1.8× faster than one at 720p
/// and 1080p, but 0.8–1.1× at VGA, where the serving daemon's workers
/// already share the cores and a split costs peak RSS (measurements in
/// `CHANGES.md`).
pub(crate) const PAR_MIN_CELLS: usize = 1 << 13;

/// Bands per worker above the cut-off: enough to balance uneven rows, few
/// enough that normalization's one-block-row halo per band stays cheap.
const BANDS_PER_THREAD: usize = 2;

/// Cell rows per band when `rows` cell rows of `cells_x` cells are filled:
/// all of them below [`PAR_MIN_CELLS`], else about [`BANDS_PER_THREAD`]
/// bands per worker.
pub(crate) fn rows_per_band(rows: usize, cells_x: usize) -> usize {
    if rows * cells_x < PAR_MIN_CELLS {
        return rows.max(1);
    }
    rows.div_ceil(par::threads() * BANDS_PER_THREAD).max(1)
}

/// Fills `out` — cell rows `first_row..` of a plane whose rows are
/// `row_len` values long — in disjoint bands of `rows_per_band` rows:
/// `fill(band_rows, band)` writes exactly those rows.
pub(crate) fn for_each_row_band<T: Send>(
    out: &mut [T],
    row_len: usize,
    first_row: usize,
    rows_per_band: usize,
    fill: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    par::for_each_band(out, rows_per_band * row_len, |start, band| {
        let r0 = first_row + start / row_len;
        fill(r0..r0 + band.len() / row_len, band);
    });
}

/// One pre-multiplied bin vote: `w_lo` goes to bin `lo`, `w_hi` to `hi`.
#[derive(Debug, Clone, Copy)]
struct Vote {
    w_lo: f32,
    w_hi: f32,
    lo: u8,
    hi: u8,
}

/// The process-wide vote table for the canonical geometry (9 unsigned
/// bins), indexed like [`GradLut`] by the difference pair.
fn vote_table(bin_width: f32) -> &'static [Vote] {
    static TABLE: OnceLock<Vec<Vote>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Vec::with_capacity(GRAD_LUT_SPAN * GRAD_LUT_SPAN);
        // Push order is GradLut::index order: fy major, fx minor.
        for fy in -255i32..=255 {
            for fx in -255i32..=255 {
                let (mag, angle) = gradient::magnitude_orientation(fx, fy, false);
                let ((lo, w_lo), (hi, w_hi)) = cell::split_vote(angle, mag, 9, bin_width);
                table.push(Vote {
                    w_lo,
                    w_hi,
                    lo: lo as u8,
                    hi: hi as u8,
                });
            }
        }
        table
    })
}

/// How a pixel's gradient-table index becomes its bin votes.
#[derive(Clone, Copy)]
enum Voter {
    /// The packed table of the canonical geometry.
    Table(&'static [Vote]),
    /// Any other geometry: magnitude and angle from the gradient table,
    /// split per pixel.
    Split {
        lut: &'static GradLut,
        bin_width: f32,
    },
}

impl Voter {
    fn new(params: &HogParams) -> Self {
        if !params.signed() && params.bins() == 9 {
            Voter::Table(vote_table(params.bin_width()))
        } else {
            Voter::Split {
                lut: grad_lut(params.signed()),
                bin_width: params.bin_width(),
            }
        }
    }
}

/// Fused gradient + vote of cell rows `rows` (of `cells_x` cells of
/// `cs × cs` pixels) into `out`, exactly those rows' histograms
/// (overwritten). Per cell, pixels are visited row-major within the cell
/// and zero-gradient pixels are skipped, as in [`CellGrid::from_gradients`].
fn vote_rows(
    img: &GrayImage,
    voter: Voter,
    cs: usize,
    cells_x: usize,
    bins: usize,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let (w, h) = img.dimensions();
    let raw = img.as_raw();
    let covered = cells_x * cs;
    let mut idx = vec![0u32; w];
    for (cy, hists) in rows.zip(out.chunks_exact_mut(cells_x * bins)) {
        hists.fill(0.0);
        for py in cy * cs..(cy + 1) * cs {
            gradient::row_indices(raw, w, h, py, &mut idx);
            let cells = hists
                .chunks_exact_mut(bins)
                .zip(idx[..covered].chunks_exact(cs));
            match voter {
                Voter::Table(table) => {
                    for (hist, pixels) in cells {
                        for &e in pixels {
                            if e == ZERO_GRADIENT {
                                continue;
                            }
                            let v = table[e as usize];
                            hist[usize::from(v.lo)] += v.w_lo;
                            hist[usize::from(v.hi)] += v.w_hi;
                        }
                    }
                }
                Voter::Split { lut, bin_width } => {
                    for (hist, pixels) in cells {
                        for &e in pixels {
                            if e == ZERO_GRADIENT {
                                continue;
                            }
                            let e = e as usize;
                            cell::vote(hist, lut.ang[e], lut.mag[e], bin_width);
                        }
                    }
                }
            }
        }
    }
}

/// Un-normalized orientation histograms for every cell of an image.
///
/// The grid covers `floor(width / cell) x floor(height / cell)` cells;
/// right/bottom pixels that do not fill a whole cell are ignored, matching
/// the streaming hardware which only emits complete cells.
///
/// # Example
///
/// ```
/// use rtped_hog::{grid::CellGrid, params::HogParams};
/// use rtped_image::GrayImage;
///
/// let img = GrayImage::from_fn(64, 128, |x, y| ((x ^ y) as u8).wrapping_mul(3));
/// let grid = CellGrid::compute(&img, &HogParams::pedestrian());
/// assert_eq!(grid.cells(), (8, 16));
/// assert_eq!(grid.histogram(0, 0).len(), 9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CellGrid {
    cells_x: usize,
    cells_y: usize,
    bins: usize,
    data: Vec<f32>,
}

impl CellGrid {
    /// Computes cell histograms for `img` under `params`.
    ///
    /// Without spatial interpolation the gradient and voting stages are
    /// fused into one row pass (see the module docs), skipping the
    /// intermediate magnitude/orientation planes entirely. The result is
    /// bit-identical to `from_gradients(&GradientField::compute(img, ..), ..)`
    /// because the per-cell pixel visiting order and every float expression
    /// are unchanged. Cell-row bands are filled in parallel above
    /// [`PAR_MIN_CELLS`], with output identical for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than one cell.
    #[must_use]
    pub fn compute(img: &GrayImage, params: &HogParams) -> Self {
        if params.spatial_interpolation() {
            let field = GradientField::compute(img, params.signed());
            return Self::from_gradients(&field, params);
        }
        let cs = params.cell_size();
        let cells_x = img.width() / cs;
        let cells_y = img.height() / cs;
        assert!(
            cells_x > 0 && cells_y > 0,
            "image smaller than one {cs}px cell"
        );
        let bins = params.bins();
        let mut grid = Self {
            cells_x,
            cells_y,
            bins,
            data: vec![0.0f32; cells_x * cells_y * bins],
        };
        grid.vote_banded(img, params, 0..cells_y, rows_per_band(cells_y, cells_x));
        grid
    }

    /// Recomputes the histograms of cell rows `rows` in place from `img`,
    /// leaving all other rows untouched.
    ///
    /// Voting without spatial interpolation is row-local (each pixel votes
    /// only into its owning cell), so recomputing a row range from the new
    /// frame yields exactly the histograms a full [`CellGrid::compute`]
    /// would produce — the temporal pyramid cache relies on this.
    ///
    /// # Panics
    ///
    /// Panics if `params` enables spatial interpolation (votes then leak
    /// across rows and row-ranged recomputation would be unsound), if the
    /// image's grid size does not match this grid, or if `rows` is out of
    /// bounds.
    pub fn recompute_rows(&mut self, img: &GrayImage, params: &HogParams, rows: Range<usize>) {
        assert!(
            !params.spatial_interpolation(),
            "row-ranged recompute requires cell-local voting"
        );
        let cs = params.cell_size();
        assert_eq!(
            (img.width() / cs, img.height() / cs),
            (self.cells_x, self.cells_y),
            "image does not match grid dimensions"
        );
        assert!(rows.end <= self.cells_y, "cell rows out of bounds");
        let per_band = rows_per_band(rows.len(), self.cells_x);
        self.vote_banded(img, params, rows, per_band);
    }

    /// Votes cell rows `rows` in bands of `per_band` rows.
    fn vote_banded(
        &mut self,
        img: &GrayImage,
        params: &HogParams,
        rows: Range<usize>,
        per_band: usize,
    ) {
        let (voter, cs) = (Voter::new(params), params.cell_size());
        let (cells_x, bins) = (self.cells_x, self.bins);
        let row_len = cells_x * bins;
        let span = &mut self.data[rows.start * row_len..rows.end * row_len];
        for_each_row_band(span, row_len, rows.start, per_band, |band_rows, band| {
            vote_rows(img, voter, cs, cells_x, bins, band_rows, band);
        });
    }

    /// Computes cell histograms from a precomputed gradient field
    /// (exposed so multi-stage pipelines can reuse the gradients).
    ///
    /// # Panics
    ///
    /// Panics if the field is smaller than one cell.
    #[must_use]
    pub fn from_gradients(field: &GradientField, params: &HogParams) -> Self {
        let cs = params.cell_size();
        let cells_x = field.width() / cs;
        let cells_y = field.height() / cs;
        assert!(
            cells_x > 0 && cells_y > 0,
            "image smaller than one {cs}px cell"
        );
        let bins = params.bins();
        let bin_width = params.bin_width();
        let mut data = vec![0.0f32; cells_x * cells_y * bins];

        if params.spatial_interpolation() {
            // Dalal-style: each pixel's vote is shared bilinearly among the
            // (up to) four cells whose centers surround it.
            for y in 0..cells_y * cs {
                for x in 0..cells_x * cs {
                    let mag = field.magnitude(x, y);
                    if mag == 0.0 {
                        continue;
                    }
                    let angle = field.orientation(x, y);
                    // Continuous cell coordinates of this pixel.
                    let cxf = (x as f32 + 0.5) / cs as f32 - 0.5;
                    let cyf = (y as f32 + 0.5) / cs as f32 - 0.5;
                    let cx0 = cxf.floor() as isize;
                    let cy0 = cyf.floor() as isize;
                    let tx = cxf - cx0 as f32;
                    let ty = cyf - cy0 as f32;
                    for (dcx, dcy, w) in [
                        (0isize, 0isize, (1.0 - tx) * (1.0 - ty)),
                        (1, 0, tx * (1.0 - ty)),
                        (0, 1, (1.0 - tx) * ty),
                        (1, 1, tx * ty),
                    ] {
                        let cx = cx0 + dcx;
                        let cy = cy0 + dcy;
                        if cx < 0 || cy < 0 || cx >= cells_x as isize || cy >= cells_y as isize {
                            continue;
                        }
                        let base = (cy as usize * cells_x + cx as usize) * bins;
                        cell::vote(&mut data[base..base + bins], angle, mag * w, bin_width);
                    }
                }
            }
        } else {
            // Hardware-style: each pixel votes only into its owning cell.
            for cy in 0..cells_y {
                for cx in 0..cells_x {
                    let base = (cy * cells_x + cx) * bins;
                    for py in cy * cs..(cy + 1) * cs {
                        for px in cx * cs..(cx + 1) * cs {
                            let mag = field.magnitude(px, py);
                            if mag == 0.0 {
                                continue;
                            }
                            cell::vote(
                                &mut data[base..base + bins],
                                field.orientation(px, py),
                                mag,
                                bin_width,
                            );
                        }
                    }
                }
            }
        }

        Self {
            cells_x,
            cells_y,
            bins,
            data,
        }
    }

    /// Grid size `(cells_x, cells_y)`.
    #[must_use]
    pub fn cells(&self) -> (usize, usize) {
        (self.cells_x, self.cells_y)
    }

    /// Orientation bin count.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Borrows the histogram of cell `(cx, cy)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of bounds.
    #[must_use]
    pub fn histogram(&self, cx: usize, cy: usize) -> &[f32] {
        assert!(cx < self.cells_x && cy < self.cells_y, "cell out of bounds");
        let base = (cy * self.cells_x + cx) * self.bins;
        &self.data[base..base + self.bins]
    }

    /// Total gradient energy (sum of all histogram entries).
    #[must_use]
    pub fn total_energy(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Builds a grid directly from histogram data (for tests and the
    /// hardware model's golden comparisons).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != cells_x * cells_y * bins` or any dimension
    /// is zero.
    #[must_use]
    pub fn from_raw(cells_x: usize, cells_y: usize, bins: usize, data: Vec<f32>) -> Self {
        assert!(cells_x > 0 && cells_y > 0 && bins > 0, "empty grid");
        assert_eq!(data.len(), cells_x * cells_y * bins, "data length mismatch");
        Self {
            cells_x,
            cells_y,
            bins,
            data,
        }
    }

    /// Borrows the raw histogram buffer (cell-major, `bins` per cell).
    #[must_use]
    pub fn as_raw(&self) -> &[f32] {
        &self.data
    }
}

/// Test frames for the band properties: random noise with flat patches
/// (zero gradients) and 0/255 stripes (the table's extreme differences).
#[cfg(test)]
pub(crate) fn test_frame(w: usize, h: usize, seed: u64) -> GrayImage {
    use rtped_core::rng::{Rng, SeedRng};
    let mut rng = SeedRng::seed_from_u64(seed);
    GrayImage::from_fn(w, h, |x, y| match (x / 11 + y / 7) % 4 {
        0 => 90,
        1 => [0, 255][(x + y) % 2],
        _ => rng.next_u32() as u8,
    })
}

/// Test frame dimensions: small ones, or ones with at least
/// [`PAR_MIN_CELLS`] cells (`big`), widths not always a multiple of 8.
#[cfg(test)]
pub(crate) fn test_dims(big: bool, extra_w: usize, extra_h: usize) -> (usize, usize) {
    if big {
        let w = 1024 + extra_w % 400;
        let rows = PAR_MIN_CELLS.div_ceil(w / 8) + extra_h % 8;
        (w, rows * 8 + extra_h % 8)
    } else {
        (16 + extra_w % 300, 16 + extra_h % 200)
    }
}

/// Splits `0..n` at the cut points `cuts` (taken modulo `n + 1`) into
/// contiguous non-empty ranges covering it.
#[cfg(test)]
pub(crate) fn test_partition(n: usize, cuts: &[usize]) -> Vec<Range<usize>> {
    let mut points: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
    points.extend([0, n]);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|p| p[0]..p[1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HogParams {
        HogParams::pedestrian()
    }

    #[test]
    fn grid_dimensions_floor_partial_cells() {
        let img = GrayImage::new(70, 130);
        let grid = CellGrid::compute(&img, &params());
        assert_eq!(grid.cells(), (8, 16));
    }

    #[test]
    fn flat_image_yields_zero_histograms() {
        let mut img = GrayImage::new(64, 64);
        img.fill(50);
        let grid = CellGrid::compute(&img, &params());
        assert_eq!(grid.total_energy(), 0.0);
    }

    #[test]
    fn vertical_edge_energy_lands_in_horizontal_bin() {
        // Vertical step edge at x=32: horizontal gradient, θ=0, which votes
        // (half-and-half) into bins 8 and 0.
        let img = GrayImage::from_fn(64, 64, |x, _| if x < 32 { 0 } else { 200 });
        let grid = CellGrid::compute(&img, &params());
        // The edge crosses cells with cx = 3 and 4.
        let hist = grid.histogram(4, 3);
        let edge_energy = hist[0] + hist[8];
        let other: f32 = hist[1..8].iter().sum();
        assert!(edge_energy > 0.0);
        assert!(other.abs() < 1e-3, "energy leaked into other bins: {other}");
    }

    #[test]
    fn energy_is_conserved_across_cells() {
        // Without spatial interpolation, the sum over all cell histograms
        // equals the sum of magnitudes over all covered pixels.
        let img = GrayImage::from_fn(32, 32, |x, y| ((x * 7 + y * 13) % 256) as u8);
        let p = HogParams::builder().window(32, 32).build().unwrap();
        let field = GradientField::compute(&img, false);
        let grid = CellGrid::from_gradients(&field, &p);
        let total_mag: f32 = (0..32)
            .flat_map(|y| (0..32).map(move |x| (x, y)))
            .map(|(x, y)| field.magnitude(x, y))
            .sum();
        assert!((grid.total_energy() - total_mag).abs() / total_mag < 1e-4);
    }

    #[test]
    fn spatial_interpolation_conserves_interior_energy() {
        // With bilinear sharing, votes near borders are partially clipped,
        // so total energy is <= the plain sum but > half of it.
        let img = GrayImage::from_fn(64, 64, |x, y| ((x * 3 + y * 5) % 256) as u8);
        let p_plain = HogParams::builder().window(64, 64).build().unwrap();
        let p_interp = HogParams::builder()
            .window(64, 64)
            .spatial_interpolation(true)
            .build()
            .unwrap();
        let plain = CellGrid::compute(&img, &p_plain);
        let interp = CellGrid::compute(&img, &p_interp);
        assert!(interp.total_energy() <= plain.total_energy() + 1e-3);
        assert!(interp.total_energy() > 0.5 * plain.total_energy());
    }

    #[test]
    fn histograms_are_nonnegative() {
        let img = GrayImage::from_fn(64, 128, |x, y| ((x * x + y * 3) % 256) as u8);
        for interp in [false, true] {
            let p = HogParams::builder()
                .spatial_interpolation(interp)
                .build()
                .unwrap();
            let grid = CellGrid::compute(&img, &p);
            assert!(grid.as_raw().iter().all(|&v| v >= -1e-6));
        }
    }

    #[test]
    fn fused_compute_is_bit_identical_to_gradient_path() {
        let img = GrayImage::from_fn(72, 56, |x, y| ((x * 5 + y * 11 + (x * y) % 7) % 256) as u8);
        // Canonical (vote LUT), non-canonical bins, and signed orientation
        // all take the fused path; each must equal the two-stage reference.
        for (bins, signed) in [(9usize, false), (7, false), (9, true)] {
            let p = HogParams::builder()
                .window(64, 48)
                .bins(bins)
                .signed(signed)
                .build()
                .unwrap();
            let fused = CellGrid::compute(&img, &p);
            let field = GradientField::compute(&img, p.signed());
            let reference = CellGrid::from_gradients(&field, &p);
            assert_eq!(fused, reference, "bins={bins} signed={signed}");
        }
    }

    /// Cell histograms by definition, one pixel at a time: clamped
    /// centered differences, `sqrt`/`atan2`, and a split vote per pixel,
    /// row-major within each cell. Shares no code with the row pass.
    fn scalar_votes(img: &GrayImage, p: &HogParams) -> CellGrid {
        let cs = p.cell_size();
        let (cells_x, cells_y) = (img.width() / cs, img.height() / cs);
        let bins = p.bins();
        let mut data = vec![0.0f32; cells_x * cells_y * bins];
        for cy in 0..cells_y {
            for cx in 0..cells_x {
                let hist = &mut data[(cy * cells_x + cx) * bins..][..bins];
                for py in cy * cs..(cy + 1) * cs {
                    for px in cx * cs..(cx + 1) * cs {
                        let (fx, fy) = GradientField::central_difference(img, px, py);
                        let mag = (fx * fx + fy * fy).sqrt();
                        if mag == 0.0 {
                            continue;
                        }
                        let angle = crate::gradient::fold_angle(fy.atan2(fx), p.signed());
                        cell::vote(hist, angle, mag, p.bin_width());
                    }
                }
            }
        }
        CellGrid::from_raw(cells_x, cells_y, bins, data)
    }

    rtped_core::check! {
        #![cases = 12]
        fn banded_votes_match_the_gradient_path(
            big in rtped_core::check::boolean(),
            extra_w in 0usize..1000,
            extra_h in 0usize..1000,
            geometry in rtped_core::check::choice(vec![(9usize, false), (7, false), (9, true), (7, true)]),
            seed in 0u64..1_000_000,
            per_band in 1usize..40,
            cuts in rtped_core::check::vec_of(0usize..1000, 0..4),
        ) {
            let (w, h) = test_dims(big, extra_w, extra_h);
            let (bins, signed) = geometry;
            let p = HogParams::builder().bins(bins).signed(signed).build().unwrap();
            let img = test_frame(w, h, seed);
            let other = test_frame(w, h, seed + 1);
            let reference = scalar_votes(&img, &p);
            let field = GradientField::compute(&img, signed);
            rtped_core::check_assert_eq!(&CellGrid::from_gradients(&field, &p), &reference);
            // Banded at the pool's own split.
            rtped_core::check_assert_eq!(&CellGrid::compute(&img, &p), &reference);
            // Banded at an explicit split, whatever the thread count.
            let mut grid = CellGrid::compute(&other, &p);
            let (_, cells_y) = grid.cells();
            grid.vote_banded(&img, &p, 0..cells_y, per_band);
            rtped_core::check_assert_eq!(&grid, &reference);
            // Row ranges recomputed in any order converge on the full compute.
            let mut grid = CellGrid::compute(&other, &p);
            for rows in test_partition(cells_y, &cuts).into_iter().rev() {
                grid.recompute_rows(&img, &p, rows);
            }
            rtped_core::check_assert_eq!(&grid, &reference);
        }
    }

    #[test]
    fn recompute_rows_matches_full_compute() {
        let p = params();
        let a = GrayImage::from_fn(64, 64, |x, y| ((x * 3 + y * 7) % 256) as u8);
        let b = GrayImage::from_fn(64, 64, |x, y| ((x * 9 + y * 2 + 31) % 256) as u8);
        let mut grid = CellGrid::compute(&a, &p);
        // Recomputing every row range from `b` must converge on compute(b).
        grid.recompute_rows(&b, &p, 2..5);
        grid.recompute_rows(&b, &p, 0..2);
        grid.recompute_rows(&b, &p, 5..8);
        assert_eq!(grid, CellGrid::compute(&b, &p));
    }

    #[test]
    #[should_panic(expected = "cell-local voting")]
    fn recompute_rows_rejects_spatial_interpolation() {
        let p = HogParams::builder()
            .spatial_interpolation(true)
            .build()
            .unwrap();
        let img = GrayImage::new(64, 128);
        let mut grid = CellGrid::compute(&img, &p);
        grid.recompute_rows(&img, &p, 0..1);
    }

    #[test]
    fn from_raw_roundtrips() {
        let data = vec![1.0f32; 2 * 3 * 9];
        let grid = CellGrid::from_raw(2, 3, 9, data.clone());
        assert_eq!(grid.cells(), (2, 3));
        assert_eq!(grid.as_raw(), data.as_slice());
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_raw_checks_length() {
        let _ = CellGrid::from_raw(2, 2, 9, vec![0.0; 35]);
    }

    #[test]
    #[should_panic(expected = "cell out of bounds")]
    fn histogram_out_of_bounds_panics() {
        let img = GrayImage::new(64, 64);
        let grid = CellGrid::compute(&img, &params());
        let _ = grid.histogram(8, 0);
    }
}
