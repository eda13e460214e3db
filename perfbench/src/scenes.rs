//! Seeded input generators. Everything here runs before timing starts.

use rtped_core::rng::{Rng, SeedRng};
use rtped_dataset::pedestrian::{draw_figure, Pose};
use rtped_dataset::scene::SceneBuilder;
use rtped_image::draw::fill_rect;
use rtped_image::synthetic::{add_uniform_noise, clutter_background};
use rtped_image::GrayImage;

pub const HD_W: usize = 1920;
pub const HD_H: usize = 1080;

/// Camera pan per frame on `drive-1080p`, in pixels.
const PAN_X: usize = 24;
/// Largest vertical camera bob on `drive-1080p`, in pixels.
const BOB_Y: usize = 8;
/// Frames per exposure segment on `parked-1080p`: every segment opens
/// with a scene cut.
pub const PARKED_CUT_EVERY: usize = 8;

/// One pedestrian walking across the scene, in world coordinates.
struct Walker {
    x: f64,
    y: usize,
    vx: f64,
    scale: f64,
    poses: [Pose; 2],
}

impl Walker {
    fn new(rng: &mut SeedRng, x: f64, y: usize, vx: f64, scale: f64) -> Self {
        Walker {
            x,
            y,
            vx,
            scale,
            poses: [Pose::sample(rng), Pose::sample(rng)],
        }
    }

    fn size(&self) -> (usize, usize) {
        (
            (64.0 * self.scale).round() as usize,
            (128.0 * self.scale).round() as usize,
        )
    }

    /// Draws the walker at frame `t` into `frame`, whose top-left corner
    /// sits at world x `origin_x`, unless it is out of view.
    fn draw(&self, frame: &mut GrayImage, t: usize, origin_x: f64) {
        let (w, h) = self.size();
        let (fw, fh) = frame.dimensions();
        let x = (self.x + self.vx * t as f64 - origin_x).round();
        if x < 0.0 || x as usize + w > fw || self.y + h > fh {
            return;
        }
        let x = x as usize;
        let mut patch = frame.crop(x, self.y, w, h);
        let mean = patch.mean().round().clamp(0.0, 255.0) as u8;
        fill_rect(&mut patch, 0, 0, w, h, mean, 0.35);
        draw_figure(&mut patch, &self.poses[(t / 4) % 2]);
        frame.paste(&patch, x as isize, self.y as isize);
    }
}

/// `drive-1080p`: a ring of `count` frames from a camera panning across a
/// street while pedestrians walk. Every frame carries fresh sensor noise,
/// so no pixel row repeats the previous frame (the wrap included).
pub fn drive(seed: u64, count: usize) -> Vec<GrayImage> {
    let mut rng = SeedRng::seed_from_u64(seed ^ 0xD417_E000);
    let pano_w = HD_W + PAN_X * count;
    let pano = clutter_background(&mut rng, pano_w, HD_H + BOB_Y);
    let walkers: Vec<Walker> = (0..8)
        .map(|_| {
            let x = rng.gen_range(0.0..=pano_w as f64 - 200.0);
            let y = rng.gen_range(300..=800);
            let vx = if rng.gen_bool(0.5) { 3.0 } else { -3.0 } * rng.gen_range(0.6..=1.4);
            let scale = rng.gen_range(1.0..=1.9);
            Walker::new(&mut rng, x, y, vx, scale)
        })
        .collect();
    (0..count)
        .map(|t| {
            let origin_x = (t * PAN_X) as f64;
            let bob = ((t as f64 * 0.9).sin() * 0.5 + 0.5) * BOB_Y as f64;
            let mut frame = pano.crop(t * PAN_X, bob.round() as usize, HD_W, HD_H);
            for walker in &walkers {
                walker.draw(&mut frame, t, origin_x);
            }
            add_uniform_noise(&mut frame, &mut rng, 3);
            frame
        })
        .collect()
}

/// `parked-1080p`: a ring of `count` frames (a multiple of
/// [`PARKED_CUT_EVERY`]) from a static camera. The background and its
/// noise are fixed; three pedestrians walk on a shared ground band, so
/// only their rows change between frames. Each segment of
/// `PARKED_CUT_EVERY` frames has its own exposure, and the step between
/// segments (and at the ring's wrap) is a scene cut.
pub fn parked(seed: u64, count: usize) -> Vec<GrayImage> {
    assert_eq!(count % PARKED_CUT_EVERY, 0, "ring must hold whole segments");
    let mut rng = SeedRng::seed_from_u64(seed ^ 0x9A4C_ED00);
    let mut background = clutter_background(&mut rng, HD_W, HD_H);
    add_uniform_noise(&mut background, &mut rng, 4);
    // Fixed sizes, rows and speeds, so every seed changes the same share
    // of rows; the seed picks poses, directions and start columns, kept
    // far enough from the edges that nobody leaves the frame.
    let walkers: Vec<Walker> = [(1.0, 600, 4.0), (1.2, 575, 5.0), (1.4, 550, 6.0)]
        .iter()
        .map(|&(scale, y, speed)| {
            let margin = 40.0 + speed * count as f64;
            let x = rng.gen_range(margin..=HD_W as f64 - margin - 90.0);
            let vx = if rng.gen_bool(0.5) { speed } else { -speed };
            Walker::new(&mut rng, x, y, vx, scale)
        })
        .collect();
    let segments = count / PARKED_CUT_EVERY;
    let exposures: Vec<i16> = (0..segments)
        .map(|s| (s as i16 % 2 * 2 - 1) * rng.gen_range(6..=14))
        .collect();
    (0..count)
        .map(|t| {
            let gain = exposures[t / PARKED_CUT_EVERY];
            let mut frame = background.clone();
            frame.map_in_place(|v| (i16::from(v) + gain).clamp(0, 255) as u8);
            for walker in &walkers {
                walker.draw(&mut frame, t, 0.0);
            }
            frame
        })
        .collect()
}

/// `serve-vga`: `count` distinct 640×480 dashcam frames with two
/// pedestrians each.
pub fn vga(seed: u64, count: usize) -> Vec<GrayImage> {
    (0..count)
        .map(|k| {
            SceneBuilder::new(640, 480)
                .seed(seed.wrapping_mul(1000).wrapping_add(k as u64))
                .pedestrian_window(64, 128, 1.0)
                .pedestrian_window(64, 128, 1.5)
                .build()
                .frame
        })
        .collect()
}

/// Share of pixel rows of each frame that are bit-identical to the same
/// row of its predecessor, and share of frames where more than half the
/// rows changed (a scene cut by the temporal cache's rule), over a
/// sequence that wraps.
pub fn row_stats(frames: &[GrayImage]) -> (f64, f64) {
    let mut identical = 0usize;
    let mut rows = 0usize;
    let mut cuts = 0usize;
    for (i, frame) in frames.iter().enumerate() {
        let prev = &frames[(i + frames.len() - 1) % frames.len()];
        let h = frame.height();
        let same = (0..h).filter(|&y| frame.row(y) == prev.row(y)).count();
        identical += same;
        rows += h;
        if (h - same) * 2 > h {
            cuts += 1;
        }
    }
    (
        identical as f64 / rows as f64,
        cuts as f64 / frames.len() as f64,
    )
}
