//! Multi-scale pedestrian detection — the paper's system layer.
//!
//! This crate assembles the HOG and SVM substrates into the two detector
//! configurations the paper compares (Fig. 3) and adds everything a driver
//! assistance system (DAS) needs around them:
//!
//! - [`bbox`]: bounding boxes and IoU.
//! - [`detector`]: the [`detector::Detect`] trait with
//!   [`detector::ImagePyramidDetector`] (conventional, Fig. 3a) and
//!   [`detector::FeaturePyramidDetector`] (the paper's method, Fig. 3b).
//! - [`nms`]: greedy non-maximum suppression for overlapping detections.
//! - [`das`]: the §1 timing model — perception-reaction time, braking and
//!   stopping distances, and the camera model that maps pedestrian
//!   distance to image scale (the 20–60 m requirement).
//!
//! # Example
//!
//! ```
//! use rtped_detect::detector::{Detect, DetectorConfig, FeaturePyramidDetector};
//! use rtped_hog::params::HogParams;
//! use rtped_svm::LinearSvm;
//! use rtped_image::GrayImage;
//!
//! let params = HogParams::pedestrian();
//! // A dummy model that never fires (all-zero weights, negative bias).
//! let model = LinearSvm::new(vec![0.0; params.cell_descriptor_len()], -1.0);
//! let detector = FeaturePyramidDetector::new(model, DetectorConfig::two_scale());
//! let frame = GrayImage::new(320, 240);
//! let detections = detector.detect(&frame);
//! assert!(detections.is_empty());
//! ```

pub mod bbox;
pub mod das;
pub mod detector;
pub mod evaluate;
pub mod kernel;
pub mod nms;
pub mod temporal;
pub mod tracker;

pub use bbox::BoundingBox;
pub use detector::{
    BuildDetector, Datapath, Detect, Detection, DetectorBuilder, DetectorConfig,
    FeaturePyramidDetector, ImagePyramidDetector, ScanProfile,
};
pub use temporal::TemporalStats;
