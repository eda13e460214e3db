//! Classifier evaluation utilities for the rtped workspace.
//!
//! The paper's verification (§4, Table 1, Fig. 4) reports detection
//! accuracy, true-positive / true-negative counts, ROC curves, AUC, and
//! EER. This crate implements all of those from scratch:
//!
//! - [`confusion`]: TP/TN/FP/FN counts and the derived rates.
//! - [`roc`]: ROC curves from raw decision scores, trapezoidal AUC, and
//!   the equal-error rate.
//! - [`report`]: fixed-width text tables used by every harness binary.
//!
//! # Example
//!
//! ```
//! use rtped_eval::roc::RocCurve;
//!
//! // Scores for 2 positives and 2 negatives, perfectly separated.
//! let scored = vec![(2.0, true), (1.0, true), (-1.0, false), (-2.0, false)];
//! let roc = RocCurve::from_scores(&scored);
//! assert!((roc.auc() - 1.0).abs() < 1e-12);
//! assert!(roc.eer() < 1e-12);
//! ```

pub mod bootstrap;
pub mod confusion;
pub mod report;
pub mod roc;

pub use confusion::ConfusionMatrix;
pub use roc::RocCurve;
