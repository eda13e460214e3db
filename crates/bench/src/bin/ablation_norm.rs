//! Ablation: block-normalization scheme (paper §3.1 cites Dalal's finding
//! that normalization choice matters; L2-Hys is the default).
//!
//! Trains and evaluates the base-scale classifier under each of the four
//! schemes and reports accuracy / AUC / EER.
//!
//! Run with `RTPED_QUICK=1` for a fast smoke version.

use rtped_bench::ExperimentConfig;
use rtped_core::par;
use rtped_dataset::InriaProtocol;
use rtped_eval::confusion::confusion_at_threshold;
use rtped_eval::report::{float, Table};
use rtped_eval::RocCurve;
use rtped_hog::block::NormKind;
use rtped_hog::feature_map::FeatureMap;
use rtped_hog::params::HogParams;
use rtped_image::GrayImage;
use rtped_svm::dcd::{train_dcd, DcdParams};
use rtped_svm::model::Label;

fn main() {
    let config = ExperimentConfig::from_env();
    let dataset = InriaProtocol::builder()
        .train_positives(config.train_positives)
        .train_negatives(config.train_negatives)
        .test_positives(config.test_positives)
        .test_negatives(config.test_negatives)
        .noise(config.noise)
        .seed(config.seed)
        .build()
        .expect("valid dataset configuration");

    let schemes: [(&str, NormKind); 4] = [
        ("L1", NormKind::L1 { epsilon: 1e-2 }),
        ("L1-sqrt", NormKind::L1Sqrt { epsilon: 1e-2 }),
        ("L2", NormKind::L2 { epsilon: 1e-2 }),
        ("L2-Hys (paper)", NormKind::default()),
    ];

    let mut table = Table::new(
        "Normalization ablation: base-scale accuracy / AUC / EER per scheme",
        &["Scheme", "Accuracy %", "AUC", "EER"],
    );

    for (name, norm) in schemes {
        eprintln!("training with {name} ...");
        let params = HogParams::builder()
            .norm(norm)
            .build()
            .expect("valid parameters");
        let features = |img: &GrayImage| -> Vec<f32> {
            FeatureMap::extract(img, &params).window_descriptor(0, 0, &params)
        };
        let train: Vec<(&GrayImage, bool)> = dataset.labelled_train().collect();
        let samples: Vec<(Vec<f32>, Label)> = par::map(&train, |(img, positive)| {
            (
                features(img),
                if *positive {
                    Label::Positive
                } else {
                    Label::Negative
                },
            )
        });
        let model = train_dcd(
            &samples,
            &DcdParams {
                c: config.svm_c,
                max_iterations: 120,
                tolerance: 1e-3,
                ..DcdParams::default()
            },
        );
        let test: Vec<(&GrayImage, bool)> = dataset.labelled_test().collect();
        let scored: Vec<(f64, bool)> = par::map(&test, |(img, positive)| {
            (model.decision(&features(img)), *positive)
        });
        let cm = confusion_at_threshold(&scored, 0.0);
        let roc = RocCurve::from_scores(&scored);
        table.row_owned(vec![
            name.to_string(),
            float(cm.accuracy() * 100.0, 4),
            float(roc.auc(), 5),
            float(roc.eer(), 5),
        ]);
    }

    println!("{}", table.render());
    println!(
        "Dalal & Triggs (cited as the paper's §3.1 basis): L2-Hys, L2 and L1-sqrt\n\
         perform comparably; plain L1 is markedly worse."
    );
}
