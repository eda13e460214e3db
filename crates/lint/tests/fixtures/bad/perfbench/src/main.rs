//! A benchmark entry point: reaches `roc` (never linted itself).

fn main() {
    let _ = rtped_eval::roc::auc();
}
