pub mod det;
pub mod roc;
