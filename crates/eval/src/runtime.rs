//! Inference-time measurement for the accuracy-to-runtime analysis
//! (Figure 9).

use std::time::Instant;

use crate::matrices::distance_matrix;
use crate::nn::one_nn_accuracy;
use tsdist_core::measure::Distance;
use tsdist_data::Dataset;

/// Accuracy and wall-clock inference time of one measure on one dataset.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RuntimeMeasurement {
    /// 1-NN test accuracy.
    pub accuracy: f64,
    /// Seconds spent computing `E` and classifying (inference only, as in
    /// Figure 9).
    pub seconds: f64,
}

/// Measures inference cost: the time to compute the test-by-train matrix
/// and classify. Parameter tuning is deliberately excluded, matching the
/// paper ("runtime performance includes only inference time").
pub fn measure_inference(d: &dyn Distance, ds: &Dataset) -> RuntimeMeasurement {
    let start = Instant::now();
    let e = distance_matrix(d, &ds.test, &ds.train);
    let accuracy = one_nn_accuracy(&e, &ds.test_labels, &ds.train_labels);
    RuntimeMeasurement {
        accuracy,
        seconds: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdist_core::lockstep::Euclidean;
    use tsdist_data::synthetic::{generate_dataset, ArchiveConfig};

    #[test]
    fn inference_measurement_reports_accuracy_and_time() {
        let ds = generate_dataset(&ArchiveConfig::quick(1, 5), 0);
        let m = measure_inference(&Euclidean, &ds);
        assert!((0.0..=1.0).contains(&m.accuracy));
        assert!(m.seconds >= 0.0);
    }
}
