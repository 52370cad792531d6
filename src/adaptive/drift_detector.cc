#include "adaptive/drift_detector.h"

#include <cmath>
#include <limits>

namespace wfm {

StatusOr<DriftScore> DriftDetector::Score(const ReportDecoder& decoder,
                                          const EpochSnapshot& baseline,
                                          const EpochSnapshot& current) const {
  StatusOr<Vector> baseline_var =
      decoder.EstimateVariance(baseline.histogram, baseline.count);
  if (!baseline_var.ok()) return baseline_var.status();
  StatusOr<Vector> current_var =
      decoder.EstimateVariance(current.histogram, current.count);
  if (!current_var.ok()) return current_var.status();

  const Vector a = decoder.EstimateDataVector(baseline.histogram,
                                              baseline.count);
  const Vector b = decoder.EstimateDataVector(current.histogram,
                                              current.count);
  const double inv_na = 1.0 / static_cast<double>(baseline.count);
  const double inv_nb = 1.0 / static_cast<double>(current.count);

  DriftScore score;
  double var_sq_sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] * inv_na - b[i] * inv_nb;
    score.distance_sq += diff * diff;
    const double v = baseline_var.value()[i] + current_var.value()[i];
    score.expected_noise += v;
    var_sq_sum += v * v;
  }
  score.noise_std = std::sqrt(2.0 * var_sq_sum);
  if (score.noise_std > 0.0) {
    score.sigmas = (score.distance_sq - score.expected_noise) / score.noise_std;
  } else {
    // A degenerate zero-noise decode (exact counts): any nonzero distance is
    // infinitely many sigmas, no distance is none.
    score.sigmas = score.distance_sq > 0.0
                       ? std::numeric_limits<double>::infinity()
                       : 0.0;
  }
  score.drifted = score.sigmas > config_.threshold_sigmas &&
                  baseline.count >= config_.min_reports &&
                  current.count >= config_.min_reports;
  return score;
}

}  // namespace wfm
