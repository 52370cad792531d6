// Noise-aware detection of distribution drift between sealed epochs.
//
// Adaptive serving re-optimizes the strategy when the population the reports
// describe moves away from the one the strategy was tuned for. The only view
// the server has of that population is the privatized estimate x_hat, which
// is deliberately noisy — so the detector cannot compare raw estimates
// against a fixed cutoff without tripping on privacy noise whenever epochs
// are small. Instead it scales the observed squared distance by the
// decoder's *analytic* variance at each epoch's report count:
//
//   D^2 = || x_hat_A / N_A − x_hat_B / N_B ||^2
//
// Under "no drift" both normalized estimates share a mean, so D^2 is a sum
// of n squared zero-mean differences whose per-coordinate variances the
// decoder gives in closed form (ReportDecoder::EstimateVariance, for dense,
// Kronecker and affine decoders alike):
//
//   linear (x_hat = B y):    Var(x_hat_i / N) =
//       [ sum_o B_io^2 pi_o − ((B pi)_i)^2 ] / N     with pi = y / N
//   affine (RAPPOR/OUE):     Var(x_hat_i / N) = r_i (1 − r_i) / (N (p−q)^2)
//                                               with r_i = y_i / N
//
// That yields E[D^2 | no drift] = sum_i v_i and (Gaussian approximation)
// Std[D^2] ~= sqrt(2 sum_i v_i^2) with v_i the summed per-coordinate
// variances of the two epochs. The detector reports the excess distance in
// noise standard deviations; drift is declared only past a configurable
// sigma threshold, so shrinking epochs (more noise) raise the absolute
// trigger level automatically and noise alone stays below it at any epoch
// size. The statistical conformance suite in tests/adaptive_test.cc pins the
// resulting false-positive rate on a driftless stream.

#ifndef WFM_ADAPTIVE_DRIFT_DETECTOR_H_
#define WFM_ADAPTIVE_DRIFT_DETECTOR_H_

#include <cstdint>

#include "collect/collection_session.h"
#include "common/status.h"
#include "estimation/decoder.h"

namespace wfm {

struct DriftConfig {
  /// Declare drift when D^2 exceeds its no-drift mean by this many noise
  /// standard deviations. 6 keeps the per-epoch false-positive rate far
  /// below the once-per-deployment-lifetime regime while a real shift of a
  /// few percent of the population clears it within an epoch or two.
  double threshold_sigmas = 6.0;
  /// Epochs below this report count never declare drift (the score is still
  /// computed): tiny epochs make the Gaussian tail approximation unreliable
  /// exactly where a false roll is most expensive relative to the data.
  std::int64_t min_reports = 1000;
};

/// The scored comparison of two epochs. `sigmas` is the detector's output
/// scale: how far the observed distance sits above what decoder noise alone
/// explains.
struct DriftScore {
  double distance_sq = 0.0;     ///< ||x_hat_A/N_A − x_hat_B/N_B||^2.
  double expected_noise = 0.0;  ///< E[D^2] under "no drift".
  double noise_std = 0.0;       ///< Std[D^2] under "no drift".
  double sigmas = 0.0;          ///< (distance_sq − expected) / std.
  bool drifted = false;         ///< sigmas > threshold and epochs big enough.
};

class DriftDetector {
 public:
  explicit DriftDetector(DriftConfig config = {}) : config_(config) {}

  const DriftConfig& config() const { return config_; }

  /// Scores the drift between two sealed epochs decoded with `decoder`
  /// (both must have been collected under it). kInvalidArgument when a
  /// histogram does not match the decoder's m or an epoch has no reports.
  StatusOr<DriftScore> Score(const ReportDecoder& decoder,
                             const EpochSnapshot& baseline,
                             const EpochSnapshot& current) const;

 private:
  DriftConfig config_;
};

}  // namespace wfm

#endif  // WFM_ADAPTIVE_DRIFT_DETECTOR_H_
