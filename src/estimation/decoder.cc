#include "estimation/decoder.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "linalg/kron.h"

namespace wfm {
namespace {

Status CheckAggregateDimension(const Vector& aggregate, int m) {
  if (static_cast<int>(aggregate.size()) != m) {
    return Status::InvalidArgument(
        "aggregate has dimension " + std::to_string(aggregate.size()) +
        ", decoder expects m = " + std::to_string(m));
  }
  return Status::Ok();
}

}  // namespace

ReportDecoder::ReportDecoder(std::vector<Matrix> b_factors,
                             std::shared_ptr<const WorkloadStats> stats)
    : b_factors_(std::move(b_factors)), stats_(std::move(stats)) {
  WFM_CHECK(stats_ != nullptr);
  WFM_CHECK(!b_factors_.empty()) << "linear decoder needs a decode factor";
  if (b_factors_.size() > 1) {
    WFM_CHECK(stats_->factored())
        << "Kronecker decoder needs Kronecker-structured workload stats";
    WFM_CHECK_EQ(b_factors_.size(), stats_->factors.size())
        << "decode factor count mismatch";
  }
  std::int64_t m = 1;
  std::int64_t n = 1;
  for (std::size_t i = 0; i < b_factors_.size(); ++i) {
    WFM_CHECK_GT(b_factors_[i].rows(), 0);
    WFM_CHECK_GT(b_factors_[i].cols(), 0);
    if (b_factors_.size() > 1) {
      WFM_CHECK_EQ(b_factors_[i].rows(), stats_->factors[i].n)
          << "decode factor" << i << "domain mismatch";
    }
    m = CheckedMulNonNegative(m, b_factors_[i].cols());
    n = CheckedMulNonNegative(n, b_factors_[i].rows());
  }
  WFM_CHECK_EQ(n, stats_->n);
  WFM_CHECK_LE(m, std::numeric_limits<int>::max())
      << "composed output alphabet exceeds int";
  m_ = static_cast<int>(m);
}

ReportDecoder::ReportDecoder(AffineDebias debias,
                             std::shared_ptr<const WorkloadStats> stats)
    : stats_(std::move(stats)), affine_(debias) {
  WFM_CHECK(stats_ != nullptr);
  WFM_CHECK_GT(stats_->n, 0);
  m_ = stats_->n;
  // Unbiased debiasing needs p > q (the map is not invertible at p == q) and
  // both must be probabilities.
  WFM_CHECK(affine_->q >= 0.0 && affine_->q < affine_->p && affine_->p <= 1.0)
      << "affine debias requires 0 <= q < p <= 1, got p =" << affine_->p
      << "q =" << affine_->q;
}

const AffineDebias& ReportDecoder::affine_debias() const {
  WFM_CHECK(affine_.has_value()) << "affine_debias() on a linear decoder";
  return *affine_;
}

std::vector<const Matrix*> ReportDecoder::DecodeFactors() const {
  std::vector<const Matrix*> factors;
  factors.reserve(b_factors_.size());
  for (const Matrix& b : b_factors_) factors.push_back(&b);
  return factors;
}

std::vector<const Matrix*> ReportDecoder::gram_factors() const {
  std::vector<const Matrix*> grams;
  if (b_factors_.size() > 1) {
    for (const WorkloadStats& f : stats_->factors) grams.push_back(&f.gram);
  } else {
    grams.push_back(&stats_->gram);
  }
  return grams;
}

Vector ReportDecoder::EstimateDataVector(const Vector& aggregate,
                                         std::int64_t num_reports) const {
  StatusOr<Vector> estimate = TryEstimateDataVector(aggregate, num_reports);
  WFM_CHECK(estimate.ok()) << estimate.status().ToString();
  return std::move(estimate).value();
}

StatusOr<Vector> ReportDecoder::TryEstimateDataVector(
    const Vector& aggregate, std::int64_t num_reports) const {
  if (Status s = CheckAggregateDimension(aggregate, m_); !s.ok()) return s;
  if (!affine_) return KroneckerMatVec(DecodeFactors(), aggregate);
  if (num_reports < 0) {
    return Status::InvalidArgument("report count must be non-negative, got " +
                                   std::to_string(num_reports));
  }
  const double shift = static_cast<double>(num_reports) * affine_->q;
  const double inv_gap = 1.0 / (affine_->p - affine_->q);
  Vector estimate(m_);
  for (int u = 0; u < m_; ++u) {
    estimate[u] = (aggregate[u] - shift) * inv_gap;
  }
  return estimate;
}

StatusOr<Vector> ReportDecoder::EstimateVariance(
    const Vector& aggregate, std::int64_t num_reports) const {
  if (Status s = CheckAggregateDimension(aggregate, m_); !s.ok()) return s;
  if (num_reports <= 0) {
    return Status::InvalidArgument("no reports to estimate a variance from");
  }
  const double count = static_cast<double>(num_reports);
  Vector pi(m_);
  for (int o = 0; o < m_; ++o) {
    pi[o] = std::clamp(aggregate[o] / count, 0.0, 1.0);
  }
  const int n = stats_->n;
  Vector variance(n);
  if (affine_) {
    const double gap = affine_->p - affine_->q;
    for (int i = 0; i < n; ++i) {
      variance[i] = pi[i] * (1.0 - pi[i]) / (count * gap * gap);
    }
    return variance;
  }
  std::vector<Matrix> squared = b_factors_;
  std::vector<const Matrix*> squared_ptrs;
  for (Matrix& b : squared) {
    double* v = b.data();
    for (std::size_t j = 0; j < b.size(); ++j) v[j] = v[j] * v[j];
    squared_ptrs.push_back(&b);
  }
  const Vector second_moment = KroneckerMatVec(squared_ptrs, pi);
  const Vector mean = KroneckerMatVec(DecodeFactors(), pi);
  for (int i = 0; i < n; ++i) {
    variance[i] = std::max(0.0, second_moment[i] - mean[i] * mean[i]) / count;
  }
  return variance;
}

}  // namespace wfm
