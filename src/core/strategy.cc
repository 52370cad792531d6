#include "core/strategy.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace wfm {

std::string StrategyValidation::ToString() const {
  std::ostringstream os;
  os << (valid ? "valid" : "INVALID")
     << " (col sum err " << max_column_sum_error << ", negativity "
     << max_negativity << ", min epsilon " << min_epsilon << ")";
  return os.str();
}

StrategyValidation ValidateStrategy(const Matrix& q, double eps, double tol) {
  StrategyValidation v;
  const int m = q.rows();
  const int n = q.cols();
  WFM_CHECK_GT(m, 0);
  WFM_CHECK_GT(n, 0);

  for (int o = 0; o < m; ++o) {
    const double* row = q.RowPtr(o);
    for (int u = 0; u < n; ++u) {
      if (row[u] < 0.0) v.max_negativity = std::max(v.max_negativity, -row[u]);
    }
  }
  const Vector col_sums = q.ColSums();
  for (double s : col_sums) {
    v.max_column_sum_error = std::max(v.max_column_sum_error, std::abs(s - 1.0));
  }
  v.min_epsilon = MinimumEpsilon(q);
  v.valid = v.max_negativity <= tol && v.max_column_sum_error <= tol &&
            v.min_epsilon <= eps + tol;
  return v;
}

double MinimumEpsilon(const Matrix& q) {
  double worst = 0.0;
  for (int o = 0; o < q.rows(); ++o) {
    const double* row = q.RowPtr(o);
    double lo = std::numeric_limits<double>::infinity();
    double hi = 0.0;
    for (int u = 0; u < q.cols(); ++u) {
      const double val = std::max(row[u], 0.0);
      lo = std::min(lo, val);
      hi = std::max(hi, val);
    }
    if (hi == 0.0) continue;  // All-zero row: output never occurs; no constraint.
    if (lo == 0.0) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, std::log(hi / lo));
  }
  return worst;
}

}  // namespace wfm
