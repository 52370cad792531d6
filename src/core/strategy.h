// Strategy matrices (Proposition 2.6): a finite-range ε-LDP mechanism is a
// column-stochastic matrix Q in R^{m x n} with Q[o][u] = Pr[output o |
// input u] whose rows satisfy the ratio constraint
// Q[o][u] <= e^ε Q[o][u'] for all o, u, u'.

#ifndef WFM_CORE_STRATEGY_H_
#define WFM_CORE_STRATEGY_H_

#include <string>

#include "linalg/matrix.h"

namespace wfm {

/// Result of validating a candidate strategy matrix against Proposition 2.6.
struct StrategyValidation {
  bool valid = false;
  /// Worst violation of column stochasticity |1ᵀ q_u - 1|.
  double max_column_sum_error = 0.0;
  /// Worst negative entry (0 if none).
  double max_negativity = 0.0;
  /// Smallest ε under which the matrix satisfies the ratio constraint
  /// (+inf when some row mixes zero and nonzero entries).
  double min_epsilon = 0.0;
  std::string ToString() const;
};

/// Validates Q against Proposition 2.6 at privacy budget eps.
StrategyValidation ValidateStrategy(const Matrix& q, double eps,
                                    double tol = 1e-9);

/// Smallest ε such that Q is ε-LDP: max over rows of log(max entry / min
/// entry). Returns +inf when a row mixes zero and positive entries.
double MinimumEpsilon(const Matrix& q);

}  // namespace wfm

#endif  // WFM_CORE_STRATEGY_H_
