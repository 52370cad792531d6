// Privacy budget accounting for repeated LDP collection.
//
// Pure ε-LDP composes additively (sequential composition): if the same user
// answers k collections at budgets ε_1..ε_k, the joint release is
// (Σ ε_i)-LDP. PrivacyAccountant keeps a deployment honest about its total
// budget; adaptive/BudgetPlanner decides how to spend it across epochs.

#ifndef WFM_CORE_ACCOUNTING_H_
#define WFM_CORE_ACCOUNTING_H_

#include <vector>

#include "common/check.h"

namespace wfm {

/// Tracks cumulative ε spent per user across collections.
class PrivacyAccountant {
 public:
  explicit PrivacyAccountant(double total_budget);

  double total_budget() const { return total_budget_; }
  double spent() const { return spent_; }
  double remaining() const { return total_budget_ - spent_; }

  /// True if `eps` more can be spent without exceeding the budget.
  bool CanSpend(double eps) const;

  /// Records a collection; CHECK-fails on over-spend (callers must gate on
  /// CanSpend for recoverable handling).
  void Spend(double eps);

  /// History of per-collection budgets (sequential composition summands).
  const std::vector<double>& collections() const { return collections_; }

 private:
  double total_budget_;
  double spent_ = 0.0;
  std::vector<double> collections_;
};

}  // namespace wfm

#endif  // WFM_CORE_ACCOUNTING_H_
