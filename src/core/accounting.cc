#include "core/accounting.h"

namespace wfm {

PrivacyAccountant::PrivacyAccountant(double total_budget)
    : total_budget_(total_budget) {
  WFM_CHECK_GT(total_budget, 0.0);
}

bool PrivacyAccountant::CanSpend(double eps) const {
  return eps > 0.0 && spent_ + eps <= total_budget_ + 1e-12;
}

void PrivacyAccountant::Spend(double eps) {
  WFM_CHECK(CanSpend(eps)) << "over budget: spent" << spent_ << "+" << eps
                           << "exceeds" << total_budget_;
  spent_ += eps;
  collections_.push_back(eps);
}

}  // namespace wfm
