// Tests for RAPPOR (Table 1), the "RAPPOR" registry entry: unary encoding
// with symmetric flips p = 1 - f, q = f, f = 1/(1 + e^{ε/2}). The shared
// unary encoding cases run for its (p, q); the cases below pin what is
// RAPPOR's own: the Table 1 strategy form and its data-independent variance.

#include "unary_encoding_suite.h"

#include <cmath>

#include <gtest/gtest.h>

#include "workload/prefix.h"

namespace wfm {
namespace {

// 300 and 400 trials give a variance-of-variance relative SE of
// ~sqrt(2/400) ~ 7%, so 35% is ~5 SE.
constexpr UnaryCase kRappor{"RAPPOR", 110, 300, 400, 0.35};

INSTANTIATE_UNARY_ENCODING_TESTS(kRappor);

TEST(RapporTest, ExplicitStrategyMatchesTable1Form) {
  // Q[o][u] ∝ e^{(ε/2)(n - ||o - e_u||₁)}.
  const int n = 3;
  const double eps = 1.0;
  const auto [p, q] = ExpectedPq("RAPPOR", eps);
  const Matrix strategy = UnaryEncodingMechanism::BuildExplicitStrategy(n, p, q);
  for (int o = 0; o < 8; ++o) {
    for (int u = 0; u < n; ++u) {
      int hamming = 0;
      for (int bit = 0; bit < n; ++bit) {
        const bool reported = (o >> bit) & 1;
        const bool truth = (bit == u);
        hamming += reported != truth;
      }
      const double expected_ratio = std::exp(eps / 2.0 * (n - hamming));
      EXPECT_NEAR(strategy(o, u) / strategy((1 << u), u),
                  expected_ratio / std::exp(eps / 2.0 * n), 1e-9);
    }
  }
}

TEST(RapporTest, PhiIsTheClosedFormOnPrefix512) {
  // RAPPOR's variance is data-independent, c ||W||²_F with
  // c = f(1-f)/(1-2f)², and the analysis reproduces it bit for bit.
  const double eps = 1.0;
  const WorkloadStats stats = WorkloadStats::From(PrefixWorkload(512));
  const double f = 1.0 / (1.0 + std::exp(eps / 2.0));
  const double c = f * (1.0 - f) / ((1.0 - 2.0 * f) * (1.0 - 2.0 * f));
  const ErrorProfile profile = Create("RAPPOR", stats, eps)->Analyze(stats);
  ASSERT_EQ(profile.phi.size(), 512u);
  for (double phi : profile.phi) EXPECT_EQ(phi, c * stats.frob_sq);
}

}  // namespace
}  // namespace wfm
