// Tests for Optimized Unary Encoding (ref [41]), the "OUE" registry entry:
// unary encoding with p = 1/2, q = 1/(e^ε + 1). The shared unary encoding
// cases run for its (p, q); the case below pins ref [41]'s claim against
// RAPPOR.

#include "unary_encoding_suite.h"

#include <gtest/gtest.h>

namespace wfm {
namespace {

// 1500 variance trials give a variance-of-variance relative SE of ~3.7%, so
// 12% is >3 SE.
constexpr UnaryCase kOue{"OUE", 220, 400, 1500, 0.12};

INSTANTIATE_UNARY_ENCODING_TESTS(kOue);

TEST(OueTest, DominatesRapporOnHistogram) {
  // Ref [41]'s headline: the asymmetric encoding has lower variance than
  // symmetric RAPPOR at every ε.
  const int n = 16;
  const WorkloadStats stats = WorkloadStats::From(HistogramWorkload(n));
  for (double eps : {0.5, 1.0, 2.0, 4.0}) {
    EXPECT_LT(Create("OUE", stats, eps)->Analyze(stats).SampleComplexity(0.01),
              Create("RAPPOR", stats, eps)->Analyze(stats).SampleComplexity(0.01))
        << "eps " << eps;
  }
}

}  // namespace
}  // namespace wfm
