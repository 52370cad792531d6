#include "ldp/protocol.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/samplers.h"

namespace wfm {

Vector SimulateResponseHistogram(const Matrix& q, const Vector& x, Rng& rng) {
  WFM_CHECK_EQ(q.cols(), static_cast<int>(x.size()));
  Vector y(q.rows(), 0.0);
  for (int u = 0; u < q.cols(); ++u) {
    const std::int64_t count = std::llround(x[u]);
    WFM_CHECK_GE(count, 0) << "data vector entries must be non-negative counts";
    if (count == 0) continue;
    const std::vector<std::int64_t> draws =
        SampleMultinomial(rng, count, q.Col(u));
    for (int o = 0; o < q.rows(); ++o) y[o] += static_cast<double>(draws[o]);
  }
  return y;
}

Vector SimulateResponseHistogramPerUser(const Matrix& q, const Vector& x,
                                        Rng& rng) {
  const LocalRandomizer randomizer(q);
  Vector y(q.rows(), 0.0);
  for (int u = 0; u < q.cols(); ++u) {
    const std::int64_t count = std::llround(x[u]);
    WFM_CHECK_GE(count, 0);
    for (std::int64_t j = 0; j < count; ++j) {
      y[randomizer.Respond(u, rng)] += 1.0;
    }
  }
  return y;
}

}  // namespace wfm
