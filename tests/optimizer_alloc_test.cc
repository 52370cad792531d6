// Asserts the optimizer's zero-allocation contract with a counting global
// allocator: after a warm-up pass sizes every workspace buffer, the PGD
// iteration body (objective + gradient into the workspace, gradient step,
// projection into reused buffers) performs no heap allocation on the
// Cholesky path, and OptimizeStrategy's total allocation count is
// independent of the iteration budget, also when steps fail to factor under
// a well-conditioned Gram (a certified +∞ step needs no pseudo-inverse).
//
// Under ASan/TSan the counting allocator (tests/counting_allocator.h) is
// compiled out and the suite self-skips — the plain Debug and Release CI
// builds are the enforcing configurations.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "gtest/gtest.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/projection.h"
#include "linalg/matrix.h"
#include "linalg/rng.h"
#include "obs/metrics.h"
#include "counting_allocator.h"

namespace wfm {
namespace {

Matrix SpdGram(int n, Rng& rng) {
  Matrix a(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) a(r, c) = rng.Uniform(-1.0, 1.0);
  }
  Matrix gram = MultiplyATB(a, a);
  for (int i = 0; i < n; ++i) gram(i, i) += 1.0;
  return gram;
}

TEST(OptimizerAllocTest, IterationPrimitivesAreAllocationFreeAfterWarmup) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  const int n = 16;
  const int m = 64;
  const double eps = 1.0;
  Rng rng(17);
  const Matrix gram = SpdGram(n, rng);

  ObjectiveWorkspace obj;
  ProjectionWorkspace proj_ws;
  ProjectionResult proj;
  Vector z;
  proj = RandomInitialStrategy(m, n, eps, rng, &z);
  Matrix r;

  auto iteration = [&] {
    const ObjectiveValue eval = EvalObjectiveAndGradient(proj.q, gram, obj);
    ASSERT_TRUE(eval.used_cholesky) << "test premise: PD path";
    r = proj.q;
    for (int o = 0; o < m; ++o) {
      double* rrow = r.RowPtr(o);
      const double* grow = obj.gradient.RowPtr(o);
      for (int u = 0; u < n; ++u) rrow[u] -= 1e-3 * grow[u];
    }
    ProjectOntoLdpPolytope(r, z, eps, proj_ws, proj);
  };

  // Warm-up: sizes every buffer (including thread-local scratch).
  for (int t = 0; t < 3; ++t) iteration();

  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (int t = 0; t < 5; ++t) iteration();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "PGD iteration primitives allocated after warm-up";
#endif
}

TEST(OptimizerAllocTest, OptimizeAllocationCountIndependentOfIterations) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  Rng rng(23);
  const Matrix gram = SpdGram(16, rng);

  auto run = [&](int iterations) {
    OptimizerConfig config;
    config.random_init_rows = 64;
    config.iterations = iterations;
    // Skip the search phase (one run per call) with a step small enough that
    // the strategy never leaves the positive-definite region: the claim under
    // test is zero allocation on the Cholesky path (the rare pseudo-inverse
    // fallback is allowed to allocate).
    config.step_size = 1e-7;
    config.num_restarts = 1;
    config.seed = 7;
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const OptimizerResult result = OptimizeStrategy(gram, 1.0, config);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(std::isfinite(result.objective));
    EXPECT_EQ(result.cholesky_failures, 0) << "test premise: PD path only";
    return after - before;
  };

  run(4);  // Warm-up for thread-local scratch shared across calls.
  const std::size_t short_run = run(4);
  const std::size_t long_run = run(24);
  EXPECT_EQ(short_run, long_run)
      << "per-iteration allocations detected: " << short_run << " allocations "
      << "for 4 iterations vs " << long_run << " for 24";
#endif
}

TEST(OptimizerAllocTest, FailedStepsAllocateNothingPerIteration) {
#if !WFM_COUNTING_ALLOCATOR
  GTEST_SKIP() << "counting allocator disabled under sanitizers";
#else
  Rng rng(23);
  const Matrix gram = SpdGram(16, rng);
  Counter& failed_steps =
      MetricsRegistry::Global().GetCounter("wfm_optimizer_failed_steps_total");

  // A step of 1e-3 drives the strategy off the positive-definite region:
  // every one of the first 4 iterations fails to factor, and 10 of 24 do.
  // Each failed step is a certified +∞ (the Gram is positive definite), so
  // it must allocate nothing either.
  auto run = [&](int iterations) {
    OptimizerConfig config;
    config.random_init_rows = 64;
    config.iterations = iterations;
    config.step_size = 1e-3;
    config.num_restarts = 1;
    config.seed = 7;
    const std::int64_t failed_before = failed_steps.value();
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    const OptimizerResult result = OptimizeStrategy(gram, 1.0, config);
    const std::size_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_TRUE(std::isfinite(result.objective));
    EXPECT_GE(failed_steps.value() - failed_before, 4)
        << "test premise: steps fail";
    return after - before;
  };

  run(4);  // Warm-up for thread-local scratch shared across calls.
  const std::size_t short_run = run(4);
  const std::size_t long_run = run(24);
  EXPECT_EQ(short_run, long_run)
      << "per-iteration allocations detected: " << short_run << " allocations "
      << "for 4 iterations vs " << long_run << " for 24";
#endif
}

}  // namespace
}  // namespace wfm
