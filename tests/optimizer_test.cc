// Tests for Algorithm 2 (projected gradient descent strategy optimization).

#include "core/optimizer.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factorization.h"
#include "core/lower_bound.h"
#include "core/objective.h"
#include "core/strategy.h"
#include "linalg/kernels.h"
#include "linalg/thread_pool.h"
#include "mechanisms/optimized.h"
#include "mechanisms/randomized_response.h"
#include "obs/metrics.h"
#include "workload/workload.h"

namespace wfm {
namespace {

OptimizerConfig FastConfig() {
  OptimizerConfig config;
  config.iterations = 120;
  config.step_search_iterations = 25;
  config.seed = 5;
  return config;
}

std::int64_t CounterValue(const char* name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

std::vector<double> Entries(const Matrix& m) {
  return std::vector<double>(m.data(), m.data() + m.size());
}

TEST(OptimizerTest, RandomInitializationIsFeasible) {
  Rng rng(101);
  for (double eps : {0.5, 1.0, 3.0}) {
    Vector z;
    const ProjectionResult init = RandomInitialStrategy(32, 8, eps, rng, &z);
    EXPECT_TRUE(ValidateStrategy(init.q, eps, 1e-8).valid) << "eps " << eps;
    EXPECT_TRUE(ProjectionFeasible(z, eps));
  }
}

TEST(OptimizerTest, ImprovesOverInitialization) {
  const auto w = CreateWorkload("Prefix", 8);
  const Matrix gram = w->Gram();
  const OptimizerResult res = OptimizeStrategy(gram, 1.0, FastConfig());
  EXPECT_LT(res.objective, res.initial_objective);
}

TEST(OptimizerTest, ResultIsValidStrategy) {
  const auto w = CreateWorkload("Histogram", 8);
  for (double eps : {0.5, 2.0}) {
    const OptimizerResult res = OptimizeStrategy(w->Gram(), eps, FastConfig());
    EXPECT_TRUE(ValidateStrategy(res.q, eps, 1e-7).valid) << "eps " << eps;
  }
}

TEST(OptimizerTest, ObjectiveConsistentWithReportedStrategy) {
  const auto w = CreateWorkload("Prefix", 6);
  const OptimizerResult res = OptimizeStrategy(w->Gram(), 1.0, FastConfig());
  EXPECT_NEAR(EvalObjective(res.q, w->Gram()), res.objective,
              1e-6 * std::max(1.0, res.objective));
}

TEST(OptimizerTest, RespectsLowerBound) {
  for (const char* name : {"Histogram", "Prefix"}) {
    const auto w = CreateWorkload(name, 8);
    const double eps = 1.0;
    const OptimizerResult res = OptimizeStrategy(w->Gram(), eps, FastConfig());
    EXPECT_GE(res.objective, ObjectiveLowerBound(w->Gram(), eps) - 1e-6) << name;
  }
}

TEST(OptimizerTest, BeatsRandomizedResponseOnPrefix) {
  // Adaptivity must pay off on a structured workload.
  const int n = 8;
  const double eps = 1.0;
  const auto w = CreateWorkload("Prefix", n);
  const WorkloadStats stats = WorkloadStats::From(*w);
  const Matrix rr = RandomizedResponseMechanism::BuildStrategy(n, eps);
  const double rr_objective = EvalObjective(rr, stats.gram);

  OptimizerConfig config = FastConfig();
  config.iterations = 300;
  const OptimizerResult res = OptimizeStrategy(stats.gram, eps, config);
  EXPECT_LT(res.objective, rr_objective);
}

TEST(OptimizerTest, DeterministicForSeed) {
  const auto w = CreateWorkload("Histogram", 6);
  OptimizerConfig config = FastConfig();
  config.iterations = 40;
  const OptimizerResult a = OptimizeStrategy(w->Gram(), 1.0, config);
  const OptimizerResult b = OptimizeStrategy(w->Gram(), 1.0, config);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_TRUE(a.q.ApproxEquals(b.q, 0.0));
}

TEST(OptimizerTest, CustomStrategyRows) {
  const auto w = CreateWorkload("Histogram", 6);
  OptimizerConfig config = FastConfig();
  config.random_init_rows = 2 * 6;
  const OptimizerResult res = OptimizeStrategy(w->Gram(), 1.0, config);
  EXPECT_EQ(res.q.rows(), 12);
  EXPECT_TRUE(ValidateStrategy(res.q, 1.0, 1e-7).valid);
}

TEST(OptimizerTest, HistoryIsRecorded) {
  const auto w = CreateWorkload("Prefix", 5);
  OptimizerConfig config = FastConfig();
  config.iterations = 50;
  const OptimizerResult res = OptimizeStrategy(w->Gram(), 1.0, config);
  EXPECT_EQ(static_cast<int>(res.history.size()), 50);
  for (double v : res.history) EXPECT_TRUE(std::isfinite(v));
}

TEST(OptimizerTest, MultipleRestartsNeverHurt) {
  const auto w = CreateWorkload("Prefix", 6);
  OptimizerConfig one = FastConfig();
  one.iterations = 60;
  OptimizerConfig three = one;
  three.num_restarts = 3;
  const double single = OptimizeStrategy(w->Gram(), 1.0, one).objective;
  const double multi = OptimizeStrategy(w->Gram(), 1.0, three).objective;
  EXPECT_LE(multi, single + 1e-9);
}

TEST(OptimizerTest, ParallelRestartsAreDeterministicAcrossThreadCounts) {
  // Best-of-K restarts fan out over the ThreadPool, but each restart owns
  // its (pre-forked) RNG and workspace, so the result — winner included —
  // must be bit-identical whether the pool has one thread or many.
  const auto w = CreateWorkload("Prefix", 6);
  OptimizerConfig config = FastConfig();
  config.iterations = 60;
  config.num_restarts = 4;

  ThreadPool serial(1);
  ThreadPool::SetGlobal(&serial);
  const OptimizerResult one_thread = OptimizeStrategy(w->Gram(), 1.0, config);
  ThreadPool wide(4);
  ThreadPool::SetGlobal(&wide);
  const OptimizerResult four_threads = OptimizeStrategy(w->Gram(), 1.0, config);
  ThreadPool::SetGlobal(nullptr);

  EXPECT_EQ(one_thread.objective, four_threads.objective);
  EXPECT_TRUE(one_thread.q.ApproxEquals(four_threads.q, 0.0));
  EXPECT_EQ(one_thread.history, four_threads.history);
}

TEST(OptimizerTest, ConcurrentRunsAreDeterministicAcrossThreadCounts) {
  // Every independent PGD run (the step-search candidates, the random
  // restart and the baseline warm starts) runs concurrently on the
  // ThreadPool. Prefix(32) at eps = 0.5 also ends several warm starts
  // through the replay exit, so both the exit and the index-ordered winner
  // must give bit-identical results at every pool size.
  const WorkloadStats stats = WorkloadStats::From(*CreateWorkload("Prefix", 32));
  std::vector<OptimizerResult> results;
  std::vector<std::int64_t> skipped;
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    ThreadPool::SetGlobal(&pool);
    const std::int64_t before =
        CounterValue("wfm_optimizer_skipped_iterations_total");
    results.push_back(OptimizedMechanism(stats, 0.5).optimizer_result());
    skipped.push_back(CounterValue("wfm_optimizer_skipped_iterations_total") -
                      before);
    ThreadPool::SetGlobal(nullptr);
  }
  EXPECT_GT(skipped[0], 0) << "test premise: the replay exit fires";
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(Entries(results[0].q), Entries(results[i].q)) << "pool " << i;
    EXPECT_EQ(results[0].z, results[i].z);
    EXPECT_EQ(results[0].objective, results[i].objective);
    EXPECT_EQ(results[0].initial_objective, results[i].initial_objective);
    EXPECT_EQ(results[0].history, results[i].history);
    EXPECT_EQ(results[0].step_size_used, results[i].step_size_used);
    EXPECT_EQ(results[0].cholesky_failures, results[i].cholesky_failures);
    EXPECT_EQ(skipped[0], skipped[i]);
  }
}

TEST(OptimizerTest, OptimizeIsBitIdenticalAcrossKernelBuilds) {
  // The products, solves and projection each pick a portable or an AVX2
  // build; every build gives the same bits, so the whole default build (its
  // step search, restart and warm starts) does too.
  if (!kernels::CpuHasAvx2()) GTEST_SKIP() << "CPU has no AVX2";
  const WorkloadStats stats =
      WorkloadStats::From(*CreateWorkload("Prefix", 32));
  std::vector<OptimizerResult> results;
  for (const kernels::KernelSet* set :
       {&kernels::PortableKernels(), kernels::Avx2Kernels()}) {
    kernels::SetActiveKernelsForTesting(set);
    results.push_back(OptimizedMechanism(stats, 1.0).optimizer_result());
    kernels::SetActiveKernelsForTesting(nullptr);
  }
  ASSERT_EQ(results[0].q.size(), results[1].q.size());
  EXPECT_EQ(0, std::memcmp(results[0].q.data(), results[1].q.data(),
                           results[0].q.size() * sizeof(double)));
  EXPECT_EQ(results[0].objective, results[1].objective);
  EXPECT_EQ(results[0].z, results[1].z);
}

TEST(OptimizerTest, PublishesProjectionAndObjectiveTimePerRun) {
  const std::int64_t runs = CounterValue("wfm_optimizer_runs_total");
  const std::int64_t projection =
      CounterValue("wfm_optimizer_projection_ns_total");
  const std::int64_t objective =
      CounterValue("wfm_optimizer_objective_ns_total");
  OptimizeStrategy(CreateWorkload("Prefix", 16)->Gram(), 1.0, FastConfig());
  EXPECT_GT(CounterValue("wfm_optimizer_runs_total"), runs);
  EXPECT_GT(CounterValue("wfm_optimizer_projection_ns_total"), projection);
  EXPECT_GT(CounterValue("wfm_optimizer_objective_ns_total"), objective);
}

TEST(OptimizerTest, ReplayExitSkipsNothingWithoutFailedSteps) {
  const auto w = CreateWorkload("Prefix", 8);
  const std::int64_t failed = CounterValue("wfm_optimizer_failed_steps_total");
  const std::int64_t skipped =
      CounterValue("wfm_optimizer_skipped_iterations_total");
  OptimizeStrategy(w->Gram(), 1.0, FastConfig());
  EXPECT_EQ(CounterValue("wfm_optimizer_failed_steps_total"), failed)
      << "test premise: no step fails";
  EXPECT_EQ(CounterValue("wfm_optimizer_skipped_iterations_total"), skipped);
}

/// ∇_z backprop as it was before it walked rows: column by column, with a
/// branch on each entry's clip state. The reference for bit-identity.
Vector ColumnMajorZGradient(const Matrix& q_grad, const ProjectionResult& proj,
                            double scale_up) {
  const int m = q_grad.rows();
  const int n = q_grad.cols();
  Vector gz(m, 0.0);
  for (int u = 0; u < n; ++u) {
    double free_sum = 0.0;
    int free_count = 0;
    for (int o = 0; o < m; ++o) {
      if (proj.state(o, u) == ClipState::kFree) {
        free_sum += q_grad(o, u);
        ++free_count;
      }
    }
    const double free_mean = free_count > 0 ? free_sum / free_count : 0.0;
    for (int o = 0; o < m; ++o) {
      const ClipState st = proj.state(o, u);
      if (st == ClipState::kFree) continue;
      const double s = st == ClipState::kAtLower ? 1.0 : scale_up;
      gz[o] += s * (q_grad(o, u) - free_mean);
    }
  }
  return gz;
}

TEST(OptimizerTest, ZGradientBitIdenticalToColumnMajorReference) {
  // Random gradients and clip patterns, with -0.0 and exact-zero gradient
  // entries, an all-free column (no ∇z contribution), an all-clipped column
  // (free mean 0) and an all-zero column (every term exactly 0), through one
  // workspace across growing and shrinking shapes.
  Rng rng(103);
  ZGradientWorkspace ws;
  Vector gz;
  for (const auto& [m, n] : {std::pair{256, 64}, std::pair{7, 3},
                             std::pair{33, 17}, std::pair{1, 1}}) {
    for (int trial = 0; trial < 4; ++trial) {
      ProjectionResult proj;
      proj.q = Matrix(m, n);
      proj.pattern.resize(static_cast<std::size_t>(m) * n);
      Matrix grad(m, n);
      for (int o = 0; o < m; ++o) {
        for (int u = 0; u < n; ++u) {
          const double pick = rng.NextDouble();
          const ClipState clipped =
              pick < 0.8 ? ClipState::kAtLower : ClipState::kAtUpper;
          proj.pattern[static_cast<std::size_t>(o) * n + u] =
              pick < 0.4 ? ClipState::kFree : clipped;
          const double g = rng.Normal(0.0, 1.0);
          grad(o, u) = pick < 0.05 ? -0.0 : (pick > 0.95 ? 0.0 : g);
        }
      }
      // Column 0 stays random: an odd last column shares its lanes' code.
      for (int o = 0; o < m; ++o) {
        ClipState* row = proj.pattern.data() + static_cast<std::size_t>(o) * n;
        if (n >= 4) {
          grad(o, 1) = 0.0;  // Mixed pattern, zero gradient.
          row[n - 2] = ClipState::kFree;
        }
        if (n >= 2) {
          row[n - 1] = o % 2 == 0 ? ClipState::kAtLower : ClipState::kAtUpper;
        }
      }
      const double scale_up = std::exp(rng.Uniform(0.1, 3.0));
      BackpropZGradientInto(grad, proj, scale_up, ws, gz);
      const Vector want = ColumnMajorZGradient(grad, proj, scale_up);
      ASSERT_EQ(gz.size(), want.size());
      EXPECT_EQ(0, std::memcmp(gz.data(), want.data(),
                               gz.size() * sizeof(double)))
          << m << "x" << n << " trial " << trial;
    }
  }
}

TEST(OptimizerTest, DensePrefixBuildRunsNoPseudoInverse) {
  // Prefix(64)'s Gram has λ_min = 0.25, so every failed factorization in
  // its PGD runs is a certified +∞: the default build takes failed steps
  // but never evaluates a pseudo-inverse.
  const WorkloadStats stats =
      WorkloadStats::From(*CreateWorkload("Prefix", 64));
  const std::int64_t failed = CounterValue("wfm_optimizer_failed_steps_total");
  const std::int64_t pinv = CounterValue("wfm_optimizer_pseudo_inverse_total");
  const OptimizedMechanism mechanism(stats, 1.0);
  EXPECT_GT(CounterValue("wfm_optimizer_failed_steps_total"), failed)
      << "test premise: some steps fail to factor";
  EXPECT_EQ(CounterValue("wfm_optimizer_pseudo_inverse_total"), pinv);
  EXPECT_EQ(mechanism.optimizer_result().cholesky_failures, 0);
}

TEST(OptimizerTest, FixedStepSkipsSearch) {
  const auto w = CreateWorkload("Histogram", 5);
  OptimizerConfig config = FastConfig();
  config.step_size = 1e-3;
  const OptimizerResult res = OptimizeStrategy(w->Gram(), 1.0, config);
  EXPECT_EQ(res.step_size_used, 1e-3);
  EXPECT_TRUE(std::isfinite(res.objective));
}

TEST(OptimizerTest, TimeOneIterationRunsAndIsPositive) {
  Rng rng(102);
  const auto w = CreateWorkload("Histogram", 16);
  const double secs = TimeOneIteration(w->Gram(), 1.0, 64, rng);
  EXPECT_GT(secs, 0.0);
  EXPECT_LT(secs, 10.0);
}

TEST(OptimizerDeathTest, RejectsTooFewRows) {
  OptimizerConfig config;
  config.random_init_rows = 3;
  EXPECT_DEATH(OptimizeStrategy(Matrix::Identity(8), 1.0, config), "at least n");
}

}  // namespace
}  // namespace wfm
