#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "core/lanes.h"
#include "core/objective.h"
#include "linalg/thread_pool.h"
#include "obs/metrics.h"

namespace wfm {
namespace {

// Optimizer telemetry, recorded per PGD run (never per iteration, so the
// allocation-free inner loop stays untouched): run/iteration/failure
// totals, backtracked steps and iterations cut by the replay exit (the
// objective's pseudo-inverse count goes through PublishPseudoInverses), full
// Optimize() spans, the probe-iteration span behind the Figure 3c
// scalability bench, and the last converged objective.
Counter& OptimizerRuns() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_optimizer_runs_total");
  return counter;
}

Counter& OptimizerIterations() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_optimizer_iterations_total");
  return counter;
}

Counter& OptimizerCholeskyFailures() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "wfm_optimizer_cholesky_failures_total");
  return counter;
}

Counter& OptimizerFailedSteps() {
  static Counter& counter =
      MetricsRegistry::Global().GetCounter("wfm_optimizer_failed_steps_total");
  return counter;
}

Counter& OptimizerSkippedIterations() {
  static Counter& counter = MetricsRegistry::Global().GetCounter(
      "wfm_optimizer_skipped_iterations_total");
  return counter;
}

Histogram& OptimizeDuration() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "wfm_optimizer_optimize_duration_ns");
  return histogram;
}

Histogram& ProbeIterationDuration() {
  static Histogram& histogram = MetricsRegistry::Global().GetHistogram(
      "wfm_optimizer_probe_iteration_ns");
  return histogram;
}

Gauge& LastObjective() {
  static Gauge& gauge =
      MetricsRegistry::Global().GetGauge("wfm_optimizer_last_objective");
  return gauge;
}

/// Keeps z inside the projection's feasibility region
/// Σz <= 1 <= e^ε Σz (ProjectionFeasible, core/projection.h) with a small
/// margin.
void RepairZFeasibility(Vector& z, double eps, int m) {
  for (double& v : z) v = std::min(std::max(v, 0.0), 1.0);
  const double kLowMargin = 0.98;   // Σz must stay below this.
  const double kHighMargin = 1.02;  // e^ε Σz must stay above this.
  const double scale_up = std::exp(eps);
  double s = Sum(z);
  if (s > kLowMargin) {
    const double f = kLowMargin / s;
    for (double& v : z) v *= f;
    s = kLowMargin;
  }
  if (scale_up * s < kHighMargin) {
    if (s <= 0.0) {
      // Degenerate: reset to the canonical initialization.
      const double init = (1.0 + std::exp(-eps)) / (2.0 * m);
      z.assign(m, init);
      return;
    }
    // Below ε = ln 1.02, raising e^ε Σz to the high margin would push Σz
    // past 1; aim Σz at the middle of [e^-ε, 1] instead, the canonical
    // initialization's Σz.
    const double f = scale_up >= kHighMargin
                         ? kHighMargin / (scale_up * s)
                         : 0.5 * (1.0 + 1.0 / scale_up) / s;
    for (double& v : z) v = std::min(v * f, 1.0);
    if (scale_up * Sum(z) < 1.0) {
      const double init = (1.0 + std::exp(-eps)) / (2.0 * m);
      z.assign(m, init);
    }
  }
}

struct RunResult {
  Matrix q;
  Vector z;
  double objective;
  double initial_objective;
  std::vector<double> history;
  int cholesky_failures = 0;
};

/// One full PGD run. Starts from `initial` (strategy + z) if provided,
/// otherwise from a fresh random initialization with m rows.
struct InitialPoint {
  Matrix q;
  Vector z;
};

/// Every buffer the PGD loop touches, allocated once per run and reused
/// across its iterations. After the first iteration at a given (m, n) warms
/// the buffers, the loop body performs no heap allocation on the Cholesky
/// path.
struct PgdWorkspace {
  explicit PgdWorkspace(const GramCertificate& certificate) {
    obj.certificate = &certificate;
  }

  ObjectiveWorkspace obj;
  ProjectionWorkspace proj_ws;
  ProjectionResult proj;
  Matrix r;   ///< Pre-projection gradient step Q - β∇.
  Vector z;
  ZGradientWorkspace gz_ws;
  Vector gz;  ///< Backpropagated ∇_z.
  Vector failed_z;  ///< z of the previous failed step (replay exit).
};

bool BitwiseEqual(const double* a, const double* b, std::size_t count) {
  return std::memcmp(a, b, count * sizeof(double)) == 0;
}

RunResult RunOnce(const Matrix& gram, double eps, const OptimizerConfig& config,
                  int m, double step, int iterations, Rng& rng,
                  bool record_history, PgdWorkspace& ws,
                  const InitialPoint* initial = nullptr) {
  const int n = gram.rows();
  RunResult run;
  Vector& z = ws.z;
  ProjectionResult& proj = ws.proj;
  if (initial != nullptr) {
    z = initial->z;
    m = initial->q.rows();
    // Re-projecting the seed records its clipping pattern for ∇_z.
    ProjectOntoLdpPolytope(initial->q, z, eps, ws.proj_ws, proj);
  } else {
    proj = RandomInitialStrategy(m, n, eps, rng, &z);
  }

  ObjectiveValue eval =
      EvalObjectiveAndGradient(proj.q, gram, config.population, ws.obj);
  run.initial_objective = eval.value;
  run.q = proj.q;
  run.z = z;
  run.objective = eval.value;
  if (record_history) run.history.reserve(iterations);

  const double scale_up = std::exp(eps);
  const double alpha_ratio = 1.0 / (n * scale_up);  // α = β/(n e^ε).
  double beta = step;
  bool previous_failed = false;
  int failed_steps = 0;
  int skipped_iterations = 0;

  for (int t = 0; t < iterations; ++t) {
    if (!eval.used_cholesky) ++run.cholesky_failures;

    // z step with backprop through the previous projection.
    BackpropZGradientInto(ws.obj.gradient, proj, scale_up, ws.gz_ws, ws.gz);
    for (int o = 0; o < m; ++o) z[o] -= beta * alpha_ratio * ws.gz[o];
    RepairZFeasibility(z, eps, m);

    // Q step + projection.
    ws.r = proj.q;
    for (int o = 0; o < m; ++o) {
      double* rrow = ws.r.RowPtr(o);
      const double* grow = ws.obj.gradient.RowPtr(o);
      for (int u = 0; u < n; ++u) rrow[u] -= beta * grow[u];
    }
    ProjectOntoLdpPolytope(ws.r, z, eps, ws.proj_ws, proj);

    eval = EvalObjectiveAndGradient(proj.q, gram, config.population, ws.obj);
    if (!std::isfinite(eval.value)) {
      ++failed_steps;
      // Replay exit. The previous step failed too, so this one started from
      // the best iterate with every entry kFree: ∇z was 0 and z only went
      // through the repair. If the repair left z bitwise unchanged and the
      // Q step left the best iterate bitwise unchanged, every later
      // iteration recomputes this same failed projection (a halved β
      // cannot move Q either, because rounding is monotone), so the rest
      // of the run could only add the fallback count below.
      const bool replay =
          previous_failed &&
          BitwiseEqual(ws.r.data(), run.q.data(),
                       static_cast<std::size_t>(m) * n) &&
          BitwiseEqual(z.data(), ws.failed_z.data(), z.size());
      // Step too aggressive: halve and restart from the best iterate.
      beta *= 0.5;
      proj.q = run.q;
      std::fill(proj.pattern.begin(), proj.pattern.end(), ClipState::kFree);
      eval = EvalObjectiveAndGradient(proj.q, gram, config.population, ws.obj);
      if (replay) {
        skipped_iterations = iterations - t - 1;
        if (!eval.used_cholesky) run.cholesky_failures += skipped_iterations;
        break;
      }
      ws.failed_z = z;
      previous_failed = true;
      continue;
    }
    previous_failed = false;
    if (eval.value < run.objective) {
      run.objective = eval.value;
      run.q = proj.q;
      run.z = z;
    }
    if (record_history) run.history.push_back(eval.value);
  }
  OptimizerRuns().Increment();
  OptimizerIterations().Add(iterations);
  OptimizerCholeskyFailures().Add(run.cholesky_failures);
  OptimizerFailedSteps().Add(failed_steps);
  OptimizerSkippedIterations().Add(skipped_iterations);
  PublishPseudoInverses(ws.obj);
  return run;
}

/// Runs `count` independent PGD runs concurrently on the global pool. Each
/// run gets a private workspace, and run(i, ws)'s result lands in slot i, so
/// the output is the same at every thread count. Kernels inside a run
/// execute inline while the pool is busy with the runs themselves. The runs
/// share `certificate`, whose one lazy computation gives the same answer
/// whichever run triggers it.
template <typename Fn>
auto RunConcurrently(int count, const GramCertificate& certificate, Fn&& run) {
  using Result = decltype(run(0, std::declval<PgdWorkspace&>()));
  std::vector<Result> results(count);
  ThreadPool::Global().ParallelFor(count, [&](int begin, int end) {
    for (int i = begin; i < end; ++i) {
      PgdWorkspace ws(certificate);
      results[i] = run(i, ws);
    }
  });
  return results;
}

/// Warm start from a caller-provided seed strategy (Section 4's "initialize
/// with an existing mechanism" option). For a valid ε-LDP seed, z = row
/// minima automatically satisfies both projection feasibility conditions:
/// sum_o min_u Q_ou <= sum_o Q_ou = 1 and e^ε sum_o z_o >= sum_o Q_ou = 1.
InitialPoint SeedInitialPoint(const Matrix& seed_q) {
  InitialPoint init;
  init.q = seed_q;
  init.z.resize(seed_q.rows());
  for (int o = 0; o < seed_q.rows(); ++o) {
    double lo = seed_q(o, 0);
    for (int u = 1; u < seed_q.cols(); ++u) lo = std::min(lo, seed_q(o, u));
    init.z[o] = std::max(0.0, lo);
  }
  return init;
}

}  // namespace

void BackpropZGradientInto(const Matrix& q_grad, const ProjectionResult& proj,
                           double scale_up, ZGradientWorkspace& ws,
                           Vector& gz) {
  using lanes::Broadcast2;
  using lanes::Lanes;
  using lanes::Mask;
  using lanes::Select2;
  const int m = q_grad.rows();
  const int n = q_grad.cols();
  const auto state_row = [&](int o) {
    return proj.pattern.data() + static_cast<std::size_t>(o) * n;
  };
  // Entries that do not contribute add -0.0, the exact additive identity,
  // so every sum keeps the value and the order of the column-by-column
  // loop. The selects run on two lanes (core/lanes.h): pairs of columns
  // for the free sums, pairs of rows for gz. With an odd count the last
  // column or row fills both lanes and is written once.
  const Lanes neg_zero = Broadcast2(-0.0);
  const Mask free_state =
      lanes::Splat2(static_cast<std::int64_t>(ClipState::kFree));
  const Mask lower_state =
      lanes::Splat2(static_cast<std::int64_t>(ClipState::kAtLower));
  ws.free_mean.assign(n, 0.0);
  ws.free_count.assign(n, 0);
  double* free_sum = ws.free_mean.data();
  std::int64_t* free_count = ws.free_count.data();
  for (int o = 0; o < m; ++o) {
    const double* g = q_grad.RowPtr(o);
    const ClipState* state = state_row(o);
    for (int u = 0; u < n; u += 2) {
      const int v = std::min(u + 1, n - 1);  // == u for an odd last column.
      const Mask is_free = lanes::Eq2(
          Mask{static_cast<std::int64_t>(state[u]),
               static_cast<std::int64_t>(state[v])},
          free_state);
      const Lanes sum = Lanes{free_sum[u], free_sum[v]} +
                        Select2(is_free, Lanes{g[u], g[v]}, neg_zero);
      free_sum[u] = sum[0];
      free_sum[v] = sum[1];
      const Mask count = Mask{free_count[u], free_count[v]} - is_free;
      free_count[u] = count[0];
      free_count[v] = count[1];
    }
  }
  double* free_mean = free_sum;
  for (int u = 0; u < n; ++u) {
    free_mean[u] = free_count[u] > 0
                       ? free_sum[u] / static_cast<double>(free_count[u])
                       : 0.0;
  }
  gz.resize(m);
  const Lanes scale2 = Broadcast2(scale_up);
  const Lanes one = Broadcast2(1.0);
  for (int o = 0; o < m; o += 2) {
    const int p = std::min(o + 1, m - 1);  // == o for an odd last row.
    const double* g0 = q_grad.RowPtr(o);
    const double* g1 = q_grad.RowPtr(p);
    const ClipState* s0 = state_row(o);
    const ClipState* s1 = state_row(p);
    Lanes acc = Broadcast2(0.0);
    for (int u = 0; u < n; ++u) {
      const Mask state = {static_cast<std::int64_t>(s0[u]),
                          static_cast<std::int64_t>(s1[u])};
      const Lanes s = Select2(lanes::Eq2(state, lower_state), one, scale2);
      const Lanes term = s * (Lanes{g0[u], g1[u]} - Broadcast2(free_mean[u]));
      acc += Select2(lanes::Eq2(state, free_state), neg_zero, term);
    }
    gz[o] = acc[0];
    gz[p] = acc[1];
  }
}

ProjectionResult RandomInitialStrategy(int m, int n, double eps, Rng& rng,
                                       Vector* z_out) {
  WFM_CHECK_GT(m, 0);
  WFM_CHECK_GT(n, 0);
  Matrix r(m, n);
  for (int o = 0; o < m; ++o) {
    double* row = r.RowPtr(o);
    for (int u = 0; u < n; ++u) row[u] = rng.NextDouble();
  }
  // Paper: z = (1+e^{-ε})/(8n) with m = 4n; equivalently (1+e^{-ε})/(2m),
  // which keeps Σz = (1+e^{-ε})/2 ∈ [1/2, 1] for any m.
  Vector z(m, (1.0 + std::exp(-eps)) / (2.0 * m));
  ProjectionResult proj = ProjectOntoLdpPolytope(r, z, eps);
  if (z_out != nullptr) *z_out = std::move(z);
  return proj;
}

OptimizerResult OptimizeStrategy(const Matrix& gram, double eps,
                                 const OptimizerConfig& config) {
  ScopedTimer span(OptimizeDuration());
  WFM_CHECK_EQ(gram.rows(), gram.cols());
  WFM_CHECK_GT(eps, 0.0);
  const int n = gram.rows();
  const int m = config.random_init_rows > 0 ? config.random_init_rows : 4 * n;
  WFM_CHECK_GE(m, n) << "strategy must have at least n rows to span the workload";
  if (!config.population.empty()) {
    WFM_CHECK_EQ(static_cast<int>(config.population.size()), n)
        << "population weight vector must match the domain size";
    double mass = 0.0;
    for (const double w : config.population) {
      WFM_CHECK(std::isfinite(w) && w >= 0.0)
          << "population weights must be finite and non-negative";
      mass += w;
    }
    WFM_CHECK_GT(mass, 0.0) << "population weights must not all be zero";
  }

  Rng rng(config.seed);
  const GramCertificate certificate(gram);

  // Normalize step candidates by the RMS gradient magnitude at a fresh
  // initialization so the candidates are problem-scale free.
  double grad_rms = 1.0;
  {
    Rng probe = rng.Fork();
    ProjectionResult proj = RandomInitialStrategy(m, n, eps, probe, nullptr);
    ObjectiveWorkspace probe_ws;
    probe_ws.certificate = &certificate;
    EvalObjectiveAndGradient(proj.q, gram, config.population, probe_ws);
    PublishPseudoInverses(probe_ws);
    grad_rms = std::sqrt(probe_ws.gradient.FrobeniusNormSq() /
                         (static_cast<double>(m) * n));
    if (!(grad_rms > 0.0) || !std::isfinite(grad_rms)) grad_rms = 1.0;
  }

  double step = config.step_size;
  if (step <= 0.0) {
    const Rng search_rng = rng.Fork();
    const int num_candidates = static_cast<int>(config.step_candidates.size());
    const std::vector<double> trials =
        RunConcurrently(num_candidates, certificate,
                        [&](int i, PgdWorkspace& ws) {
          Rng trial_rng = search_rng;  // Same seed for all candidates.
          return RunOnce(gram, eps, config, m,
                         config.step_candidates[i] / grad_rms,
                         config.step_search_iterations, trial_rng,
                         /*record_history=*/false, ws)
              .objective;
        });
    double best_obj = std::numeric_limits<double>::infinity();
    for (int i = 0; i < num_candidates; ++i) {
      if (std::isfinite(trials[i]) && trials[i] < best_obj) {
        best_obj = trials[i];
        step = config.step_candidates[i] / grad_rms;
      }
    }
    if (step <= 0.0) {
      // Every candidate hit a degenerate initialization (possible at tiny m);
      // fall back to the most conservative candidate.
      step = config.step_candidates.front() / grad_rms;
    }
  }

  const int num_restarts = config.num_restarts;
  const int num_runs =
      num_restarts + static_cast<int>(config.seed_strategies.size());
  WFM_CHECK(num_runs > 0)
      << "need at least one random restart or seed strategy";
  for (const Matrix& seed_q : config.seed_strategies) {
    WFM_CHECK_EQ(seed_q.cols(), n) << "seed strategy domain mismatch";
  }
  // Random restarts, then one warm start per seed strategy. Their RNGs are
  // forked serially in index order before any run starts, so the stream
  // each run sees is a function of (seed, index) alone, never of
  // scheduling.
  std::vector<Rng> run_rngs;
  run_rngs.reserve(num_runs);
  for (int i = 0; i < num_runs; ++i) run_rngs.push_back(rng.Fork());
  std::vector<RunResult> runs =
      RunConcurrently(num_runs, certificate, [&](int i, PgdWorkspace& ws) {
        if (i < num_restarts) {
          return RunOnce(gram, eps, config, m, step, config.iterations,
                         run_rngs[i], /*record_history=*/true, ws);
        }
        const InitialPoint init =
            SeedInitialPoint(config.seed_strategies[i - num_restarts]);
        return RunOnce(gram, eps, config, m, step, config.iterations,
                       run_rngs[i], /*record_history=*/true, ws, &init);
      });

  // The winner is chosen after the barrier in index order, so ties break to
  // the lowest index at every thread count.
  OptimizerResult out;
  out.step_size_used = step;
  out.objective = std::numeric_limits<double>::infinity();
  for (int i = 0; i < num_runs; ++i) {
    RunResult& run = runs[i];
    if (run.objective < out.objective) {
      out.objective = run.objective;
      out.q = std::move(run.q);
      out.z = std::move(run.z);
      out.initial_objective = run.initial_objective;
      out.history = std::move(run.history);
      out.cholesky_failures = run.cholesky_failures;
    }
  }
  LastObjective().Set(out.objective);
  return out;
}

double TimeOneIteration(const Matrix& gram, double eps, int m, Rng& rng) {
  const int n = gram.rows();
  Vector z;
  ProjectionResult proj = RandomInitialStrategy(m, n, eps, rng, &z);
  ScopedTimer span(ProbeIterationDuration());
  ObjectiveEvaluation eval = EvalObjectiveAndGradient(proj.q, gram);
  Matrix r = proj.q;
  r -= eval.gradient;  // Unit step; magnitude is irrelevant for timing.
  ProjectionResult next = ProjectOntoLdpPolytope(r, z, eps);
  // Touch the output so the work cannot be elided.
  volatile double sink = next.q(0, 0) + eval.value;
  (void)sink;
  return static_cast<double>(span.Stop()) * 1e-9;
}

}  // namespace wfm
