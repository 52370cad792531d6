#include "core/factorization.h"

#include <algorithm>
#include <cmath>

#include "linalg/pseudo_inverse.h"
#include "workload/kronecker.h"

namespace wfm {

WorkloadStats WorkloadStats::From(const Workload& w) {
  WorkloadStats s;
  s.n = w.domain_size();
  s.p = w.num_queries();
  // Gate before materializing: huge structured domains only expose the Gram
  // operator (GramMatVec); their stats carry the per-factor Grams instead.
  if (w.HasDenseGram()) s.gram = w.Gram();
  s.frob_sq = w.FrobeniusNormSq();
  s.name = w.Name();
  if (const auto* kron = dynamic_cast<const KroneckerWorkload*>(&w)) {
    s.factors.reserve(static_cast<std::size_t>(kron->num_factors()));
    for (int i = 0; i < kron->num_factors(); ++i) {
      s.factors.push_back(WorkloadStats::From(kron->factor(i)));
    }
  }
  return s;
}

double ErrorProfile::WorstUnitVariance() const {
  double m = 0.0;
  for (double v : phi) m = std::max(m, v);
  return m;
}

double ErrorProfile::AverageUnitVariance() const {
  WFM_CHECK(!phi.empty());
  return Sum(phi) / static_cast<double>(phi.size());
}

double ErrorProfile::DataVariance(const Vector& x) const {
  return Dot(x, phi);
}

double ErrorProfile::SampleComplexity(double alpha) const {
  WFM_CHECK_GT(alpha, 0.0);
  WFM_CHECK_GT(num_queries, 0);
  return WorstUnitVariance() / (static_cast<double>(num_queries) * alpha);
}

double ErrorProfile::SampleComplexityOnData(const Vector& x, double alpha) const {
  WFM_CHECK_GT(alpha, 0.0);
  const double total = Sum(x);
  WFM_CHECK_GT(total, 0.0);
  return DataVariance(x) / (total * static_cast<double>(num_queries) * alpha);
}

FactorizationAnalysis::FactorizationAnalysis(Matrix q, const WorkloadStats& workload)
    : q_(std::move(q)), n_(workload.n), p_(workload.p) {
  const int m = q_.rows();
  const int n = q_.cols();
  WFM_CHECK_EQ(n, n_) << "strategy domain mismatch";
  const Matrix& gram = workload.gram;
  WFM_CHECK_EQ(gram.rows(), n);

  // D⁻¹ with zero-mass rows treated as unused outputs.
  Vector d = q_.RowSums();
  Vector dinv(m);
  for (int o = 0; o < m; ++o) {
    dinv[o] = d[o] > 1e-300 ? 1.0 / d[o] : 0.0;
  }

  Matrix dq = q_;       // D⁻¹ Q.
  ScaleRows(dq, dinv);
  const Matrix a = MultiplyATB(q_, dq);  // A = Qᵀ D⁻¹ Q (n x n, PSD).

  PsdSolver solver(a);

  // Objective L(Q) = tr(A† G).
  const Matrix x = solver.Solve(gram);
  objective_ = x.Trace();

  // B = A† Qᵀ D⁻¹ = A† (D⁻¹Q)ᵀ  (n x m).
  b_ = solver.Solve(dq.Transpose());

  // c_o = [Bᵀ G B]_oo: columnwise inner products of B with GB.
  const Matrix gb = Multiply(gram, b_);  // n x m.
  Vector c(m, 0.0);
  for (int i = 0; i < n_; ++i) {
    const double* brow = b_.RowPtr(i);
    const double* gbrow = gb.RowPtr(i);
    for (int o = 0; o < m; ++o) c[o] += brow[o] * gbrow[o];
  }

  // P = B Q (n x n); psi_u = [Pᵀ G P]_uu.
  const Matrix p = Multiply(b_, q_);
  const Matrix gp = Multiply(gram, p);
  psi_.assign(n_, 0.0);
  for (int i = 0; i < n_; ++i) {
    const double* prow = p.RowPtr(i);
    const double* gprow = gp.RowPtr(i);
    for (int u = 0; u < n_; ++u) psi_[u] += prow[u] * gprow[u];
  }

  // phi_u = sum_o q_ou c_o - psi_u.
  t_ = MultiplyTVec(q_, c);
  phi_.resize(n_);
  for (int u = 0; u < n_; ++u) {
    // Guard round-off: variance contributions are non-negative by
    // construction (covariance of a multinomial is PSD).
    phi_[u] = std::max(0.0, t_[u] - psi_[u]);
  }

  // Factorization residual ||G(BQ) - G||_max / ||G||_max. Since null(G) =
  // null(W), G(BQ - I) = 0 holds exactly when W(BQ - I) = 0, so G(BQ) = G
  // is equivalent to (WB)Q = W. GP was already computed above.
  double max_diff = 0.0;
  for (int i = 0; i < n_; ++i) {
    for (int j = 0; j < n_; ++j) {
      max_diff = std::max(max_diff, std::abs(gp(i, j) - gram(i, j)));
    }
  }
  const double gmax = gram.MaxAbs();
  residual_ = gmax > 0 ? max_diff / gmax : max_diff;
}

Matrix FactorizationAnalysis::OptimalV(const Matrix& w_explicit) const {
  WFM_CHECK_EQ(w_explicit.cols(), n_);
  return Multiply(w_explicit, b_);
}

}  // namespace wfm
