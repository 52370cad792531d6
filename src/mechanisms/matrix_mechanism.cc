#include "mechanisms/matrix_mechanism.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/pseudo_inverse.h"

namespace wfm {
namespace {

/// Client half of the distributed Matrix Mechanism: report A e_u + xi with
/// iid per-coordinate noise (Laplace for pure ε, Gaussian for (ε, δ)).
class AdditiveNoiseReporter final : public Reporter {
 public:
  AdditiveNoiseReporter(const Matrix& a, MatrixMechanism::NoiseType type,
                        double noise_scale)
      : columns_(a.Transpose()), type_(type), noise_scale_(noise_scale) {}

  int num_outputs() const override { return columns_.cols(); }
  int num_types() const override { return columns_.rows(); }
  bool dense_reports() const override { return true; }

  Report Respond(int user_type, Rng& rng) const override {
    WFM_CHECK(user_type >= 0 && user_type < num_types())
        << "user type out of range:" << user_type << "for n =" << num_types();
    Report report;
    report.dense = columns_.Row(user_type);  // A e_u.
    for (double& coord : report.dense) {
      coord += type_ == MatrixMechanism::NoiseType::kLaplaceL1
                   ? rng.Laplace(noise_scale_)
                   : rng.Normal(0.0, noise_scale_);
    }
    return report;
  }

 private:
  Matrix columns_;  // n x k transpose of the strategy: row u is A e_u.
  MatrixMechanism::NoiseType type_;
  double noise_scale_;  // Laplace scale b, or Gaussian sigma.
};

/// tr[(AᵀA)† G]; uses Cholesky when AᵀA is PD, else the spectral pinv.
double ReconstructionFactor(const Matrix& a, const Matrix& gram) {
  const Matrix ata = MultiplyATB(a, a);
  PsdSolver solver(ata);
  return solver.Solve(gram).Trace();
}

/// Checks rowspace(W) ⊆ rowspace(A) via the Gram-side residual
/// ||G (AᵀA)†(AᵀA) - G||, which vanishes iff W's row space is covered.
bool CoversWorkload(const Matrix& a, const Matrix& gram) {
  const Matrix ata = MultiplyATB(a, a);
  const Matrix pinv = SymmetricPseudoInverse(ata);
  const Matrix proj = Multiply(pinv, ata);  // Projector onto rowspace(A).
  const Matrix gp = Multiply(gram, proj);
  const double scale = std::max(1.0, gram.MaxAbs());
  return (gp - gram).MaxAbs() <= 1e-6 * scale;
}

/// Additive noise: every user type contributes the same variance.
ErrorProfile ConstantProfile(int n, double unit_variance, int num_queries) {
  ErrorProfile profile;
  profile.phi.assign(n, unit_variance);
  profile.num_queries = num_queries;
  return profile;
}

}  // namespace

MatrixMechanism::MatrixMechanism(int n, double eps, NoiseType type, double delta)
    : n_(n), eps_(eps), type_(type), delta_(delta) {
  WFM_CHECK_GT(n, 0);
  WFM_CHECK_GT(eps, 0.0);
  WFM_CHECK(delta > 0.0 && delta < 1.0);
}

double MatrixMechanism::L1Sensitivity(const Matrix& a) {
  const int n = a.cols();
  const int k = a.rows();
  // Work on the transpose so columns are contiguous.
  const Matrix at = a.Transpose();  // n x k.
  double worst = 0.0;
  for (int u = 0; u < n; ++u) {
    const double* cu = at.RowPtr(u);
    for (int v = u + 1; v < n; ++v) {
      const double* cv = at.RowPtr(v);
      double dist = 0.0;
      for (int i = 0; i < k; ++i) dist += std::abs(cu[i] - cv[i]);
      worst = std::max(worst, dist);
    }
  }
  return worst;
}

double MatrixMechanism::L2Sensitivity(const Matrix& a) {
  // ||a_u - a_v||² = M_uu + M_vv - 2 M_uv with M = AᵀA: O(n²) after one
  // product instead of O(n² k) direct distances.
  const Matrix m = MultiplyATB(a, a);
  double worst_sq = 0.0;
  for (int u = 0; u < m.rows(); ++u) {
    for (int v = u + 1; v < m.cols(); ++v) {
      worst_sq = std::max(worst_sq, m(u, u) + m(v, v) - 2.0 * m(u, v));
    }
  }
  return std::sqrt(std::max(0.0, worst_sq));
}

double MatrixMechanism::NoiseVariance(double sensitivity) const {
  if (type_ == NoiseType::kLaplaceL1) {
    const double scale = sensitivity / eps_;
    return 2.0 * scale * scale;
  }
  // Analytic Gaussian mechanism calibration for (ε, δ)-DP.
  const double sigma = sensitivity * std::sqrt(2.0 * std::log(1.25 / delta_)) / eps_;
  return sigma * sigma;
}

Matrix MatrixMechanism::HierarchicalTreeStrategy(int n) {
  // Levels of dyadic cells from 2 cells down to n singleton cells; include
  // the leaf level so the strategy always spans R^n.
  std::vector<int> levels;
  int cells = 1;
  while (cells < n) {
    cells = std::min(n, cells * 2);
    levels.push_back(cells);
  }
  if (levels.empty()) levels.push_back(1);
  int rows = 0;
  for (int c : levels) rows += c;
  Matrix a(rows, n);
  int row0 = 0;
  for (int c : levels) {
    for (int u = 0; u < n; ++u) {
      const int cell = static_cast<int>((static_cast<std::int64_t>(u) * c) / n);
      a(row0 + cell, u) = 1.0;
    }
    row0 += c;
  }
  return a;
}

StatusOr<MatrixMechanism::StrategyChoice> MatrixMechanism::ChooseStrategy(
    const WorkloadStats& workload) const {
  if (Status s = RequireDenseStats(workload); !s.ok()) return s;
  struct Candidate {
    Matrix a;
    std::string description;
  };
  std::vector<Candidate> candidates;
  candidates.push_back({Matrix::Identity(n_), "identity"});
  candidates.push_back({PsdSqrt(workload.gram), "gram square root"});
  candidates.push_back({HierarchicalTreeStrategy(n_), "dyadic tree"});

  StrategyChoice best;
  best.unit_variance = std::numeric_limits<double>::infinity();
  for (auto& cand : candidates) {
    if (!CoversWorkload(cand.a, workload.gram)) continue;
    const double sens = type_ == NoiseType::kLaplaceL1 ? L1Sensitivity(cand.a)
                                                       : L2Sensitivity(cand.a);
    if (sens <= 0.0) continue;
    const double unit =
        NoiseVariance(sens) * ReconstructionFactor(cand.a, workload.gram);
    if (unit < best.unit_variance) {
      best.unit_variance = unit;
      best.a = std::move(cand.a);
      best.description = cand.description;
    }
  }
  if (!std::isfinite(best.unit_variance)) {
    return Status::FailedPrecondition(
        Name() + " has no valid strategy for workload " + workload.name);
  }
  return best;
}

StatusOr<ErrorProfile> MatrixMechanism::TryAnalyze(
    const WorkloadStats& workload) const {
  StatusOr<StrategyChoice> choice = ChooseStrategy(workload);
  if (!choice.ok()) return choice.status();
  return ConstantProfile(n_, choice.value().unit_variance, workload.p);
}

StatusOr<Deployment> MatrixMechanism::Deploy(
    std::shared_ptr<const WorkloadStats> workload) const {
  StatusOr<StrategyChoice> chosen = ChooseStrategy(*workload);
  if (!chosen.ok()) return chosen.status();
  const StrategyChoice& choice = chosen.value();
  const double sensitivity = type_ == NoiseType::kLaplaceL1
                                 ? L1Sensitivity(choice.a)
                                 : L2Sensitivity(choice.a);
  // NoiseVariance is 2b² for Laplace(b) and σ² for Gaussian(σ); recover the
  // sampling parameter from the calibrated variance.
  const double variance = NoiseVariance(sensitivity);
  const double noise_scale = type_ == NoiseType::kLaplaceL1
                                 ? std::sqrt(variance / 2.0)
                                 : std::sqrt(variance);
  return Deployment{
      std::make_shared<AdditiveNoiseReporter>(choice.a, type_, noise_scale),
      std::make_shared<const ReportDecoder>(
          std::vector<Matrix>{PseudoInverse(choice.a)}, workload),
      ConstantProfile(n_, choice.unit_variance, workload->p)};
}

}  // namespace wfm
