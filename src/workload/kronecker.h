// Kronecker-structured workloads over product domains (HDMM-style, see
// SNIPPETS.md §2): W = W_0 ⊗ W_1 ⊗ ... ⊗ W_{k-1} with one small factor per
// attribute. The composed domain is n = Π n_i and the composed query count
// is p = Π p_i, but nothing of that size is ever materialized:
//
//   Gram:     G = ⊗ G_i (Kron of factor Grams); dense only when n is small,
//             otherwise exposed through GramMatVec via the (A⊗B)x vec-trick.
//   Apply:    mode-wise contraction delegating each fiber to the factor's
//             own matrix-free Apply (prefix sums, FWHT, ...).
//   Frob²:    Π ‖W_i‖_F² (the Frobenius norm is multiplicative over ⊗).
//
// Index convention: factor 0 is the most significant attribute, i.e. the
// flattened user type is u = ((u_0·n_1 + u_1)·n_2 + u_2)·... — matching
// linalg/kron.h.
//
// ParseWorkload gives the factory grammar "Prefix(256)xHistogram(64)x
// AllRange(32)": factor specs `Name(n)` joined by 'x', where Name is any
// StandardWorkloadNames() entry. A single-factor spec returns the plain
// workload (no wrapper).

#ifndef WFM_WORKLOAD_KRONECKER_H_
#define WFM_WORKLOAD_KRONECKER_H_

#include <memory>
#include <string>
#include <vector>

#include "workload/workload.h"

namespace wfm {

class KroneckerWorkload final : public Workload {
 public:
  /// Takes ownership of the per-attribute factors. Requires >= 2 factors,
  /// each supporting a dense Gram (factors are small by design; the product
  /// is what gets big). The composed domain must fit an int.
  explicit KroneckerWorkload(std::vector<std::unique_ptr<Workload>> factors);

  /// "Prefix(256)xHistogram(64)" — round-trips through ParseWorkload.
  std::string Name() const override;
  int domain_size() const override { return n_; }
  std::int64_t num_queries() const override { return num_queries_; }

  /// Dense ⊗ G_i; only when HasDenseGram() (small composed domains, used by
  /// the dense optimizer path and cross-checks).
  Matrix Gram() const override;
  double FrobeniusNormSq() const override;

  /// Composed Gram stays dense-materializable only up to kDenseGramLimit.
  bool HasDenseGram() const override { return n_ <= kDenseGramLimit; }
  /// y = (⊗ G_i) x via mode-wise contraction: O(n · Σ n_i) flops, O(n)
  /// memory, for any composed n.
  Vector GramMatVec(const Vector& x) const override;

  bool HasExplicitMatrix() const override;
  Matrix ExplicitMatrix() const override;

  /// W x by contracting one mode at a time with the factor's own Apply.
  /// Peak memory is O(max intermediate) = O(max(n, p)) for the usual
  /// wider-than-tall factors — never p x n.
  Vector Apply(const Vector& x) const override;

  int num_factors() const { return static_cast<int>(factors_.size()); }
  const Workload& factor(int i) const { return *factors_[i]; }

  /// Largest composed domain for which Gram() materializes densely.
  static constexpr int kDenseGramLimit = 4096;

 private:
  std::vector<std::unique_ptr<Workload>> factors_;
  std::vector<Matrix> factor_grams_;
  std::vector<int> factor_sizes_;
  int n_ = 1;
  std::int64_t num_queries_ = 1;
};

/// Parses the factory grammar: one or more `Name(n)` factor specs joined by
/// 'x'. A single factor returns the underlying workload directly; two or
/// more return a KroneckerWorkload. Aborts (WFM_CHECK) on malformed specs.
std::unique_ptr<Workload> ParseWorkload(const std::string& spec);

}  // namespace wfm

#endif  // WFM_WORKLOAD_KRONECKER_H_
