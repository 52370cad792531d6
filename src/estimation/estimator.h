// End-to-end estimation pipeline: report aggregate -> data-vector estimate
// -> workload answers. Bundles the unbiased path (x_hat = (⊗ B_i) y) and the
// consistent WNNLS path (over the matching Gram factors ⊗ G_i) behind one
// call used by the serving path (EstimateServer), the examples, and
// Figure 4.
//
// There is one entry point: a ReportDecoder (estimation/decoder.h) plus the
// report count N behind the aggregate. Dense and Kronecker deployments are
// both factor lists, and affine decoders (RAPPOR/OUE bit vectors) need N to
// debias. A strategy factorization enters as the one-factor decoder
// ReportDecoder({analysis.ReconstructionB()}, stats), where `stats` is the
// shared_ptr<const WorkloadStats> the analysis was built from.

#ifndef WFM_ESTIMATION_ESTIMATOR_H_
#define WFM_ESTIMATION_ESTIMATOR_H_

#include <cstdint>

#include "estimation/decoder.h"
#include "estimation/wnnls.h"
#include "workload/workload.h"

namespace wfm {

enum class EstimatorKind {
  kUnbiased,   ///< x_hat = B y; estimates may be negative/inconsistent.
  kWnnls,      ///< Appendix A: non-negative least squares post-processing.
};

struct WorkloadEstimate {
  Vector data_vector;      ///< Estimated x_hat.
  Vector query_answers;    ///< W x_hat.
};

/// Produces workload answers from the aggregate of all reports.
/// `num_reports` is the report count N behind the aggregate — ignored by
/// linear decoders, required by affine ones (RAPPOR/OUE).
WorkloadEstimate EstimateWorkloadAnswers(const ReportDecoder& decoder,
                                         const Workload& workload,
                                         const Vector& aggregate,
                                         std::int64_t num_reports,
                                         EstimatorKind kind);

}  // namespace wfm

#endif  // WFM_ESTIMATION_ESTIMATOR_H_
