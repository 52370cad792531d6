#include "estimation/estimator.h"

namespace wfm {

WorkloadEstimate EstimateWorkloadAnswers(const ReportDecoder& decoder,
                                         const Workload& workload,
                                         const Vector& aggregate,
                                         std::int64_t num_reports,
                                         EstimatorKind kind) {
  WFM_CHECK_EQ(workload.domain_size(), decoder.n());
  WorkloadEstimate out;
  switch (kind) {
    case EstimatorKind::kUnbiased:
      out.data_vector = decoder.EstimateDataVector(aggregate, num_reports);
      break;
    case EstimatorKind::kWnnls:
      out.data_vector = WnnlsEstimate(decoder, aggregate, num_reports).x;
      break;
  }
  out.query_answers = workload.Apply(out.data_vector);
  return out;
}

}  // namespace wfm
