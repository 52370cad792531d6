// Public umbrella header for the workload-adaptive LDP factorization
// mechanism library (McKenna, Maniatis, Miklau, VLDB 2020).
//
// Downstream consumers (examples, benches, services, future subsystems)
// should include this header and link the wfm::all CMake target rather than
// reaching into module internals. Module-level headers remain includable
// individually for translation units that want tighter dependencies.

#ifndef WFM_WFM_H_
#define WFM_WFM_H_

// common: diagnostics, flags, status, timing, table output.
#include "common/check.h"
#include "common/flags.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/timer.h"

// obs: runtime telemetry — lock-free counters/gauges/histograms, the
// process-wide registry, and Prometheus/JSON exposition.
#include "obs/exposition.h"
#include "obs/metrics.h"

// linalg: the dense numerical substrate.
#include "linalg/cholesky.h"
#include "linalg/hadamard.h"
#include "linalg/matrix.h"
#include "linalg/pseudo_inverse.h"
#include "linalg/rng.h"
#include "linalg/samplers.h"
#include "linalg/symmetric_eigen.h"

// workload: linear query workload families (Section 2.1).
#include "workload/dense_workload.h"
#include "workload/histogram.h"
#include "workload/kronecker.h"
#include "workload/marginals.h"
#include "workload/parity.h"
#include "workload/prefix.h"
#include "workload/range.h"
#include "workload/workload.h"

// data: datasets and domain bucketization.
#include "data/bucketizer.h"
#include "data/datasets.h"

// core: strategies, factorization analysis, the optimizer (Algorithm 2).
#include "core/accounting.h"
#include "core/factored.h"
#include "core/factorization.h"
#include "core/lower_bound.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/projection.h"
#include "core/strategy.h"

// ldp: client-side randomizers, reporters, and protocol simulation.
#include "ldp/local_randomizer.h"
#include "ldp/protocol.h"
#include "ldp/reporter.h"

// mechanisms: baselines and the workload-optimized mechanism (Section 6).
#include "mechanisms/fourier.h"
#include "mechanisms/hadamard_response.h"
#include "mechanisms/hierarchical.h"
#include "mechanisms/matrix_mechanism.h"
#include "mechanisms/mechanism.h"
#include "mechanisms/optimized.h"
#include "mechanisms/randomized_response.h"
#include "mechanisms/registry.h"
#include "mechanisms/subset_selection.h"
#include "mechanisms/unary_encoding.h"

// estimation: report aggregate -> workload answers.
#include "estimation/decoder.h"
#include "estimation/estimator.h"
#include "estimation/wnnls.h"

// collect: the concurrent online half of a deployment — sharded report
// ingestion, epoch snapshots, cached estimate serving.
#include "collect/collection_session.h"
#include "collect/estimate_server.h"
#include "collect/sharded_aggregator.h"

// api: the deployable front door. Most consumers only need
//   Plan::For(workload).Epsilon(eps).Mechanism(name).Build()
// and the Client()/StartSession() handles it returns.
#include "api/plan.h"

// wire: serialized report/snapshot/estimate encodings, durable epoch
// snapshots, and the TCP service front end over a PlanSession.
#include "wire/fault_injection.h"
#include "wire/service.h"
#include "wire/snapshot_store.h"
#include "wire/wire_format.h"

// adaptive: drift-aware re-optimization and strategy rollover across
// serving epochs — the feedback loop over a strategy-based PlanSession.
#include "adaptive/adaptive_controller.h"
#include "adaptive/budget_planner.h"
#include "adaptive/drift_detector.h"

#endif  // WFM_WFM_H_
