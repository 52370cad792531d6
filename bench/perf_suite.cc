// Performance-trajectory suite: times the dense kernels and the Cholesky
// factorization (tuned vs the retained reference), one objective+gradient
// evaluation (at a large random-Gram shape and at the dense-prefix PGD
// shape), one Algorithm 1 projection, a full Optimize() run, two WNNLS
// decodes (a dense Prefix Gram, and Prefix(65) ⊗ Prefix(65) past the
// Cholesky block limit), the encode and decode of one ingest batch body,
// the envelope CRC-32 and set-bit counting of bit-vector ingest, one
// shard's AcceptBatch of a categorical batch, the same batch validated and
// counted by PlanSession::AcceptBatch, one shard's Accept of one bit vector,
// and one 512-bit RAPPOR report on the device (bit-sliced draws against the
// one-draw-per-coordinate loop they replaced), then writes the measurements
// to a JSON file so CI can accumulate a per-commit perf trajectory.
//
// Output schema (BENCH_perf.json): a JSON array of
//   {"kernel": <name>, "shape": <"MxKxN" or parameter string>,
//    "ns_per_op": <best-of-reps wall time per op>, "gflops": <rate, 0 for
//    composite ops where a flop count is not meaningful>}
// `<name>_ref` rows are the pre-PR kernels on identical inputs; the ratio
// ns_per_op(ref) / ns_per_op(new) is the speedup this PR's acceptance
// criteria track.
//
// The header names the GEMM/solve kernel build in use (linalg/kernels.h)
// and the ingest kernel builds (wire/crc32.h, collect/bit_counts.h); the
// crc32_ref and bit_counts_ref rows time their portable builds.
//
// Flags: --quick (smaller shapes + fewer reps; what the perf-smoke CI job
// runs), --reps=N, --out=path.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/plan.h"
#include "bench/bench_util.h"
#include "collect/bit_counts.h"
#include "collect/sharded_aggregator.h"
#include "common/timer.h"
#include "core/objective.h"
#include "core/optimizer.h"
#include "core/projection.h"
#include "estimation/wnnls.h"
#include "linalg/cholesky.h"
#include "linalg/kernels.h"
#include "linalg/kron.h"
#include "linalg/matrix.h"
#include "linalg/reference_kernels.h"
#include "linalg/rng.h"
#include "linalg/thread_pool.h"
#include "ldp/reporter.h"
#include "wire/byte_order.h"
#include "wire/crc32.h"
#include "wire/wire_format.h"
#include "workload/histogram.h"
#include "workload/workload.h"

namespace {

struct Entry {
  std::string kernel;
  std::string shape;
  double ns_per_op = 0.0;
  double gflops = 0.0;
};

wfm::Matrix RandomMatrix(int rows, int cols, wfm::Rng& rng) {
  wfm::Matrix m(rows, cols);
  for (int r = 0; r < rows; ++r) {
    double* row = m.RowPtr(r);
    for (int c = 0; c < cols; ++c) row[c] = rng.Uniform(-1.0, 1.0);
  }
  return m;
}

/// Best-of-reps wall time of fn() in seconds. fn must do the full op.
template <typename Fn>
double TimeBest(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    wfm::Stopwatch timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

/// The ldp_respond_ref row: BitVectorReporter::Respond as it drew before
/// its draws were bit-sliced, one NextUint64() per coordinate against that
/// coordinate's threshold. The same law, other bits for a given seed.
wfm::Report RespondPerCoordinate(int n, int user_type,
                                 std::uint64_t p_threshold,
                                 std::uint64_t q_threshold, wfm::Rng& rng) {
  wfm::Report report;
  report.bits = wfm::PackedBits::Zeros(n);
  const std::span<std::uint64_t> words = report.bits.mutable_words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    const int begin = static_cast<int>(w) * 64;
    const int len = std::min(n - begin, 64);
    std::uint64_t word = 0;
    for (int i = begin; i < begin + len; ++i) {
      const std::uint64_t threshold =
          i == user_type ? p_threshold : q_threshold;
      const bool bit = (rng.NextUint64() >> 11) < threshold;
      word = (word >> 1) | (static_cast<std::uint64_t>(bit) << 63);
    }
    words[w] = word >> (64 - len);
  }
  return report;
}

std::string ShapeString(int m, int k, int n) {
  return std::to_string(m) + "x" + std::to_string(k) + "x" + std::to_string(n);
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "  {\"kernel\": \"%s\", \"shape\": \"%s\", "
                 "\"ns_per_op\": %.1f, \"gflops\": %.3f}%s\n",
                 e.kernel.c_str(), e.shape.c_str(), e.ns_per_op, e.gflops,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu entries to %s\n", entries.size(), path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const wfm::bench::UnusedFlagWarner warn_unused(flags);
  const bool quick = flags.GetBool("quick", false);
  const int reps = flags.GetInt("reps", quick ? 3 : 5);
  const std::string out = flags.GetString("out", "BENCH_perf.json");

  wfm::bench::PrintHeader(
      "Perf trajectory suite: dense kernels, optimizer, WNNLS",
      "no paper analogue; feeds BENCH_perf.json per commit",
      std::string("reps = ") + std::to_string(reps) +
          (quick ? ", --quick shapes" : ", full shapes") + ", " +
          std::to_string(wfm::ThreadPool::Global().num_threads()) +
          " threads, " + wfm::kernels::ActiveKernels().name + " kernels, " +
          (wfm::crc32::Pclmul() != nullptr ? "pclmul" : "portable") +
          " crc32, " + wfm::bit_counts::Active().name + " bit counts");

  std::vector<Entry> entries;
  wfm::TablePrinter table({"kernel", "shape", "ms/op", "GFLOP/s", "speedup"});
  double sink = 0.0;  // Defeats dead-code elimination of the timed products.

  auto record = [&](const std::string& kernel, const std::string& shape,
                    double seconds, double flops, double ref_seconds) {
    const double gflops = flops > 0 ? flops / seconds / 1e9 : 0.0;
    entries.push_back({kernel, shape, seconds * 1e9, gflops});
    table.AddRow({kernel, shape, wfm::TablePrinter::Num(seconds * 1e3),
                  flops > 0 ? wfm::TablePrinter::Num(gflops) : "-",
                  ref_seconds > 0
                      ? wfm::TablePrinter::Num(ref_seconds / seconds)
                      : "-"});
  };

  wfm::Rng rng(42);

  // --- Ingest batch body: encode (client) and decode (server) -------------
  // 256 reports, the perfbench batch: categorical ones (dense-prefix) and
  // 512-bit ones (rappor-prefix). The rows time AppendReportBatch into a
  // reused buffer and DecodeReportBatchInto into reused reports; the _ref
  // rows time the same bytes built and parsed one report buffer at a time
  // (EncodeReport per report copied into a fresh body; DecodeReport per
  // report moved into a fresh vector), as the service did before. These
  // run first: after the large matrices below are freed, the _ref rows'
  // many small, growing allocations ran about 5x slower in this process,
  // which says nothing about the code under test.
  {
    const int kBatch = 256;
    std::vector<wfm::Report> categorical(kBatch), bits(kBatch);
    const wfm::BitVectorReporter rappor(512, 0.75, 0.25);
    // Its own stream, so the later sections' inputs stay what they were.
    wfm::Rng report_rng(43);
    for (int i = 0; i < kBatch; ++i) {
      categorical[i].index = report_rng.UniformInt(256);
      bits[i] = rappor.Respond(report_rng.UniformInt(512), report_rng);
    }
    // One batch is microseconds; time 200 per op for a stable clock.
    const auto per_batch = [&](auto&& fn) {
      return TimeBest(reps, [&] {
               for (int i = 0; i < 200; ++i) fn();
             }) /
             200;
    };
    for (const auto& [shape, reports] :
         {std::pair{"256xcategorical", &categorical},
          std::pair{"256xbits512", &bits}}) {
      wfm::WireBytes body;
      const double t_encode = per_batch([&] {
        body.clear();
        wfm::AppendReportBatch(body, *reports);
        sink += body.back();
      });
      const double t_encode_ref = per_batch([&] {
        wfm::WireBytes fresh;
        wfm::PutU32(fresh, kBatch);
        for (const wfm::Report& r : *reports) {
          const wfm::WireBytes wire = wfm::EncodeReport(r);
          wfm::PutU32(fresh, static_cast<std::uint32_t>(wire.size()));
          fresh.insert(fresh.end(), wire.begin(), wire.end());
        }
        sink += fresh.back();
      });
      record("wire_batch_encode_ref", shape, t_encode_ref, 0.0, 0.0);
      record("wire_batch_encode", shape, t_encode, 0.0, t_encode_ref);

      std::vector<wfm::Report> decoded;
      const double t_decode = per_batch([&] {
        sink += static_cast<double>(
            wfm::DecodeReportBatchInto(body, decoded).value());
      });
      const double t_decode_ref = per_batch([&] {
        std::vector<wfm::Report> fresh;
        fresh.reserve(kBatch);
        const std::span<const std::uint8_t> entries(body);
        std::size_t at = 4;
        for (int k = 0; k < kBatch; ++k) {
          const std::uint32_t len = wfm::GetU32(body.data() + at);
          fresh.push_back(wfm::DecodeReport(entries.subspan(at + 4, len))
                              .value());
          at += 4 + len;
        }
        sink += static_cast<double>(fresh.back().index);
      });
      record("wire_batch_decode_ref", shape, t_decode_ref, 0.0, 0.0);
      record("wire_batch_decode", shape, t_decode, 0.0, t_decode_ref);
    }

    // The two per-bit stages of bit-vector ingest, each in the build this
    // CPU picks against the portable build on the same input: the CRC-32 of
    // one envelope (16 B categorical, 76 B 512-bit, and a long buffer), and
    // the set-bit counts of the 512-bit batch.
    for (const std::size_t length : {16, 76, 4096}) {
      std::vector<std::uint8_t> bytes(kBatch * length);
      for (std::uint8_t& b : bytes) {
        b = static_cast<std::uint8_t>(report_rng.UniformInt(256));
      }
      const auto per_crc = [&](wfm::crc32::Crc32Fn crc) {
        return per_batch([&] {
                 std::uint32_t x = 0;
                 for (int i = 0; i < kBatch; ++i) {
                   x ^= crc(wfm::crc32::kInitialRegister,
                            bytes.data() + i * length, length);
                 }
                 sink += x;
               }) /
               kBatch;
      };
      const std::string shape = std::to_string(length) + "B";
      const double t_ref = per_crc(&wfm::crc32::Portable);
      const double t_new = per_crc(wfm::crc32::Active());
      record("crc32_ref", shape, t_ref, 0.0, 0.0);
      record("crc32", shape, t_new, 0.0, t_ref);
    }
    std::vector<std::atomic<std::int64_t>> counts(512);
    const auto per_count = [&](const wfm::bit_counts::Kernel& kernel) {
      return per_batch([&] { wfm::bit_counts::Add(kernel, bits, counts); });
    };
    const double t_count_ref = per_count(wfm::bit_counts::Portable());
    const double t_count = per_count(wfm::bit_counts::Active());
    sink += static_cast<double>(counts[0].load());
    record("bit_counts_ref", "256xbits512", t_count_ref, 0.0, 0.0);
    record("bit_counts", "256xbits512", t_count, 0.0, t_count_ref);

    // Whole-shard ingest: AcceptBatch of the categorical batch over m = 256
    // (dense-prefix) and over m = 2,097,152 (kron-32k), whose cost must not
    // grow with m, and Accept of one 512-bit report, a kAccept frame.
    for (const int m : {256, 2097152}) {
      std::vector<wfm::Report> reports = categorical;
      if (m != 256) {
        for (wfm::Report& r : reports) r.index = report_rng.UniformInt(m);
      }
      wfm::ShardedAggregator aggregator(m, /*num_shards=*/1);
      const double t_accept =
          per_batch([&] { aggregator.AcceptBatch(0, reports); });
      sink += static_cast<double>(aggregator.num_responses());
      record("accept_batch", "256xcategorical" + std::to_string(m), t_accept,
             0.0, 0.0);
    }
    // The categorical batch through PlanSession::AcceptBatch, which checks
    // every report against the deployment (Randomized Response over
    // Histogram(256), m = 256) before its shard counts the batch: the
    // server's work on a kAcceptBatch frame after the decode.
    {
      const wfm::StatusOr<wfm::Plan> plan =
          wfm::Plan::For(std::make_shared<wfm::HistogramWorkload>(256))
              .Epsilon(1.0)
              .Mechanism("Randomized Response")
              .Build();
      const std::unique_ptr<wfm::PlanSession> session =
          plan.value().StartSession(/*num_shards=*/1);
      const double t_plan_accept = per_batch([&] {
        sink += static_cast<double>(session->AcceptBatch(0, categorical).ok());
      });
      record("plan_accept_batch", "256xcategorical", t_plan_accept, 0.0, 0.0);
    }
    wfm::ShardedAggregator bit_aggregator(512, /*num_shards=*/1,
                                          wfm::ReportKind::kBitVector);
    std::size_t next = 0;  // A new report each call, as on the wire.
    const double t_accept_one = per_batch(
        [&] { bit_aggregator.Accept(0, bits[next++ % bits.size()]); });
    sink += static_cast<double>(bit_aggregator.num_responses());
    record("accept", "1xbits512", t_accept_one, 0.0, 0.0);
  }

  // --- One 512-bit RAPPOR report on the device ----------------------------
  // rappor-prefix's reporter (n = 512, ε = 1: p = 1 − f, q = f for
  // f = 1/(1 + e^½)), timed over 1,000 reports per op, each a fresh report
  // as a device sends it. Its own stream, so the later sections' inputs stay
  // what they were.
  {
    const int n = 512;
    const double f = 1.0 / (1.0 + std::exp(0.5));
    const wfm::BitVectorReporter reporter(n, 1.0 - f, f);
    const std::uint64_t p_threshold = wfm::Rng::BernoulliThreshold(1.0 - f);
    const std::uint64_t q_threshold = wfm::Rng::BernoulliThreshold(f);
    wfm::Rng respond_rng(44);
    const int batch = 1000;
    const auto per_report = [&](auto&& respond) {
      return TimeBest(reps, [&] {
               for (int i = 0; i < batch; ++i) {
                 sink += static_cast<double>(
                     respond(i % n).bits.words()[i % 8] & 1);
               }
             }) /
             batch;
    };
    const double t_ref = per_report([&](int u) {
      return RespondPerCoordinate(n, u, p_threshold, q_threshold,
                                  respond_rng);
    });
    const double t_new =
        per_report([&](int u) { return reporter.Respond(u, respond_rng); });
    record("ldp_respond_ref", "bits512", t_ref, 0.0, 0.0);
    record("ldp_respond", "bits512", t_new, 0.0, t_ref);
  }

  // --- GEMM kernels vs the pre-PR reference --------------------------------
  const std::vector<int> gemm_sizes =
      quick ? std::vector<int>{256, 1024} : std::vector<int>{256, 512, 1024};
  for (int n : gemm_sizes) {
    const wfm::Matrix a = RandomMatrix(n, n, rng);
    const wfm::Matrix b = RandomMatrix(n, n, rng);
    const double flops = 2.0 * n * n * static_cast<double>(n);
    const std::string shape = ShapeString(n, n, n);

    const double t_new =
        TimeBest(reps, [&] { sink += wfm::Multiply(a, b)(0, 0); });
    const double t_ref =
        TimeBest(reps, [&] { sink += wfm::reference::Multiply(a, b)(0, 0); });
    record("multiply_ref", shape, t_ref, flops, 0.0);
    record("multiply", shape, t_new, flops, t_ref);

    const double t_atb_new =
        TimeBest(reps, [&] { sink += wfm::MultiplyATB(a, b)(0, 0); });
    const double t_atb_ref = TimeBest(
        reps, [&] { sink += wfm::reference::MultiplyATB(a, b)(0, 0); });
    record("multiply_atb_ref", shape, t_atb_ref, flops, 0.0);
    record("multiply_atb", shape, t_atb_new, flops, t_atb_ref);

    const double t_abt_new =
        TimeBest(reps, [&] { sink += wfm::MultiplyABT(a, b)(0, 0); });
    const double t_abt_ref = TimeBest(
        reps, [&] { sink += wfm::reference::MultiplyABT(a, b)(0, 0); });
    record("multiply_abt_ref", shape, t_abt_ref, flops, 0.0);
    record("multiply_abt", shape, t_abt_new, flops, t_abt_ref);
  }

  // --- Matrix-vector -------------------------------------------------------
  {
    const int n = quick ? 1024 : 2048;
    const wfm::Matrix a = RandomMatrix(n, n, rng);
    wfm::Vector x(n);
    for (double& v : x) v = rng.Uniform(-1.0, 1.0);
    const double flops = 2.0 * n * static_cast<double>(n);
    const std::string shape = ShapeString(n, n, 1);
    // One matvec is microseconds; batch 50 per timed op for a stable clock.
    const int batch = 50;
    wfm::Vector y;
    const double t_new = TimeBest(reps, [&] {
                           for (int i = 0; i < batch; ++i) {
                             wfm::MultiplyVecInto(a, x, y);
                             sink += y[0];
                           }
                         }) /
                         batch;
    const double t_ref = TimeBest(reps, [&] {
                           for (int i = 0; i < batch; ++i) {
                             sink += wfm::reference::MultiplyVec(a, x)[0];
                           }
                         }) /
                         batch;
    record("multiply_vec_ref", shape, t_ref, flops, 0.0);
    record("multiply_vec", shape, t_new, flops, t_ref);
  }

  // --- Cholesky factorization vs the unblocked reference --------------------
  // n = 64 is the dense-prefix optimizer's A = Qᵀ D⁻¹ Q, n = 290 a typical
  // rappor-prefix WNNLS free block G_FF. The input is B Bᵀ + n I, SPD.
  {
    const std::vector<int> sizes =
        quick ? std::vector<int>{64, 290} : std::vector<int>{64, 290, 1024};
    for (int n : sizes) {
      const wfm::Matrix b = RandomMatrix(n, n, rng);
      wfm::Matrix a = wfm::MultiplyABT(b, b);
      for (int i = 0; i < n; ++i) a(i, i) += n;
      const double flops = static_cast<double>(n) * n * n / 3.0;
      const std::string shape = std::to_string(n) + "x" + std::to_string(n);
      // Batch the sub-millisecond sizes for a stable clock.
      const int batch = std::max(1, 200000000 / (n * n * n));
      wfm::Cholesky chol;
      wfm::Matrix l;
      chol.Factorize(a);  // Warm the buffers.
      const double t_new = TimeBest(reps, [&] {
                             for (int i = 0; i < batch; ++i) {
                               chol.Factorize(a);
                               sink += chol.lower()(n - 1, n - 1);
                             }
                           }) /
                           batch;
      const double t_ref = TimeBest(reps, [&] {
                             for (int i = 0; i < batch; ++i) {
                               wfm::reference::CholeskyFactorize(a, l);
                               sink += l(n - 1, n - 1);
                             }
                           }) /
                           batch;
      record("cholesky_ref", shape, t_ref, flops, 0.0);
      record("cholesky", shape, t_new, flops, t_ref);
    }
  }

  // --- One objective + gradient evaluation (the PGD hot path) --------------
  // A random-Gram evaluation at a size set by --quick, and one at m = 256,
  // n = 64 against Prefix(64)'s Gram, the dense-prefix PGD shape. The
  // latter is sub-millisecond, so it is timed in batches of 20.
  auto time_objective = [&](int n, const wfm::Matrix& gram, int batch) {
    const int m = 4 * n;
    wfm::Rng init_rng(7);
    const wfm::ProjectionResult proj =
        wfm::RandomInitialStrategy(m, n, 1.0, init_rng, nullptr);
    wfm::ObjectiveWorkspace ws;
    wfm::EvalObjectiveAndGradient(proj.q, gram, ws);  // Warm the workspace.
    const double t = TimeBest(reps, [&] {
                       for (int i = 0; i < batch; ++i) {
                         sink += wfm::EvalObjectiveAndGradient(proj.q, gram, ws)
                                     .value;
                       }
                     }) /
                     batch;
    record("objective_eval", ShapeString(m, n, n), t, 0.0, 0.0);
  };
  {
    const int n = quick ? 128 : 256;
    const wfm::Matrix w = RandomMatrix(n, n, rng);
    time_objective(n, wfm::MultiplyATB(w, w), 1);
    time_objective(64, wfm::CreateWorkload("Prefix", 64)->Gram(), 20);
  }

  // --- One Algorithm 1 projection at the dense-prefix restart shape --------
  // m = 256, n = 64 is Prefix(64)'s PGD shape. The input is a feasible
  // strategy plus N(0, 1e-3) noise, about a fifth of an interval width, so
  // every column needs a fresh shift and mixes clipped and free entries.
  {
    const int m = 256, n = 64;
    const double eps = 1.0;
    wfm::Rng init_rng(11);
    wfm::Vector z;
    const wfm::ProjectionResult start =
        wfm::RandomInitialStrategy(m, n, eps, init_rng, &z);
    wfm::Matrix r = start.q;
    for (int o = 0; o < m; ++o) {
      double* row = r.RowPtr(o);
      for (int u = 0; u < n; ++u) row[u] += init_rng.Normal(0.0, 1e-3);
    }
    wfm::ProjectionWorkspace ws;
    wfm::ProjectionResult out;
    wfm::ProjectOntoLdpPolytope(r, z, eps, ws, out);  // Warm the buffers.
    // One projection is sub-millisecond; batch 20 per timed op.
    const int batch = 20;
    const double t = TimeBest(reps, [&] {
                       for (int i = 0; i < batch; ++i) {
                         wfm::ProjectOntoLdpPolytope(r, z, eps, ws, out);
                         sink += out.q(0, 0);
                       }
                     }) /
                     batch;
    const std::string shape = std::to_string(m) + "x" + std::to_string(n);
    record("project", shape, t, 0.0, 0.0);
  }

  // --- Full Optimize() run (the ablation_optimizer end-to-end path) --------
  {
    const int n = 32;
    const auto workload = wfm::CreateWorkload("Prefix", n);
    const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
    wfm::OptimizerConfig config;
    config.iterations = quick ? 100 : 300;
    config.step_search_iterations = 20;
    config.seed = 7;
    const double t = TimeBest(std::max(1, reps / 2), [&] {
      sink += wfm::OptimizeStrategy(stats.gram, 1.0, config).objective;
    });
    record("optimize",
           "n=" + std::to_string(n) + ",iters=" +
               std::to_string(config.iterations),
           t, 0.0, 0.0);
  }

  // --- WNNLS decode --------------------------------------------------------
  {
    const int n = quick ? 256 : 512;
    const auto workload = wfm::CreateWorkload("Prefix", n);
    const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
    wfm::Vector x_true(n);
    for (double& v : x_true) v = std::max(0.0, rng.Uniform(-0.5, 1.0));
    wfm::Vector rhs = wfm::MultiplyVec(stats.gram, x_true);
    for (double& v : rhs) v += rng.Normal(0.0, 0.01);
    wfm::WnnlsOptions options;
    const double t = TimeBest(reps, [&] {
      sink += wfm::SolveWnnls({&stats.gram}, rhs, options).objective;
    });
    record("wnnls_decode", "n=" + std::to_string(n), t, 0.0, 0.0);
  }

  // --- WNNLS decode past the Cholesky block limit ---------------------------
  // Prefix(65) ⊗ Prefix(65), n = 4,225, as Gram factors, from a warm start
  // with about half its entries negative: the first free blocks are too
  // large to factor, so PCG on the Kronecker operator takes those steps. The
  // same shape and data (own seed) in quick and full mode.
  {
    const wfm::Matrix factor = wfm::CreateWorkload("Prefix", 65)->Gram();
    const std::vector<const wfm::Matrix*> grams{&factor, &factor};
    const int n = 65 * 65;
    wfm::Rng noise(65);
    wfm::Vector xhat(n);
    for (double& v : xhat) v = noise.Normal(0.0, 20.0);
    for (int spike = 0; spike < 8; ++spike) xhat[noise.UniformInt(n)] += 400.0;
    const wfm::Vector rhs = wfm::KroneckerMatVec(grams, xhat);
    const double t = TimeBest(reps, [&] {
      sink += wfm::SolveWnnls(grams, rhs, {}, &xhat).objective;
    });
    record("wnnls_decode", "Prefix(65)xPrefix(65)", t, 0.0, 0.0);
  }

  table.Print();
  std::printf("\n(sink %g; *_ref rows are the pre-PR kernels — 'speedup' is "
              "ref/new on identical inputs)\n",
              sink);
  WriteJson(out, entries);
  return 0;
}
