// Throughput of the concurrent collection pipeline: reports/sec through
// CollectionSession::AcceptBatch as a function of ingest thread count and
// shard count. The one-thread row is a one-shard session, the serial case.
//
// Not a paper figure — this measures the subsystem the paper assumes exists
// (the server that absorbs millions of one-round reports before Theorem 3.10
// reconstruction runs). Reports are pre-randomized through the real
// LocalRandomizer into Report objects, the shape the wire service decodes
// every frame into, so the measured loop is exactly the server's ingest
// path: shared-lock acquire, per-report shape and range checks, a scratch
// histogram per batch, one relaxed add per touched counter. Every trial ends
// with Seal() and a served estimate so the whole ingest -> seal -> answer
// loop is exercised.
//
// Defaults finish in a few seconds; scale with
//   --reports=8000000 --threads=1,2,4,8 --batch=4096 --n=256 --trials=5
// Shard count follows the thread count unless --shards is given.
//
// A second table covers bit-vector (RAPPOR/OUE) ingest of packed reports:
// per-report Accept (a batch of one) against ShardedAggregator::AcceptBatch
// (the whole batch counts eight bits at a time into private integers, then
// one atomic add per touched counter) — the server-side half of the wire
// format's packed reports. Disable with --bits=false.
//
// --out=path (default BENCH_throughput.json) writes every best-of-trials
// rate as {"scenario", "reports_per_sec", "threads"} so CI can keep a
// per-commit ingest-throughput trajectory next to BENCH_perf.json.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "collect/collection_session.h"
#include "collect/estimate_server.h"
#include "common/timer.h"
#include "core/factorization.h"
#include "estimation/estimator.h"
#include "ldp/local_randomizer.h"
#include "linalg/rng.h"
#include "mechanisms/randomized_response.h"
#include "workload/histogram.h"

namespace {

// One timed trial: T threads stream disjoint slices of `reports` into a
// fresh session, then the epoch is sealed and one estimate is served.
// Returns ingest seconds (seal/serve excluded from the rate).
double RunTrial(const wfm::ReportDecoder& decoder,
                std::shared_ptr<const wfm::Workload> workload,
                const std::vector<wfm::Report>& reports, int threads,
                int shards, int batch) {
  wfm::CollectionSession session(decoder, std::move(workload), shards);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  wfm::Stopwatch timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const std::size_t begin = reports.size() * t / threads;
      const std::size_t end = reports.size() * (t + 1) / threads;
      const int shard = t % shards;
      for (std::size_t pos = begin; pos < end;
           pos += static_cast<std::size_t>(batch)) {
        const std::size_t len =
            std::min<std::size_t>(static_cast<std::size_t>(batch), end - pos);
        session.AcceptBatch(shard,
                            std::span<const wfm::Report>(&reports[pos], len));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double ingest_seconds = timer.ElapsedSeconds();

  session.Seal();
  wfm::EstimateServer server(&session);
  const wfm::WorkloadEstimate estimate =
      server.Serve(wfm::EstimatorKind::kUnbiased).value();
  WFM_CHECK_EQ(static_cast<std::int64_t>(estimate.query_answers.size()),
               static_cast<std::int64_t>(decoder.n()));
  WFM_CHECK_EQ(session.total_responses(),
               static_cast<std::int64_t>(reports.size()));
  return ingest_seconds;
}

// One timed bit-vector trial: T threads stream disjoint slices of
// pre-built packed reports into a fresh aggregator, one Accept per report or
// one AcceptBatch per `batch` reports. Returns reports/sec.
double RunBitsTrial(const std::vector<wfm::Report>& reports, int m,
                    int threads, int batch, bool batched) {
  const int total_reports = static_cast<int>(reports.size());
  wfm::ShardedAggregator agg(m, threads, wfm::ReportKind::kBitVector);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  wfm::Stopwatch timer;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const int begin = total_reports * t / threads;
      const int end = total_reports * (t + 1) / threads;
      for (int pos = begin; pos < end; pos += batch) {
        const int k = std::min(batch, end - pos);
        if (batched) {
          agg.AcceptBatch(t, std::span<const wfm::Report>(&reports[pos], k));
        } else {
          for (int i = 0; i < k; ++i) agg.Accept(t, reports[pos + i]);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const double seconds = timer.ElapsedSeconds();
  WFM_CHECK_EQ(agg.num_responses(),
               static_cast<std::int64_t>(total_reports));
  return total_reports / seconds;
}

// One trajectory point for the --out JSON file.
struct Entry {
  std::string scenario;
  double reports_per_sec;
  int threads;
};

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
                 "  {\"scenario\": \"%s\", \"reports_per_sec\": %.1f, "
                 "\"threads\": %d}%s\n",
                 e.scenario.c_str(), e.reports_per_sec, e.threads,
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
  const bool full = flags.GetBool("full", false);
  const int n = flags.GetInt("n", 64);
  const double eps = flags.GetDouble("eps", 1.0);
  const int num_reports = flags.GetInt("reports", full ? 16000000 : 2000000);
  const int batch = flags.GetInt("batch", 1024);
  const int trials = flags.GetInt("trials", 3);
  const int fixed_shards = flags.GetInt("shards", 0);  // 0: match threads.
  const std::vector<int> thread_counts =
      flags.GetIntList("threads", {1, 2, 4});
  const std::string out = flags.GetString("out", "BENCH_throughput.json");
  std::vector<Entry> entries;

  wfm::bench::PrintHeader(
      "Collection throughput: reports/sec vs ingest threads and shards",
      "deployment-scale ingest assumed, not measured, by the paper",
      "n = " + std::to_string(n) + ", " + std::to_string(num_reports) +
          " reports, batch " + std::to_string(batch) + ", best of " +
          std::to_string(trials));

  // Pre-randomize the report stream once through the real client path.
  const wfm::Matrix q = wfm::RandomizedResponseMechanism::BuildStrategy(n, eps);
  auto workload = std::make_shared<const wfm::HistogramWorkload>(n);
  const wfm::ReportDecoder decoder = wfm::ReportDecoder::FromAnalysis(
      wfm::FactorizationAnalysis(q, wfm::WorkloadStats::From(*workload)));
  const wfm::LocalRandomizer randomizer(q);
  wfm::Rng rng(7);
  std::vector<wfm::Report> reports(num_reports);
  for (wfm::Report& r : reports) {
    r.index = randomizer.Respond(rng.UniformInt(n), rng);
  }

  // Scaling is reported against the first configured thread count (the
  // column says which), so --threads=2,4,8 stays honest.
  const std::string scaling_header =
      "vs " + std::to_string(thread_counts.front()) + " thread(s)";
  wfm::TablePrinter table({"threads", "shards", "reports/sec", scaling_header});
  double base_rate = 0.0;
  for (const int threads : thread_counts) {
    const int shards = fixed_shards > 0 ? fixed_shards : threads;
    double best_rate = 0.0;
    for (int trial = 0; trial < trials; ++trial) {
      const double seconds =
          RunTrial(decoder, workload, reports, threads, shards, batch);
      best_rate = std::max(best_rate, num_reports / seconds);
    }
    if (base_rate == 0.0) base_rate = best_rate;  // First row is the base.
    entries.push_back({"categorical", best_rate, threads});
    table.AddRow({std::to_string(threads), std::to_string(shards),
                  wfm::TablePrinter::Num(best_rate),
                  wfm::TablePrinter::Num(best_rate / base_rate) + "x"});
  }
  table.Print();

  if (flags.GetBool("bits", true)) {
    // Bit-vector ingest: per-report Accept vs the batched scratch-count
    // path, at the same report volume over an m = n unary encoding.
    const int bit_reports = std::max(1, num_reports / 8);
    wfm::bench::PrintHeader(
        "Bit-vector ingest: per-report Accept vs batched AcceptBatch",
        "packed reports; one atomic per touched counter per call",
        "m = " + std::to_string(n) + ", " + std::to_string(bit_reports) +
            " reports, batch " + std::to_string(batch) + ", best of " +
            std::to_string(trials));
    std::vector<wfm::Report> bit_report_objects(bit_reports);
    std::vector<std::uint8_t> bytes(n);
    for (wfm::Report& report : bit_report_objects) {
      for (std::uint8_t& bit : bytes) {
        bit = static_cast<std::uint8_t>(rng.UniformInt(2));
      }
      report.bits = wfm::PackedBits(bytes);
    }
    wfm::TablePrinter bits_table(
        {"threads", "path", "reports/sec", "batched vs per-report"});
    for (const int threads : thread_counts) {
      double per_report = 0.0, batched = 0.0;
      for (int trial = 0; trial < trials; ++trial) {
        per_report = std::max(
            per_report,
            RunBitsTrial(bit_report_objects, n, threads, batch, false));
        batched = std::max(
            batched, RunBitsTrial(bit_report_objects, n, threads, batch, true));
      }
      entries.push_back({"bits_per_report", per_report, threads});
      entries.push_back({"bits_batched", batched, threads});
      bits_table.AddRow({std::to_string(threads), "per-report",
                         wfm::TablePrinter::Num(per_report), "1.00x"});
      bits_table.AddRow({std::to_string(threads), "batched",
                         wfm::TablePrinter::Num(batched),
                         wfm::TablePrinter::Num(batched / per_report) + "x"});
    }
    bits_table.Print();
  }
  if (!out.empty()) WriteJson(out, entries);
  return 0;
}
