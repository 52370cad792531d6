// The device-fleet half of a networked deployment — and its own referee.
//
// The client rebuilds the server's plan from the same pinned optimizer seed,
// privatizes a fleet of reports with a pinned RNG, and ships every report to
// BOTH a local in-process PlanSession and the remote CollectionServer. After
// sealing both sides it fetches the server's estimate over the wire and
// compares it against the local one bit for bit: integer count aggregation
// plus a deterministic decode means the two paths must agree exactly, so any
// difference is a wire bug. It then scrapes the server's /metrics surface and
// checks the ingest counters saw every report it shipped. Exits non-zero on
// mismatch or on missing/zero metrics (CI runs this as the service smoke
// test).
//
// Build & run (against a running report_server with the same flags):
//   ./build/examples/report_client [--port=7971] [--eps=1.0] [--n=16]
//                                  [--mechanism=Optimized]
//                                  [--devices=20000] [--epochs=2]
//                                  [--shutdown=true] [--io_timeout_ms=5000]
//                                  [--max_retries=0] [--chaos=false]
//
// With --chaos the client routes its own traffic through an in-process
// FaultProxy that tears connections mid-frame, drops acks after the server
// committed them, and stalls writes — then demands the networked estimate
// STILL matches the in-process reference bit for bit, and that the retry
// layer actually absorbed at least one duplicate along the way. CI runs this
// as the chaos smoke test. A [fault] summary of retries/timeouts/dedups is
// printed either way.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "wfm.h"  // Public umbrella API: all wfm modules.

namespace {

// Pulls one counter's value out of Prometheus text (line-anchored so the
// "# TYPE name counter" header never matches). Absent means never touched.
std::int64_t ScrapedCounter(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atoll(text.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return 0;
}

// Same extraction for a gauge's floating-point sample.
double ScrapedGauge(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::atof(text.c_str() + pos + needle.size());
    }
    pos += needle.size();
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const int port = flags.GetInt("port", 7971);
  const double eps = flags.GetDouble("eps", 1.0);
  const int n = flags.GetInt("n", 16);
  const std::string mechanism = flags.GetString("mechanism", "Optimized");
  const int devices = flags.GetInt("devices", 20000);
  const int epochs = flags.GetInt("epochs", 2);
  const bool shutdown = flags.GetBool("shutdown", true);
  const int io_timeout_ms = flags.GetInt("io_timeout_ms", 5000);
  int max_retries = flags.GetInt("max_retries", 0);
  const bool chaos = flags.GetBool("chaos", false);
  wfm::WarnUnusedFlags(flags);
  if (chaos && max_retries == 0) max_retries = 8;  // Chaos implies retries.

  // Same pinned seed as report_server: both processes derive the identical
  // deployment, so the wire never needs to carry the strategy.
  auto workload = std::make_shared<const wfm::HistogramWorkload>(n);
  wfm::OptimizerConfig config;
  config.iterations = 300;
  config.seed = 5;
  const wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                             .Epsilon(eps)
                                             .Mechanism(mechanism)
                                             .Optimizer(config)
                                             .Build();
  if (!built.ok()) {
    std::printf("cannot build plan: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const wfm::Plan& plan = built.value();
  const wfm::PlanClient device = plan.Client();

  // Under --chaos, interpose the fault-injecting proxy. The schedule walks
  // the client through three connections: the opening ping's response is
  // torn mid-header (transparent retry #1); on the next connection the
  // first accept is committed server-side but its ack is torn two bytes in
  // (so the retry re-delivers a counted report — the forced duplicate); the
  // third connection stalls that retry mid-frame for 50ms, then serves the
  // rest of the run faithfully.
  wfm::FaultProxy proxy(
      port, {{wfm::FaultType::kReset, wfm::FaultDirection::kToClient,
              /*after_bytes=*/3},
             {wfm::FaultType::kReset, wfm::FaultDirection::kToClient,
              /*after_bytes=*/8},
             {wfm::FaultType::kDelay, wfm::FaultDirection::kToServer,
              /*after_bytes=*/9, /*delay_ms=*/50}});
  int connect_port = port;
  if (chaos) {
    if (wfm::Status started = proxy.Start(); !started.ok()) {
      std::printf("cannot start fault proxy: %s\n",
                  started.ToString().c_str());
      return 1;
    }
    connect_port = proxy.port();
    std::printf("[chaos] fault proxy on 127.0.0.1:%d -> 127.0.0.1:%d\n",
                proxy.port(), port);
  }

  wfm::WireOptions wire;
  wire.io_timeout_ms = io_timeout_ms;
  wire.max_retries = max_retries;
  wfm::StatusOr<wfm::CollectionClient> connected =
      wfm::CollectionClient::Connect(connect_port, wire);
  if (!connected.ok()) {
    std::printf("cannot connect: %s\n",
                connected.status().ToString().c_str());
    return 1;
  }
  wfm::CollectionClient& remote = connected.value();
  if (wfm::Status ping = remote.Ping(); !ping.ok()) {
    std::printf("ping failed: %s\n", ping.ToString().c_str());
    return 1;
  }

  // The in-process reference the networked path must match bit for bit.
  std::unique_ptr<wfm::PlanSession> local = plan.StartSession(1);

  wfm::Rng rng(2026);
  int mismatches = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int u = 0; u < devices; ++u) {
      const wfm::Report report = device.Respond(u % n, rng);
      if (wfm::Status sent = remote.Accept(report); !sent.ok()) {
        std::printf("accept failed: %s\n", sent.ToString().c_str());
        return 1;
      }
      if (wfm::Status kept = local->Accept(0, report); !kept.ok()) {
        std::printf("local accept failed: %s\n", kept.ToString().c_str());
        return 1;
      }
    }
    const wfm::EpochSnapshot local_sealed = local->Seal();
    const wfm::StatusOr<wfm::EpochSnapshot> remote_sealed = remote.Seal();
    if (!remote_sealed.ok()) {
      std::printf("seal failed: %s\n",
                  remote_sealed.status().ToString().c_str());
      return 1;
    }
    const wfm::WorkloadEstimate mine =
        local->Estimate(wfm::EstimatorKind::kWnnls).value();
    const wfm::StatusOr<wfm::WorkloadEstimate> theirs =
        remote.Estimate(wfm::EstimatorKind::kWnnls);
    if (!theirs.ok()) {
      std::printf("estimate failed: %s\n",
                  theirs.status().ToString().c_str());
      return 1;
    }

    // Bit-identical or bust: same integer aggregates, same decoder, same
    // WNNLS — memcmp-grade equality, not a tolerance check.
    bool equal =
        remote_sealed.value().count == local_sealed.count &&
        theirs.value().query_answers.size() == mine.query_answers.size();
    for (std::size_t q = 0; equal && q < mine.query_answers.size(); ++q) {
      equal = theirs.value().query_answers[q] == mine.query_answers[q];
    }
    if (!equal) ++mismatches;
    std::printf("[epoch %d] %lld reports over the wire; networked estimate "
                "%s the in-process one\n",
                epoch, static_cast<long long>(remote_sealed.value().count),
                equal ? "bit-identical to" : "DIVERGES from");
  }

  // Scrape the server's live telemetry: every report this client shipped
  // must be visible in the ingest counters by the time its Accept returned.
  const wfm::StatusOr<std::string> metrics = remote.Metrics();
  if (!metrics.ok()) {
    std::printf("metrics scrape failed: %s\n",
                metrics.status().ToString().c_str());
    return 1;
  }
  const long long want =
      static_cast<long long>(devices) * static_cast<long long>(epochs);
  const std::int64_t ingested =
      ScrapedCounter(metrics.value(), "wfm_ingest_reports_total");
  const std::int64_t accepts =
      ScrapedCounter(metrics.value(), "wfm_wire_requests_accept_total");
  std::printf("[metrics] wfm_ingest_reports_total=%lld "
              "wfm_wire_requests_accept_total=%lld (sent %lld)\n",
              static_cast<long long>(ingested),
              static_cast<long long>(accepts), want);
  if (ingested < want || accepts < want) {
    std::printf("FAILED: server metrics undercount the shipped reports\n");
    return 1;
  }

  // The server's privacy ledger must balance on the same scrape: the
  // BudgetPlanner feeds the three budget gauges, and whatever it has spent
  // on strategy rounds plus what is left must equal the allocation.
  const double allocated =
      ScrapedGauge(metrics.value(), "wfm_budget_epsilon_allocated");
  const double spent =
      ScrapedGauge(metrics.value(), "wfm_budget_epsilon_spent");
  const double remaining =
      ScrapedGauge(metrics.value(), "wfm_budget_epsilon_remaining");
  std::printf("[metrics] budget eps: allocated=%.4f spent=%.4f "
              "remaining=%.4f\n", allocated, spent, remaining);
  if (allocated <= 0.0) {
    std::printf("FAILED: no budget allocation on the /metrics surface\n");
    return 1;
  }
  if (std::fabs(allocated - (spent + remaining)) > 1e-9 * allocated) {
    std::printf("FAILED: budget ledger does not balance "
                "(allocated != spent + remaining)\n");
    return 1;
  }

  // What the fault-tolerance layer did on this client's behalf. Under
  // --chaos the scripted schedule must actually have fired: at least one
  // transparent retry and at least one server-side duplicate suppression,
  // or the smoke test proved nothing.
  const wfm::WireClientStats& faults = remote.stats();
  std::printf("[fault] retries=%lld timeouts=%lld reconnects=%lld "
              "dedup_acks=%lld shed_retries=%lld\n",
              static_cast<long long>(faults.retries),
              static_cast<long long>(faults.timeouts),
              static_cast<long long>(faults.reconnects),
              static_cast<long long>(faults.dedup_acks),
              static_cast<long long>(faults.shed_retries));
  if (chaos && (faults.retries < 1 || faults.dedup_acks < 1)) {
    std::printf("FAILED: chaos schedule fired no retry/dedup — the fault "
                "layer was never exercised\n");
    return 1;
  }

  if (shutdown) {
    if (wfm::Status stop = remote.Shutdown(); !stop.ok()) {
      std::printf("shutdown failed: %s\n", stop.ToString().c_str());
      return 1;
    }
  }
  if (mismatches > 0) {
    std::printf("FAILED: %d epoch(s) diverged\n", mismatches);
    return 1;
  }
  std::printf("OK: %d epochs, networked == in-process%s\n", epochs,
              chaos ? " despite injected faults" : "");
  return 0;
}
