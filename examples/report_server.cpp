// The serving half of a networked deployment: bind a CollectionServer to a
// TCP port and map every frame onto the plan's PlanSession. Run the matching
// report_client against it (same flags) and the two processes reproduce the
// in-process collection_service example over a socket.
//
// The plan is rebuilt from the same pinned optimizer seed on both sides, so
// client and server agree on the deployment (strategy, m, decoder) without
// shipping it — the wire only ever carries reports, snapshots, and
// estimates. --mechanism picks any registered mechanism (e.g. RAPPOR, whose
// reports travel as packed bit vectors); pass the same value to both.
//
// Build & run:
//   ./build/examples/report_server [--port=7971] [--shards=4] [--eps=1.0]
//                                  [--n=16] [--mechanism=Optimized]
//                                  [--rounds=4] [--snapshot-dir=]
//                                  [--io_timeout_ms=5000]
//                                  [--max_unsealed_per_shard=0]
//
// --io_timeout_ms bounds how long a connection may dribble one frame before
// it is evicted (the slow-loris defense); --max_unsealed_per_shard > 0 turns
// on admission control, shedding ingest past the per-shard bound with a 503
// + Retry-After instead of letting the epoch backlog grow without limit.
//
// With --snapshot-dir set, sealed epochs persist there and a restarted
// server recovers them before accepting traffic (kill it mid-session and
// rerun: estimates over sealed history are identical).
//
// The server also keeps the deployment's privacy ledger: a BudgetPlanner
// splits the total budget (--eps per round, --rounds rounds) and publishes
// wfm_budget_epsilon_{allocated,spent,remaining} gauges, so any /metrics
// scrape shows exactly how much epsilon the deployment has left for
// adaptive strategy rolls. The initial strategy is round one. report_client
// cross-checks allocated = spent + remaining off a live scrape.

#include <cstdio>
#include <memory>
#include <string>

#include "wfm.h"  // Public umbrella API: all wfm modules.

int main(int argc, char** argv) {
  wfm::FlagParser flags(argc, argv);
  const int port = flags.GetInt("port", 7971);
  const int shards = flags.GetInt("shards", 4);
  const double eps = flags.GetDouble("eps", 1.0);
  const int n = flags.GetInt("n", 16);
  const std::string mechanism = flags.GetString("mechanism", "Optimized");
  const int rounds = flags.GetInt("rounds", 4);
  const std::string snapshot_dir = flags.GetString("snapshot-dir", "");
  const int io_timeout_ms = flags.GetInt("io_timeout_ms", 5000);
  const int max_unsealed =
      flags.GetInt("max_unsealed_per_shard", 0);  // 0 = no shedding
  wfm::WarnUnusedFlags(flags);

  auto workload = std::make_shared<const wfm::HistogramWorkload>(n);
  wfm::OptimizerConfig config;
  config.iterations = 300;
  config.seed = 5;  // Pinned: the client rebuilds this exact plan.
  const wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                             .Epsilon(eps)
                                             .Mechanism(mechanism)
                                             .Optimizer(config)
                                             .Build();
  if (!built.ok()) {
    std::printf("cannot build plan: %s\n", built.status().ToString().c_str());
    return 1;
  }

  // The privacy ledger behind the /metrics budget gauges: eps per collection
  // round, `rounds` rounds total, the deployed strategy consuming the first.
  wfm::BudgetPlanner planner(eps * rounds, rounds);
  planner.SpendRound();

  wfm::ServiceOptions options;
  options.port = port;
  options.num_shards = shards;
  options.snapshot_dir = snapshot_dir;
  options.io_timeout_ms = io_timeout_ms;
  options.max_unsealed_reports_per_shard = max_unsealed;
  wfm::CollectionServer server(built.value(), options);
  if (wfm::Status started = server.Start(); !started.ok()) {
    std::printf("cannot start server: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("[server] %.2f-LDP %s plan for n = %d; listening on "
              "127.0.0.1:%d (%d shards)%s\n",
              eps, mechanism.c_str(), n, server.port(), shards,
              snapshot_dir.empty() ? "" : ", persisting sealed epochs");
  std::printf("[server] budget: %.2f eps allocated, %.2f spent, %.2f left "
              "(%d of %d rounds free)\n",
              planner.total_epsilon(), planner.spent(), planner.remaining(),
              planner.rounds_planned() - planner.rounds_spent(),
              planner.rounds_planned());
  std::fflush(stdout);

  server.WaitUntilShutdown();
  server.Stop();
  std::printf("[server] shutdown: %d epochs sealed, %lld reports total\n",
              server.session().session().epochs_sealed(),
              static_cast<long long>(
                  server.session().session().total_responses()));
  return 0;
}
