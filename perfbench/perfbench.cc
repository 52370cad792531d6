// perfbench: one workload through the deployed path, in one process.
//
//   Plan::For(w).Epsilon(1).Build()                       (setup, repeated)
//   PlanClient::Respond, then EncodeReport                (device)
//   loopback TCP into a CollectionServer via
//     CollectionClient::AcceptBatch                       (ingest)
//   CollectionClient::Seal, then Estimate(kWnnls)         (answer)
//
// Usage:
//   perfbench --workload dense-prefix|rappor-prefix|kron-32k --seed N
//             --seconds S --trace 0|1 [--trace_out FILE]
//
// Every gated timing is a median over repeated units inside the run (epochs,
// or repeated builds for setup_s) and is printed with its unit count and
// within-run quartiles. The last line of stdout is one JSON object: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Any failed operation or output check makes the exit code non-zero.
//
// perfbench/NOTES.md says why each workload and constant was chosen.

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/plan.h"
#include "data/datasets.h"
#include "estimation/estimator.h"
#include "estimation/wnnls.h"
#include "linalg/rng.h"
#include "linalg/thread_pool.h"
#include "obs/metrics.h"
#include "wire/service.h"
#include "wire/wire_format.h"
#include "workload/kronecker.h"

namespace {

using wfm::Report;
using wfm::Vector;

// Load shape: a closed loop of kConnections blocking gateway clients, one
// AcceptBatch of kBatchSize reports in flight per connection, into a server
// with kShards shards; the global pool has kPoolThreads threads. Ingest and
// answering never overlap, so at most kConnections client threads plus
// their server threads, or kPoolThreads solver threads, are busy at once.
constexpr int kConnections = 2;
constexpr int kShards = 2;
constexpr int kPoolThreads = 2;
constexpr int kBatchSize = 256;
// The process runs on this many CPUs (the first ones it is allowed on), and
// each gateway shares one with the server thread that serves it. On a 4-vCPU
// virtual machine, letting the four ingest threads spread over four vCPUs
// makes most acks wait for a halted vCPU to wake: collect_rps halves and
// swings two-fold between runs. See NOTES.md.
constexpr int kCpus = 2;
// The control client's deadline for Seal and Estimate. The library default
// (WireOptions::io_timeout_ms = 5000) is shorter than kron-32k's WNNLS solve.
constexpr int kControlDeadlineMs = 120000;
// Pings timed for wire.ping_rtt_us (traced run only).
constexpr int kPings = 100000;
// One-sided check: mean answer TSE may not exceed this multiple of the
// plan's expected (worst-case, unbiased) TSE.
constexpr double kTseMultiple = 3.0;
// Users in the synthetic population each epoch samples from.
constexpr double kPopulation = 1e7;

struct WorkloadSpec {
  const char* name;
  const char* workload;
  const char* mechanism;
  int setup_reps;            // Plan::Build repetitions; setup_s is their median
  std::int64_t users;        // reports per epoch
  double nominal_epoch_s;    // sizes the epoch count from --seconds
  int min_epochs;            // measured epochs, after the warm-up
  int max_epochs;
};

// See NOTES.md for why each workload is here and how its sizes were set.
// kron-32k runs by name but is not among BENCHMARK.json's gated workloads.
constexpr WorkloadSpec kWorkloads[] = {
    {"dense-prefix", "Prefix(64)", "Optimized", 3, 1000000, 0.3, 6, 60},
    {"rappor-prefix", "Prefix(512)", "RAPPOR", 301, 120000, 1.8, 6, 40},
    {"kron-32k", "Prefix(32)xPrefix(32)xPrefix(32)", "Optimized", 3, 400000,
     20.0, 2, 6},
};

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kStart)
      .count();
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// ---- statistics -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Quartiles by Python's statistics.quantiles(v, n=4) ("exclusive" method).
std::pair<double, double> Quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v[0];
    return {x, x};
  }
  std::sort(v.begin(), v.end());
  const int n = static_cast<int>(v.size());
  auto cut = [&](int i) {
    const int m = n + 1;
    const int j = std::clamp(i * m / 4, 1, n - 1);
    const int delta = i * m - j * 4;
    return (v[j - 1] * (4 - delta) + v[j] * delta) / 4.0;
  };
  return {cut(1), cut(3)};
}

// Nearest-rank percentile of a pooled sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---- obs counter reads ----------------------------------------------------

struct Counters {
  wfm::MetricsSnapshot snap = wfm::MetricsRegistry::Global().Snapshot();

  std::int64_t Counter(const std::string& name) const {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return 0;
  }
  std::int64_t HistSum(const std::string& name) const {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return h.sample.sum;
    }
    return 0;
  }
  std::int64_t HistCount(const std::string& name) const {
    for (const auto& h : snap.histograms) {
      if (h.name == name) return h.sample.count;
    }
    return 0;
  }
};

// ---- spans ----------------------------------------------------------------

// In-memory span log; written once at exit. Spans are opened and closed
// from the main thread, except the per-connection ingest spans, which the
// gateway threads close under the mutex.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), recording_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_epoch(int epoch) { epoch_ = epoch; }
  // Pauses or resumes span recording within a traced run.
  void set_recording(bool on) { recording_ = enabled_ && on; }

  int Open(const std::string& name, int parent) {
    if (!recording_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, NowNs(), -1, parent, epoch_});
    return static_cast<int>(spans_.size()) - 1;
  }

  // Closes span `id`; returns its duration in ns (0 when tracing is off).
  std::int64_t Close(int id) {
    if (id < 0) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = NowNs();
    return spans_[id].end_ns - spans_[id].start_ns;
  }

  // Self time per layer (the span name up to its first '.'): each span's
  // duration minus the union of its children's intervals (the two
  // per-connection spans under "wire.ingest" overlap each other).
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) kids[s.parent].push_back({s.start_ns, s.end_ns});
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      auto& k = kids[i];
      std::sort(k.begin(), k.end());
      std::int64_t covered = 0, reach = s.start_ns;
      for (const auto& [b, e] : k) {
        const std::int64_t lo = std::max(b, reach);
        if (e > lo) covered += e - lo;
        reach = std::max(reach, e);
      }
      const std::string layer = s.name.substr(0, s.name.find('.'));
      out[layer] += Seconds(s.end_ns - s.start_ns - covered);
    }
    return out;
  }

  void WriteJson(const std::string& path,
                 const std::map<std::string, double>& counter_deltas) const {
    std::ofstream f(path);
    f << "{\n  \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << "    {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"epoch\": " << s.epoch << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "  ],\n  \"self_s_by_layer\": {";
    const auto self = SelfSecondsByLayer();
    std::size_t i = 0;
    for (const auto& [layer, sec] : self) {
      f << (i++ ? ", " : "") << "\"" << layer << "\": " << sec;
    }
    f << "},\n  \"obs_deltas\": {";
    i = 0;
    for (const auto& [name, v] : counter_deltas) {
      f << (i++ ? ",\n    " : "\n    ") << "\"" << name << "\": " << v;
    }
    f << "\n  }\n}\n";
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    int epoch;
  };

  bool enabled_;
  bool recording_;
  int epoch_ = -1;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---- operation accounting ---------------------------------------------------

struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  // Counts one operation; prints the reason when it failed.
  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
    return ok;
  }

  // Counts `attempted` operations of which `succeeded` succeeded.
  void Count(std::int64_t attempted_ops, std::int64_t succeeded,
             const std::string& what) {
    attempted += attempted_ops;
    if (succeeded < attempted_ops) {
      failed += attempted_ops - succeeded;
      std::fprintf(stderr, "perfbench: FAILED %lld of %lld %s\n",
                   static_cast<long long>(attempted_ops - succeeded),
                   static_cast<long long>(attempted_ops), what.c_str());
    }
  }
};

// ---- metric output --------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class MetricTable {
 public:
  // A median over `units` repeated units, printed with its quartiles.
  void Median(const std::string& name, const std::vector<double>& units,
              const std::string& unit) {
    const auto [q1, q3] = Quartiles(units);
    const double med = ::Median(units);
    std::printf("  %-30s %14.6g %-9s median of %zu, q1 %.6g, q3 %.6g\n",
                name.c_str(), med, unit.c_str(), units.size(), q1, q3);
    metrics_.push_back({name, med, unit});
  }

  // A value with the base it was derived from.
  void Value(const std::string& name, double value, const std::string& unit,
             const std::string& base) {
    std::printf("  %-30s %14.6g %-9s %s\n", name.c_str(), value, unit.c_str(),
                base.c_str());
    metrics_.push_back({name, value, unit});
  }

  // Printed, but not part of the JSON result (an ungated figure).
  void Note(const std::string& name, double value, const std::string& unit,
            const std::string& base) {
    std::printf("  %-30s %14.6g %-9s %s (not gated)\n", name.c_str(), value,
                unit.c_str(), base.c_str());
  }

  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::string Fmt(const char* format, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

std::string CpuModel() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Machine-wide CPU ticks and steal ticks so far, from /proc/stat (0, 0 when
// unavailable). Steal is time a virtual machine's vCPUs were runnable but not
// run; a run's steal share says how contended its host was.
std::pair<long long, long long> CpuAndStealTicks() {
  std::ifstream f("/proc/stat");
  std::string label;
  f >> label;
  long long total = 0, steal = 0, ticks = 0;
  for (int i = 0; i < 8 && f >> ticks; ++i) {
    total += ticks;
    if (i == 7) steal = ticks;
  }
  return {total, steal};
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Restricts the process to its first kCpus allowed CPUs; threads created
// afterwards inherit the mask. Returns the CPUs chosen (empty when the
// affinity calls fail and the process runs unpinned).
std::vector<int> PinCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {};
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && cpus.size() < kCpus; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    cpus.push_back(cpu);
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return {};
  return cpus;
}

// Pins thread `tid` (0: the calling thread) to one CPU; no-op when `cpu`
// is negative.
void PinThread(int cpu, pid_t tid = 0) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  sched_setaffinity(tid, sizeof(one), &one);
}

// Ids of this process's threads.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  if (DIR* dir = opendir("/proc/self/task")) {
    while (const dirent* entry = readdir(dir)) {
      if (entry->d_name[0] != '.') ids.push_back(std::atoi(entry->d_name));
    }
    closedir(dir);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::string Join(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  return v.empty() ? "unpinned" : out;
}

// ---- one epoch's inputs -----------------------------------------------------

struct EpochInput {
  Vector x;                    // true data vector (user counts per type)
  Vector tally;                // the benchmark's own report histogram
  std::int64_t respond_ns = 0;
  std::int64_t encode_ns = 0;
  std::int64_t wire_bytes = 0;
};

// Fills `reports` with the epoch's reports. The buffer is reused across
// epochs so that the device timings do not include first-touch page faults
// of the benchmark's own storage.
EpochInput MakeEpoch(const wfm::Dataset& population, const wfm::Plan& plan,
                     std::int64_t users, std::uint64_t seed, int epoch,
                     std::vector<Report>& reports, Tracer& tracer,
                     int parent) {
  EpochInput in;
  in.x = wfm::SampleUsers(population, users,
                          seed + static_cast<std::uint64_t>(epoch))
             .histogram;
  std::vector<int> types;
  types.reserve(static_cast<std::size_t>(users));
  for (std::size_t t = 0; t < in.x.size(); ++t) {
    types.insert(types.end(), static_cast<std::size_t>(in.x[t]),
                 static_cast<int>(t));
  }

  const wfm::PlanClient client = plan.Client();
  wfm::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(epoch));
  reports.resize(types.size());
  int span = tracer.Open("ldp.respond", parent);
  std::int64_t t0 = NowNs();
  for (std::size_t i = 0; i < types.size(); ++i) {
    reports[i] = client.Respond(types[i], rng);
  }
  in.respond_ns = NowNs() - t0;
  tracer.Close(span);

  span = tracer.Open("wire.encode", parent);
  t0 = NowNs();
  for (const Report& r : reports) {
    in.wire_bytes += static_cast<std::int64_t>(wfm::EncodeReport(r).size());
  }
  in.encode_ns = NowNs() - t0;
  tracer.Close(span);

  in.tally.assign(static_cast<std::size_t>(client.num_outputs()), 0.0);
  for (const Report& r : reports) {
    if (r.is_bits()) {
      for (std::size_t j = 0; j < r.bits.size(); ++j) in.tally[j] += r.bits[j];
    } else {
      in.tally[static_cast<std::size_t>(r.index)] += 1.0;
    }
  }
  return in;
}

// ---- networked ingest -------------------------------------------------------

struct IngestResult {
  std::int64_t start_ns = 0;  // when the first batch was sent
  std::int64_t wall_ns = 0;
  std::int64_t acked_reports = 0;
  std::vector<double> latency_ms;  // one per batch
  std::int64_t batches = 0;
  std::int64_t fresh_acks = 0;
};

// Closed loop: connection c sends batches c, c + kConnections, ... each only
// after the previous one is acknowledged. Gateway thread c runs on
// cpus[c % cpus.size()], beside the server thread pinned there.
IngestResult Ingest(std::vector<wfm::CollectionClient>& gateways,
                    const std::vector<Report>& reports,
                    const std::vector<int>& cpus, Tracer& tracer,
                    int parent) {
  const std::size_t num_batches =
      (reports.size() + kBatchSize - 1) / kBatchSize;
  struct PerConn {
    std::vector<double> latency_ms;
    std::int64_t acked = 0;
    std::int64_t fresh = 0;
  };
  std::vector<PerConn> per(gateways.size());
  std::vector<std::thread> threads;
  IngestResult out;
  const std::int64_t start = NowNs();
  for (std::size_t c = 0; c < gateways.size(); ++c) {
    threads.emplace_back([&, c] {
      PinThread(cpus.empty() ? -1 : cpus[c % cpus.size()]);
      const int span = tracer.Open("wire.gateway", parent);
      wfm::CollectionClient& client = gateways[c];
      PerConn& mine = per[c];
      for (std::size_t b = c; b < num_batches; b += gateways.size()) {
        const std::size_t lo = b * kBatchSize;
        const std::size_t hi = std::min(reports.size(), lo + kBatchSize);
        const std::int64_t dups = client.stats().dedup_acks;
        const std::int64_t t0 = NowNs();
        const wfm::Status s = client.AcceptBatch(
            std::span<const Report>(reports.data() + lo, hi - lo));
        mine.latency_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
        if (s.ok() && client.stats().dedup_acks == dups) {
          ++mine.fresh;
          mine.acked += static_cast<std::int64_t>(hi - lo);
        } else if (!s.ok()) {
          std::fprintf(stderr, "perfbench: AcceptBatch: %s\n",
                       s.ToString().c_str());
        }
      }
      tracer.Close(span);
    });
  }
  for (auto& t : threads) t.join();
  out.start_ns = start;
  out.wall_ns = NowNs() - start;
  out.batches = static_cast<std::int64_t>(num_batches);
  for (const PerConn& p : per) {
    out.acked_reports += p.acked;
    out.fresh_acks += p.fresh;
    out.latency_ms.insert(out.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
  }
  return out;
}

double SquaredError(const Vector& a, const Vector& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return std::nullopt;
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "--trace_out") {
      a.trace_out = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return std::nullopt;
    }
  }
  if (!have_workload || !(a.seconds > 0.0)) return std::nullopt;
  return a;
}

int Run(const Args& args, const WorkloadSpec& spec,
        const std::vector<int>& cpus) {
  const auto [cpu_ticks0, steal_ticks0] = CpuAndStealTicks();
  Tracer tracer(args.trace);
  Ledger ledger;
  MetricTable out;
  const Counters run_start;

  std::shared_ptr<const wfm::Workload> workload =
      wfm::ParseWorkload(spec.workload);
  const int n = workload->domain_size();

  // ---- setup: repeated Plan::Build -------------------------------------------
  std::vector<double> build_s, optimize_s, stats_s, deploy_s, pgd_iters,
      chol_failures, dispatches, inline_frac;
  std::optional<wfm::Plan> plan;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    const int root = tracer.Open("api.setup", -1);
    double stats_sec = 0.0;
    if (tracer.enabled()) {
      const int s = tracer.Open("workload.stats", root);
      const wfm::WorkloadStats stats = wfm::WorkloadStats::From(*workload);
      stats_sec = Seconds(tracer.Close(s));
    }
    const Counters before;
    const std::int64_t t0 = NowNs();
    wfm::StatusOr<wfm::Plan> built = wfm::Plan::For(workload)
                                         .Epsilon(1.0)
                                         .Mechanism(spec.mechanism)
                                         .Build();
    const double sec = Seconds(NowNs() - t0);
    const Counters after;
    tracer.Close(root);
    if (!ledger.Check(built.ok(), "Plan::Build: " + built.status().ToString())) {
      return 1;
    }
    plan.emplace(std::move(built).value());
    build_s.push_back(sec);
    const double opt = Seconds(
        after.HistSum("wfm_optimizer_optimize_duration_ns") -
        before.HistSum("wfm_optimizer_optimize_duration_ns"));
    optimize_s.push_back(opt);
    stats_s.push_back(stats_sec);
    deploy_s.push_back(sec - opt - stats_sec);
    auto delta = [&](const char* name) {
      return static_cast<double>(after.Counter(name) - before.Counter(name));
    };
    pgd_iters.push_back(delta("wfm_optimizer_iterations_total"));
    chol_failures.push_back(delta("wfm_optimizer_cholesky_failures_total"));
    const double disp = delta("wfm_pool_dispatches_total");
    dispatches.push_back(disp);
    inline_frac.push_back(disp > 0 ? delta("wfm_pool_inline_total") / disp
                                   : 0.0);
  }

  // ---- serving: server, gateway connections, control connection ------------
  wfm::ServiceOptions service;
  service.num_shards = kShards;
  wfm::CollectionServer server(*plan, service);
  if (!ledger.Check(server.Start().ok(), "CollectionServer::Start")) return 1;
  // Gateway c and the server thread that serves its connection share CPU
  // cpus[c]: each closed-loop pair hands off on one CPU, and the two pairs
  // run side by side. The server thread is the one thread that appears
  // while the connection is opened and pinged.
  std::vector<wfm::CollectionClient> gateways;
  int pinned_pairs = 0;
  for (int c = 0; c < kConnections; ++c) {
    const std::vector<pid_t> before = ThreadIds();
    auto client = wfm::CollectionClient::Connect(server.port());
    if (!ledger.Check(client.ok() && client.value().Ping().ok(),
                      "gateway Connect")) {
      return 1;
    }
    gateways.push_back(std::move(client).value());
    std::vector<pid_t> added;
    const std::vector<pid_t> after = ThreadIds();
    std::set_difference(after.begin(), after.end(), before.begin(),
                        before.end(), std::back_inserter(added));
    if (added.size() == 1 && !cpus.empty()) {
      PinThread(cpus[c % cpus.size()], added[0]);
      ++pinned_pairs;
    }
  }
  wfm::WireOptions control_options;
  control_options.io_timeout_ms = kControlDeadlineMs;
  auto control_or = wfm::CollectionClient::Connect(server.port(), control_options);
  if (!ledger.Check(control_or.ok(), "control Connect")) return 1;
  wfm::CollectionClient control = std::move(control_or).value();

  double ping_us = 0.0;
  if (tracer.enabled()) {
    const int span = tracer.Open("wire.ping", -1);
    bool ok = true;
    for (int i = 0; i < kPings && ok; ++i) ok = control.Ping().ok();
    ping_us = static_cast<double>(tracer.Close(span)) * 1e-3 / kPings;
    ledger.Check(ok, "Ping");
  }

  // In-process replay target for the traced run's per-layer collect timings.
  std::unique_ptr<wfm::PlanSession> replay;
  if (tracer.enabled()) replay = plan->StartSession(kShards);

  const wfm::Dataset population =
      wfm::MakeSyntheticDataset("HEPTH", n, kPopulation, args.seed);
  const int measured = std::clamp(
      static_cast<int>(args.seconds / spec.nominal_epoch_s), spec.min_epochs,
      spec.max_epochs);
  const double expected_tse =
      plan->ExpectedTotalVariance(static_cast<double>(spec.users)) /
      (static_cast<double>(spec.users) * static_cast<double>(spec.users));

  std::printf("perfbench workload=%s (%s, %s, eps=1) seed=%llu trace=%d\n",
              spec.name, spec.workload, plan->mechanism_name().c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::printf(
      "  load: closed loop, nproc=%ld, cpus=%s, pool=%d threads "
      "(ThreadPool::SetGlobal), connections=%d (%d pinned with their server "
      "thread), shards=%d, batch=%d reports\n",
      sysconf(_SC_NPROCESSORS_ONLN), Join(cpus).c_str(),
      wfm::ThreadPool::Global().num_threads(), kConnections, pinned_pairs,
      kShards, kBatchSize);
  std::printf("  cpu: %s\n", CpuModel().c_str());
  std::printf(
      "  epochs: 1 warm-up + %d measured, %lld reports each; setup reps=%d; "
      "control deadline=%d ms (library default %d ms)\n",
      measured, static_cast<long long>(spec.users), spec.setup_reps,
      kControlDeadlineMs, wfm::WireOptions{}.io_timeout_ms);

  // ---- epochs ---------------------------------------------------------------
  std::vector<double> collect_rps, answer_s, epoch_s, traced_epoch_s,
      untraced_epoch_s, latency_ms, tse;
  std::vector<double> accept_ns, seal_ms, decode_ms, wnnls_ms, apply_ms,
      wnnls_iters, coverage;
  std::vector<double> device_us;
  std::int64_t respond_ns = 0, encode_ns = 0, wire_bytes = 0,
               reports_made = 0, seal_bytes = 0, converged = 0;
  bool ewa_checked = false;
  Counters measure_start;
  std::vector<Report> reports;
  for (int epoch = 0; epoch <= measured; ++epoch) {
    const bool warmup = epoch == 0;
    // In a traced run, measured epochs alternate traced and untraced; the
    // untraced ones are the base of trace.overhead.
    const bool traced = tracer.enabled() && !warmup && epoch % 2 == 1;
    tracer.set_epoch(epoch);
    tracer.set_recording(warmup || traced);
    const int root = tracer.Open("bench.epoch", -1);
    const int gen = tracer.Open("bench.generate", root);
    const EpochInput in =
        MakeEpoch(population, *plan, spec.users, args.seed, epoch, reports,
                  tracer, gen);
    tracer.Close(gen);
    if (epoch == 1) measure_start = Counters();

    // Ingest clock starts at the first batch sent.
    const int ingest_span = tracer.Open("wire.ingest", root);
    const IngestResult ingest = Ingest(gateways, reports, cpus, tracer, ingest_span);
    tracer.Close(ingest_span);
    ledger.Count(ingest.batches, ingest.fresh_acks, "AcceptBatch fresh acks");

    const int answer_span = tracer.Open("wire.answer", root);
    const std::int64_t seal_t0 = NowNs();
    const int seal_span = tracer.Open("wire.seal_rpc", answer_span);
    wfm::StatusOr<wfm::EpochSnapshot> sealed = control.Seal();
    tracer.Close(seal_span);
    const int est_span = tracer.Open("wire.estimate_rpc", answer_span);
    // The warm-up answers with the unbiased estimator: it warms the seal,
    // decode and estimate paths without a full WNNLS solve (17 s on
    // kron-32k).
    wfm::StatusOr<wfm::WorkloadEstimate> served = control.Estimate(
        warmup ? wfm::EstimatorKind::kUnbiased : wfm::EstimatorKind::kWnnls);
    tracer.Close(est_span);
    const std::int64_t done = NowNs();
    tracer.Close(answer_span);
    tracer.Close(root);

    if (!ledger.Check(sealed.ok(), "Seal: " + sealed.status().ToString()) ||
        !ledger.Check(served.ok(), "Estimate: " + served.status().ToString())) {
      return 1;
    }
    const wfm::EpochSnapshot& snap = sealed.value();
    const wfm::WorkloadEstimate& est = served.value();
    ledger.Check(snap.count == spec.users &&
                     ingest.acked_reports == spec.users,
                 "sealed count equals reports sent");
    ledger.Check(snap.histogram == in.tally,
                 "sealed histogram equals the benchmark's tally");
    const Vector truth = workload->Apply(in.x);
    const double n2 =
        static_cast<double>(spec.users) * static_cast<double>(spec.users);

    const double answer_sec = Seconds(done - seal_t0);
    const double epoch_sec = Seconds(done - ingest.start_ns);
    std::printf("  epoch %d%s: device %.4g us/report, ingest %.4f s "
                "(%.6g reports/s), answer %.4f s, epoch %.4f s\n",
                epoch, warmup ? " (warm-up)" : (traced ? " (traced)" : ""),
                static_cast<double>(in.respond_ns + in.encode_ns) * 1e-3 /
                    static_cast<double>(reports.size()),
                Seconds(ingest.wall_ns),
                static_cast<double>(ingest.acked_reports) /
                    Seconds(ingest.wall_ns),
                answer_sec, epoch_sec);
    if (!warmup) {
      collect_rps.push_back(static_cast<double>(ingest.acked_reports) /
                            Seconds(ingest.wall_ns));
      answer_s.push_back(answer_sec);
      epoch_s.push_back(epoch_sec);
      (traced ? traced_epoch_s : untraced_epoch_s).push_back(epoch_sec);
      latency_ms.insert(latency_ms.end(), ingest.latency_ms.begin(),
                        ingest.latency_ms.end());
      tse.push_back(SquaredError(est.query_answers, truth) / n2);
      device_us.push_back(static_cast<double>(in.respond_ns + in.encode_ns) *
                          1e-3 / static_cast<double>(reports.size()));
      respond_ns += in.respond_ns;
      encode_ns += in.encode_ns;
      wire_bytes += in.wire_bytes;
      reports_made += static_cast<std::int64_t>(reports.size());
    }
    if (!traced) continue;

    // ---- traced epoch: replay each layer's public calls in process --------
    const int rroot = tracer.Open("bench.replay", -1);
    int span = tracer.Open("collect.accept", rroot);
    const std::size_t nb = (reports.size() + kBatchSize - 1) / kBatchSize;
    bool replay_ok = true;
    for (std::size_t b = 0; b < nb; ++b) {
      const std::size_t lo = b * kBatchSize;
      const std::size_t hi = std::min(reports.size(), lo + kBatchSize);
      replay_ok &= replay
                       ->AcceptBatch(static_cast<int>(b % kShards),
                                     std::span<const Report>(
                                         reports.data() + lo, hi - lo))
                       .ok();
    }
    accept_ns.push_back(static_cast<double>(tracer.Close(span)) /
                        static_cast<double>(reports.size()));
    span = tracer.Open("collect.seal", rroot);
    const wfm::EpochSnapshot replayed = replay->Seal();
    const double seal_sec = Seconds(tracer.Close(span));
    seal_ms.push_back(seal_sec * 1e3);
    ledger.Check(replay_ok && replayed.histogram == snap.histogram &&
                     replayed.count == snap.count,
                 "in-process replay seals the same snapshot");

    const wfm::ReportDecoder& decoder = replay->session().decoder();
    span = tracer.Open("estimation.decode", rroot);
    const Vector unbiased = decoder.EstimateDataVector(snap.histogram, snap.count);
    decode_ms.push_back(Seconds(tracer.Close(span)) * 1e3);
    span = tracer.Open("estimation.wnnls", rroot);
    const wfm::WnnlsResult solved =
        wfm::WnnlsEstimate(decoder, snap.histogram, snap.count);
    const double wnnls_sec = Seconds(tracer.Close(span));
    wnnls_ms.push_back(wnnls_sec * 1e3);
    wnnls_iters.push_back(solved.iterations);
    converged += solved.converged ? 1 : 0;
    span = tracer.Open("workload.apply", rroot);
    const Vector answers = workload->Apply(solved.x);
    const double apply_sec = Seconds(tracer.Close(span));
    apply_ms.push_back(apply_sec * 1e3);
    ledger.Check(solved.x == est.data_vector && answers == est.query_answers,
                 "served answers bit-identical to WnnlsEstimate + Apply");
    if (!ewa_checked) {
      // Once per traced run: the library's own composition.
      const wfm::WorkloadEstimate ewa = wfm::EstimateWorkloadAnswers(
          decoder, *workload, snap.histogram, snap.count,
          wfm::EstimatorKind::kWnnls);
      ledger.Check(ewa.data_vector == est.data_vector &&
                       ewa.query_answers == est.query_answers,
                   "served answers bit-identical to EstimateWorkloadAnswers");
      ewa_checked = true;
    }

    // Transfer: the codec work of the seal and estimate responses.
    span = tracer.Open("wire.transfer", rroot);
    const wfm::WireBytes snap_bytes = wfm::EncodeSnapshot(snap);
    const bool snap_rt = wfm::DecodeSnapshot(snap_bytes).ok();
    const wfm::WireBytes est_bytes = wfm::EncodeEstimate(est);
    const bool est_rt = wfm::DecodeEstimate(est_bytes).ok();
    const double transfer_sec = Seconds(tracer.Close(span));
    ledger.Check(snap_rt && est_rt, "snapshot and estimate round-trip");
    seal_bytes = static_cast<std::int64_t>(snap_bytes.size());
    tracer.Close(rroot);
    // WnnlsEstimate decodes internally, as the server does, so decode is
    // counted once, inside the WNNLS span.
    coverage.push_back((seal_sec + wnnls_sec + apply_sec + transfer_sec) /
                       answer_sec);
  }
  const Counters measure_end;

  const double mean_tse = [&] {
    double s = 0.0;
    for (double v : tse) s += v;
    return s / static_cast<double>(tse.size());
  }();
  ledger.Check(mean_tse <= kTseMultiple * expected_tse,
               Fmt("answer_tse %.6g <= %.3g x expected_tse", mean_tse,
                   kTseMultiple) +
                   Fmt(" %.6g", expected_tse));

  server.Stop();

  // ---- report ---------------------------------------------------------------
  if (!args.trace) {
    out.Median("setup_s", build_s, "s");
    // Each unit is one epoch's total over spec.users reports.
    out.Median("device_us", device_us, "us");
    out.Median("collect_rps", collect_rps, "1/s");
    // The gated tail is p90: over ten runs the pooled p99 spread up to 73%
    // (a few host preemptions decide it), p90 under 14%. See NOTES.md.
    const std::string base =
        Fmt("pooled over %.0f batches", static_cast<double>(latency_ms.size()));
    out.Value("ingest_p50_ms", Percentile(latency_ms, 0.50), "ms", base);
    out.Value("ingest_p90_ms", Percentile(latency_ms, 0.90), "ms",
              base + Fmt(", %.0f beyond p90",
                         std::floor(0.10 * latency_ms.size())));
    out.Note("ingest_p99_ms", Percentile(latency_ms, 0.99), "ms",
             base + Fmt(", %.0f beyond p99",
                        std::floor(0.01 * latency_ms.size())));
    out.Median("answer_s", answer_s, "s");
    out.Median("epoch_s", epoch_s, "s");
    out.Value("expected_tse", expected_tse, "sq_share",
              Fmt("ExpectedTotalVariance(N)/N^2, N = %.0f", spec.users));
    out.Note("answer_tse", mean_tse, "sq_share",
             Fmt("mean over %.0f epochs; %.4g x expected_tse",
                 static_cast<double>(tse.size()), mean_tse / expected_tse));
  } else {
    out.Median("workload.stats_s", stats_s, "s");
    out.Median("workload.apply_ms", apply_ms, "ms");
    out.Median("core.optimize_s", optimize_s, "s");
    out.Median("core.pgd_iterations", pgd_iters, "count");
    out.Median("core.cholesky_failures", chol_failures, "count");
    out.Median("linalg.pool_dispatches", dispatches, "count");
    out.Median("linalg.pool_inline_frac", inline_frac, "ratio");
    out.Value("mechanisms.deploy_s", Median(deploy_s), "s",
              Fmt("median of setup - optimize - stats; setup %.6g s", Median(build_s)));
    out.Value("ldp.respond_ns",
              static_cast<double>(respond_ns) / static_cast<double>(reports_made),
              "ns", Fmt("total over %.0f reports", reports_made));
    out.Value("wire.encode_ns",
              static_cast<double>(encode_ns) / static_cast<double>(reports_made),
              "ns", Fmt("total over %.0f reports", reports_made));
    out.Value("wire.bytes_per_report",
              static_cast<double>(wire_bytes) / static_cast<double>(reports_made),
              "B", Fmt("%.0f bytes / %.0f reports", wire_bytes, reports_made));
    out.Value("wire.ping_rtt_us", ping_us, "us",
              Fmt("total over %.0f pings", kPings));
    const std::string h = "wfm_wire_request_accept_batch_duration_ns";
    const double batches = static_cast<double>(measure_end.HistCount(h) -
                                               measure_start.HistCount(h));
    out.Value("wire.accept_batch_server_ms",
              static_cast<double>(measure_end.HistSum(h) -
                                  measure_start.HistSum(h)) *
                  1e-6 / batches,
              "ms", Fmt("server-side mean over %.0f batches", batches));
    out.Value("wire.seal_bytes", static_cast<double>(seal_bytes), "B",
              "EncodeSnapshot size of one sealed epoch");
    out.Value("collect.accept_ns_per_report", Median(accept_ns), "ns",
              Fmt("median of %.0f replayed epochs", accept_ns.size()));
    out.Median("collect.seal_ms", seal_ms, "ms");
    out.Median("estimation.decode_ms", decode_ms, "ms");
    out.Median("estimation.wnnls_ms", wnnls_ms, "ms");
    out.Median("estimation.wnnls_iterations", wnnls_iters, "count");
    out.Value("estimation.wnnls_converged_frac",
              static_cast<double>(converged) / wnnls_iters.size(), "ratio",
              Fmt("%.0f of %.0f solves", converged, wnnls_iters.size()));
    out.Median("trace.answer_coverage", coverage, "ratio");
    out.Value("answer_tse", mean_tse, "sq_share",
              Fmt("mean over %.0f epochs; %.4g x expected_tse",
                  static_cast<double>(tse.size()), mean_tse / expected_tse));
    const double traced_med = Median(traced_epoch_s);
    const double untraced_med = Median(untraced_epoch_s);
    out.Value("trace.overhead", traced_med / untraced_med, "ratio",
              Fmt("traced epoch_s %.6g s / untraced %.6g s", traced_med,
                  untraced_med));
  }
  const double ok_frac = static_cast<double>(ledger.attempted - ledger.failed) /
                         static_cast<double>(ledger.attempted);
  if (!args.trace) {
    out.Value("ok_frac", ok_frac, "ratio",
              Fmt("%.0f of %.0f operations", ledger.attempted - ledger.failed,
                  ledger.attempted));
    out.Value("peak_rss_mb", PeakRssMb(), "MB", "getrusage max RSS");
  }

  const auto [cpu_ticks1, steal_ticks1] = CpuAndStealTicks();
  std::printf("  host: steal %.1f%% of CPU time during the run\n",
              cpu_ticks1 > cpu_ticks0
                  ? 100.0 * static_cast<double>(steal_ticks1 - steal_ticks0) /
                        static_cast<double>(cpu_ticks1 - cpu_ticks0)
                  : 0.0);
  if (tracer.enabled()) {
    const Counters run_end;
    std::map<std::string, double> deltas;
    for (const auto& c : run_end.snap.counters) {
      const double d = static_cast<double>(c.value - run_start.Counter(c.name));
      if (d != 0.0) deltas[c.name] = d;
    }
    for (const auto& h : run_end.snap.histograms) {
      const double d = static_cast<double>(h.sample.sum - run_start.HistSum(h.name));
      if (d != 0.0) deltas[h.name + ".sum"] = d;
    }
    tracer.WriteJson(args.trace_out, deltas);
    std::printf("  trace: %s\n", args.trace_out.c_str());
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (ledger.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << ledger.attempted
       << ", \"failed\": " << ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics().size(); ++i) {
    const Metric& m = out.metrics()[i];
    json << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << m.value
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return ledger.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress lines as they happen
  const std::optional<Args> args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  if (args) {
    for (const WorkloadSpec& w : kWorkloads) {
      if (args->workload == w.name) spec = &w;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload dense-prefix|rappor-prefix|"
                 "kron-32k --seed N --seconds S --trace 0|1 "
                 "[--trace_out FILE]\n");
    return 2;
  }
  const std::vector<int> cpus = PinCpus();
  wfm::ThreadPool pool(kPoolThreads);
  wfm::ThreadPool::SetGlobal(&pool);
  const int rc = Run(*args, *spec, cpus);
  wfm::ThreadPool::SetGlobal(nullptr);
  return rc;
}
