// lwbench: end-to-end benchmark driver for the LITEWORP simulator.
//
//   lwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--spans-out FILE]
//   lwbench --workload <name> --print-digests <seconds>
//
// One process, one thread, one workload. The driver reaches the simulator
// only through its public entry points (ExperimentConfig, scenario::Network,
// RunResult::from_metrics, the forensics library) and times every call from
// outside; nothing inside src/ is instrumented for it.
//
// --trace 0 first constructs the workload's reference networks a few times
// (setup_s), then simulates a fixed number of the seed's networks, sized
// from --seconds, and prints the end-to-end metrics (wall_s, setup_s, run_s,
// peak_rss_mb). --trace 1 alternates plain and profiled runs of one network
// a fixed number of times and prints the per-layer metrics. Either way the
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the lines before it are a human-readable table. Every
// operation's deterministic outputs are checked (see check_op); a mismatch
// or an exception counts as a failed operation.
//
// Exit codes: 0 after a completed measurement, 2 on a usage error
// (unknown workload or flag, missing or malformed value), before anything
// runs.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include <unistd.h>

#include "crypto/key_manager.h"
#include "forensics/check.h"
#include "forensics/incident.h"
#include "forensics/perfetto.h"
#include "forensics/trace_reader.h"
#include "neighbor/discovery.h"
#include "scenario/runner.h"
#include "topology/disc_graph.h"

namespace {

using Clock = std::chrono::steady_clock;
using lw::scenario::ExperimentConfig;
using lw::scenario::Network;
using lw::scenario::RunResult;

// ---- Workloads ----

struct Workload {
  const char* name;
  std::size_t nodes;
  lw::Time duration;
  /// Every obs sink on (trace kept in memory, spans, series, counters,
  /// forensics), then the offline forensics analysis of the trace.
  bool observed;
  /// Host seconds of one operation on the reference host (a 2.1 GHz Xeon
  /// VM). Only sizes the fixed operation count a --seconds budget buys, so
  /// that a seed names the same networks on any host and any build.
  double op_seconds;
  /// Set-up rounds an end-to-end run spreads over its operations (see
  /// kSetupNetworks); fewer where a construction takes ~0.1 s.
  int setup_rounds;
};

constexpr Workload kWorkloads[] = {
    {"paper_n100", 100, 2000.0, false, 1.65, 15},
    {"dense_n1000", 1000, 60.0, false, 3.4, 7},
    {"bootstrap_n2000", 2000, 20.0, false, 0.75, 5},
    {"observed_n100", 100, 100.0, true, 1.65, 15},
};

/// Which observability sinks an operation runs with.
enum class Sinks {
  kWorkload,  // the workload's own setting (all off, or all on if observed)
  kProfiled,  // the workload's setting plus the profiler
  kSeries,    // the workload's setting plus series (and the counters it needs)
  kOff,       // everything off (the observed workload's sinks-off twin)
};

ExperimentConfig make_config(const Workload& w, std::uint64_t seed,
                             Sinks sinks) {
  ExperimentConfig config = ExperimentConfig::table2_defaults();
  config.node_count = w.nodes;
  config.duration = w.duration;
  config.malicious_count = 2;
  config.seed = seed;
  config.phy.collisions_enabled = true;
  const bool observed = w.observed && sinks != Sinks::kOff;
  config.obs.trace = observed;
  config.obs.spans = observed;
  config.obs.series = observed;
  config.obs.counters = observed;
  config.obs.forensics = observed;
  if (sinks == Sinks::kProfiled) config.obs.profile = true;
  if (sinks == Sinks::kSeries) config.obs.series = true;
  return config;
}

/// Networks one benchmark seed can draw.
constexpr std::uint64_t kNetworksPerSeed = 4096;
/// Networks every end-to-end run measures, whatever the time budget.
constexpr std::uint64_t kMinNetworks = 3;

/// The number of networks an end-to-end run of `seconds` simulates: a
/// function of the workload and the budget only, never of how fast this
/// host or build happens to be.
std::uint64_t networks_for(const Workload& w, std::uint64_t seconds) {
  const auto n = static_cast<std::uint64_t>(
      static_cast<double>(seconds) / w.op_seconds + 0.5);
  return std::clamp(n, kMinNetworks, kNetworksPerSeed);
}

/// setup_s constructs the same reference networks, the workload's first
/// kSetupNetworks seed-1 networks, in every run whatever the seed: how many
/// placement attempts a topology needs differs by up to 7x from one network
/// to the next, so a seed-drawn set would make setup_s a lottery. Each
/// round constructs all of them once; setup_s is the median round's mean.
/// The rounds are spread evenly between the operations, so they sample the
/// host over the whole run rather than over a few milliseconds of it.
constexpr std::uint64_t kSetupNetworks = 4;

/// Simulator seed of a benchmark seed's j-th network. Seed 1 maps to
/// networks 1, 2, ..., so its first network is the paper's seed-1
/// scenario; distinct benchmark seeds never share a network.
std::uint64_t network_seed(std::uint64_t seed, std::uint64_t j) {
  return (seed - 1) * kNetworksPerSeed + 1 + j;
}

// ---- Deterministic outputs ----

struct SimDigest {
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_collided = 0;
  std::uint64_t events = 0;
  std::uint64_t data_originated = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t malicious_isolated = 0;
  std::uint64_t false_isolations = 0;
  bool operator==(const SimDigest&) const = default;
};

/// Offline analysis of the in-memory trace (observed workload only).
struct AnalysisDigest {
  std::uint64_t trace_bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t incidents = 0;
  std::uint64_t check_issues = 0;
  bool operator==(const AnalysisDigest&) const = default;
};

struct Golden {
  const char* workload;
  std::uint64_t network_seed;
  SimDigest sim;
  AnalysisDigest analysis;
};

#include "golden_digests.inc"

const Golden* find_golden(const Workload& w, std::uint64_t net_seed) {
  for (const Golden& g : kGolden) {
    if (std::strcmp(g.workload, w.name) == 0 && g.network_seed == net_seed) {
      return &g;
    }
  }
  return nullptr;
}

// ---- Host-time spans ----

/// The benchmark's own spans, kept in memory and written as Chrome
/// trace-event JSON after timing ends. Phase spans enclose call spans.
class Timeline {
 public:
  Timeline() : origin_(Clock::now()) {}

  /// Runs `f` inside a span named `name`; returns its host seconds.
  template <typename F>
  double time(const char* name, F&& f) {
    const Clock::time_point begin = Clock::now();
    f();
    const Clock::time_point end = Clock::now();
    spans_.push_back({name, us(begin), us(end) - us(begin)});
    return std::chrono::duration<double>(end - begin).count();
  }

  /// Records an already-measured enclosing span (an operation).
  void add(std::string name, Clock::time_point begin, Clock::time_point end) {
    spans_.push_back({std::move(name), us(begin), us(end) - us(begin)});
  }

  /// One Chrome trace-event document with a single track named after the
  /// workload; nesting follows from the X slices' containment.
  void write_chrome(std::ostream& out, const Workload& w, int track) const {
    out << "{\"traceEvents\":[\n";
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"" << w.name
        << "\"}}";
    for (const Span& s : spans_) {
      char line[320];
      std::snprintf(line, sizeof line,
                    ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"name\":\"%s\"}",
                    track, s.ts_us, s.dur_us, s.name.c_str());
      out << line;
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  struct Span {
    std::string name;
    double ts_us;
    double dur_us;
  };
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- Host speed ----

/// The median HostProbe round on the reference host (a 4-vCPU 2.1 GHz Xeon
/// VM); end-to-end times are reported at that host's speed.
constexpr double kProbeReferenceSeconds = 0.030;

/// A fixed amount of memory-bound work that uses no simulator code: a
/// random pointer chase through 16 MB and a binary-heap churn, the two
/// access patterns that dominate a simulated network's event loop. Its time
/// moves with the host's speed (other tenants' cache and memory traffic),
/// not with any change to the program. Nothing is allocated while timing.
class HostProbe {
 public:
  HostProbe() : next_(kSlots) {
    // Sattolo's shuffle: one cycle through every slot.
    for (std::uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      std::swap(next_[i], next_[(x >> 33) % i]);
    }
    heap_.reserve(kHeapSize + 1);
  }

  /// Host seconds of one round of the fixed work.
  double round() {
    const Clock::time_point begin = Clock::now();
    std::uint32_t at = 0;
    for (int k = 0; k < kChaseSteps; ++k) at = next_[at];
    heap_.clear();
    std::uint64_t x = at;
    for (int k = 0; k < kHeapOps; ++k) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      heap_.push_back(x >> 16);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      if (heap_.size() > kHeapSize) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        heap_.pop_back();
      }
    }
    sink_ += heap_.front();
    return std::chrono::duration<double>(Clock::now() - begin).count();
  }

 private:
  static constexpr std::uint32_t kSlots = 1u << 22;
  static constexpr int kChaseSteps = 150000;
  static constexpr std::size_t kHeapSize = 4096;
  static constexpr int kHeapOps = 150000;
  std::vector<std::uint32_t> next_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;  // keeps the work observable
};

// ---- Process memory ----

double rss_mb() {
  long pages = 0;
  long resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1e6;
}

double peak_rss_mb() {
  double kib = 0.0;
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f)) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kib = std::atof(line + 6);
        break;
      }
    }
    std::fclose(f);
  }
  return kib * 1024.0 / 1e6;
}

// ---- Streams that keep the analysis off the disk ----

/// Reads a string in place (no copy of a multi-megabyte trace).
class StringSource : public std::streambuf {
 public:
  explicit StringSource(const std::string& text) {
    char* begin = const_cast<char*>(text.data());
    setg(begin, begin, begin + text.size());
  }
};

/// Discards everything written, counting the bytes.
class CountingSink : public std::streambuf {
 public:
  std::uint64_t bytes() const { return bytes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes_ += static_cast<std::uint64_t>(n);
    return n;
  }
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(c);
  }

 private:
  std::uint64_t bytes_ = 0;
};

// ---- One operation: a simulated network, plus its analysis pass ----

struct OpResult {
  SimDigest sim;
  AnalysisDigest analysis;
  bool analysed = false;

  double wall = 0.0;
  double setup = 0.0;
  double discovery = 0.0;
  double traffic = 0.0;
  double collect = 0.0;
  double parse = 0.0;
  double check = 0.0;
  double incidents = 0.0;
  double perfetto = 0.0;
  std::uint64_t perfetto_bytes = 0;

  /// RSS growth per phase; meaningful for the first operation of a
  /// process only (later ones reuse the heap the first one grew).
  double mem_setup_mb = 0.0;
  double mem_discovery_mb = 0.0;
  double mem_analysis_mb = 0.0;

  RunResult result;  // trace_jsonl dropped after analysis
  std::uint64_t slab_slots = 0;
  std::vector<lw::topo::Position> positions;
  double radio_range = 0.0;

  double run_s() const { return discovery + traffic; }
};

OpResult run_op(const Workload& w, std::uint64_t net_seed, Sinks sinks,
                Timeline& tl) {
  OpResult op;
  const Clock::time_point begin = Clock::now();
  const double rss_begin = rss_mb();

  ExperimentConfig config = make_config(w, net_seed, sinks);
  std::unique_ptr<Network> net;
  op.setup = tl.time("phase.setup", [&] {
    tl.time("config.finalize_validate", [&] {
      config.finalize();
      config.validate();
    });
    tl.time("network.construct",
            [&] { net = std::make_unique<Network>(config); });
  });
  const double rss_setup = rss_mb();

  // Network::run() is run_until(duration); splitting it at the end of
  // secure discovery changes no counter.
  const lw::Time t_nd =
      std::min(lw::nbr::discovery_complete_time(config.discovery),
               config.duration);
  op.discovery = tl.time("phase.discovery", [&] {
    tl.time("network.run_until", [&] { net->run_until(t_nd); });
  });
  const double rss_discovery = rss_mb();
  op.traffic = tl.time("phase.traffic", [&] {
    tl.time("network.run_until", [&] { net->run_until(config.duration); });
  });
  op.collect = tl.time("phase.collect", [&] {
    tl.time("run_result.from_metrics",
            [&] { op.result = RunResult::from_metrics(*net); });
  });
  op.slab_slots = net->simulator().slab_slots();
  op.positions = net->graph().positions();
  op.radio_range = config.radio_range;
  tl.time("phase.teardown", [&] {
    tl.time("network.destroy", [&] { net.reset(); });
  });

  const RunResult& r = op.result;
  op.sim = {r.frames_transmitted,        r.frames_delivered,
            r.frames_collided,           r.profile.events_executed,
            r.data_originated,           r.data_delivered,
            r.malicious_isolated,        r.false_isolations};

  if (config.obs.trace) {
    op.analysed = true;
    const double rss_analysis = rss_mb();
    std::vector<lw::forensics::TraceRecord> records;
    std::vector<lw::forensics::CheckIssue> issues;
    std::vector<lw::forensics::Incident> incidents;
    tl.time("phase.analysis", [&] {
      op.parse = tl.time("forensics.read_trace", [&] {
        StringSource source(r.trace_jsonl);
        std::istream in(&source);
        records = lw::forensics::read_trace(in);
      });
      op.check = tl.time("forensics.check_trace", [&] {
        lw::forensics::CheckOptions options;
        options.gamma = config.defense.liteworp.detection_confidence;
        issues = lw::forensics::check_trace(records, options);
      });
      op.incidents = tl.time("forensics.incident_fold", [&] {
        lw::forensics::IncidentBuilder builder;
        for (const lw::forensics::TraceRecord& rec : records) {
          if (rec.kind_known) builder.on_event(rec.to_event());
        }
        incidents = builder.build();
      });
      op.perfetto = tl.time("forensics.export_perfetto", [&] {
        CountingSink sink;
        std::ostream out(&sink);
        lw::forensics::export_perfetto(records, out);
        op.perfetto_bytes = sink.bytes();
      });
    });
    op.mem_analysis_mb = rss_mb() - rss_analysis;
    op.analysis = {r.trace_jsonl.size(), records.size(), incidents.size(),
                   issues.size()};
    for (std::size_t i = 0; i < issues.size() && i < 5; ++i) {
      std::fprintf(stderr, "check_trace: line %zu: %s\n", issues[i].line,
                   issues[i].message.c_str());
    }
  }
  const Clock::time_point end = Clock::now();
  op.wall = std::chrono::duration<double>(end - begin).count();
  tl.add(std::string("op ") + w.name + " seed=" + std::to_string(net_seed) +
             (sinks == Sinks::kProfiled ? " profiled"
              : sinks == Sinks::kSeries ? " series"
              : sinks == Sinks::kOff    ? " sinks-off"
                                        : ""),
         begin, end);
  op.mem_setup_mb = rss_setup - rss_begin;
  op.mem_discovery_mb = rss_discovery - rss_setup;
  op.result.trace_jsonl.clear();
  op.result.trace_jsonl.shrink_to_fit();
  return op;
}

/// One set-up construction of a network, destroyed untimed; returns the
/// host seconds of finalize/validate plus the Network constructor.
double construct_only(const Workload& w, std::uint64_t net_seed,
                      Timeline& tl) {
  ExperimentConfig config = make_config(w, net_seed, Sinks::kWorkload);
  std::unique_ptr<Network> net;
  const double seconds = tl.time("setup.construct", [&] {
    config.finalize();
    config.validate();
    net = std::make_unique<Network>(config);
  });
  if (net->graph().positions().size() !=
      config.node_count + config.late_joiners) {
    throw std::runtime_error("constructed network has the wrong node count");
  }
  tl.time("setup.destroy", [&] { net.reset(); });
  return seconds;
}

// ---- Correctness gate ----

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const char* what, const Workload& w, std::uint64_t net_seed) {
    ++failed;
    std::fprintf(stderr, "FAILED %s: %s network seed %llu\n", what, w.name,
                 static_cast<unsigned long long>(net_seed));
  }
};

/// Checks one operation: against the recorded digest when one exists for
/// this network, against `reference` (an earlier operation on the same
/// network) when given, and against seed-independent sanity rules. An
/// operation without an analysis pass (the sinks-off twin) is compared on
/// its simulation digest alone.
void check_op(const Workload& w, std::uint64_t net_seed, const OpResult& op,
              const OpResult* reference, Tally& tally) {
  tally.attempted += op.analysed ? 2 : 1;
  const SimDigest& s = op.sim;
  bool sim_ok = s.frames_tx > 0 && s.frames_delivered > 0 && s.events > 0 &&
                s.data_delivered <= s.data_originated &&
                s.malicious_isolated <= 2;
  bool analysis_ok = !op.analysed || (op.analysis.check_issues == 0 &&
                                      op.analysis.records > 0 &&
                                      op.analysis.trace_bytes > 0);
  if (const Golden* g = find_golden(w, net_seed)) {
    sim_ok = sim_ok && s == g->sim;
    if (op.analysed) analysis_ok = analysis_ok && op.analysis == g->analysis;
  }
  if (reference != nullptr) {
    sim_ok = sim_ok && s == reference->sim;
    if (op.analysed && reference->analysed) {
      analysis_ok = analysis_ok && op.analysis == reference->analysis;
    }
  }
  if (!sim_ok) tally.fail("simulation digest", w, net_seed);
  if (!analysis_ok) tally.fail("analysis digest", w, net_seed);
}

// ---- Statistics ----

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean_of(const std::vector<OpResult>& ops,
               const std::function<double(const OpResult&)>& f) {
  double sum = 0.0;
  for (const OpResult& op : ops) sum += f(op);
  return ops.empty() ? 0.0 : sum / static_cast<double>(ops.size());
}

double median_of(const std::vector<OpResult>& ops,
                 const std::function<double(const OpResult&)>& f) {
  std::vector<double> values;
  for (const OpResult& op : ops) values.push_back(f(op));
  return median(values);
}

// ---- Output ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const std::vector<Metric>& metrics, const Tally& tally) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- Modes ----

/// End-to-end metrics: a fresh network per operation, the seed's first
/// networks_for(w, seconds) of them, sinks as the workload sets them, with
/// a host probe round before each and the set-up rounds over the reference
/// networks (setup_s) spread between them. Distinct networks rather than
/// repeats of a few, because at N=100 one topology's cost differs from the
/// next by about 20%.
std::vector<Metric> measure_end_to_end(const Workload& w, std::uint64_t seed,
                                       std::uint64_t seconds, Timeline& tl,
                                       Tally& tally) {
  std::vector<double> rounds;
  auto setup_round = [&] {
    double sum = 0.0;
    bool ok = true;
    tl.time("phase.setup_round", [&] {
      for (std::uint64_t m = 0; m < kSetupNetworks; ++m) {
        const std::uint64_t net_seed = network_seed(1, m);
        ++tally.attempted;
        try {
          sum += construct_only(w, net_seed, tl);
        } catch (const std::exception& e) {
          tally.fail(e.what(), w, net_seed);
          ok = false;
        }
      }
    });
    if (ok) rounds.push_back(sum / static_cast<double>(kSetupNetworks));
  };

  // The probe's memory stays resident all run; peak_rss_mb leaves it out.
  const double rss_before_probe = rss_mb();
  HostProbe probe;
  probe.round();
  const double probe_mb = rss_mb() - rss_before_probe;
  std::vector<double> probes;
  std::vector<OpResult> ops;
  const std::uint64_t count = networks_for(w, seconds);
  const auto setup_rounds = static_cast<std::uint64_t>(w.setup_rounds);
  std::uint64_t rounds_done = 0;
  for (std::uint64_t j = 0; j < count; ++j) {
    // Round r runs before operation r * count / setup_rounds.
    while (rounds_done < setup_rounds &&
           rounds_done * count / setup_rounds <= j) {
      setup_round();
      ++rounds_done;
    }
    probes.push_back(tl.time("host.probe", [&] { probe.round(); }));
    const std::uint64_t net_seed = network_seed(seed, j);
    try {
      OpResult op = run_op(w, net_seed, Sinks::kWorkload, tl);
      check_op(w, net_seed, op, nullptr, tally);
      ops.push_back(std::move(op));
    } catch (const std::exception& e) {
      tally.attempted += w.observed ? 2 : 1;
      tally.fail(e.what(), w, net_seed);
    }
  }
  // Means over networks for the times: a network's cost is the quantity of
  // interest, and the mean averages the topology-to-topology spread
  // fastest. The times are then scaled to the reference host's speed by
  // the probe rounds taken between the operations: other tenants move this
  // host's speed by +-20% for minutes at a time, and the probe, which runs
  // no simulator code, tracks that (r = 0.82-0.99 across runs) while a
  // change to the program leaves it alone.
  const double wall = mean_of(ops, [](auto& o) { return o.wall; });
  const double setup = median(rounds);
  const double run = mean_of(ops, [](auto& o) { return o.run_s(); });
  const double probe_s = median(probes);
  std::printf("as measured on this host: wall_s %.6f, setup_s %.6f, "
              "run_s %.6f; host probe %.6f s (reference %.6f s), "
              "%.1f MB\n",
              wall, setup, run, probe_s, kProbeReferenceSeconds, probe_mb);
  const double speed = kProbeReferenceSeconds / probe_s;
  return {
      {"wall_s", wall * speed, "s"},
      {"setup_s", setup * speed, "s"},
      {"run_s", run * speed, "s"},
      {"peak_rss_mb", peak_rss_mb() - probe_mb, "MB"},
  };
}

double median_seconds(void (*f)(const OpResult&, int), const OpResult& op,
                      int repeats) {
  std::vector<double> t;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point begin = Clock::now();
    f(op, i);
    t.push_back(seconds_since(begin));
  }
  return median(t);
}

/// Per-layer metrics: one network, plain and profiled operations
/// alternating (plus the sinks-off twin on the observed workload) a fixed
/// number of rounds sized from `seconds`, then one operation with series on
/// for the memory gauges, so the profiled operations run the profiler
/// alone. The first plain operation runs first in the process, so its RSS
/// growth per phase is real.
std::vector<Metric> measure_per_layer(const Workload& w, std::uint64_t seed,
                                      std::uint64_t seconds, Timeline& tl,
                                      Tally& tally) {
  const std::uint64_t net_seed = network_seed(seed, 0);
  std::vector<OpResult> plain, profiled, off, series;
  auto attempt = [&](Sinks sinks, std::vector<OpResult>& into) {
    try {
      OpResult op = run_op(w, net_seed, sinks, tl);
      const OpResult* reference = plain.empty() ? nullptr : &plain.front();
      check_op(w, net_seed, op, reference, tally);
      into.push_back(std::move(op));
    } catch (const std::exception& e) {
      tally.attempted += w.observed && sinks != Sinks::kOff ? 2 : 1;
      tally.fail(e.what(), w, net_seed);
    }
  };
  // A round costs about 2.3 operations (the profiler adds ~30%), 3.3 with
  // the sinks-off twin.
  const double round_ops = w.observed ? 3.3 : 2.3;
  const std::uint64_t rounds = std::max<std::uint64_t>(
      2, static_cast<std::uint64_t>(static_cast<double>(seconds) /
                                        (w.op_seconds * round_ops) +
                                    0.5));
  attempt(Sinks::kWorkload, plain);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    attempt(Sinks::kProfiled, profiled);
    attempt(Sinks::kWorkload, plain);
    if (w.observed) attempt(Sinks::kOff, off);
  }
  attempt(Sinks::kSeries, series);
  if (plain.empty() || profiled.empty() || series.empty()) return {};

  const OpResult& first = plain.front();
  const OpResult& traced = profiled.front();
  const RunResult& tr = traced.result;
  const std::array<lw::obs::LayerProfile, lw::obs::kLayerCount>& layers =
      tr.profile.layers;
  auto layer = [&](lw::obs::Layer l) {
    return layers[static_cast<std::size_t>(l)];
  };
  auto self_s = [&](lw::obs::Layer l) {
    return median_of(profiled, [l](const OpResult& o) {
      return o.result.profile.layers[static_cast<std::size_t>(l)]
          .self_seconds;
    });
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const double plain_run = median_of(plain, [](auto& o) { return o.run_s(); });
  const double traced_run =
      median_of(profiled, [](auto& o) { return o.run_s(); });
  const double unattributed = median_of(profiled, [](const OpResult& o) {
    double attributed = 0.0;
    for (const lw::obs::LayerProfile& p : o.result.profile.layers) {
      attributed += p.self_seconds;
    }
    return o.run_s() - attributed;
  });
  const double sink_overhead =
      off.empty() ? 0.0
                  : plain_run - median_of(off, [](auto& o) { return o.run_s(); });

  // Replays of the two setup calls the Network constructor makes, on the
  // first network's inputs: the final placement (retries excluded) and the
  // pair-key reservation.
  const int probe_repeats = 5;
  const double graph_build_s = median_seconds(
      [](const OpResult& o, int) {
        lw::topo::DiscGraph graph(o.positions, o.radio_range);
      },
      first, probe_repeats);
  const double key_reserve_s = median_seconds(
      [](const OpResult& o, int i) {
        lw::crypto::KeyManager keys(0x11223344AABBCCDDull +
                                    static_cast<std::uint64_t>(i));
        keys.reserve_nodes(o.positions.size());
      },
      first, probe_repeats);

  using lw::obs::Layer;
  const lw::obs::MemoryGauges& hw =
      series.front().result.series.memory_high_water;
  const bool obs_on = w.observed;
  auto plain_median = [&](double OpResult::*field) {
    return median_of(plain, [field](const OpResult& o) { return o.*field; });
  };
  return {
      {"topology.graph_build_s", graph_build_s, "s"},
      {"crypto.key_reserve_s", key_reserve_s, "s"},
      {"mem.setup_mb", first.mem_setup_mb, "MB"},
      {"phase.discovery_s", plain_median(&OpResult::discovery), "s"},
      {"nbr.self_s", self_s(Layer::kNeighbor), "s"},
      {"nbr.events", count(layer(Layer::kNeighbor).events), "count"},
      {"nbr.table_bytes_hw", count(hw.neighbor_bytes), "bytes"},
      {"mem.discovery_mb", first.mem_discovery_mb, "MB"},
      {"sim.events_executed", count(tr.profile.events_executed), "count"},
      {"sim.queue_high_water", count(tr.profile.max_queue_depth), "count"},
      {"sim.slab_slots", count(traced.slab_slots), "count"},
      {"unattributed_s", unattributed, "s"},
      {"phy.self_s", self_s(Layer::kPhy), "s"},
      {"phy.events", count(layer(Layer::kPhy).events), "count"},
      {"mac.events", count(layer(Layer::kMac).events), "count"},
      {"phy.frames_tx", count(tr.frames_transmitted), "count"},
      {"phy.frames_delivered", count(tr.frames_delivered), "count"},
      {"phy.frames_collided", count(tr.frames_collided), "count"},
      {"phase.traffic_s", plain_median(&OpResult::traffic), "s"},
      {"route.self_s", self_s(Layer::kRouting), "s"},
      {"route.events", count(layer(Layer::kRouting).events), "count"},
      {"route.discoveries", count(tr.discoveries), "count"},
      {"mon.self_s", self_s(Layer::kMonitor), "s"},
      {"mon.events", count(layer(Layer::kMonitor).events), "count"},
      {"mon.watch_entries_hw", count(hw.watch_entries), "count"},
      {"defense.frames_observed", count(tr.defense_cost.frames_observed),
       "count"},
      {"defense.control_messages", count(tr.defense_cost.control_messages),
       "count"},
      {"defense.storage_bytes", count(tr.defense_cost.storage_bytes), "bytes"},
      {"atk.self_s", self_s(Layer::kAttack), "s"},
      {"obs.sink_overhead_s", sink_overhead, "s"},
      {"obs.trace_bytes", obs_on ? count(first.analysis.trace_bytes) : 0.0,
       "bytes"},
      {"scenario.collect_s", plain_median(&OpResult::collect), "s"},
      {"forensics.parse_s", plain_median(&OpResult::parse), "s"},
      {"forensics.check_s", plain_median(&OpResult::check), "s"},
      {"forensics.incidents_s", plain_median(&OpResult::incidents), "s"},
      {"forensics.perfetto_s", plain_median(&OpResult::perfetto), "s"},
      {"forensics.records", count(first.analysis.records), "count"},
      {"forensics.perfetto_bytes", count(first.perfetto_bytes), "bytes"},
      {"mem.analysis_mb", first.mem_analysis_mb, "MB"},
      {"profile.run_s", traced_run, "s"},
      {"profile.overhead_s", traced_run - plain_run, "s"},
  };
}

/// Prints the kGolden rows for the networks a seed-1 end-to-end run of
/// `seconds` simulates.
int print_digests(const Workload& w, std::uint64_t seconds) {
  Timeline tl;
  for (std::uint64_t j = 0; j < networks_for(w, seconds); ++j) {
    const std::uint64_t net_seed = network_seed(1, j);
    const OpResult op = run_op(w, net_seed, Sinks::kWorkload, tl);
    const SimDigest& s = op.sim;
    const AnalysisDigest& a = op.analysis;
    std::printf(
        "    {\"%s\", %llu, {%llu, %llu, %llu, %llu, %llu, %llu, %llu, %llu}, "
        "{%llu, %llu, %llu, %llu}},\n",
        w.name, static_cast<unsigned long long>(net_seed),
        static_cast<unsigned long long>(s.frames_tx),
        static_cast<unsigned long long>(s.frames_delivered),
        static_cast<unsigned long long>(s.frames_collided),
        static_cast<unsigned long long>(s.events),
        static_cast<unsigned long long>(s.data_originated),
        static_cast<unsigned long long>(s.data_delivered),
        static_cast<unsigned long long>(s.malicious_isolated),
        static_cast<unsigned long long>(s.false_isolations),
        static_cast<unsigned long long>(a.trace_bytes),
        static_cast<unsigned long long>(a.records),
        static_cast<unsigned long long>(a.incidents),
        static_cast<unsigned long long>(a.check_issues));
  }
  return 0;
}

// ---- Command line ----

int usage_error(const std::string& message) {
  std::fprintf(stderr,
               "lwbench: %s\n"
               "usage: lwbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans-out FILE]\n"
               "       lwbench --workload NAME --print-digests SECONDS\n"
               "workloads:",
               message.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, seed_text, seconds_text, trace_text, spans_out,
      digests_text;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage_error("missing value for " + arg);
    }
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      seed_text = value;
    } else if (arg == "--seconds") {
      seconds_text = value;
    } else if (arg == "--trace") {
      trace_text = value;
    } else if (arg == "--print-digests") {
      digests_text = value;
    } else if (arg == "--spans-out") {
      spans_out = value;
    } else {
      return usage_error("unknown flag: " + arg);
    }
  }
  const Workload* workload = nullptr;
  int track = 0;
  for (const Workload& w : kWorkloads) {
    ++track;
    if (workload_name == w.name) {
      workload = &w;
      break;
    }
  }
  if (workload == nullptr) {
    return usage_error("unknown workload: '" + workload_name + "'");
  }
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  if (!digests_text.empty()) {
    if (!parse_u64(digests_text, &seconds) || seconds == 0) {
      return usage_error("print-digests needs a positive number of seconds");
    }
    return print_digests(*workload, seconds);
  }
  if (!parse_u64(seed_text, &seed)) {
    return usage_error("seed is not a non-negative integer: '" + seed_text +
                       "'");
  }
  if (!parse_u64(seconds_text, &seconds) || seconds == 0) {
    return usage_error("seconds is not a positive integer: '" + seconds_text +
                       "'");
  }
  if (trace_text != "0" && trace_text != "1") {
    return usage_error("trace must be 0 or 1: '" + trace_text + "'");
  }
  const bool traced = trace_text == "1";

  Timeline tl;
  Tally tally;
  const std::vector<Metric> metrics =
      traced ? measure_per_layer(*workload, seed, seconds, tl, tally)
             : measure_end_to_end(*workload, seed, seconds, tl, tally);
  if (!spans_out.empty()) {
    std::ofstream out(spans_out);
    tl.write_chrome(out, *workload, track);
    if (!out) std::fprintf(stderr, "cannot write %s\n", spans_out.c_str());
  }
  print_result(metrics, tally);
  return 0;
}
