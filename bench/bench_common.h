// Shared bench CLI surface — the unified experiment/bench API.
//
// Every bench's main() is one lw::cli::run call (util/cli.h: --help,
// --version and the exit-code contract) whose usage text is the bench's
// own followed by kStandardFlags below. parse_common() reads the standard
// flags; a bench then reads its own and calls lw::cli::reject_unknown, so
// a mistyped flag exits 2 before any simulation runs. Benches with no
// stochastic runs (the closed-form analysis harnesses) accept --runs and
// --threads for CLI uniformity but ignore them.
//
// Sweep benches also install SIGINT/SIGTERM handlers: the first signal
// cancels the sweep cooperatively (jobs not yet started are skipped,
// in-flight runs finish and drain, --json / --trace output stays
// complete and parseable, with an "interrupted" marker in the JSON); a
// second signal falls through to the default handler and kills the
// process.
#pragma once

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "defense/defense.h"
#include "obs/event.h"
#include "obs/trace_writer.h"
#include "scenario/sweep.h"
#include "util/cli.h"
#include "util/config.h"
#include "util/json.h"

namespace bench {

/// The standard flags every bench accepts, appended to its own usage text.
inline const std::string kStandardFlags =
    "\n\nstandard flags:\n"
    "  --runs=N     seed replicas per sweep point (default varies per bench)\n"
    "  --seed=S     base seed; replica i runs seed S+i\n"
    "  --threads=T  sweep worker threads (0 = one per hardware thread,\n"
    "               default 1); results are bit-identical for any T\n"
    "  --json       machine-readable output instead of the text tables\n"
    "  --trace=F    write a JSONL event trace of every completed run to\n"
    "               file F, streamed in spec order during the sweep (each\n"
    "               run's trace is dropped from memory once written);\n"
    "               byte-identical at any --threads\n"
    "  --trace-filter=L  comma-separated layers to trace (phy,mac,nbr,\n"
    "               route,mon,atk; default all)\n"
    "  --profile    collect run profiles; adds per-point profiler totals\n"
    "               and a \"timing\" section to the sweep JSON, and a\n"
    "               summary on stderr\n"
    "  --series[=B] sample a deterministic sim-time telemetry series\n"
    "               (bucket width B simulated seconds, default 1.0):\n"
    "               per-bucket layer event rates, queue depth/high-water,\n"
    "               memory gauges. Adds a \"series\" object to every\n"
    "               replica in the sweep JSON; byte-identical per seed at\n"
    "               any --threads value. Wall-clock self-time per bucket\n"
    "               appears only with --profile.\n"
    "  --spans      fold events into protocol-transaction spans (route\n"
    "               sessions, alibi windows, alert rounds, tunnel\n"
    "               sessions, join handshakes): adds a \"spans\" object to\n"
    "               every replica in the sweep JSON and, when combined\n"
    "               with --trace, span.begin/span.end lines to the trace.\n"
    "               Byte-identical per seed at any --threads value.\n"
    "  --watch      live progress view on stderr while each run executes\n"
    "               (sim-time, event rate, queue depth, ETA). Display\n"
    "               only; never changes results. Most useful with\n"
    "               --threads=1; concurrent runs interleave their lines.\n"
    "  --run-timeout=S  per-replica wall-clock watchdog: a run still\n"
    "               executing after S real seconds is aborted and reported\n"
    "               as a failed replica instead of hanging the worker pool\n"
    "               (0 = off)\n"
    "  --defense=NAME   defense backend for the sweep's base config\n"
    "               (liteworp, leash, zscore, none); default leaves the\n"
    "               bench's own choice in place\n"
    "  --defense-opt=K=V[,K=V...]  backend parameters by dotted key, e.g.\n"
    "               --defense-opt=zscore.z_threshold=3,zscore.min_peers=4\n"
    "               (comma-separated because lw::Config keeps one value\n"
    "               per flag); a malformed pair, an unknown key or a value\n"
    "               out of range exits 2 before any run\n"
    "  --quiet      suppress the stderr progress line (on by default when\n"
    "               stderr is a TTY)";

struct Common {
  int runs = 1;
  std::uint64_t seed = 1;
  int threads = 1;
  bool json = false;
  /// JSONL trace output file (streamed during the sweep); empty = off.
  std::string trace_file;
  std::uint32_t trace_layers = lw::obs::kAllLayers;
  bool profile = false;
  /// Telemetry series sampling (--series[=bucket_seconds]).
  bool series = false;
  double series_bucket = 1.0;
  /// Protocol-transaction span folding (--spans).
  bool spans = false;
  /// Live stderr progress view per run (--watch).
  bool watch = false;
  bool quiet = false;
  /// Per-replica wall-clock watchdog in seconds; 0 disables.
  double run_timeout = 0.0;
  /// Defense backend override (--defense); empty = keep the bench default.
  std::string defense;
  /// Comma-separated dotted k=v backend parameters (--defense-opt).
  std::string defense_opts;
};

/// Parses the standard flags. A bad value (--runs below 1, an unknown
/// --defense backend, a --series width that is not a positive number, or an
/// unknown --trace-filter layer) throws lw::ConfigError with its message.
inline Common parse_common(const lw::Config& args, int default_runs,
                           std::uint64_t default_seed) {
  Common common;
  common.runs = args.get_int("runs", default_runs);
  if (common.runs < 1) {
    throw lw::ConfigError("--runs: runs must be positive, got " +
                          std::to_string(common.runs));
  }
  common.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<int>(default_seed)));
  common.threads = args.get_int("threads", 1);
  common.json = args.get_bool("json", false);
  common.trace_file = args.get_string("trace", "");
  common.profile = args.get_bool("profile", false);
  // --series is a flag ("true") or carries the bucket width (--series=2.5).
  const std::string series = args.get_string("series", "");
  if (!series.empty()) {
    common.series = true;
    if (series != "true") {
      char* end = nullptr;
      common.series_bucket = std::strtod(series.c_str(), &end);
      if (end == series.c_str() || *end != '\0' ||
          common.series_bucket <= 0.0) {
        throw lw::ConfigError(
            "--series: bucket width must be a positive number of simulated "
            "seconds, got \"" + series + "\"");
      }
    }
  }
  common.spans = args.get_bool("spans", false);
  common.watch = args.get_bool("watch", false);
  common.quiet = args.get_bool("quiet", false);
  common.run_timeout = args.get_double("run-timeout", 0.0);
  common.defense = args.get_string("defense", "");
  common.defense_opts = args.get_string("defense-opt", "");
  if (!common.defense.empty() && !lw::defense::known(common.defense)) {
    std::string names;
    for (const std::string& name : lw::defense::registry()) {
      if (!names.empty()) names += ", ";
      names += name;
    }
    throw lw::ConfigError("--defense: unknown backend \"" + common.defense +
                          "\" (registered: " + names + ")");
  }
  try {
    common.trace_layers =
        lw::obs::parse_layer_mask(args.get_string("trace-filter", "all"));
  } catch (const std::exception& e) {
    throw lw::ConfigError(std::string("--trace-filter: ") + e.what());
  }
  return common;
}

/// Applies --defense / --defense-opt to one config. Any error, a malformed
/// pair, an unknown key or a value out of range, throws lw::ConfigError
/// with its message. Every backend an option names is range-checked, not
/// only the selected one, since a sweep point may switch backends.
inline void apply_defense(const Common& common,
                          lw::scenario::ExperimentConfig& config) {
  if (!common.defense.empty()) config.defense.name = common.defense;
  std::vector<std::string> backends = {config.defense.name};
  std::string opts = common.defense_opts;
  try {
    while (!opts.empty()) {
      const std::size_t comma = opts.find(',');
      const std::string pair = opts.substr(0, comma);
      opts = comma == std::string::npos ? "" : opts.substr(comma + 1);
      const std::size_t eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw std::invalid_argument("expected key=value, got \"" + pair +
                                    "\"");
      }
      const std::string key = pair.substr(0, eq);
      lw::defense::set_option(config.defense, key, pair.substr(eq + 1));
      backends.push_back(key.substr(0, key.find('.')));
    }
    for (const std::string& backend : backends) {
      lw::defense::DefenseConfig selected = config.defense;
      selected.name = backend;
      selected.validate();
    }
  } catch (const std::exception& e) {
    throw lw::ConfigError(std::string("--defense-opt: ") + e.what());
  }
}

/// Applies the common knobs to a sweep spec (including the observability
/// switches: tracing when --trace was given, counters and
/// profiling under --trace/--profile, forensic incident folding whenever a
/// trace is requested — or when the bench itself enabled it).
inline void apply(const Common& common, lw::scenario::SweepSpec& spec) {
  const bool tracing = !common.trace_file.empty();
  spec.runs = common.runs;
  spec.base_seed = common.seed;
  spec.threads = common.threads;
  spec.base.obs.trace = tracing;
  spec.base.obs.trace_layers = common.trace_layers;
  spec.base.obs.profile = common.profile;
  spec.base.obs.counters = common.profile || tracing;
  spec.base.obs.series = common.series;
  spec.base.obs.series_bucket = common.series_bucket;
  spec.base.obs.spans = common.spans || spec.base.obs.spans;
  spec.base.obs.watch = common.watch;
  spec.base.obs.forensics = tracing || spec.base.obs.forensics;
  spec.run_timeout_seconds = common.run_timeout;
  apply_defense(common, spec.base);
}

namespace detail {

/// Cooperative-cancellation flag shared with the sweep engine; set by the
/// first SIGINT/SIGTERM.
inline volatile std::sig_atomic_t g_cancel = 0;

extern "C" inline void handle_cancel_signal(int signum) {
  g_cancel = 1;
  // One chance to finish cleanly; a second signal kills the process.
  std::signal(signum, SIG_DFL);
}

/// Installs the handlers once per process (safe to call repeatedly).
inline void install_cancel_handlers() {
  static const bool installed = [] {
    std::signal(SIGINT, handle_cancel_signal);
    std::signal(SIGTERM, handle_cancel_signal);
    return true;
  }();
  (void)installed;
}

/// Stderr progress line with ETA; enabled by default on a TTY, suppressed
/// by --quiet. Returns an empty function when disabled.
inline std::function<void(std::size_t, std::size_t)> make_progress(
    const Common& common) {
  if (common.quiet || isatty(fileno(stderr)) == 0) return {};
  const auto start = std::chrono::steady_clock::now();
  return [start](std::size_t done, std::size_t total) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double eta =
        done > 0 ? elapsed * static_cast<double>(total - done) /
                       static_cast<double>(done)
                 : 0.0;
    std::fprintf(stderr, "\r\033[K%zu/%zu jobs (%.0f s elapsed, ETA %.0f s)",
                 done, total, elapsed, eta);
    if (done == total) std::fprintf(stderr, "\r\033[K");
    std::fflush(stderr);
  };
}

inline void print_profile(const lw::scenario::SweepResult& result) {
  std::fprintf(stderr, "== profile (%d thread(s), %.2f s wall) ==\n",
               result.threads_used, result.wall_seconds);
  for (const auto& point : result.points) {
    const auto& prof = point.profile;
    if (!prof.enabled) continue;
    std::fprintf(stderr,
                 "%-16s %10llu events  %8.2f s cpu  %6.0f ev/ms  "
                 "queue<=%zu\n",
                 point.label.empty() ? "(point)" : point.label.c_str(),
                 static_cast<unsigned long long>(prof.events_executed),
                 prof.wall_seconds,
                 prof.wall_seconds > 0.0
                     ? static_cast<double>(prof.events_executed) /
                           (prof.wall_seconds * 1e3)
                     : 0.0,
                 prof.max_queue_depth);
    std::fprintf(stderr, "    per layer:");
    for (std::size_t i = 0; i < lw::obs::kLayerCount; ++i) {
      std::fprintf(
          stderr, " %s=%llu/%.2fs",
          lw::obs::to_string(static_cast<lw::obs::Layer>(i)),
          static_cast<unsigned long long>(prof.layers[i].events),
          prof.layers[i].self_seconds);
    }
    std::fprintf(stderr, "\n");
  }
}

}  // namespace detail

/// Runs the sweep with the common knobs applied: progress line on a TTY,
/// trace file streamed in spec order, profile summary on stderr.
/// Sweep benches call this instead of lw::scenario::run_sweep directly.
inline lw::scenario::SweepResult run_sweep(const Common& common,
                                           lw::scenario::SweepSpec spec) {
  apply(common, spec);
  spec.progress = detail::make_progress(common);
  detail::install_cancel_handlers();
  spec.cancel = &detail::g_cancel;
  std::ofstream trace_out;
  if (!common.trace_file.empty()) {
    trace_out.open(common.trace_file);
    if (!trace_out) {
      throw std::invalid_argument("cannot write trace file " +
                                  common.trace_file);
    }
    // Stream each replica's trace, introduced by a meta line naming the
    // point and seed, as soon as it is next in spec order (the drain hook
    // serializes under the engine lock), then drop the buffer. Spec order
    // keeps the file byte-identical at any --threads value. A failed
    // replica (timed out) produced no trace: its header would fake an
    // empty run.
    spec.drain = [&trace_out, &spec](std::size_t p, std::size_t /*i*/,
                                     lw::scenario::RunResult& r) {
      if (r.failed) return;
      trace_out << lw::obs::run_header_line(spec.points[p].label, r.seed);
      trace_out << r.trace_jsonl;
      r.trace_jsonl.clear();
      r.trace_jsonl.shrink_to_fit();
    };
  }
  lw::scenario::SweepResult result = lw::scenario::run_sweep(spec);
  if (common.profile) detail::print_profile(result);
  if (result.interrupted) {
    std::fprintf(stderr,
                 "sweep interrupted: %zu job(s) skipped; completed points "
                 "flushed\n",
                 result.jobs_skipped);
  }
  return result;
}

/// The sweep JSON with timing included exactly when profiling was
/// requested (keeping the default byte-identical across --threads).
inline std::string sweep_json(const Common& common,
                              const lw::scenario::SweepResult& result) {
  return lw::scenario::to_json(result, common.profile);
}

/// Flat-table JSON output for benches whose result is a table rather than
/// a sweep (the analytic harnesses): an array of uniform objects, numbers
/// as general<10> ("%.10g"). Sweep benches use lw::scenario::to_json
/// instead.
class JsonRows {
 public:
  JsonRows() { out_.open('['); }
  JsonRows& field(std::string_view key, double value) {
    open_field(key).general<10>(value);
    return *this;
  }
  JsonRows& field(std::string_view key, const std::string& value) {
    open_field(key).string(value);
    return *this;
  }
  void end_row() {
    out_.close('}');
    in_row_ = false;
  }
  std::string str() const { return out_.str() + "]"; }

 private:
  lw::util::JsonWriter& open_field(std::string_view key) {
    if (!in_row_) {
      out_.item().open('{');
      in_row_ = true;
    }
    return out_.key(key);
  }

  lw::util::JsonWriter out_;
  bool in_row_ = false;
};

}  // namespace bench
