#include "scenario/sweep.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.h"
#include "util/thread_pool.h"

namespace lw::scenario {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

ExperimentConfig point_config(const SweepSpec& spec, const SweepPoint& point) {
  ExperimentConfig config = spec.base;
  if (point.mutate) point.mutate(config);
  config.finalize();
  config.validate();
  return config;
}

}  // namespace

SweepResult run_sweep(const SweepSpec& spec) {
  if (spec.runs <= 0) {
    throw std::invalid_argument("sweep: runs must be positive");
  }
  if (spec.points.empty()) {
    throw std::invalid_argument("sweep: at least one point required");
  }

  const auto sweep_start = Clock::now();
  const std::size_t point_count = spec.points.size();
  const std::size_t runs = static_cast<std::size_t>(spec.runs);
  const std::size_t total_jobs = point_count * runs;

  // Build every point's config up front so contradictions surface on the
  // calling thread before any worker spins up.
  std::vector<ExperimentConfig> configs;
  configs.reserve(point_count);
  for (const SweepPoint& point : spec.points) {
    configs.push_back(point_config(spec, point));
  }

  std::vector<std::vector<RunResult>> replicas(point_count,
                                               std::vector<RunResult>(runs));
  std::vector<std::vector<double>> durations(point_count,
                                             std::vector<double>(runs, 0.0));

  std::mutex mutex;  // guards `done` / `error` / the drain and progress hooks
  std::size_t done = 0;
  std::size_t skipped = 0;
  std::exception_ptr error;
  // Spec-order drain cursor: job j = p*runs + i is drained only after jobs
  // 0..j-1 have been, no matter which worker finishes when.
  std::vector<char> finished(total_jobs, 0);
  // Replicas skipped by cancellation: never handed to spec.drain.
  std::vector<char> undrainable(total_jobs, 0);
  std::size_t drain_next = 0;

  auto cancelled = [&spec] { return spec.cancel && *spec.cancel != 0; };

  auto job = [&](std::size_t p, std::size_t i) {
    const std::uint64_t seed = spec.base_seed + spec.points[p].seed_offset +
                               static_cast<std::uint64_t>(i);
    bool drainable = true;
    if (cancelled()) {
      // Skip without running: the replica is flagged so the reduction and
      // the JSON report it honestly instead of averaging a zero-filled run.
      RunResult& out = replicas[p][i];
      out.seed = seed;
      out.failed = true;
      out.fail_reason = "cancelled";
      drainable = false;
      std::lock_guard<std::mutex> lock(mutex);
      ++skipped;
    } else {
      try {
        ExperimentConfig config = configs[p];
        config.seed = seed;
        const auto start = Clock::now();
        RunResult result =
            run_experiment(std::move(config), spec.run_timeout_seconds);
        durations[p][i] = seconds_since(start);
        replicas[p][i] = std::move(result);
      } catch (const sim::WallClockTimeout& timeout) {
        // A stuck point becomes a failed replica, not a hung pool.
        RunResult& out = replicas[p][i];
        out.seed = seed;
        out.failed = true;
        std::ostringstream reason;
        reason << "wall-clock timeout after " << timeout.limit_seconds
               << " s (virtual t=" << timeout.reached << ")";
        out.fail_reason = reason.str();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(mutex);
    ++done;
    finished[p * runs + i] = 1;
    if (!drainable) undrainable[p * runs + i] = 1;
    if (spec.drain && !error) {
      while (drain_next < total_jobs && finished[drain_next] != 0) {
        const std::size_t dp = drain_next / runs;
        const std::size_t di = drain_next % runs;
        if (undrainable[drain_next] == 0) {
          spec.drain(dp, di, replicas[dp][di]);
        }
        ++drain_next;
      }
    }
    if (spec.progress) spec.progress(done, total_jobs);
  };

  std::size_t threads = spec.threads == 0
                            ? ThreadPool::hardware_threads()
                            : static_cast<std::size_t>(
                                  spec.threads < 1 ? 1 : spec.threads);
  threads = std::min(threads, total_jobs);

  if (threads <= 1) {
    for (std::size_t p = 0; p < point_count; ++p) {
      for (std::size_t i = 0; i < runs; ++i) job(p, i);
    }
  } else {
    ThreadPool pool(threads);
    for (std::size_t p = 0; p < point_count; ++p) {
      for (std::size_t i = 0; i < runs; ++i) {
        pool.submit([&job, p, i] { job(p, i); });
      }
    }
    pool.wait_idle();
  }
  if (error) std::rethrow_exception(error);

  // Deterministic reduction: spec order, never completion order.
  SweepResult result;
  result.points.resize(point_count);
  for (std::size_t p = 0; p < point_count; ++p) {
    SweepPointResult& out = result.points[p];
    out.label = spec.points[p].label;
    out.replicas = std::move(replicas[p]);
    out.aggregate = Aggregate::reduce(out.replicas);
    for (double secs : durations[p]) out.cpu_seconds += secs;
    for (const RunResult& r : out.replicas) {
      out.counters.add_counters(r.registry);
      out.profile.accumulate(r.profile);
    }
  }
  result.threads_used = static_cast<int>(threads);
  result.wall_seconds = seconds_since(sweep_start);
  result.interrupted = cancelled();
  result.jobs_skipped = skipped;
  return result;
}

Aggregate average_runs(ExperimentConfig config, int runs,
                       std::uint64_t base_seed, int threads) {
  SweepSpec spec;
  spec.base = std::move(config);
  spec.points.push_back({"", nullptr, 0});
  spec.runs = runs;
  spec.base_seed = base_seed;
  spec.threads = threads;
  return run_sweep(spec).points.front().aggregate;
}

namespace {

void emit_aggregate(util::JsonWriter& json, const Aggregate& agg) {
  json.open('{');
  json.key("runs").value(static_cast<std::uint64_t>(agg.runs));
  json.key("data_originated").value(agg.data_originated);
  json.key("data_dropped_malicious").value(agg.data_dropped_malicious);
  json.key("fraction_dropped").value(agg.fraction_dropped);
  json.key("fraction_dropped_sem").value(agg.fraction_dropped_sem);
  json.key("routes_established").value(agg.routes_established);
  json.key("wormhole_routes").value(agg.wormhole_routes);
  json.key("fraction_wormhole_routes").value(agg.fraction_wormhole_routes);
  json.key("fraction_wormhole_routes_sem")
      .value(agg.fraction_wormhole_routes_sem);
  json.key("false_isolations").value(agg.false_isolations);
  json.key("detection_probability").value(agg.detection_probability);
  json.key("detection_probability_sem").value(agg.detection_probability_sem);
  json.key("mean_isolation_latency");
  if (agg.mean_isolation_latency) {
    json.value(*agg.mean_isolation_latency);
  } else {
    json.null();
  }
  json.key("runs_fully_isolated")
      .value(static_cast<std::uint64_t>(agg.runs_fully_isolated));
  // Robustness keys appear only for fault-plan sweeps (or when replicas
  // failed), keeping clean-run JSON byte-identical to previous releases.
  if (agg.failed_runs > 0) {
    json.key("failed_runs").value(static_cast<std::uint64_t>(agg.failed_runs));
  }
  if (agg.fault_active) {
    json.key("nodes_crashed").value(agg.nodes_crashed);
    json.key("nodes_recovered").value(agg.nodes_recovered);
    json.key("mean_recovery_latency").value(agg.mean_recovery_latency);
    json.key("recovery_samples").value(agg.recovery_samples);
    json.key("framed_accusations").value(agg.framed_accusations);
    json.key("framed_isolations").value(agg.framed_isolations);
  }
  json.close('}');
}

void emit_replica(util::JsonWriter& json, const RunResult& r,
                  bool include_timing) {
  json.open('{');
  json.key("seed").value(static_cast<std::uint64_t>(r.seed));
  if (r.failed) {
    // A failed replica's outputs are meaningless; emit the marker alone so
    // downstream consumers cannot mistake zeros for results.
    json.key("failed").value(true);
    json.key("fail_reason").string(r.fail_reason);
    json.close('}');
    return;
  }
  json.key("average_degree").value(r.average_degree);
  json.key("data_originated").value(r.data_originated);
  json.key("data_delivered").value(r.data_delivered);
  json.key("data_dropped_malicious").value(r.data_dropped_malicious);
  json.key("data_dropped_no_route").value(r.data_dropped_no_route);
  json.key("routes_established").value(r.routes_established);
  json.key("wormhole_routes").value(r.wormhole_routes);
  json.key("routes_via_malicious").value(r.routes_via_malicious);
  json.key("false_isolations").value(r.false_isolations);
  json.key("local_detections").value(r.local_detections);
  json.key("malicious_count")
      .value(static_cast<std::uint64_t>(r.malicious_count));
  json.key("malicious_isolated")
      .value(static_cast<std::uint64_t>(r.malicious_isolated));
  json.key("isolation_latency");
  if (r.isolation_latency) {
    json.value(*r.isolation_latency);
  } else {
    json.null();
  }
  json.key("frames_transmitted").value(r.frames_transmitted);
  json.key("frames_delivered").value(r.frames_delivered);
  json.key("frames_collided").value(r.frames_collided);
  json.key("mean_delivery_latency").value(r.mean_delivery_latency);
  json.key("defense").open('{');
  json.key("name").string(r.defense_name);
  json.key("frames_observed").value(r.defense_cost.frames_observed);
  json.key("admission_checks").value(r.defense_cost.admission_checks);
  json.key("admission_rejects").value(r.defense_cost.admission_rejects);
  json.key("control_messages").value(r.defense_cost.control_messages);
  json.key("control_bytes").value(r.defense_cost.control_bytes);
  json.key("storage_bytes").value(r.defense_cost.storage_bytes);
  json.close('}');
  if (r.fault_active) {
    json.key("fault").open('{');
    json.key("nodes_crashed").value(r.nodes_crashed);
    json.key("nodes_recovered").value(r.nodes_recovered);
    json.key("recovery_latencies").open('[');
    for (Duration latency : r.recovery_latencies) json.item().value(latency);
    json.close(']');
    json.close('}');
  }
  if (r.forensics.enabled) {
    json.key("forensics").open('{');
    json.key("incidents").value(r.forensics.incidents);
    json.key("isolated_incidents").value(r.forensics.isolated_incidents);
    json.key("true_positives").value(r.forensics.true_positives);
    json.key("false_positives").value(r.forensics.false_positives);
    if (r.forensics.framed_accusations > 0) {
      json.key("framed_accusations").value(r.forensics.framed_accusations);
      json.key("framed_isolations").value(r.forensics.framed_isolations);
    }
    json.key("precision").value(r.forensics.precision());
    json.key("mean_detection_latency")
        .value(r.forensics.mean_detection_latency);
    json.key("latency_samples").value(r.forensics.latency_samples);
    json.key("incident_list").open('[');
    for (const forensics::Incident& inc : r.incidents) {
      json.item().open('{');
      json.key("accused").value(static_cast<std::uint64_t>(inc.accused));
      json.key("def").string(obs::to_string(inc.defense));
      json.key("malicious").value(inc.ground_truth_malicious);
      json.key("isolated").value(inc.isolated());
      json.key("label").string(inc.label());
      json.key("guards")
          .value(static_cast<std::uint64_t>(inc.accusing_guards.size()));
      json.key("detections").value(inc.detections);
      json.key("detection_latency").value(inc.detection_latency());
      json.close('}');
    }
    json.close(']');
    json.close('}');
  }
  if (r.series.enabled) {
    // Pre-rendered by the obs layer so the golden-series test and the
    // sweep JSON share one byte-exact serialization.
    json.key("series").raw(obs::series_to_json(r.series, include_timing));
  }
  if (r.spans.enabled) {
    // Pre-rendered by the obs layer (same pattern as "series"); absent
    // entirely when spans are off so existing output stays byte-identical.
    json.key("spans").raw(forensics::spans_to_json(r.spans));
  }
  json.close('}');
}

void emit_counters(util::JsonWriter& json,
                   const obs::RegistrySnapshot& counters) {
  json.open('{');
  for (const auto& [name, count] : counters.counters) {
    json.key(name).value(count);
  }
  json.close('}');
}

void emit_profile(util::JsonWriter& json, const obs::ProfileTotals& profile,
                  bool include_timing) {
  // Deterministic fields first (always emitted); wall-clock fields only on
  // request, so the default JSON stays thread-count invariant.
  json.open('{');
  json.key("runs").value(static_cast<std::uint64_t>(profile.runs));
  json.key("events_executed").value(profile.events_executed);
  json.key("max_queue_depth")
      .value(static_cast<std::uint64_t>(profile.max_queue_depth));
  json.key("virtual_seconds").value(profile.virtual_seconds);
  json.key("events_per_virtual_second")
      .value(profile.virtual_seconds > 0.0
                 ? static_cast<double>(profile.events_executed) /
                       profile.virtual_seconds
                 : 0.0);
  json.key("layer_events").open('{');
  for (std::size_t i = 0; i < obs::kLayerCount; ++i) {
    json.key(obs::to_string(static_cast<obs::Layer>(i)))
        .value(profile.layers[i].events);
  }
  json.close('}');
  if (include_timing) {
    json.key("timing").open('{');
    json.key("wall_seconds").value(profile.wall_seconds);
    json.key("events_per_wall_second")
        .value(profile.wall_seconds > 0.0
                   ? static_cast<double>(profile.events_executed) /
                         profile.wall_seconds
                   : 0.0);
    json.key("layer_self_seconds").open('{');
    for (std::size_t i = 0; i < obs::kLayerCount; ++i) {
      json.key(obs::to_string(static_cast<obs::Layer>(i)))
          .value(profile.layers[i].self_seconds);
    }
    json.close('}');
    json.close('}');
  }
  json.close('}');
}

}  // namespace

std::string to_json(const SweepResult& result, bool include_timing) {
  // Timing fields (wall_seconds, cpu_seconds, threads_used) are emitted
  // only under `include_timing`: the default JSON is byte-identical across
  // --threads values, so outputs can be diffed to verify determinism.
  util::JsonWriter json;
  json.open('{');
  json.key("points").open('[');
  for (const SweepPointResult& point : result.points) {
    json.item().open('{');
    json.key("label").string(point.label);
    json.key("aggregate");
    emit_aggregate(json, point.aggregate);
    if (!point.counters.empty()) {
      json.key("counters");
      emit_counters(json, point.counters);
    }
    if (point.profile.enabled) {
      json.key("profile");
      emit_profile(json, point.profile, include_timing);
    }
    json.key("replicas").open('[');
    for (const RunResult& r : point.replicas) {
      json.item();
      emit_replica(json, r, include_timing);
    }
    json.close(']');
    json.close('}');
  }
  json.close(']');
  // Present only on interrupted sweeps; absent keys keep complete-run JSON
  // byte-identical across releases and thread counts.
  if (result.interrupted) {
    json.key("interrupted").value(true);
    json.key("jobs_skipped")
        .value(static_cast<std::uint64_t>(result.jobs_skipped));
  }
  if (include_timing) {
    json.key("sweep_timing").open('{');
    json.key("wall_seconds").value(result.wall_seconds);
    json.key("threads_used")
        .value(static_cast<std::uint64_t>(result.threads_used));
    double cpu = 0.0;
    for (const SweepPointResult& point : result.points) {
      cpu += point.cpu_seconds;
    }
    json.key("cpu_seconds").value(cpu);
    json.close('}');
  }
  json.close('}');
  return json.str();
}

}  // namespace lw::scenario
