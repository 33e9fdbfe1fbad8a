#include "report/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

namespace lw::report {
namespace {

/// Metric values are counters or seconds; %.10g prints both compactly and
/// round-trips every integer the benches emit.
std::string format_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string format_delta(double a, double b) {
  const double delta = b - a;
  std::string text = (delta > 0 ? "+" : "") + format_number(delta);
  if (a != 0.0) {
    char rel[32];
    std::snprintf(rel, sizeof(rel), " (%+.2f%%)", 100.0 * delta / a);
    text += rel;
  }
  return text;
}

void flatten_numbers(const util::JsonValue& object, const std::string& prefix,
                     CaseMetrics* out) {
  for (const auto& [key, value] : object.members()) {
    if (value.is_number()) {
      out->metrics.emplace_back(prefix + key, value.as_number());
    } else if (value.is_bool()) {
      out->metrics.emplace_back(prefix + key, value.as_bool() ? 1.0 : 0.0);
    }
  }
}

std::vector<CaseMetrics> parse_bench_rows(const util::JsonValue& root) {
  std::vector<CaseMetrics> cases;
  for (const util::JsonValue& row : root.items()) {
    if (!row.is_object()) {
      throw std::runtime_error("bench rows must be objects");
    }
    CaseMetrics metrics;
    metrics.name = row.string_or("case", "");
    if (metrics.name.empty()) {
      metrics.name = row.string_or("label", "");
    }
    if (metrics.name.empty()) {
      // ROC-style rows identify themselves by coordinates, not a label.
      const std::string mode = row.string_or("mode", "");
      const std::string defense = row.string_or("defense", "");
      if (!mode.empty() && !defense.empty()) {
        metrics.name = mode + " / " + defense;
        const std::string param = row.string_or("param", "");
        if (!param.empty() && param != "-") {
          metrics.name += " " + param + "=" +
                          format_number(row.number_or("value", 0.0));
        }
      }
    }
    if (metrics.name.empty()) {
      metrics.name = "row" + std::to_string(cases.size());
    }
    flatten_numbers(row, "", &metrics);
    cases.push_back(std::move(metrics));
  }
  return cases;
}

std::vector<CaseMetrics> parse_sweep(const util::JsonValue& root) {
  const util::JsonValue* points = root.find("points");
  if (points == nullptr || !points->is_array()) {
    throw std::runtime_error(
        "unrecognized input: expected a bench row array or a sweep object "
        "with \"points\"");
  }
  std::vector<CaseMetrics> cases;
  for (const util::JsonValue& point : points->items()) {
    CaseMetrics metrics;
    metrics.name = point.string_or("label", "");
    if (metrics.name.empty()) {
      metrics.name = "point" + std::to_string(cases.size());
    }
    if (const util::JsonValue* agg = point.find("aggregate")) {
      flatten_numbers(*agg, "", &metrics);
    }
    if (const util::JsonValue* counters = point.find("counters")) {
      flatten_numbers(*counters, "counter.", &metrics);
    }
    if (const util::JsonValue* profile = point.find("profile")) {
      flatten_numbers(*profile, "profile.", &metrics);
    }
    // Replica-level telemetry rolls up to per-point high-waters (max), the
    // figures a perf report compares.
    if (const util::JsonValue* replicas = point.find("replicas")) {
      double queue_hw = -1.0;
      CaseMetrics memory_hw;
      for (const util::JsonValue& replica : replicas->items()) {
        const util::JsonValue* series = replica.find("series");
        if (series == nullptr) continue;
        queue_hw = std::max(queue_hw,
                            series->number_or("queue_high_water", 0.0));
        if (const util::JsonValue* mem = series->find("memory_high_water")) {
          for (const auto& [key, value] : mem->members()) {
            if (!value.is_number()) continue;
            const std::string name = "series.mem_" + key;
            bool found = false;
            for (auto& [existing, current] : memory_hw.metrics) {
              if (existing == name) {
                current = std::max(current, value.as_number());
                found = true;
                break;
              }
            }
            if (!found) {
              memory_hw.metrics.emplace_back(name, value.as_number());
            }
          }
        }
      }
      if (queue_hw >= 0.0) {
        metrics.metrics.emplace_back("series.queue_high_water", queue_hw);
        for (auto& entry : memory_hw.metrics) {
          metrics.metrics.push_back(std::move(entry));
        }
      }
      // Span statistics roll up across replicas: counts sum, means pool
      // count-weighted (raw samples are not in the JSON, so percentiles
      // stay per-replica and are not aggregated here).
      struct Pool {
        double count = 0.0;
        double sum = 0.0;
      };
      std::map<std::string, Pool> kind_opened;
      std::map<std::string, Pool> kind_duration;
      std::map<std::string, Pool> phase_pool;
      Pool latency_pool;
      bool any_spans = false;
      for (const util::JsonValue& replica : replicas->items()) {
        const util::JsonValue* spans = replica.find("spans");
        if (spans == nullptr) continue;
        any_spans = true;
        if (const util::JsonValue* kinds = spans->find("kinds")) {
          for (const auto& [kind, stats] : kinds->members()) {
            kind_opened[kind].count += stats.number_or("opened", 0.0);
            kind_opened[kind].sum += stats.number_or("closed", 0.0);
            if (const util::JsonValue* dur = stats.find("duration")) {
              const double n = dur->number_or("count", 0.0);
              kind_duration[kind].count += n;
              kind_duration[kind].sum += n * dur->number_or("mean", 0.0);
            }
          }
        }
        if (const util::JsonValue* phases = spans->find("phases")) {
          for (const auto& [phase, stats] : phases->members()) {
            phase_pool[phase].sum += stats.number_or("sum", 0.0);
            if (const util::JsonValue* summary = stats.find("summary")) {
              phase_pool[phase].count += summary->number_or("count", 0.0);
            }
          }
        }
        if (const util::JsonValue* latency = spans->find("detection_latency")) {
          const double n = latency->number_or("count", 0.0);
          latency_pool.count += n;
          latency_pool.sum += n * latency->number_or("mean", 0.0);
        }
      }
      if (any_spans) {
        for (const auto& [kind, pool] : kind_opened) {
          metrics.metrics.emplace_back("spans." + kind + ".opened",
                                       pool.count);
          metrics.metrics.emplace_back("spans." + kind + ".closed", pool.sum);
        }
        for (const auto& [kind, pool] : kind_duration) {
          if (pool.count > 0.0) {
            metrics.metrics.emplace_back("spans." + kind + ".duration_mean",
                                         pool.sum / pool.count);
          }
        }
        for (const auto& [phase, pool] : phase_pool) {
          metrics.metrics.emplace_back("spans." + phase + ".rounds",
                                       pool.count);
          if (pool.count > 0.0) {
            metrics.metrics.emplace_back("spans." + phase + ".mean",
                                         pool.sum / pool.count);
          }
        }
        metrics.metrics.emplace_back("spans.detection_rounds",
                                     latency_pool.count);
        if (latency_pool.count > 0.0) {
          metrics.metrics.emplace_back(
              "spans.detection_latency_mean",
              latency_pool.sum / latency_pool.count);
        }
      }
    }
    cases.push_back(std::move(metrics));
  }
  return cases;
}

const CaseMetrics* find_case(const std::vector<CaseMetrics>& cases,
                             const std::string& name) {
  for (const CaseMetrics& c : cases) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

}  // namespace

bool CaseMetrics::has(const std::string& key) const {
  for (const auto& [name, value] : metrics) {
    (void)value;
    if (name == key) return true;
  }
  return false;
}

double CaseMetrics::get(const std::string& key, double fallback) const {
  for (const auto& [name, value] : metrics) {
    if (name == key) return value;
  }
  return fallback;
}

bool is_wall_metric(const std::string& name) {
  return name == "wall_seconds" || name == "cpu_seconds" ||
         name.find("per_second") != std::string::npos ||
         name.find("wall_") != std::string::npos ||
         name.find(".wall") != std::string::npos ||
         name.find("self_seconds") != std::string::npos;
}

std::vector<CaseMetrics> parse_cases(const util::JsonValue& root) {
  if (root.is_array()) return parse_bench_rows(root);
  if (root.is_object()) return parse_sweep(root);
  throw std::runtime_error(
      "unrecognized input: expected a bench row array or a sweep object");
}

std::string render_markdown(const std::vector<CaseMetrics>& cases,
                            const std::string& title) {
  std::ostringstream out;
  out << "# " << title << "\n";
  // Runs carrying the span-derived latency decomposition (bench_defense_roc
  // --json) get a cross-case summary table up front: detection latency and
  // its observe/corroborate/isolate phases, p50/p95, one row per cell.
  bool any_latency = false;
  for (const CaseMetrics& c : cases) {
    if (c.has("latency_p50") && c.get("detection_rounds", 0.0) > 0.0) {
      any_latency = true;
      break;
    }
  }
  if (any_latency) {
    out << "\n## Detection latency (sim s, p50/p95 per cell)\n\n"
        << "| case | rounds | latency p50 | latency p95 | observe p50/p95 | "
           "corroborate p50/p95 | isolate p50/p95 |\n"
        << "|---|---:|---:|---:|---:|---:|---:|\n";
    for (const CaseMetrics& c : cases) {
      if (!c.has("latency_p50") || c.get("detection_rounds", 0.0) <= 0.0) {
        continue;
      }
      out << "| " << c.name << " | "
          << format_number(c.get("detection_rounds", 0.0)) << " | "
          << format_number(c.get("latency_p50", 0.0)) << " | "
          << format_number(c.get("latency_p95", 0.0)) << " | "
          << format_number(c.get("observe_p50", 0.0)) << " / "
          << format_number(c.get("observe_p95", 0.0)) << " | "
          << format_number(c.get("corroborate_p50", 0.0)) << " / "
          << format_number(c.get("corroborate_p95", 0.0)) << " | "
          << format_number(c.get("isolate_p50", 0.0)) << " / "
          << format_number(c.get("isolate_p95", 0.0)) << " |\n";
    }
  }
  for (const CaseMetrics& c : cases) {
    out << "\n## " << c.name << "\n\n";
    out << "| metric | value |\n|---|---:|\n";
    // Deterministic metrics first, wall-clock after: the stable half of
    // the report reads before the machine-dependent half.
    for (const bool wall_pass : {false, true}) {
      for (const auto& [name, value] : c.metrics) {
        if (is_wall_metric(name) != wall_pass) continue;
        out << "| " << (wall_pass ? "_" : "") << name
            << (wall_pass ? "_" : "") << " | " << format_number(value)
            << " |\n";
      }
    }
  }
  return out.str();
}

DiffReport diff_cases(const std::vector<CaseMetrics>& a,
                      const std::vector<CaseMetrics>& b,
                      const DiffOptions& options) {
  DiffReport report;
  std::ostringstream out;
  out << "# Perf diff (B vs A)\n";
  out << "\nDeterministic metrics must match exactly; wall-clock metrics "
         "are flagged beyond "
      << format_number(100.0 * options.wall_tolerance)
      << "% slowdown.\n";
  for (const CaseMetrics& cb : b) {
    const CaseMetrics* ca = find_case(a, cb.name);
    out << "\n## " << cb.name << "\n\n";
    if (ca == nullptr) {
      out << "_only in B (new case; not compared)_\n";
      continue;
    }
    out << "| metric | A | B | delta | verdict |\n|---|---:|---:|---:|---|\n";
    for (const auto& [name, value_b] : cb.metrics) {
      if (!ca->has(name)) {
        out << "| " << name << " | - | " << format_number(value_b)
            << " | - | new |\n";
        continue;
      }
      const double value_a = ca->get(name, 0.0);
      std::string verdict = "ok";
      if (is_wall_metric(name)) {
        // Higher wall_seconds is slower; higher *_per_second is faster.
        const bool higher_is_slower =
            name.find("per_second") == std::string::npos;
        const double rel =
            value_a != 0.0 ? (value_b - value_a) / value_a : 0.0;
        const double slowdown = higher_is_slower ? rel : -rel;
        if (slowdown > options.wall_tolerance) {
          verdict = "REGRESSION";
          ++report.regressions;
        } else if (slowdown < -options.wall_tolerance) {
          verdict = "improved";
        }
      } else if (value_a != value_b) {
        verdict = "DRIFT";
        ++report.regressions;
      }
      out << "| " << name << " | " << format_number(value_a) << " | "
          << format_number(value_b) << " | " << format_delta(value_a, value_b)
          << " | " << verdict << " |\n";
    }
    for (const auto& [name, value_a] : ca->metrics) {
      if (!cb.has(name)) {
        out << "| " << name << " | " << format_number(value_a)
            << " | - | - | removed |\n";
      }
    }
  }
  for (const CaseMetrics& ca : a) {
    if (find_case(b, ca.name) == nullptr) {
      out << "\n## " << ca.name << "\n\n_only in A (not compared)_\n";
    }
  }
  out << "\n**" << report.regressions << " regression(s)**\n";
  report.markdown = out.str();
  return report;
}

std::string history_append(const std::string& history_json,
                           const std::string& label,
                           const std::vector<CaseMetrics>& cases) {
  // Metric values are counters or seconds; general<10> (%.10g) prints both
  // compactly and round-trips every integer the benches emit.
  util::JsonWriter json;
  json.open('{');
  json.key("entries").open('[');
  if (!history_json.empty()) {
    // Existing entries are re-serialized through this same writer, so the
    // document converges to one canonical byte form regardless of how it
    // was first created.
    const util::JsonValue root = util::JsonValue::parse(history_json);
    const util::JsonValue* entries = root.find("entries");
    if (entries == nullptr || !entries->is_array()) {
      throw std::runtime_error("history: expected {\"entries\":[...]}");
    }
    for (const util::JsonValue& entry : entries->items()) {
      json.item().open('{');
      json.key("label").string(entry.string_or("label", ""));
      json.key("cases").open('[');
      const util::JsonValue* entry_cases = entry.find("cases");
      if (entry_cases != nullptr) {
        for (const util::JsonValue& c : entry_cases->items()) {
          json.item().open('{');
          json.key("case").string(c.string_or("case", ""));
          for (const auto& [key, value] : c.members()) {
            if (key == "case" || !value.is_number()) continue;
            json.key(key).general<10>(value.as_number());
          }
          json.close('}');
        }
      }
      json.close(']').close('}');
    }
  }
  json.item().open('{');
  json.key("label").string(label);
  json.key("cases").open('[');
  for (const CaseMetrics& c : cases) {
    json.item().open('{');
    json.key("case").string(c.name);
    for (const auto& [name, value] : c.metrics) {
      // Wall metrics are machine-dependent; the ledger records only what
      // every machine must reproduce.
      if (is_wall_metric(name)) continue;
      json.key(name).general<10>(value);
    }
    json.close('}');
  }
  json.close(']').close('}');
  json.close(']').close('}');
  return json.str();
}

HistoryCheck history_check(const std::string& history_json,
                           const std::vector<CaseMetrics>& cases) {
  HistoryCheck check;
  if (history_json.empty()) {
    check.message = "history empty: nothing to check against\n";
    return check;
  }
  const util::JsonValue root = util::JsonValue::parse(history_json);
  const util::JsonValue* entries = root.find("entries");
  if (entries == nullptr || !entries->is_array()) {
    throw std::runtime_error("history: expected {\"entries\":[...]}");
  }
  if (entries->items().empty()) {
    check.message = "history empty: nothing to check against\n";
    return check;
  }
  const util::JsonValue& newest = entries->items().back();
  std::ostringstream out;
  int drift = 0;
  int compared = 0;
  const util::JsonValue* newest_cases = newest.find("cases");
  for (const CaseMetrics& current : cases) {
    const util::JsonValue* recorded = nullptr;
    if (newest_cases != nullptr) {
      for (const util::JsonValue& c : newest_cases->items()) {
        if (c.string_or("case", "") == current.name) {
          recorded = &c;
          break;
        }
      }
    }
    if (recorded == nullptr) {
      out << "  " << current.name << ": not in history (new case, passes)\n";
      continue;
    }
    for (const auto& [key, value] : recorded->members()) {
      if (key == "case" || !value.is_number()) continue;
      if (!current.has(key)) {
        out << "  " << current.name << "." << key
            << ": recorded but absent from this run (passes)\n";
        continue;
      }
      ++compared;
      const double got = current.get(key, 0.0);
      if (got != value.as_number()) {
        ++drift;
        out << "  DRIFT " << current.name << "." << key << ": history "
            << format_number(value.as_number()) << ", run "
            << format_number(got) << "\n";
      }
    }
  }
  check.ok = drift == 0;
  std::ostringstream message;
  message << "history check vs entry \"" << newest.string_or("label", "")
          << "\": " << compared << " metric(s) compared, " << drift
          << " drifted\n"
          << out.str();
  check.message = message.str();
  return check;
}

}  // namespace lw::report
