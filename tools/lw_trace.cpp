// lw-trace: offline analyzer for JSONL event traces (bench --trace).
//
// Exit codes follow the contract in util/cli.h: 0 ok, 1 findings (check
// violations, diff mismatch, unknown lineage), 2 usage or
// unreadable/unparseable input. --version and --help exit 0.
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "forensics/check.h"
#include "forensics/incident.h"
#include "forensics/perfetto.h"
#include "forensics/trace_reader.h"
#include "util/cli.h"

namespace {

using lw::LineageId;
using lw::NodeId;
using lw::forensics::CheckIssue;
using lw::forensics::CheckOptions;
using lw::forensics::Incident;
using lw::forensics::IncidentBuilder;
using lw::forensics::RunIncidents;
using lw::forensics::TraceFormatError;
using lw::forensics::TraceRecord;

constexpr const char* kUsage =
    "usage: lw-trace <command> ...\n"
    "  stats <file>                 event counts per layer.event, time span,\n"
    "                               run segments, distinct lineages\n"
    "  follow <file> <lineage-id>   every packet event of one lineage, in\n"
    "                               order: the packet's hop-by-hop journey\n"
    "  incidents <file> [--json]    fold the trace into labeled detection\n"
    "                               incidents (same IncidentBuilder the live\n"
    "                               runs use), per run segment\n"
    "  diff <file-a> <file-b>       first byte-level divergence plus\n"
    "                               per-event-count deltas\n"
    "  check <file> [--gamma=N]     lint the trace against the invariants in\n"
    "                               forensics/check.h; exit 1 on violations\n"
    "  export-perfetto <file> [--out=FILE]\n"
    "                               convert to Chrome trace-event JSON for\n"
    "                               ui.perfetto.dev / chrome://tracing (one\n"
    "                               track per node x layer, spans as nestable\n"
    "                               async slices, lineage flow arrows)\n"
    "  --version | --help";

std::vector<TraceRecord> load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("lw-trace: cannot read " + path);
  try {
    return lw::forensics::read_trace(in);
  } catch (const TraceFormatError& e) {
    throw std::invalid_argument("lw-trace: " + path + ":" +
                                std::to_string(e.line()) + ": " + e.what());
  }
}

/// "<layer>.<event>", the key stats and diff count events by.
std::string event_name(const TraceRecord& record) {
  std::string name(record.layer());
  name += '.';
  name += record.name();
  return name;
}

// ---- stats ----

int cmd_stats(const std::string& path) {
  const std::vector<TraceRecord> records = load(path);
  std::size_t runs = 0;
  std::uint64_t events = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  bool any = false;
  std::map<std::string, std::uint64_t> per_event;
  std::set<LineageId> lineages;
  std::set<NodeId> nodes;
  for (const TraceRecord& r : records) {
    if (r.is_run_header) {
      ++runs;
      continue;
    }
    ++events;
    if (!any || r.t < t_min) t_min = r.t;
    if (!any || r.t > t_max) t_max = r.t;
    any = true;
    ++per_event[event_name(r)];
    if (r.has_packet) lineages.insert(r.lineage);
    nodes.insert(r.node);
  }
  std::printf("%s\n", path.c_str());
  std::printf("  run segments      %zu\n", runs);
  std::printf("  events            %llu\n",
              static_cast<unsigned long long>(events));
  if (any) std::printf("  time span         [%.6f, %.6f] s\n", t_min, t_max);
  std::printf("  nodes seen        %zu\n", nodes.size());
  std::printf("  packet lineages   %zu\n", lineages.size());
  std::printf("  events by kind:\n");
  for (const auto& [name, count] : per_event) {
    std::printf("    %-20s %llu\n", name.c_str(),
                static_cast<unsigned long long>(count));
  }
  return 0;
}

// ---- follow ----

int cmd_follow(const std::string& path, const std::string& id_text) {
  // Digits only: from_chars takes no sign or whitespace for an unsigned
  // type (strtoull would wrap "-5") and reports an out-of-range id.
  LineageId lineage = 0;
  const char* last = id_text.data() + id_text.size();
  const auto [end, error] = std::from_chars(id_text.data(), last, lineage);
  if (error != std::errc{} || end != last) {
    throw lw::ConfigError("lw-trace: bad lineage id '" + id_text + "'");
  }
  const std::vector<TraceRecord> records = load(path);
  const std::vector<TraceRecord> chain =
      lw::forensics::lineage_chain(records, lineage);
  if (chain.empty()) {
    std::fprintf(stderr, "lw-trace: lineage %llu not found in %s\n",
                 static_cast<unsigned long long>(lineage), path.c_str());
    return 1;
  }
  std::set<NodeId> hops;
  for (const TraceRecord& r : chain) {
    std::printf("%s\n", lw::forensics::describe(r).c_str());
    hops.insert(r.node);
  }
  std::printf("-- %zu events across %zu nodes, t=[%.6f, %.6f]\n", chain.size(),
              hops.size(), chain.front().t, chain.back().t);
  return 0;
}

// ---- incidents ----

/// `ground_truth` is false when the run has no atk.spawn record; then
/// both labels read "unknown".
void print_incident_text(const Incident& inc, bool ground_truth) {
  std::printf("  accused %-4u %-9s %s  def=%s  guards=%zu [", inc.accused,
              !ground_truth                ? "unknown"
              : inc.ground_truth_malicious ? "MALICIOUS"
              : inc.framed                 ? "FRAMED"
                                           : "honest",
              inc.isolated() ? "ISOLATED" : "detected",
              lw::obs::to_string(inc.defense), inc.accusing_guards.size());
  for (std::size_t i = 0; i < inc.accusing_guards.size(); ++i) {
    std::printf("%s%u", i == 0 ? "" : ",", inc.accusing_guards[i]);
  }
  std::printf("]  sus(fab/drop/anom)=%llu/%llu/%llu det=%llu alerts=%llu "
              "iso=%llu",
              static_cast<unsigned long long>(inc.suspicions_fabrication),
              static_cast<unsigned long long>(inc.suspicions_drop),
              static_cast<unsigned long long>(inc.suspicions_anomaly),
              static_cast<unsigned long long>(inc.detections),
              static_cast<unsigned long long>(inc.alerts),
              static_cast<unsigned long long>(inc.isolations));
  std::printf("  peak_malc=%.9g", inc.peak_malc);
  if (inc.first_malicious_act >= 0.0) {
    std::printf("  first_act=%.6f", inc.first_malicious_act);
  }
  if (inc.first_detection >= 0.0) {
    std::printf("  first_detection=%.6f", inc.first_detection);
  }
  if (inc.first_isolation >= 0.0) {
    std::printf("  first_isolation=%.6f", inc.first_isolation);
  }
  if (inc.detection_latency() >= 0.0) {
    std::printf("  latency=%.6f", inc.detection_latency());
  }
  if (inc.framed && !inc.framers.empty()) {
    std::printf("  framers=[");
    for (std::size_t i = 0; i < inc.framers.size(); ++i) {
      std::printf("%s%u", i == 0 ? "" : ",", inc.framers[i]);
    }
    std::printf("]");
  }
  std::printf("  %s\n", !ground_truth                ? "unknown"
                        : inc.ground_truth_malicious ? "TRUE-POSITIVE"
                        : inc.framed                 ? "FRAMED"
                                                     : "FALSE-POSITIVE");
}

int cmd_incidents(const std::string& path, bool json) {
  const std::vector<RunIncidents> runs =
      lw::forensics::fold_runs(load(path));
  if (json) {
    std::fputs(lw::forensics::incidents_to_json(runs).c_str(), stdout);
    return 0;
  }
  for (const RunIncidents& run : runs) {
    const auto summary = IncidentBuilder::summarize(run.incidents);
    std::printf("== run point=%s seed=%llu ==\n", run.point.c_str(),
                static_cast<unsigned long long>(run.seed));
    for (const Incident& inc : run.incidents) {
      print_incident_text(inc, run.ground_truth);
    }
    std::printf("  %llu incident(s), %llu isolated, ",
                static_cast<unsigned long long>(summary.incidents),
                static_cast<unsigned long long>(summary.isolated_incidents));
    if (!run.ground_truth) {
      std::printf("ground truth unknown (no atk.spawn in this run)\n");
      continue;
    }
    std::printf(
        "%llu TP / %llu FP (precision %.3f)",
        static_cast<unsigned long long>(summary.true_positives),
        static_cast<unsigned long long>(summary.false_positives),
        summary.precision());
    if (summary.framed_accusations > 0) {
      std::printf(", %llu framed (%llu isolated)",
                  static_cast<unsigned long long>(summary.framed_accusations),
                  static_cast<unsigned long long>(summary.framed_isolations));
    }
    if (summary.latency_samples > 0) {
      std::printf(", mean detection latency %.6f s over %llu",
                  summary.mean_detection_latency,
                  static_cast<unsigned long long>(summary.latency_samples));
    }
    std::printf("\n");
  }
  return 0;
}

// ---- diff ----

int cmd_diff(const std::string& path_a, const std::string& path_b) {
  std::ifstream a(path_a);
  std::ifstream b(path_b);
  if (!a || !b) {
    throw std::invalid_argument("lw-trace: cannot read " +
                                (!a ? path_a : path_b));
  }
  std::string line_a;
  std::string line_b;
  std::size_t line_no = 0;
  std::size_t first_divergence = 0;
  std::map<std::string, std::int64_t> deltas;
  auto tally = [&deltas](const std::string& line, std::size_t no, int sign) {
    TraceRecord record;
    try {
      if (lw::forensics::parse_trace_line(line, no, &record) &&
          !record.is_run_header) {
        deltas[event_name(record)] += sign;
      }
    } catch (const TraceFormatError&) {
      deltas["(unparseable)"] += sign;
    }
  };
  while (true) {
    const bool more_a = static_cast<bool>(std::getline(a, line_a));
    const bool more_b = static_cast<bool>(std::getline(b, line_b));
    if (!more_a && !more_b) break;
    ++line_no;
    if (more_a) tally(line_a, line_no, +1);
    if (more_b) tally(line_b, line_no, -1);
    if (first_divergence == 0 && (!more_a || !more_b || line_a != line_b)) {
      first_divergence = line_no;
      std::printf("first divergence at line %zu:\n", line_no);
      std::printf("  a: %s\n", more_a ? line_a.c_str() : "<end of file>");
      std::printf("  b: %s\n", more_b ? line_b.c_str() : "<end of file>");
    }
  }
  if (first_divergence == 0) {
    std::printf("traces identical (%zu lines)\n", line_no);
    return 0;
  }
  std::printf("event-count deltas (a minus b):\n");
  bool any_delta = false;
  for (const auto& [name, delta] : deltas) {
    if (delta == 0) continue;
    any_delta = true;
    std::printf("  %-20s %+lld\n", name.c_str(),
                static_cast<long long>(delta));
  }
  if (!any_delta) std::printf("  (same event counts; contents differ)\n");
  return 1;
}

// ---- check ----

int cmd_check(const std::string& path, int gamma) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("lw-trace: cannot read " + path);
  // Parse line by line so a corrupted line becomes a finding (invariant 5)
  // instead of aborting the lint.
  std::vector<TraceRecord> records;
  std::vector<CheckIssue> issues;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    TraceRecord record;
    try {
      if (lw::forensics::parse_trace_line(line, line_no, &record)) {
        records.push_back(std::move(record));
      }
    } catch (const TraceFormatError& e) {
      issues.push_back({line_no, e.what()});
    }
  }
  CheckOptions options;
  options.gamma = gamma;
  std::vector<CheckIssue> lint = lw::forensics::check_trace(records, options);
  issues.insert(issues.end(), lint.begin(), lint.end());
  for (const CheckIssue& issue : issues) {
    std::printf("%s:%zu: %s\n", path.c_str(), issue.line,
                issue.message.c_str());
  }
  if (!issues.empty()) {
    std::printf("%zu violation(s)\n", issues.size());
    return 1;
  }
  std::printf("OK: %zu records, no violations\n", records.size());
  return 0;
}

// ---- export-perfetto ----

int cmd_export_perfetto(const std::string& path, const std::string& out_path) {
  const std::vector<TraceRecord> records = load(path);
  if (out_path.empty() || out_path == "-") {
    lw::forensics::export_perfetto(records, std::cout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) throw std::invalid_argument("lw-trace: cannot write " + out_path);
  lw::forensics::export_perfetto(records, out);
  std::fprintf(stderr, "lw-trace: wrote %s\n", out_path.c_str());
  return 0;
}

int run_tool(lw::Config& args) {
  const bool json = args.get_bool("json", false);
  const int gamma = args.get_int("gamma", 3);
  const std::string out_path = args.get_string("out", "");
  lw::cli::reject_unknown(args);
  if (gamma < 1) {
    throw lw::ConfigError("lw-trace: --gamma must be an integer >= 1, got '" +
                          std::to_string(gamma) + "'");
  }

  const std::vector<std::string>& words = args.positionals();
  const std::string command = words.empty() ? "" : words[0];
  const std::size_t operands = words.size() - (words.empty() ? 0 : 1);
  if (command == "stats" && operands == 1) return cmd_stats(words[1]);
  if (command == "follow" && operands == 2) {
    return cmd_follow(words[1], words[2]);
  }
  if (command == "incidents" && operands == 1) {
    return cmd_incidents(words[1], json);
  }
  if (command == "diff" && operands == 2) return cmd_diff(words[1], words[2]);
  if (command == "check" && operands == 1) return cmd_check(words[1], gamma);
  if (command == "export-perfetto" && operands == 1) {
    return cmd_export_perfetto(words[1], out_path);
  }
  throw lw::ConfigError(kUsage);
}

}  // namespace

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "lw-trace", kUsage, run_tool);
}
