// lw-report: renders the benches' machine output (bench_hotpath --json
// rows or any sweep bench's --json document) into markdown perf reports,
// diffs two runs, and maintains the BENCH_history.json regression ledger.
//
// Exit codes follow the contract in util/cli.h: 0 ok, 1 findings (diff
// regressions, history drift), 2 usage or unreadable/unparseable input.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report/report.h"
#include "util/cli.h"
#include "util/json.h"

namespace {

constexpr const char* kUsage =
    "usage: lw-report <command> ...\n"
    "  render <file> [--title=T]       one run -> markdown report\n"
    "  diff <file-a> <file-b> [--wall-tolerance=0.10]\n"
    "                                  compare run B against run A: exact\n"
    "                                  match required for deterministic\n"
    "                                  counters, relative threshold for\n"
    "                                  wall-clock metrics; exit 1 on any\n"
    "                                  regression\n"
    "  record <file> --history=H --label=L\n"
    "                                  append the run's deterministic metrics\n"
    "                                  as a new labeled entry of history file\n"
    "                                  H (created if missing)\n"
    "  check <file> --history=H        compare the run against H's newest\n"
    "                                  entry; exit 1 on deterministic drift\n"
    "  --version | --help\n"
    "accepts bench row arrays (bench_hotpath --json) and sweep JSON\n"
    "(any sweep bench with --json); --series runs carry queue/memory\n"
    "high-water metrics into the report.";

/// Reads a whole file; throws std::invalid_argument when unreadable.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("lw-report: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses a run file into cases; throws std::invalid_argument on malformed
/// input.
std::vector<lw::report::CaseMetrics> load_cases(const std::string& path) {
  const std::string text = slurp(path);
  try {
    return lw::report::parse_cases(lw::util::JsonValue::parse(text));
  } catch (const lw::util::JsonParseError& e) {
    throw std::invalid_argument("lw-report: " + path + ":" +
                                std::to_string(e.offset()) + ": " + e.what());
  } catch (const std::exception& e) {
    throw std::invalid_argument("lw-report: " + path + ": " + e.what());
  }
}

/// The history file's text; empty when it does not exist yet.
std::string read_history(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  if (in) buffer << in.rdbuf();
  return buffer.str();
}

int cmd_render(const std::string& path, const std::string& title) {
  const auto cases = load_cases(path);
  std::fputs(lw::report::render_markdown(
                 cases, title.empty() ? "Perf report: " + path : title)
                 .c_str(),
             stdout);
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             double wall_tolerance) {
  lw::report::DiffOptions options;
  options.wall_tolerance = wall_tolerance;
  const lw::report::DiffReport report =
      lw::report::diff_cases(load_cases(path_a), load_cases(path_b), options);
  std::fputs(report.markdown.c_str(), stdout);
  return report.regressions == 0 ? 0 : 1;
}

int cmd_record(const std::string& path, const std::string& history_path,
               const std::string& label) {
  if (history_path.empty() || label.empty()) {
    throw lw::ConfigError(
        "lw-report: record needs --history=FILE and --label=TEXT");
  }
  const auto cases = load_cases(path);
  std::string updated;
  try {
    updated = lw::report::history_append(read_history(history_path), label,
                                         cases);
  } catch (const std::exception& e) {
    throw std::invalid_argument("lw-report: " + history_path + ": " +
                                e.what());
  }
  std::ofstream out(history_path);
  if (!out) {
    throw std::invalid_argument("lw-report: cannot write " + history_path);
  }
  out << updated << "\n";
  std::fprintf(stderr, "recorded entry \"%s\" in %s\n", label.c_str(),
               history_path.c_str());
  return 0;
}

int cmd_check(const std::string& path, const std::string& history_path) {
  if (history_path.empty()) {
    throw lw::ConfigError("lw-report: check needs --history=FILE");
  }
  const auto cases = load_cases(path);
  lw::report::HistoryCheck check;
  try {
    check = lw::report::history_check(read_history(history_path), cases);
  } catch (const std::exception& e) {
    throw std::invalid_argument("lw-report: " + history_path + ": " +
                                e.what());
  }
  std::fputs(check.message.c_str(), stderr);
  return check.ok ? 0 : 1;
}

int run_tool(lw::Config& args) {
  const std::string title = args.get_string("title", "");
  const double wall_tolerance = args.get_double(
      "wall-tolerance", lw::report::DiffOptions{}.wall_tolerance);
  const std::string history = args.get_string("history", "");
  const std::string label = args.get_string("label", "");
  lw::cli::reject_unknown(args);
  if (wall_tolerance < 0.0) {
    throw lw::ConfigError("lw-report: bad --wall-tolerance \"" +
                          args.get_string("wall-tolerance", "") + "\"");
  }

  const std::vector<std::string>& words = args.positionals();
  const std::string command = words.empty() ? "" : words[0];
  const std::size_t operands = words.size() - (words.empty() ? 0 : 1);
  if (command == "render" && operands == 1) return cmd_render(words[1], title);
  if (command == "diff" && operands == 2) {
    return cmd_diff(words[1], words[2], wall_tolerance);
  }
  if (command == "record" && operands == 1) {
    return cmd_record(words[1], history, label);
  }
  if (command == "check" && operands == 1) return cmd_check(words[1], history);
  throw lw::ConfigError(kUsage);
}

}  // namespace

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "lw-report", kUsage, run_tool);
}
