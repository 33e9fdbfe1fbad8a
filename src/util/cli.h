// One command-line entry point for every bench, example and lw-* tool.
//
// Each main() is a single call:
//   int main(int argc, char** argv) {
//     return lw::cli::run(argc, argv, "quickstart", kUsage, run_example);
//   }
// run() parses argv into an lw::Config (--key=value, --flag, positionals)
// and answers --version ("<name> <version>") and --help / -h (the usage
// text) on stdout, both exit 0. Otherwise it calls body(args), which calls
// reject_unknown(args) right after its last flag read, before any
// simulation or file I/O, so a mistyped flag never starts a run.
//
// Exit codes, the same for every binary:
//   0  success, including --help and --version.
//   1  the program ran on valid input and reports a negative outcome:
//      findings (trace violations, diff regressions, history drift), a
//      failed --check, an infeasible scenario (no connected topology).
//      A body returns 1 itself, or throws any std::exception that is not
//      a std::invalid_argument; run() prints its message.
//   2  rejected input: an unknown flag, a flag value that does not parse,
//      a config validate() rejects, an unreadable or malformed file.
//      A body throws std::invalid_argument (lw::ConfigError included);
//      run() prints its message.
#pragma once

#include <algorithm>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "util/config.h"
#include "util/version.h"

namespace lw::cli {

/// Throws ConfigError("unknown flag: --x") for every flag set on the
/// command line that no getter has read yet.
inline void reject_unknown(const Config& args) {
  std::string message;
  for (const std::string& key : args.unread_keys()) {
    if (!message.empty()) message += '\n';
    message += "unknown flag: --" + key;
  }
  if (!message.empty()) throw ConfigError(message);
}

/// The whole main(): see the contract above. `usage` is printed as given,
/// followed by a newline.
inline int run(int argc, char** argv, const char* name,
               const std::string& usage, int (*body)(Config&)) {
  Config args = Config::from_args(argc, argv);
  const auto& positionals = args.positionals();
  if (args.has("version")) {
    std::printf("%s %s\n", name, kVersionString);
    return 0;
  }
  if (args.has("help") ||
      std::find(positionals.begin(), positionals.end(), "-h") !=
          positionals.end()) {
    std::printf("%s\n", usage.c_str());
    return 0;
  }
  try {
    return body(args);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
}

}  // namespace lw::cli
