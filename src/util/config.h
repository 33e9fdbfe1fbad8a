// Minimal typed key/value configuration with command-line parsing.
//
// Benches and examples accept "--key=value" flags; scenario code reads
// typed values with defaults. Unknown keys are kept so callers can reject
// typos explicitly.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace lw {

/// A value a typed getter cannot parse ("config key 'runs' is not an
/// integer: abc"). Mains map it to their usage exit status.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Config {
 public:
  Config() = default;

  /// Parses argv entries of the form --key=value or --flag (value "true").
  /// Non-flag entries are collected as positionals.
  static Config from_args(int argc, const char* const* argv);

  void set(std::string key, std::string value);
  bool has(const std::string& key) const;

  /// Typed getters return the default when the key is absent, and throw
  /// ConfigError when the value does not parse.
  std::string get_string(const std::string& key, std::string def) const;
  double get_double(const std::string& key, double def) const;
  int get_int(const std::string& key, int def) const;
  /// A count: get_int that also throws ConfigError on a negative value.
  std::size_t get_count(const std::string& key, std::size_t def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

  /// Keys that were set but never read through a getter; used by mains to
  /// diagnose mistyped flags.
  std::vector<std::string> unread_keys() const;

 private:
  std::optional<std::string> raw(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positionals_;
};

}  // namespace lw
