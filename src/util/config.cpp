#include "util/config.h"

#include <stdexcept>

namespace lw {

Config Config::from_args(int argc, const char* const* argv) {
  Config config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      config.positionals_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      config.set(arg, "true");
    } else {
      config.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
  return config;
}

void Config::set(std::string key, std::string value) {
  read_[key] = false;
  values_[std::move(key)] = std::move(value);
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::optional<std::string> Config::raw(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  read_[key] = true;
  return it->second;
}

std::string Config::get_string(const std::string& key, std::string def) const {
  auto v = raw(key);
  return v ? *v : def;
}

double Config::get_double(const std::string& key, double def) const {
  auto v = raw(key);
  if (!v) return def;
  try {
    std::size_t used = 0;
    double parsed = std::stod(*v, &used);
    if (used != v->size()) throw std::invalid_argument(*v);
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "' is not a number: " + *v);
  }
}

int Config::get_int(const std::string& key, int def) const {
  auto v = raw(key);
  if (!v) return def;
  try {
    std::size_t used = 0;
    int parsed = std::stoi(*v, &used);
    if (used != v->size()) throw std::invalid_argument(*v);
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("config key '" + key + "' is not an integer: " + *v);
  }
}

std::size_t Config::get_count(const std::string& key, std::size_t def) const {
  const int parsed = get_int(key, static_cast<int>(def));
  if (parsed < 0) {
    throw ConfigError("config key '" + key +
                      "' must not be negative: " + std::to_string(parsed));
  }
  return static_cast<std::size_t>(parsed);
}

bool Config::get_bool(const std::string& key, bool def) const {
  auto v = raw(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw ConfigError("config key '" + key + "' is not a boolean: " + *v);
}

std::vector<std::string> Config::unread_keys() const {
  std::vector<std::string> keys;
  for (const auto& [key, was_read] : read_) {
    if (!was_read) keys.push_back(key);
  }
  return keys;
}

}  // namespace lw
