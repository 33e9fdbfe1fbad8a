#include "obs/metrics_registry.h"

#include <algorithm>

namespace lw::obs {

double sorted_percentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto index = static_cast<std::size_t>(rank);
  if (index + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(index);
  return sorted[index] * (1.0 - frac) + sorted[index + 1] * frac;
}

HistogramSummary summarize_samples(const std::vector<double>& samples) {
  HistogramSummary s;
  if (samples.empty()) return s;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.count = sorted.size();
  s.min = sorted.front();
  s.max = sorted.back();
  double sum = 0.0;
  for (double x : sorted) sum += x;
  s.mean = sum / static_cast<double>(sorted.size());
  s.p50 = sorted_percentile(sorted, 50.0);
  s.p95 = sorted_percentile(sorted, 95.0);
  return s;
}

RegistrySnapshot RegistrySnapshot::from(const Recorder& tally) {
  RegistrySnapshot snap;
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const EventKind kind = static_cast<EventKind>(i);
    if (tally.count(kind) == 0) continue;
    std::string name = to_string(layer_of(kind));
    name += '.';
    name += to_string(kind);
    snap.counters.emplace(std::move(name), tally.count(kind));
  }
  return snap;
}

void RegistrySnapshot::add_counters(const RegistrySnapshot& other) {
  for (const auto& [name, count] : other.counters) counters[name] += count;
}

}  // namespace lw::obs
