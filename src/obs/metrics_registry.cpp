#include "obs/metrics_registry.h"

#include <algorithm>

namespace lw::obs {

Histogram::Histogram(std::uint64_t seed, std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      // splitmix64 state offset so seed 0 still produces a usable stream.
      rng_state_(seed + 0x9E3779B97F4A7C15ull) {}

std::uint64_t Histogram::next_random() {
  // splitmix64: tiny, deterministic, and statistically fine for
  // reservoir-slot selection.
  std::uint64_t z = (rng_state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double sorted_percentile(const std::vector<double>& sorted, double p) {
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto index = static_cast<std::size_t>(rank);
  if (index + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(index);
  return sorted[index] * (1.0 - frac) + sorted[index + 1] * frac;
}

void Histogram::add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
  }
  sum_ += sample;
  ++count_;
  if (samples_.size() < capacity_) {
    samples_.push_back(sample);
    return;
  }
  // Algorithm R: the new sample replaces a random slot with probability
  // capacity / count, keeping the reservoir a uniform subsample.
  const std::uint64_t slot = next_random() % count_;
  if (slot < capacity_) samples_[static_cast<std::size_t>(slot)] = sample;
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  if (count_ == 0) return s;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  s.count = count_;
  s.min = min_;
  s.max = max_;
  s.mean = sum_ / static_cast<double>(count_);
  s.p50 = sorted_percentile(sorted, 50.0);
  s.p95 = sorted_percentile(sorted, 95.0);
  return s;
}

void RegistrySnapshot::add_counters(const RegistrySnapshot& other) {
  for (const auto& [name, count] : other.counters) counters[name] += count;
}

void RegistrySink::on_event(const Event& event) {
  if (event.kind == EventKind::kRouteDeliver) {
    deliver_latency_.add(event.value);
  } else if (event.kind == EventKind::kMacBackoff) {
    backoff_delay_.add(event.value);
  }
}

RegistrySnapshot RegistrySink::snapshot(const Recorder& tally) const {
  RegistrySnapshot snap;
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const EventKind kind = static_cast<EventKind>(i);
    if (tally.count(kind) == 0) continue;
    std::string name = to_string(layer_of(kind));
    name += '.';
    name += to_string(kind);
    snap.counters.emplace(std::move(name), tally.count(kind));
  }
  if (deliver_latency_.count() > 0) {
    snap.histograms.emplace("route.deliver_latency",
                            deliver_latency_.summary());
  }
  if (backoff_delay_.count() > 0) {
    snap.histograms.emplace("mac.backoff_delay", backoff_delay_.summary());
  }
  return snap;
}

}  // namespace lw::obs
