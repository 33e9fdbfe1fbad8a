#include "obs/recorder.h"

namespace lw::obs {

void Recorder::add_sink(EventSink* sink, std::uint32_t layer_mask) {
  if (sink == nullptr || layer_mask == 0) return;
  sinks_.push_back({sink, layer_mask});
  active_mask_ |= layer_mask;
}

void Recorder::emit(const Event& event) {
  ++tally_[static_cast<std::size_t>(event.kind)];
  const std::uint32_t bit = layer_bit(layer_of(event.kind));
  for (const Subscription& sub : sinks_) {
    if (sub.mask & bit) sub.sink->on_event(event);
  }
}

std::array<std::uint64_t, kLayerCount> Recorder::layer_counts() const {
  std::array<std::uint64_t, kLayerCount> counts{};
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    counts[static_cast<std::size_t>(layer_of(static_cast<EventKind>(i)))] +=
        tally_[i];
  }
  return counts;
}

}  // namespace lw::obs
