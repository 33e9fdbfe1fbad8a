// JSONL event trace: the machine-readable replacement for an ns-2 trace
// file.
//
// One JSON object per line, schema documented in docs/TRACE_FORMAT.md.
// Each line is formatted whole by util::JsonWriter (std::to_chars: locale-
// independent and byte-identical to the "%.9f"/"%.9g" printf formats the
// schema was first written with) and handed to the stream in one write.
// Events arrive in deterministic simulator order, so the trace of a
// fixed-seed run is byte-identical across repeated runs and across sweep
// thread counts (enforced by the golden-trace test).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/recorder.h"
#include "util/json.h"

namespace lw::obs {

class TraceWriter final : public EventSink {
 public:
  /// The stream must outlive the writer.
  explicit TraceWriter(std::ostream& out) : out_(out) {}

  void on_event(const Event& event) override;

 private:
  std::ostream& out_;
  util::JsonWriter line_;  // reused for every line
};

/// The line that opens one run's events in a trace file:
/// {"run":{"point":"<point>","seed":<seed>}} and a newline.
std::string run_header_line(std::string_view point, std::uint64_t seed);

}  // namespace lw::obs
