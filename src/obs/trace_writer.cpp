#include "obs/trace_writer.h"

#include "packet/packet.h"

namespace lw::obs {

void TraceWriter::on_event(const Event& event) {
  line_.clear();
  line_.raw("{\"t\":")
      .fixed<9>(event.t)
      .raw(",\"layer\":\"")
      .raw(to_string(layer_of(event.kind)))
      .raw("\",\"event\":\"")
      .raw(to_string(event.kind))
      .raw("\",\"node\":")
      .u64(event.node);
  if (event.peer != kInvalidNode) line_.raw(",\"peer\":").u64(event.peer);
  if (event.packet != nullptr) {
    line_.raw(",\"pkt\":\"")
        .raw(pkt::to_string(event.packet->type))
        .raw("\",\"origin\":")
        .u64(event.packet->origin)
        .raw(",\"seq\":")
        .u64(event.packet->seq)
        .raw(",\"lin\":")
        .u64(event.packet->lineage);
  }
  if (event.kind == EventKind::kMonSuspicion) {
    line_.raw(event.detail == kSuspicionDrop      ? ",\"sus\":\"drop\""
              : event.detail == kSuspicionAnomaly ? ",\"sus\":\"anom\""
                                                  : ",\"sus\":\"fab\"");
  }
  if (event.def != 0) {
    // Non-default backend attribution; omitted for the default LITEWORP
    // monitor so pre-existing golden traces stay byte-identical.
    line_.raw(",\"def\":\"")
        .raw(to_string(static_cast<DefenseTag>(event.def)))
        .raw("\"");
  }
  if (event.value != 0.0) line_.raw(",\"value\":").general<9>(event.value);
  line_.raw("}\n");
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

std::string run_header_line(std::string_view point, std::uint64_t seed) {
  util::JsonWriter line;
  line.raw("{\"run\":{\"point\":")
      .string(point)
      .raw(",\"seed\":")
      .u64(seed)
      .raw("}}\n");
  return line.str();
}

}  // namespace lw::obs
