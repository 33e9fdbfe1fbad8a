#include "forensics/perfetto.h"

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/json.h"

namespace lw::forensics {
namespace {

/// Fixed per-layer track ids so exports are comparable across traces.
int layer_tid(std::string_view layer) {
  static constexpr std::pair<const char*, int> kTracks[] = {
      {"phy", 1}, {"mac", 2}, {"nbr", 3}, {"route", 4},
      {"mon", 5}, {"atk", 6}, {"flt", 7}, {"span", 8},
  };
  for (const auto& [name, tid] : kTracks) {
    if (layer == name) return tid;
  }
  return 9;  // unknown layers share one catch-all track
}

/// Which process/thread tracks already have their M metadata event. Bit 0
/// of a node's mask is its process name, bit `tid` its thread `tid`.
class NamedTracks {
 public:
  /// The mask for `node`. Dense ids index a vector; ids beyond it (only
  /// hand-made or corrupt traces have them) fall back to a hash map.
  std::uint16_t& mask(NodeId node) {
    if (node < kDenseNodes) {
      if (node >= dense_.size()) dense_.resize(node + 1, 0);
      return dense_[node];
    }
    return sparse_[node];
  }

 private:
  static constexpr NodeId kDenseNodes = 1 << 16;
  std::vector<std::uint16_t> dense_;
  std::unordered_map<NodeId, std::uint16_t> sparse_;
};

/// Last sighting of a packet lineage (flow-arrow source anchor).
struct Hop {
  NodeId node = kInvalidNode;
  int tid = 0;
  double ts_us = 0.0;
  int count = 0;
};

/// The document is built in one buffer and handed to the stream whenever
/// this much has accumulated.
constexpr std::size_t kFlushBytes = 64 * 1024;

}  // namespace

void export_perfetto(const std::vector<TraceRecord>& records,
                     std::ostream& out, const PerfettoOptions& options) {
  util::JsonWriter doc;
  bool first_event = true;
  // One traceEvents entry per line for greppable output (the schema allows
  // any whitespace).
  auto begin_event = [&]() -> util::JsonWriter& {
    doc.raw(first_event ? "\n{" : ",\n{");
    first_event = false;
    return doc;
  };
  auto flush = [&] {
    out.write(doc.data(), static_cast<std::streamsize>(doc.size()));
    doc.clear();
  };

  NamedTracks named;
  int run_index = 0;
  double offset_us = 0.0;  // pushes each run segment past the previous one
  double max_ts_us = 0.0;  // high-water of emitted slice end times
  std::unordered_map<LineageId, Hop> last_hop;

  auto ensure_track = [&](NodeId node, int tid, std::string_view label) {
    std::uint16_t& mask = named.mask(node);
    if ((mask & 1u) == 0) {
      mask |= 1u;
      begin_event()
          .raw("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":")
          .u64(node)
          .raw(",\"args\":{\"name\":\"node ")
          .u64(node)
          .raw("\"}}");
    }
    const auto bit = static_cast<std::uint16_t>(1u << tid);
    if ((mask & bit) == 0) {
      mask |= bit;
      begin_event()
          .raw("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":")
          .u64(node)
          .raw(",\"tid\":")
          .u64(static_cast<std::uint64_t>(tid))
          .raw(",\"args\":{\"name\":\"")
          .escaped(label)
          .raw("\"}}");
    }
  };
  // Comma-separates one event's args.
  bool first_arg = true;
  auto arg = [&](std::string_view key) -> util::JsonWriter& {
    doc.raw(first_arg ? "\"" : ",\"").raw(key).raw("\":");
    first_arg = false;
    return doc;
  };

  doc.raw("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (const TraceRecord& record : records) {
    if (doc.size() >= kFlushBytes) flush();
    if (record.is_run_header) {
      ++run_index;
      offset_us = max_ts_us;
      last_hop.clear();
      continue;
    }
    const double ts = offset_us + record.t * 1e6;
    first_arg = true;

    if (record.is_span) {
      const bool begin = record.name() == "begin";
      ensure_track(record.node, 8, "span");
      // Nestable async b/e keyed by sid: a node's concurrent spans overlap
      // without the LIFO constraint synchronous B/E stacks impose.
      begin_event()
          .raw("\"name\":\"")
          .escaped(record.span_kind())
          .raw(begin ? "\",\"cat\":\"span\",\"ph\":\"b\",\"id\":\"r"
                     : "\",\"cat\":\"span\",\"ph\":\"e\",\"id\":\"r")
          .u64(static_cast<std::uint64_t>(run_index))
          .raw(".s")
          .u64(record.sid)
          .raw("\",\"ts\":")
          .fixed<3>(ts)
          .raw(",\"pid\":")
          .u64(record.node)
          .raw(",\"tid\":8,\"args\":{");
      if (begin) {
        arg("sid").u64(record.sid);
        if (record.parent != 0) arg("parent").u64(record.parent);
        if (record.lineage != 0) arg("lin").u64(record.lineage);
        if (record.peer != kInvalidNode) arg("peer").u64(record.peer);
      } else {
        arg("outcome").raw("\"").escaped(record.outcome()).raw("\"");
        if (record.retries != 0) arg("retries").u64(record.retries);
        if (record.has_phases) {
          arg("observe").fixed<9>(record.observe);
          arg("corroborate").fixed<9>(record.corroborate);
          arg("isolate").fixed<9>(record.isolate);
        }
      }
      doc.raw("}}");
      max_ts_us = std::max(max_ts_us, ts);
      continue;
    }

    const int tid = layer_tid(record.layer());
    ensure_track(record.node, tid, record.layer());
    begin_event()
        .raw("\"name\":\"")
        .escaped(record.layer())
        .raw(".")
        .escaped(record.name())
        .raw("\",\"ph\":\"X\",\"ts\":")
        .fixed<3>(ts)
        .raw(",\"dur\":")
        .fixed<3>(options.point_slice_us)
        .raw(",\"pid\":")
        .u64(record.node)
        .raw(",\"tid\":")
        .u64(static_cast<std::uint64_t>(tid))
        .raw(",\"args\":{");
    if (record.peer != kInvalidNode) arg("peer").u64(record.peer);
    if (record.has_packet) {
      arg("pkt").raw("\"").escaped(record.pkt_type()).raw("\"");
      arg("origin").u64(record.origin);
      arg("seq").u64(record.seq);
      arg("lin").u64(record.lineage);
    }
    if (!record.suspicion().empty()) {
      arg("sus").raw("\"").escaped(record.suspicion()).raw("\"");
    }
    if (!record.defense().empty()) {
      arg("def").raw("\"").escaped(record.defense()).raw("\"");
    }
    if (record.has_value) arg("value").general<9>(record.value);
    doc.raw("}}");
    max_ts_us = std::max(max_ts_us, ts + options.point_slice_us);

    // Flow arrows: consecutive same-lineage packet events on different
    // nodes are one frame hop (forward, overhear, or wormhole tunnel).
    if (record.has_packet && record.lineage != 0) {
      Hop& hop = last_hop[record.lineage];
      if (hop.node != kInvalidNode && hop.node != record.node) {
        ++hop.count;
        const auto flow = [&](const char* phase, double flow_ts, NodeId pid,
                              int flow_tid) {
          begin_event()
              .raw("\"name\":\"lin ")
              .u64(record.lineage)
              .raw("\",\"cat\":\"flow\",\"ph\":")
              .raw(phase)
              .raw(",\"id\":\"r")
              .u64(static_cast<std::uint64_t>(run_index))
              .raw(".l")
              .u64(record.lineage)
              .raw(".h")
              .u64(static_cast<std::uint64_t>(hop.count))
              .raw("\",\"ts\":")
              .fixed<3>(flow_ts)
              .raw(",\"pid\":")
              .u64(pid)
              .raw(",\"tid\":")
              .u64(static_cast<std::uint64_t>(flow_tid))
              .raw("}");
        };
        flow("\"s\"", hop.ts_us, hop.node, hop.tid);
        flow("\"f\",\"bp\":\"e\"", ts, record.node, tid);
      }
      const int count = hop.count;
      hop = Hop{record.node, tid, ts, count};
    }
  }
  doc.raw("\n]}\n");
  flush();
}

}  // namespace lw::forensics
