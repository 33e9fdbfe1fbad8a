// A full-scale sensor field (the paper's 100-node Table 2 deployment) with
// detailed introspection: channel airtime by frame type, admission
// statistics, watch-buffer occupancy, and per-malicious-node isolation
// timelines. The diagnostic companion to `quickstart`.
//
// --trace=F streams every PHY event to F as a JSONL trace (the schema of
// docs/TRACE_FORMAT.md, readable by `lw-trace stats` / `follow`).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "obs/trace_writer.h"
#include "packet/packet.h"
#include "scenario/network.h"
#include "scenario/runner.h"
#include "util/cli.h"

constexpr const char* kUsage =
    "usage: sensor_field [--nodes=100] [--seed=1] [--duration=2000]\n"
    "                    [--malicious=2] [--liteworp=true] [--trace=F]";

static int run_example(lw::Config& args) {
  const std::string trace_path = args.get_string("trace", "");

  lw::scenario::ExperimentConfig config =
      lw::scenario::ExperimentConfig::table2_defaults();
  config.node_count = args.get_count("nodes", 100);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.duration = args.get_double("duration", 2000.0);
  config.malicious_count =
      static_cast<std::size_t>(args.get_int("malicious", 2));
  config.defense.name = args.get_bool("liteworp", true) ? "liteworp" : "none";
  lw::cli::reject_unknown(args);
  config.finalize();

  lw::scenario::Network net(config);
  std::ofstream trace_file;
  std::unique_ptr<lw::obs::TraceWriter> trace;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    trace = std::make_unique<lw::obs::TraceWriter>(trace_file);
    net.recorder().add_sink(trace.get(),
                            lw::obs::layer_bit(lw::obs::Layer::kPhy));
    std::cout << "tracing every PHY event to " << trace_path << '\n';
  }
  std::cout << "topology: " << net.size() << " nodes, average degree "
            << net.average_degree() << ", malicious:";
  for (lw::NodeId m : net.malicious_ids()) std::cout << ' ' << m;
  std::cout << '\n';

  net.run();

  const auto& m = net.metrics();
  const auto r = lw::scenario::RunResult::from_metrics(net);
  const auto& phy = net.medium().stats();

  std::cout << "\n--- channel airtime by frame type ---\n";
  for (std::size_t i = 0; i < phy.tx_by_type.size(); ++i) {
    if (phy.tx_by_type[i] == 0) continue;
    std::printf("  %-14s %8llu frames  %8.1f s airtime (%.1f%% of wall)  "
                "%llu rx-collisions\n",
                lw::pkt::to_string(static_cast<lw::pkt::PacketType>(i)),
                static_cast<unsigned long long>(phy.tx_by_type[i]),
                phy.airtime_by_type[i],
                100.0 * phy.airtime_by_type[i] / config.duration,
                static_cast<unsigned long long>(phy.collisions_by_type[i]));
  }
  std::printf("  collisions: %llu / %llu receptions (%.1f%%)\n",
              static_cast<unsigned long long>(phy.frames_collided),
              static_cast<unsigned long long>(phy.frames_collided +
                                              phy.frames_delivered),
              100.0 * static_cast<double>(phy.frames_collided) /
                  static_cast<double>(phy.frames_collided +
                                      phy.frames_delivered));

  {
    lw::mac::MacStats mac;
    for (lw::NodeId id = 0; id < net.size(); ++id) {
      const auto& s = net.node(id).mac_stats();
      mac.enqueued += s.enqueued;
      mac.transmitted += s.transmitted;
      mac.dropped_channel_busy += s.dropped_channel_busy;
      mac.retransmissions += s.retransmissions;
      mac.dropped_no_ack += s.dropped_no_ack;
      mac.acks_sent += s.acks_sent;
      mac.duplicates_suppressed += s.duplicates_suppressed;
    }
    std::printf("\n--- MAC (network-wide) ---\n"
                "  enqueued %llu  transmitted %llu  retransmissions %llu\n"
                "  dropped: channel-busy %llu, no-ack %llu;  dup-suppressed "
                "%llu\n",
                static_cast<unsigned long long>(mac.enqueued),
                static_cast<unsigned long long>(mac.transmitted),
                static_cast<unsigned long long>(mac.retransmissions),
                static_cast<unsigned long long>(mac.dropped_channel_busy),
                static_cast<unsigned long long>(mac.dropped_no_ack),
                static_cast<unsigned long long>(mac.duplicates_suppressed));
  }

  std::cout << "\n--- traffic ---\n";
  std::printf("  originated %llu  delivered %llu (%.1f%%)  wormhole-dropped "
              "%llu  no-route %llu\n",
              static_cast<unsigned long long>(r.data_originated),
              static_cast<unsigned long long>(r.data_delivered),
              100.0 * static_cast<double>(r.data_delivered) /
                  static_cast<double>(r.data_originated),
              static_cast<unsigned long long>(r.data_dropped_malicious),
              static_cast<unsigned long long>(r.data_dropped_no_route));
  std::printf("  discoveries %llu  routes %llu  wormhole routes %llu\n",
              static_cast<unsigned long long>(r.discoveries),
              static_cast<unsigned long long>(r.routes_established),
              static_cast<unsigned long long>(m.wormhole_routes));
  std::printf("  delivery latency: mean %.3f s, p95 %.3f s\n",
              m.mean_delivery_latency(), m.latency_percentile(95.0));

  std::cout << "\n--- admission rejections (network-wide) ---\n";
  lw::nbr::AdmissionStats totals;
  for (lw::NodeId id = 0; id < net.size(); ++id) {
    const auto& s = net.node(id).admission_stats();
    totals.accepted += s.accepted;
    totals.unknown_sender += s.unknown_sender;
    totals.revoked_sender += s.revoked_sender;
    totals.bogus_prev_hop += s.bogus_prev_hop;
    totals.revoked_prev_hop += s.revoked_prev_hop;
  }
  std::printf("  accepted %llu  unknown-sender %llu  revoked-sender %llu  "
              "bogus-prev %llu  revoked-prev %llu\n",
              static_cast<unsigned long long>(totals.accepted),
              static_cast<unsigned long long>(totals.unknown_sender),
              static_cast<unsigned long long>(totals.revoked_sender),
              static_cast<unsigned long long>(totals.bogus_prev_hop),
              static_cast<unsigned long long>(totals.revoked_prev_hop));

  std::cout << "\n--- defense ---\n";
  std::printf("  suspicions: fabrication %llu, drop %llu (false %llu)\n",
              static_cast<unsigned long long>(r.suspicions_fabrication),
              static_cast<unsigned long long>(r.suspicions_drop),
              static_cast<unsigned long long>(r.false_suspicions));
  std::printf("  local detections %llu  alerts %llu  false isolations %llu\n",
              static_cast<unsigned long long>(r.local_detections),
              static_cast<unsigned long long>(
                  net.defense_cost().control_messages),
              static_cast<unsigned long long>(r.false_isolations));
  for (const auto& record : m.isolation()) {
    std::printf("  malicious %u: first detection %s, isolation %s "
                "(%zu/%zu neighbors revoked it)\n",
                record.node,
                record.first_detection
                    ? std::to_string(*record.first_detection).c_str()
                    : "never",
                record.complete ? std::to_string(*record.complete).c_str()
                                : "incomplete",
                record.revoked, record.required);
  }

  std::cout << "\n--- per-node state (sampled) ---\n";
  for (lw::NodeId id = 0; id < net.size(); id += net.size() / 4 + 1) {
    const auto& node = net.node(id);
    std::printf("  node %3u: neighbors %zu (revoked %zu)",
                id, node.table().neighbor_count(),
                node.table().revoked_count());
    // The undefended baseline keeps no detection state to show.
    const lw::defense::Defense* defense = node.defense();
    if (defense != nullptr && defense->tag() != lw::obs::DefenseTag::kNone) {
      const lw::defense::CostSnapshot cost = defense->cost();
      std::printf("  watch peak %llu entries, state %llu bytes",
                  static_cast<unsigned long long>(cost.peak_watch_entries),
                  static_cast<unsigned long long>(cost.storage_bytes));
    }
    std::printf("  table %zu bytes\n", node.table().storage_bytes());
  }
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "sensor_field", kUsage, run_example);
}
