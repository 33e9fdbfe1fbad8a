// Google-benchmark microbenchmarks of the data structures the cost
// analysis budgets: crypto primitives, watch buffer, neighbor table, route
// cache, event queue, and the medium's transmit path. The paper quotes
// MICA-mote lookup times; these are the same operations on this
// implementation.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <vector>

#include "crypto/hmac.h"
#include "crypto/key_manager.h"
#include "crypto/sha256.h"
#include "liteworp/watch_buffer.h"
#include "neighbor/neighbor_table.h"
#include "packet/packet.h"
#include "routing/route_cache.h"
#include "sim/simulator.h"
#include "topology/disc_graph.h"
#include "topology/field.h"
#include "util/rng.h"

namespace {

void BM_Sha256_64B(benchmark::State& state) {
  std::string message(64, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(lw::crypto::Sha256::hash(message));
  }
  state.SetBytesProcessed(state.iterations() * 64);
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_1KiB(benchmark::State& state) {
  std::string message(1024, 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(lw::crypto::Sha256::hash(message));
  }
  state.SetBytesProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Sha256_1KiB);

void BM_HmacTag(benchmark::State& state) {
  lw::crypto::KeyManager keys(7);
  auto key = keys.pairwise_key(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lw::crypto::make_tag(key, "alert|1|2|accused=9"));
  }
}
BENCHMARK(BM_HmacTag);

void BM_HmacTagNaive(benchmark::State& state) {
  // Reference point for BM_HmacTagMidstate: rebuild both pads and rehash
  // them for every tag (what the free-function path does).
  lw::crypto::KeyManager keys(7);
  auto key = keys.pairwise_key(1, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lw::crypto::make_tag(key, "alert|1|2|accused=9"));
  }
}
BENCHMARK(BM_HmacTagNaive);

void BM_HmacTagMidstate(benchmark::State& state) {
  // Prepared-key fast path: the ipad/opad compression midstates are cached
  // once, so each tag costs the message blocks plus two finishes. This is
  // what KeyManager::sign does per authenticated packet field.
  lw::crypto::KeyManager keys(7);
  lw::crypto::HmacKey prepared{keys.pairwise_key(1, 2)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(prepared.tag("alert|1|2|accused=9"));
  }
}
BENCHMARK(BM_HmacTagMidstate);

void BM_HmacSerialSign(benchmark::State& state) {
  // The fan-out signing shape: one alert payload tagged under k pairwise
  // keys, one midstate-cached HMAC at a time; range(0) is k.
  const std::size_t fanout = static_cast<std::size_t>(state.range(0));
  lw::crypto::KeyManager keys(7);
  std::vector<lw::crypto::AuthTag> tags(fanout);
  for (auto _ : state) {
    for (std::size_t i = 1; i <= fanout; ++i) {
      tags[i - 1] = keys.sign(0, static_cast<lw::NodeId>(i),
                              "alert|1|2|accused=9");
    }
    benchmark::DoNotOptimize(tags.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fanout));
}
BENCHMARK(BM_HmacSerialSign)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_PairwiseKeyDerivation(benchmark::State& state) {
  lw::crypto::KeyManager keys(7);
  lw::NodeId b = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys.pairwise_key(1, ++b % 1000));
  }
}
BENCHMARK(BM_PairwiseKeyDerivation);

void BM_WatchBufferRecordAndMatch(benchmark::State& state) {
  lw::lite::WatchBuffer buffer;
  lw::SeqNo seq = 0;
  double now = 0.0;
  for (auto _ : state) {
    ++seq;
    now += 0.01;
    const lw::FlowKey flow{.origin = static_cast<lw::NodeId>(seq % 64),
                           .type_tag = 4,
                           .seq = seq};
    buffer.record_transmit(flow, 5, now, 2.0);
    benchmark::DoNotOptimize(buffer.has_transmit(flow, 5, now));
  }
}
BENCHMARK(BM_WatchBufferRecordAndMatch);

void BM_WatchBufferDropWatchCycle(benchmark::State& state) {
  lw::lite::WatchBuffer buffer;
  lw::SeqNo seq = 0;
  for (auto _ : state) {
    ++seq;
    const lw::FlowKey flow{.origin = 1, .type_tag = 5, .seq = seq};
    buffer.add_drop_watch(flow, 2, 3, {});
    benchmark::DoNotOptimize(buffer.clear_drop_watch(flow, 2, 3));
  }
}
BENCHMARK(BM_WatchBufferDropWatchCycle);

/// The (flow, forwarder) pair a guard overhears for packet `i`.
lw::lite::FlowNodeKey judged_pair(std::int64_t i) {
  return {lw::FlowKey{.origin = static_cast<lw::NodeId>(i % 64),
                      .type_tag = 4,
                      .seq = static_cast<lw::SeqNo>(i)},
          static_cast<lw::NodeId>(i % 8)};
}

void BM_JudgedForwardsFirstVerdict(benchmark::State& state) {
  // A guard judging N forwarded packets, each overheard twice (the forward
  // and one link-layer retransmission): N fresh pairs, N repeats. N = 8192
  // is the bound at which the set forgets everything.
  const std::int64_t n = state.range(0);
  for (auto _ : state) {
    lw::lite::JudgedForwards judged;
    for (std::int64_t i = 0; i < n; ++i) {
      benchmark::DoNotOptimize(judged.first_verdict(judged_pair(i)));
      benchmark::DoNotOptimize(judged.first_verdict(judged_pair(i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_JudgedForwardsFirstVerdict)->Arg(64)->Arg(4096)->Arg(8192);

void BM_WatchBufferFootprint1000Guards(benchmark::State& state) {
  // dense_n1000's steady state in miniature: each of 1000 guards holds
  // about 380 live transmit records, REQ floods heard from ~6 forwarders
  // each, inside one 10 s record TTL. Reports the heap each guard's watch
  // buffer holds (glibc mallinfo2) next to the time to fill them all.
  constexpr int kGuards = 1000;
  constexpr int kFlows = 64;
  constexpr int kForwarders = 6;
  double heap_per_guard = 0.0;
  for (auto _ : state) {
    const std::size_t before = mallinfo2().uordblks;
    std::vector<lw::lite::WatchBuffer> guards(kGuards);
    for (int g = 0; g < kGuards; ++g) {
      double now = 0.0;
      for (int f = 0; f < kFlows; ++f) {
        const lw::FlowKey flow{.origin = static_cast<lw::NodeId>(g + f),
                               .type_tag = 4,
                               .seq = static_cast<lw::SeqNo>(f)};
        for (int k = 0; k < kForwarders; ++k) {
          now += 0.01;
          guards[g].record_transmit(flow, static_cast<lw::NodeId>(k), now,
                                    10.0);
        }
      }
    }
    heap_per_guard =
        static_cast<double>(mallinfo2().uordblks - before) / kGuards;
    benchmark::DoNotOptimize(guards.data());
  }
  state.counters["heap_B_per_guard"] = heap_per_guard;
  state.counters["records_per_guard"] = kFlows * kForwarders;
}
BENCHMARK(BM_WatchBufferFootprint1000Guards)->Unit(benchmark::kMillisecond);

void BM_PacketForwardCopy(benchmark::State& state) {
  // The per-hop relay copy on the forwarding hot path: route, neighbor
  // list, and per-recipient auth vectors are pre-reserved before the
  // assignment so a forward costs three sized allocations, not a
  // grow-as-you-go sequence.
  lw::pkt::PacketFactory factory;
  lw::pkt::Packet original = factory.make(lw::pkt::PacketType::kRouteReply);
  original.origin = 1;
  original.final_dst = 9;
  for (lw::NodeId hop = 0; hop < 8; ++hop) original.route.push_back(hop);
  for (lw::NodeId n = 20; n < 36; ++n) original.neighbor_list.push_back(n);
  for (lw::NodeId n = 20; n < 28; ++n) {
    original.alert_auth.push_back({n, lw::crypto::AuthTag{}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(factory.forward_copy(original));
  }
}
BENCHMARK(BM_PacketForwardCopy);

void BM_NeighborTableLookup(benchmark::State& state) {
  // The paper quotes ~2 us-scale lookups in a 100-entry structure on a
  // 4 MHz mote; this is the same lookup on the host CPU.
  lw::nbr::NeighborTable table;
  for (lw::NodeId n = 0; n < 100; ++n) {
    table.add_neighbor(n);
    table.set_neighbor_list(n, {1, 2, 3, 4, 5, 6, 7, 8});
  }
  lw::NodeId probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.is_active_neighbor(++probe % 128));
    benchmark::DoNotOptimize(table.in_list_of(probe % 100, 4));
  }
}
BENCHMARK(BM_NeighborTableLookup);

void BM_RouteCacheLookup(benchmark::State& state) {
  lw::routing::RouteCache cache(50.0);
  for (lw::NodeId d = 1; d <= 100; ++d) {
    cache.insert({0, 5, 9, d}, 0.0);
  }
  lw::NodeId probe = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(1 + (++probe % 100), 1.0));
  }
}
BENCHMARK(BM_RouteCacheLookup);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    lw::sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule((i * 7919) % 100 * 0.001, [] {});
    }
    sim.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueThroughput);

// One placement attempt's graph at N = state.range(0), the paper's N_B = 8.
void BM_DiscGraphConstruction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  lw::Rng rng(1);
  const double side = lw::topo::field_side_for_density(n, 30.0, 8.0);
  auto positions = lw::topo::place_uniform({side, side}, n, rng);
  for (auto _ : state) {
    lw::topo::DiscGraph graph(positions, 30.0);
    benchmark::DoNotOptimize(graph.average_degree());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DiscGraphConstruction)->Arg(100)->Arg(2000);

void BM_GuardsOfLink(benchmark::State& state) {
  lw::Rng rng(1);
  const double side = lw::topo::field_side_for_density(100, 30.0, 8.0);
  lw::topo::DiscGraph graph(lw::topo::place_uniform({side, side}, 100, rng),
                            30.0);
  lw::NodeId from = 0;
  for (auto _ : state) {
    from = (from + 1) % 100;
    const auto nbrs = graph.neighbors(from);
    if (nbrs.empty()) continue;
    benchmark::DoNotOptimize(graph.guards_of_link(from, nbrs.front()));
  }
}
BENCHMARK(BM_GuardsOfLink);

}  // namespace

BENCHMARK_MAIN();
