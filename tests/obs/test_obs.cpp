// Observability layer: event vocabulary, recorder dispatch and event tally,
// trace format, metrics registry, and profile totals.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/event.h"
#include "obs/metrics_registry.h"
#include "obs/profiler.h"
#include "obs/recorder.h"
#include "obs/trace_writer.h"
#include "packet/packet.h"

namespace lw::obs {
namespace {

// ---- Event vocabulary ----

TEST(EventVocabulary, LayerNamesAreShortAndStable) {
  EXPECT_STREQ(to_string(Layer::kPhy), "phy");
  EXPECT_STREQ(to_string(Layer::kMac), "mac");
  EXPECT_STREQ(to_string(Layer::kNeighbor), "nbr");
  EXPECT_STREQ(to_string(Layer::kRouting), "route");
  EXPECT_STREQ(to_string(Layer::kMonitor), "mon");
  EXPECT_STREQ(to_string(Layer::kAttack), "atk");
  EXPECT_STREQ(to_string(Layer::kFault), "flt");
}

TEST(EventVocabulary, EveryKindMapsToItsLayer) {
  EXPECT_EQ(layer_of(EventKind::kPhyTx), Layer::kPhy);
  EXPECT_EQ(layer_of(EventKind::kPhyLoss), Layer::kPhy);
  EXPECT_EQ(layer_of(EventKind::kMacOverhear), Layer::kMac);
  EXPECT_EQ(layer_of(EventKind::kNbrReject), Layer::kNeighbor);
  EXPECT_EQ(layer_of(EventKind::kRouteError), Layer::kRouting);
  EXPECT_EQ(layer_of(EventKind::kMonIsolation), Layer::kMonitor);
  EXPECT_EQ(layer_of(EventKind::kAtkDrop), Layer::kAttack);
  EXPECT_EQ(layer_of(EventKind::kFltCrash), Layer::kFault);
  EXPECT_EQ(layer_of(EventKind::kFltCorrupt), Layer::kFault);
}

TEST(EventVocabulary, EveryKindHasANonEmptyName) {
  for (std::size_t i = 0; i < kEventKindCount; ++i) {
    const auto kind = static_cast<EventKind>(i);
    ASSERT_NE(to_string(kind), nullptr);
    EXPECT_GT(std::string(to_string(kind)).size(), 0u);
  }
}

TEST(ParseLayerMask, AllAndEmptySelectEverything) {
  EXPECT_EQ(parse_layer_mask("all"), kAllLayers);
  EXPECT_EQ(parse_layer_mask(""), kAllLayers);
}

TEST(ParseLayerMask, SingleAndCommaSeparatedLayers) {
  EXPECT_EQ(parse_layer_mask("phy"), layer_bit(Layer::kPhy));
  EXPECT_EQ(parse_layer_mask("mon,atk"),
            layer_bit(Layer::kMonitor) | layer_bit(Layer::kAttack));
  EXPECT_EQ(parse_layer_mask("phy,mac,nbr,route,mon,atk,flt"), kAllLayers);
}

TEST(ParseLayerMask, UnknownLayerThrows) {
  EXPECT_THROW(parse_layer_mask("bogus"), std::invalid_argument);
  EXPECT_THROW(parse_layer_mask("phy,bogus"), std::invalid_argument);
}

// ---- Recorder dispatch ----

class CountingSink : public EventSink {
 public:
  void on_event(const Event& event) override { events.push_back(event.kind); }
  std::vector<EventKind> events;
};

TEST(Recorder, WantsNothingWithoutSinks) {
  Recorder rec;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    EXPECT_FALSE(rec.wants(static_cast<Layer>(i)));
  }
}

TEST(Recorder, WantsReflectsUnionOfSinkMasks) {
  Recorder rec;
  CountingSink a;
  CountingSink b;
  rec.add_sink(&a, layer_bit(Layer::kPhy));
  rec.add_sink(&b, layer_bit(Layer::kMonitor) | layer_bit(Layer::kAttack));
  EXPECT_TRUE(rec.wants(Layer::kPhy));
  EXPECT_TRUE(rec.wants(Layer::kMonitor));
  EXPECT_TRUE(rec.wants(Layer::kAttack));
  EXPECT_FALSE(rec.wants(Layer::kMac));
  EXPECT_FALSE(rec.wants(Layer::kRouting));
}

TEST(Recorder, EmitDispatchesOnlyToMatchingSinks) {
  Recorder rec;
  CountingSink phy_only;
  CountingSink everything;
  rec.add_sink(&phy_only, layer_bit(Layer::kPhy));
  rec.add_sink(&everything);
  rec.emit({.t = 1.0, .kind = EventKind::kPhyTx, .node = 3});
  rec.emit({.t = 2.0, .kind = EventKind::kMonAlert, .node = 4, .peer = 5});
  ASSERT_EQ(phy_only.events.size(), 1u);
  EXPECT_EQ(phy_only.events[0], EventKind::kPhyTx);
  ASSERT_EQ(everything.events.size(), 2u);
  EXPECT_EQ(everything.events[1], EventKind::kMonAlert);
}

TEST(Recorder, TallyCountsEveryEmittedEventByKind) {
  Recorder rec;
  rec.emit({.kind = EventKind::kPhyTx});
  rec.emit({.kind = EventKind::kPhyTx});
  rec.emit({.kind = EventKind::kRouteDrop});
  EXPECT_EQ(rec.count(EventKind::kPhyTx), 2u);
  EXPECT_EQ(rec.count(EventKind::kRouteDrop), 1u);
  EXPECT_EQ(rec.count(EventKind::kAtkDrop), 0u)
      << "route.drop and atk.drop share a short name, not a counter";
}

TEST(Recorder, LayerCountsSumTheTallyPerLayer) {
  Recorder rec;
  rec.emit({.kind = EventKind::kPhyTx});
  rec.emit({.kind = EventKind::kPhyRx});
  rec.emit({.kind = EventKind::kMacBackoff});
  rec.emit({.kind = EventKind::kFltCorrupt});
  const auto counts = rec.layer_counts();
  EXPECT_EQ(counts[static_cast<std::size_t>(Layer::kPhy)], 2u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Layer::kMac)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Layer::kFault)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(Layer::kRouting)], 0u);
}

TEST(Recorder, ListenKeepsLayersLiveWithoutASink) {
  Recorder rec;
  CountingSink mon_only;
  rec.add_sink(&mon_only, layer_bit(Layer::kMonitor));
  rec.listen(layer_bit(Layer::kPhy) | layer_bit(Layer::kMac));
  EXPECT_TRUE(rec.wants(Layer::kPhy));
  EXPECT_TRUE(rec.wants(Layer::kMac));
  EXPECT_FALSE(rec.wants(Layer::kNeighbor));
  rec.emit({.kind = EventKind::kPhyTx});
  EXPECT_EQ(rec.count(EventKind::kPhyTx), 1u);
  EXPECT_TRUE(mon_only.events.empty()) << "listen() adds no dispatch";
}

// ---- TraceWriter format ----

TEST(TraceWriter, MinimalEventOmitsOptionalFields) {
  std::ostringstream out;
  TraceWriter writer(out);
  writer.on_event({.t = 1.5, .kind = EventKind::kNbrHello, .node = 7});
  EXPECT_EQ(out.str(),
            "{\"t\":1.500000000,\"layer\":\"nbr\",\"event\":\"hello\","
            "\"node\":7}\n");
}

TEST(TraceWriter, PeerAndValueFieldsAppearWhenSet) {
  std::ostringstream out;
  TraceWriter writer(out);
  writer.on_event({.t = 2.25,
                   .kind = EventKind::kMonSuspicion,
                   .node = 1,
                   .peer = 9,
                   .value = 3.0});
  EXPECT_EQ(out.str(),
            "{\"t\":2.250000000,\"layer\":\"mon\",\"event\":\"suspicion\","
            "\"node\":1,\"peer\":9,\"sus\":\"fab\",\"value\":3}\n");
}

TEST(TraceWriter, PacketFieldsComeFromThePacket) {
  std::ostringstream out;
  TraceWriter writer(out);
  pkt::Packet packet;
  packet.type = pkt::PacketType::kData;
  packet.origin = 11;
  packet.seq = 42;
  writer.on_event({.t = 0.0,
                   .kind = EventKind::kAtkDrop,
                   .node = 5,
                   .packet = &packet});
  const std::string line = out.str();
  EXPECT_NE(line.find("\"layer\":\"atk\""), std::string::npos);
  EXPECT_NE(line.find("\"origin\":11"), std::string::npos);
  EXPECT_NE(line.find("\"seq\":42"), std::string::npos);
  EXPECT_EQ(line.find("\"value\""), std::string::npos) << "zero value omitted";
  EXPECT_EQ(line.back(), '\n');
}

TEST(TraceWriter, LinesAreByteIdenticalAcrossRepeats) {
  const Event event{.t = 123.456789, .kind = EventKind::kRouteDeliver,
                    .node = 2, .peer = 3, .value = 0.0123456789};
  std::ostringstream a;
  std::ostringstream b;
  TraceWriter(a).on_event(event);
  TraceWriter(b).on_event(event);
  EXPECT_EQ(a.str(), b.str());
}

// ---- Metrics registry ----

TEST(Histogram, EmptySummaryIsAllZero) {
  const HistogramSummary s = summarize_samples({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p95, 0.0);
}

TEST(Histogram, SingleSampleIsEveryStatistic) {
  const HistogramSummary s = summarize_samples({3.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 3.5);
  EXPECT_DOUBLE_EQ(s.max, 3.5);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.p50, 3.5);
  EXPECT_DOUBLE_EQ(s.p95, 3.5);
}

TEST(Histogram, PercentilesInterpolate) {
  // Unsorted input; rank = p/100 * (n - 1), linear between neighbors.
  const HistogramSummary s = summarize_samples({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.p50, 2.5, 1e-12);
  EXPECT_NEAR(s.p95, 3.85, 1e-12);
}

TEST(RegistrySink, CountersUseLayerDotEventNames) {
  Recorder rec;
  rec.emit({.kind = EventKind::kPhyTx});
  rec.emit({.kind = EventKind::kPhyTx});
  rec.emit({.kind = EventKind::kMonIsolation});
  const RegistrySnapshot snap = RegistrySnapshot::from(rec);
  ASSERT_EQ(snap.counters.size(), 2u) << "zero-count kinds omitted";
  EXPECT_EQ(snap.counters.at("phy.tx"), 2u);
  EXPECT_EQ(snap.counters.at("mon.isolation"), 1u);
}

TEST(RegistrySnapshot, AddCountersSumsByName) {
  RegistrySnapshot a;
  a.counters["phy.tx"] = 3;
  a.counters["mac.backoff"] = 1;
  RegistrySnapshot b;
  b.counters["phy.tx"] = 4;
  b.counters["mon.alert"] = 2;
  a.add_counters(b);
  EXPECT_EQ(a.counters.at("phy.tx"), 7u);
  EXPECT_EQ(a.counters.at("mac.backoff"), 1u);
  EXPECT_EQ(a.counters.at("mon.alert"), 2u);
}

TEST(RegistrySnapshot, EmptyReflectsBothMaps) {
  RegistrySnapshot snap;
  EXPECT_TRUE(snap.empty());
  snap.counters["phy.tx"] = 1;
  EXPECT_FALSE(snap.empty());
}

// ---- Profiler ----

TEST(ProfileTotals, AccumulateSumsAndTakesQueueMax) {
  ProfileReport a;
  a.enabled = true;
  a.wall_seconds = 1.0;
  a.events_executed = 100;
  a.max_queue_depth = 10;
  a.virtual_seconds = 50.0;
  a.layers[0].events = 40;
  ProfileReport b = a;
  b.max_queue_depth = 25;
  ProfileTotals totals;
  totals.accumulate(a);
  totals.accumulate(b);
  EXPECT_TRUE(totals.enabled);
  EXPECT_EQ(totals.runs, 2);
  EXPECT_DOUBLE_EQ(totals.wall_seconds, 2.0);
  EXPECT_EQ(totals.events_executed, 200u);
  EXPECT_EQ(totals.max_queue_depth, 25u);
  EXPECT_DOUBLE_EQ(totals.virtual_seconds, 100.0);
  EXPECT_EQ(totals.layers[0].events, 80u);
}

TEST(ProfileTotals, AccumulateSkipsDisabledReports) {
  ProfileReport disabled;  // enabled defaults to false
  disabled.events_executed = 999;
  ProfileTotals totals;
  totals.accumulate(disabled);
  EXPECT_FALSE(totals.enabled);
  EXPECT_EQ(totals.runs, 0);
  EXPECT_EQ(totals.events_executed, 0u);
}

TEST(ProfileReport, RatesGuardAgainstZeroDenominators) {
  ProfileReport report;
  EXPECT_DOUBLE_EQ(report.events_per_virtual_second(), 0.0);
  EXPECT_DOUBLE_EQ(report.events_per_wall_second(), 0.0);
  report.events_executed = 100;
  report.virtual_seconds = 10.0;
  report.wall_seconds = 0.5;
  EXPECT_DOUBLE_EQ(report.events_per_virtual_second(), 10.0);
  EXPECT_DOUBLE_EQ(report.events_per_wall_second(), 200.0);
}

}  // namespace
}  // namespace lw::obs
