// Trace reader round-trips, lineage chains, and the `check` invariant
// linter — including that it passes the golden fixture and fails
// hand-corrupted variants of it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "forensics/check.h"
#include "forensics/perfetto.h"
#include "forensics/trace_reader.h"
#include "obs/trace_writer.h"
#include "packet/packet.h"

namespace lw::forensics {
namespace {

std::vector<TraceRecord> parse_all(const std::string& text) {
  std::istringstream in(text);
  return read_trace(in);
}

// ---- Round-trip through the writer ----

TEST(TraceReader, RoundTripsAPacketEvent) {
  std::ostringstream out;
  obs::TraceWriter writer(out);
  pkt::Packet packet;
  packet.type = pkt::PacketType::kData;
  packet.origin = 11;
  packet.seq = 42;
  packet.lineage = 987654321;
  obs::Event event;
  event.t = 1.25;
  event.kind = obs::EventKind::kRouteForward;
  event.node = 5;
  event.peer = 6;
  event.packet = &packet;
  writer.on_event(event);

  const std::vector<TraceRecord> records = parse_all(out.str());
  ASSERT_EQ(records.size(), 1u);
  const TraceRecord& r = records.front();
  EXPECT_FALSE(r.is_run_header);
  EXPECT_TRUE(r.kind_known);
  EXPECT_EQ(r.kind, obs::EventKind::kRouteForward);
  EXPECT_DOUBLE_EQ(r.t, 1.25);
  EXPECT_EQ(r.node, 5u);
  EXPECT_EQ(r.peer, 6u);
  ASSERT_TRUE(r.has_packet);
  EXPECT_EQ(r.pkt_type(), "DATA");
  EXPECT_EQ(r.origin, 11u);
  EXPECT_EQ(r.seq, 42u);
  EXPECT_EQ(r.lineage, 987654321u);
}

TEST(TraceReader, RoundTripsSuspicionDetail) {
  std::ostringstream out;
  obs::TraceWriter writer(out);
  obs::Event event;
  event.t = 2.0;
  event.kind = obs::EventKind::kMonSuspicion;
  event.node = 1;
  event.peer = 9;
  event.value = 3.0;
  event.detail = obs::kSuspicionDrop;
  writer.on_event(event);

  const std::vector<TraceRecord> records = parse_all(out.str());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records.front().suspicion(), "drop");
  EXPECT_EQ(records.front().to_event().detail, obs::kSuspicionDrop);
}

TEST(TraceReader, ParsesRunHeaders) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"run\":{\"point\":\"gamma=3\",\"seed\":17}}\n"
      "{\"t\":0.5,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":3}\n");
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[0].is_run_header);
  EXPECT_EQ(records[0].point(), "gamma=3");
  EXPECT_EQ(records[0].run_seed, 17u);
  EXPECT_FALSE(records[1].is_run_header);
  EXPECT_EQ(records[1].kind, obs::EventKind::kNbrHello);
}

TEST(TraceReader, DecodesJsonEscapesInStrings) {
  // Every JSON escape decodes to its bytes: "a\u0009b\nc" is "a<TAB>b<LF>c".
  const std::vector<TraceRecord> records = parse_all(
      "{\"run\":{\"point\":\"a\\u0009b\\nc\\\"d\\\\e\\u00e9\","
      "\"seed\":1}}\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].point(), "a\tb\nc\"d\\e\xc3\xa9");
  // Writer and reader agree on every byte below 0x80.
  std::string every;
  for (int c = 1; c < 0x80; ++c) every += static_cast<char>(c);
  EXPECT_EQ(parse_all(obs::run_header_line(every, 2))[0].point(), every);
}

TEST(TraceReader, MalformedEscapesThrowWithLineNumbers) {
  for (const char* point : {"a\\q", "a\\u12", "a\\uzzzz", "a\\"}) {
    SCOPED_TRACE(point);
    try {
      parse_all(std::string("{\"run\":{\"point\":\"") + point +
                "\",\"seed\":1}}\n");
      ADD_FAILURE() << "expected TraceFormatError";
    } catch (const TraceFormatError& e) {
      EXPECT_EQ(e.line(), 1u);
    }
  }
}

TEST(TraceReader, UnknownEventNameParsesButIsFlagged) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":1,\"layer\":\"mon\",\"event\":\"bogus\",\"node\":1}\n");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records.front().kind_known);
}

// Names outside the writers' vocabulary: an unknown layer, event, packet
// type and suspicion kind on one line, an unknown span kind and outcome on
// a span pair, and a run label with an escaped quote.
constexpr const char* kOutOfVocabularyTrace =
    "{\"run\":{\"point\":\"say \\\"hi\\\"\",\"seed\":4}}\n"
    "{\"t\":1,\"layer\":\"radio\",\"event\":\"zap\",\"node\":2,\"peer\":3,"
    "\"pkt\":\"BLOB\",\"origin\":2,\"seq\":1,\"lin\":5,\"sus\":\"odd\","
    "\"def\":\"zscore\",\"value\":7}\n"
    "{\"t\":2,\"layer\":\"span\",\"event\":\"begin\",\"node\":2,"
    "\"span\":\"mystery\",\"sid\":1}\n"
    "{\"t\":3,\"layer\":\"span\",\"event\":\"end\",\"node\":2,"
    "\"span\":\"mystery\",\"sid\":1,\"dur\":1,\"outcome\":\"vanished\"}\n"
    // An escaped spelling of a known name decodes into the vocabulary.
    "{\"t\":4,\"layer\":\"m\\u006fn\",\"event\":\"alert\",\"node\":1,"
    "\"peer\":9}\n";

TEST(TraceReader, OutOfVocabularyNamesReadBackVerbatim) {
  const std::vector<TraceRecord> records = parse_all(kOutOfVocabularyTrace);
  ASSERT_EQ(records.size(), 5u);
  EXPECT_EQ(records[0].point(), "say \"hi\"");
  EXPECT_EQ(describe(records[0]), "== run point=say \"hi\" seed=4 ==");

  const TraceRecord& event = records[1];
  EXPECT_FALSE(event.kind_known);
  EXPECT_EQ(event.layer(), "radio");
  EXPECT_EQ(event.name(), "zap");
  EXPECT_EQ(event.pkt_type(), "BLOB");
  EXPECT_EQ(event.suspicion(), "odd");
  EXPECT_EQ(event.defense(), "zscore");
  EXPECT_EQ(describe(event),
            "    1.000000  radio zap          node 2 -> 3  "
            "BLOB(origin=2 seq=1 lin=5)  sus=odd  def=zscore  value=7");
  EXPECT_EQ(describe(records[3]),
            "    3.000000  span  end          node 2  mystery sid=1 "
            "dur=1.000000 outcome=vanished");
  EXPECT_FALSE(records[3].span_kind_known);
  EXPECT_EQ(records[3].outcome(), "vanished");

  EXPECT_TRUE(records[4].kind_known);
  EXPECT_EQ(records[4].kind, obs::EventKind::kMonAlert);
  EXPECT_EQ(records[4].layer(), "mon");

  // A copied record keeps its side text after the original is gone.
  std::vector<TraceRecord> owner = parse_all(kOutOfVocabularyTrace);
  const std::vector<TraceRecord> chain = lineage_chain(owner, 5);
  const TraceRecord header = owner[0];
  owner.clear();
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].layer(), "radio");
  EXPECT_EQ(chain[0].name(), "zap");
  EXPECT_EQ(chain[0].pkt_type(), "BLOB");
  EXPECT_EQ(chain[0].suspicion(), "odd");
  EXPECT_EQ(header.point(), "say \"hi\"");
}

TEST(CheckTrace, EchoesOutOfVocabularyNames) {
  const std::vector<CheckIssue> issues =
      check_trace(parse_all(kOutOfVocabularyTrace));
  ASSERT_EQ(issues.size(), 3u);
  EXPECT_EQ(issues[0].line, 2u);
  EXPECT_EQ(issues[0].message, "unknown event 'radio.zap'");
  EXPECT_EQ(issues[1].line, 3u);
  EXPECT_EQ(issues[1].message, "unknown span kind 'mystery'");
  EXPECT_EQ(issues[2].line, 4u);
  EXPECT_EQ(issues[2].message, "unknown span kind 'mystery'");
}

TEST(Perfetto, EchoesOutOfVocabularyNames) {
  std::ostringstream out;
  export_perfetto(parse_all(kOutOfVocabularyTrace), out);
  const std::string json = out.str();
  for (const char* expected :
       {"\"name\":\"radio.zap\"", "\"tid\":9", "\"pkt\":\"BLOB\"",
        "\"sus\":\"odd\"", "\"def\":\"zscore\"", "\"name\":\"mystery\"",
        "\"outcome\":\"vanished\"", "\"name\":\"mon.alert\""}) {
    EXPECT_NE(json.find(expected), std::string::npos) << expected;
  }
}

TEST(TraceReader, MalformedLinesThrowWithLineNumbers) {
  EXPECT_THROW(parse_all("{\"t\":1,\"layer\":\"mon\"}\n"), TraceFormatError);
  EXPECT_THROW(parse_all("not json\n"), TraceFormatError);
  EXPECT_THROW(
      parse_all("{\"t\":1,\"layer\":\"mon\",\"event\":\"alert\",\"bad\":1}\n"),
      TraceFormatError);
  try {
    parse_all(
        "{\"t\":1,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":1}\n"
        "garbage\n");
    FAIL() << "expected TraceFormatError";
  } catch (const TraceFormatError& e) {
    EXPECT_EQ(e.line(), 2u);
  }
}

TEST(TraceReader, LineageChainFiltersAndPreservesOrder) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":1,\"layer\":\"route\",\"event\":\"forward\",\"node\":1,"
      "\"peer\":2,\"pkt\":\"DATA\",\"origin\":1,\"seq\":1,\"lin\":10}\n"
      "{\"t\":2,\"layer\":\"route\",\"event\":\"forward\",\"node\":9,"
      "\"peer\":4,\"pkt\":\"DATA\",\"origin\":9,\"seq\":1,\"lin\":11}\n"
      "{\"t\":3,\"layer\":\"route\",\"event\":\"deliver\",\"node\":3,"
      "\"pkt\":\"DATA\",\"origin\":1,\"seq\":1,\"lin\":10}\n");
  const std::vector<TraceRecord> chain = lineage_chain(records, 10);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].kind, obs::EventKind::kRouteForward);
  EXPECT_EQ(chain[1].kind, obs::EventKind::kRouteDeliver);
}

// ---- The invariant linter ----

TEST(CheckTrace, CleanSyntheticTracePasses) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":1,\"layer\":\"route\",\"event\":\"forward\",\"node\":1,"
      "\"peer\":2,\"pkt\":\"DATA\",\"origin\":1,\"seq\":1,\"lin\":10}\n"
      "{\"t\":2,\"layer\":\"route\",\"event\":\"deliver\",\"node\":3,"
      "\"pkt\":\"DATA\",\"origin\":1,\"seq\":1,\"lin\":10}\n");
  EXPECT_TRUE(check_trace(records).empty());
}

TEST(CheckTrace, FlagsBackwardsTimestamps) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":5,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":1}\n"
      "{\"t\":4,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":2}\n");
  const std::vector<CheckIssue> issues = check_trace(records);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_EQ(issues.front().line, 2u);
}

TEST(CheckTrace, RunHeaderResetsTheClock) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":5,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":1}\n"
      "{\"run\":{\"point\":\"b\",\"seed\":2}}\n"
      "{\"t\":0,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":1}\n");
  EXPECT_TRUE(check_trace(records).empty());
}

TEST(CheckTrace, FlagsDeliveryWithoutForward) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":2,\"layer\":\"route\",\"event\":\"deliver\",\"node\":3,"
      "\"pkt\":\"DATA\",\"origin\":1,\"seq\":1,\"lin\":10}\n");
  const std::vector<CheckIssue> issues = check_trace(records);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().message.find("lineage 10"), std::string::npos);
}

TEST(CheckTrace, FlagsIsolationWithTooFewDistinctGuards) {
  // Two alerts, one guard: both the claimed count (3) and gamma (3) fail.
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":1,\"layer\":\"mon\",\"event\":\"alert\",\"node\":4,"
      "\"peer\":9}\n"
      "{\"t\":2,\"layer\":\"mon\",\"event\":\"alert\",\"node\":4,"
      "\"peer\":9}\n"
      "{\"t\":3,\"layer\":\"mon\",\"event\":\"isolation\",\"node\":5,"
      "\"peer\":9,\"value\":3}\n");
  const std::vector<CheckIssue> issues = check_trace(records);
  EXPECT_EQ(issues.size(), 2u);
}

TEST(CheckTrace, AcceptsLegitimateIsolation) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":1,\"layer\":\"mon\",\"event\":\"alert\",\"node\":1,"
      "\"peer\":9}\n"
      "{\"t\":2,\"layer\":\"mon\",\"event\":\"alert\",\"node\":2,"
      "\"peer\":9}\n"
      "{\"t\":3,\"layer\":\"mon\",\"event\":\"alert\",\"node\":3,"
      "\"peer\":9}\n"
      "{\"t\":4,\"layer\":\"mon\",\"event\":\"isolation\",\"node\":5,"
      "\"peer\":9,\"value\":3}\n");
  EXPECT_TRUE(check_trace(records).empty());
}

TEST(CheckTrace, FlagsForwardToIsolatedPeer) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":1,\"layer\":\"mon\",\"event\":\"alert\",\"node\":1,"
      "\"peer\":9}\n"
      "{\"t\":2,\"layer\":\"mon\",\"event\":\"alert\",\"node\":2,"
      "\"peer\":9}\n"
      "{\"t\":3,\"layer\":\"mon\",\"event\":\"alert\",\"node\":3,"
      "\"peer\":9}\n"
      "{\"t\":4,\"layer\":\"mon\",\"event\":\"isolation\",\"node\":5,"
      "\"peer\":9,\"value\":3}\n"
      "{\"t\":5,\"layer\":\"route\",\"event\":\"forward\",\"node\":5,"
      "\"peer\":9,\"pkt\":\"DATA\",\"origin\":5,\"seq\":1,\"lin\":77}\n");
  const std::vector<CheckIssue> issues = check_trace(records);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().message.find("after isolating"),
            std::string::npos);
}

TEST(CheckTrace, FlagsUnknownEventNames) {
  const std::vector<TraceRecord> records = parse_all(
      "{\"t\":1,\"layer\":\"mon\",\"event\":\"bogus\",\"node\":1}\n");
  const std::vector<CheckIssue> issues = check_trace(records);
  ASSERT_EQ(issues.size(), 1u);
  EXPECT_NE(issues.front().message.find("unknown event"), std::string::npos);
}

// ---- The golden fixture ----

std::string golden_path() {
  return std::string(LW_GOLDEN_DIR) + "/golden_trace.jsonl";
}

std::vector<TraceRecord> load_golden() {
  std::ifstream in(golden_path());
  EXPECT_TRUE(in) << "missing fixture " << golden_path();
  return read_trace(in);
}

TEST(CheckTrace, GoldenFixtureIsClean) {
  const std::vector<TraceRecord> records = load_golden();
  ASSERT_FALSE(records.empty());
  const std::vector<CheckIssue> issues = check_trace(records);
  for (const CheckIssue& issue : issues) {
    ADD_FAILURE() << golden_path() << ":" << issue.line << ": "
                  << issue.message;
  }
}

TEST(CheckTrace, HandCorruptedGoldenFixtureFails) {
  // Retarget every delivery to a lineage that never appears in a forward:
  // the tampered trace must be rejected.
  std::vector<TraceRecord> records = load_golden();
  bool corrupted = false;
  for (TraceRecord& record : records) {
    if (record.kind_known && record.kind == obs::EventKind::kRouteDeliver) {
      record.lineage = 0xDEADBEEF;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "fixture contains no deliveries";
  EXPECT_FALSE(check_trace(records).empty());
}

TEST(CheckTrace, ReorderedGoldenFixtureFails) {
  std::vector<TraceRecord> records = load_golden();
  ASSERT_GT(records.size(), 10u);
  std::swap(records[4].t, records[5].t);
  // Only a genuine reorder counts (equal timestamps swap to a no-op).
  if (records[4].t == records[5].t) {
    records[5].t = records[4].t - 1.0;
  }
  EXPECT_FALSE(check_trace(records).empty());
}

}  // namespace
}  // namespace lw::forensics
