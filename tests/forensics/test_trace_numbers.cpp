// Number formatting and parsing at the edges of the trace schema.
//
// The writer side pins exact line bytes for timestamps and values where
// "%.9f"/"%.9g" rounding, exponent notation and subnormals show; the
// reader side runs a table of numeric tokens through parse_trace_line and
// requires the exact strtod value or the exact error. The expectations
// were recorded from the printf/strtod implementation the trace format
// was first written with.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "forensics/incident.h"
#include "forensics/span.h"
#include "forensics/trace_reader.h"
#include "obs/trace_writer.h"
#include "packet/packet.h"

namespace lw::forensics {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---- Reader: numeric tokens ----

struct TokenCase {
  const char* token;
  double value;         // expected when error is null
  const char* error;    // expected TraceFormatError message, or null
};

TEST(TraceNumbers, ReaderTokensMatchStrtod) {
  const double inf = std::numeric_limits<double>::infinity();
  const TokenCase cases[] = {
      {"1", 1.0, nullptr},
      {"-0", -0.0, nullptr},
      {"+1", 1.0, nullptr},
      {"1E+3", 1000.0, nullptr},
      {".5", 0.5, nullptr},
      {"5.", 5.0, nullptr},
      {"1e", 0.0, "trace line 7: bad number '1e'"},
      {"--1", 0.0, "trace line 7: bad number '--1'"},
      {"+-1", 0.0, "trace line 7: bad number '+-1'"},
      {"1e999", inf, nullptr},
      {"4.9e-324", std::numeric_limits<double>::denorm_min(), nullptr},
      {"123456.123456789", 123456.123456789, nullptr},
      {"0.000000001", 1e-9, nullptr},
      {"1e-400", 0.0, nullptr},
  };
  for (const TokenCase& c : cases) {
    SCOPED_TRACE(c.token);
    const std::string line = std::string("{\"t\":") + c.token +
                             ",\"layer\":\"nbr\",\"event\":\"hello\","
                             "\"node\":1,\"value\":" + c.token + "}";
    TraceRecord record;
    if (c.error != nullptr) {
      try {
        parse_trace_line(line, 7, &record);
        ADD_FAILURE() << "expected TraceFormatError";
      } catch (const TraceFormatError& e) {
        EXPECT_STREQ(e.what(), c.error);
        EXPECT_EQ(e.line(), 7u);
      }
      continue;
    }
    ASSERT_TRUE(parse_trace_line(line, 7, &record));
    EXPECT_TRUE(same_bits(record.t, c.value)) << record.t;
    EXPECT_TRUE(same_bits(record.value, c.value)) << record.value;
    EXPECT_TRUE(same_bits(record.t, std::strtod(c.token, nullptr)));
  }
}

TEST(TraceNumbers, ReaderErrorsKeepTheirWording) {
  const std::pair<std::string, std::string> cases[] = {
      {"{\"t\":,\"layer\":\"nbr\"}", "trace line 3: expected a number"},
      {"{\"t\":1x}", "trace line 3: expected ',', got 'x'"},
      // End of line reads as a NUL character, which ends what() there.
      {"{\"t\":1,\"layer\":\"nbr", "trace line 3: expected '\"', got '"},
      {"{\"t\":1,\"node\":\"3\"}", "trace line 3: expected a number"},
      {"{\"t\":1,\"zz\":1}", "trace line 3: unknown key 'zz'"},
      {"{\"t\":1,\"layer\":\"mon\",\"event\":\"alert\",\"node\":1,"
       "\"def\":\"bogus\"}",
       "trace line 3: unknown defense tag 'bogus'"},
      {"{\"run\":{\"seed\":1,\"x\":2}}",
       "trace line 3: unknown run-header key 'x'"},
      {"{\"t\":1,\"layer\":\"nbr\",\"event\":\"hello\",\"node\":1} ",
       "trace line 3: trailing characters"},
  };
  for (const auto& [line, message] : cases) {
    SCOPED_TRACE(line);
    TraceRecord record;
    try {
      parse_trace_line(line, 3, &record);
      ADD_FAILURE() << "expected TraceFormatError";
    } catch (const TraceFormatError& e) {
      EXPECT_EQ(std::string(e.what()), message);
    }
  }
}

// ---- Writer: exact line bytes ----

TEST(TraceNumbers, TraceWriterLineBytes) {
  std::ostringstream out;
  obs::TraceWriter writer(out);

  obs::Event hello;
  hello.t = 0.0;
  hello.kind = obs::EventKind::kNbrHello;
  hello.node = 0;
  hello.value = 0.0058;
  writer.on_event(hello);

  pkt::Packet packet;
  packet.type = pkt::PacketType::kData;
  packet.origin = 11;
  packet.seq = 18446744073709551615ull;
  packet.lineage = 987654321;
  obs::Event forward;
  forward.t = 1e-10;
  forward.kind = obs::EventKind::kRouteForward;
  forward.node = 5;
  forward.peer = 6;
  forward.packet = &packet;
  forward.value = 1e21;
  writer.on_event(forward);

  obs::Event suspicion;
  suspicion.t = 5e-10;
  suspicion.kind = obs::EventKind::kMonSuspicion;
  suspicion.node = 1;
  suspicion.peer = 9;
  suspicion.detail = obs::kSuspicionDrop;
  suspicion.def = static_cast<std::uint8_t>(obs::DefenseTag::kZScore);
  suspicion.value = 5e-324;
  writer.on_event(suspicion);

  obs::Event isolation;
  isolation.t = 123456.123456789;
  isolation.kind = obs::EventKind::kMonIsolation;
  isolation.node = 4294967294u;
  isolation.peer = 3;
  isolation.def = static_cast<std::uint8_t>(obs::DefenseTag::kLeash);
  isolation.value = -2.5;
  writer.on_event(isolation);

  EXPECT_EQ(out.str(),
            "{\"t\":0.000000000,\"layer\":\"nbr\",\"event\":\"hello\","
            "\"node\":0,\"value\":0.0058}\n"
            "{\"t\":0.000000000,\"layer\":\"route\",\"event\":\"forward\","
            "\"node\":5,\"peer\":6,\"pkt\":\"DATA\",\"origin\":11,"
            "\"seq\":18446744073709551615,\"lin\":987654321,"
            "\"value\":1e+21}\n"
            "{\"t\":0.000000001,\"layer\":\"mon\",\"event\":\"suspicion\","
            "\"node\":1,\"peer\":9,\"sus\":\"drop\",\"def\":\"zscore\","
            "\"value\":4.94065646e-324}\n"
            "{\"t\":123456.123456789,\"layer\":\"mon\",\"event\":"
            "\"isolation\",\"node\":4294967294,\"peer\":3,\"def\":\"leash\","
            "\"value\":-2.5}\n");
}

TEST(TraceNumbers, SpanBuilderLineBytes) {
  std::ostringstream out;
  IncidentBuilder incidents;
  SpanBuilder spans(incidents, &out);
  const auto event = [&](Time t, obs::EventKind kind, NodeId node,
                         NodeId peer, LineageId hint) {
    obs::Event e;
    e.t = t;
    e.kind = kind;
    e.node = node;
    e.peer = peer;
    e.lineage_hint = hint;
    incidents.on_event(e);
    spans.on_event(e);
  };
  const Time last = 123456.123456789;
  event(0.0, obs::EventKind::kAtkTunnel, 5, 9, 0);
  event(1e-10, obs::EventKind::kMonSuspicion, 4, 5, 0);
  event(5e-10, obs::EventKind::kRouteDiscovery, 3, 7, 41);
  event(5e-10, obs::EventKind::kMonDetection, 4, 5, 0);
  event(5e-10, obs::EventKind::kRouteDiscovery, 3, 7, 41);
  event(last, obs::EventKind::kMonIsolation, 6, 5, 0);
  event(last, obs::EventKind::kRouteEstablished, 3, 7, 0);

  EXPECT_EQ(out.str(),
            "{\"t\":0.000000000,\"layer\":\"span\",\"event\":\"begin\","
            "\"span\":\"tunnel_session\",\"sid\":1,\"node\":5,\"peer\":9}\n"
            "{\"t\":0.000000000,\"layer\":\"span\",\"event\":\"begin\","
            "\"span\":\"alert_round\",\"sid\":2,\"node\":5,\"peer\":4,"
            "\"parent\":1}\n"
            "{\"t\":0.000000001,\"layer\":\"span\",\"event\":\"begin\","
            "\"span\":\"route_session\",\"sid\":3,\"node\":3,\"peer\":7,"
            "\"lin\":41}\n"
            "{\"t\":123456.123456789,\"layer\":\"span\",\"event\":\"end\","
            "\"span\":\"alert_round\",\"sid\":2,\"node\":5,\"peer\":4,"
            "\"dur\":123456.123456789,\"outcome\":\"isolated\","
            "\"observe\":0.000000000,\"corroborate\":0.000000000,"
            "\"isolate\":123456.123456789}\n"
            "{\"t\":123456.123456789,\"layer\":\"span\",\"event\":\"end\","
            "\"span\":\"tunnel_session\",\"sid\":1,\"node\":5,\"peer\":9,"
            "\"dur\":123456.123456789,\"outcome\":\"isolated\"}\n"
            "{\"t\":123456.123456789,\"layer\":\"span\",\"event\":\"end\","
            "\"span\":\"route_session\",\"sid\":3,\"node\":3,\"peer\":7,"
            "\"dur\":123456.123456789,\"outcome\":\"established\","
            "\"retries\":1}\n");
}

}  // namespace
}  // namespace lw::forensics
