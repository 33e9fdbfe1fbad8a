// Perfetto (Chrome trace-event) export: a byte-exact golden fixture over a
// hand-written multi-run trace, and well-formed JSON for hostile input.
//
// Regenerating the fixture after an intentional export-format change:
//   LW_UPDATE_GOLDEN=1 ./build/tests/test_perfetto
// then commit tests/forensics/golden_perfetto.json with the code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "forensics/perfetto.h"
#include "forensics/trace_reader.h"
#include "util/json.h"

namespace lw::forensics {
namespace {

std::string fixture_path(const char* name) {
  return std::string(LW_GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string export_text(const std::string& trace) {
  std::istringstream in(trace);
  const std::vector<TraceRecord> records = read_trace(in);
  std::ostringstream out;
  export_perfetto(records, out);
  return out.str();
}

// The input covers run headers, span begin/end with parent/lin/peer/
// retries and alert-round phases, def/sus/value args, an unknown layer
// (catch-all tid 9), and cross-node flow arrows that restart per run.
TEST(PerfettoExport, MatchesGoldenFixture) {
  const std::string input =
      read_file(fixture_path("golden_perfetto_input.jsonl"));
  ASSERT_FALSE(input.empty()) << "missing golden_perfetto_input.jsonl";
  const std::string actual = export_text(input);
  if (std::getenv("LW_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(fixture_path("golden_perfetto.json"), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write golden_perfetto.json";
    out << actual;
    GTEST_SKIP() << "fixture regenerated";
  }
  const std::string expected = read_file(fixture_path("golden_perfetto.json"));
  ASSERT_FALSE(expected.empty())
      << "missing golden_perfetto.json — regenerate with LW_UPDATE_GOLDEN=1";
  EXPECT_EQ(actual, expected)
      << "export changed; if intentional, regenerate with LW_UPDATE_GOLDEN=1";
}

TEST(PerfettoExport, GoldenFixtureIsValidJson) {
  const std::string text = read_file(fixture_path("golden_perfetto.json"));
  const util::JsonValue doc = util::JsonValue::parse(text);
  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_FALSE(events->items().empty());
}

// Names come from outside input: they may be long and may hold control
// bytes, and the export must still be one valid JSON document that
// carries them unchanged.
TEST(PerfettoExport, HostileNamesStayValidJson) {
  const std::string long_name(300, 'x');
  const std::string trace =
      "{\"t\":1,\"layer\":\"mon\",\"event\":\"" + long_name +
      "\",\"node\":2}\n"
      "{\"t\":2,\"layer\":\"mon\",\"event\":\"a\tb\x01" "c\",\"node\":2,"
      "\"sus\":\"q\\\"uote\"}\n"
      "{\"t\":3,\"layer\":\"l\\\\ay\ter\",\"event\":\"e\",\"node\":2}\n";
  const std::string text = export_text(trace);
  for (const char c : text) {
    EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
        << "raw control byte " << static_cast<int>(c) << " in the export";
  }

  const util::JsonValue doc = util::JsonValue::parse(text);
  std::vector<std::string> slices;
  std::vector<std::string> threads;
  std::string suspicion;
  for (const util::JsonValue& event : doc.find("traceEvents")->items()) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "X") {
      slices.push_back(event.string_or("name", ""));
      const util::JsonValue* args = event.find("args");
      if (args != nullptr && args->find("sus") != nullptr) {
        suspicion = args->string_or("sus", "");
      }
    } else if (ph == "M" && event.string_or("name", "") == "thread_name") {
      threads.push_back(event.find("args")->string_or("name", ""));
    }
  }
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0], "mon." + long_name);
  EXPECT_EQ(slices[1], "mon.a\tb\x01" "c");
  EXPECT_EQ(slices[2], "l\\ay\ter.e");
  EXPECT_EQ(suspicion, "q\"uote");
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[1], "l\\ay\ter");
}

}  // namespace
}  // namespace lw::forensics
