// Tests for TableProfile serialization (zig/profile_io.cc) and the JSON
// rendering of characterizations (engine/json.h).

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/random.h"
#include "data/synthetic.h"
#include "engine/json.h"
#include "engine/ziggy_engine.h"
#include "zig/component_builder.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

// ------------------------------------------------------- profile round trip --

TEST(ProfileSerializationTest, StreamRoundTripIsExact) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  TableProfile restored =
      TableProfile::Deserialize(&buf, ds.table).ValueOrDie();
  EXPECT_TRUE(original.Equals(restored));
  EXPECT_EQ(restored.num_columns(), original.num_columns());
  EXPECT_EQ(restored.tracked_numeric_pairs(), original.tracked_numeric_pairs());
  // Midranks are not in the stream: Deserialize re-derives them from the
  // persisted sort orders and the table, and must land on the same bits.
  for (size_t c = 0; c < ds.table.num_columns(); ++c) {
    EXPECT_EQ(restored.DoubledMidranks(c), original.DoubledMidranks(c))
        << "column " << c;
    EXPECT_EQ(restored.DoubledMidranks(c).size(),
              ds.table.column(c).is_numeric() ? ds.table.num_rows() : 0u);
  }
}

TEST(ProfileSerializationTest, LoadRejectsATableTheProfileDoesNotFit) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  const std::string bytes = buf.str();

  // Same schema and row count, other values (another seed): the stored
  // sort orders no longer ascend by value, so midranks cannot be derived
  // and the load fails cleanly.
  const Table reseeded = MakeBoxOfficeDataset(8)->table;
  ASSERT_EQ(reseeded.num_rows(), ds.table.num_rows());
  std::stringstream in_reseeded(bytes);
  EXPECT_TRUE(TableProfile::Deserialize(&in_reseeded, reseeded)
                  .status()
                  .IsParseError());

  // Fewer rows: stored row ids fall outside the table.
  Rng rng(7);
  const Table shorter = ds.table.SampleRows(ds.table.num_rows() / 2, &rng);
  std::stringstream in_shorter(bytes);
  EXPECT_TRUE(
      TableProfile::Deserialize(&in_shorter, shorter).status().IsParseError());

  // A different schema altogether.
  SyntheticDataset other = MakeCrimeDataset().ValueOrDie();
  std::stringstream in_other(bytes);
  EXPECT_TRUE(TableProfile::Deserialize(&in_other, other.table)
                  .status()
                  .IsParseError());
}

TEST(ProfileSerializationTest, RestoredProfileProducesIdenticalComponents) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  TableProfile restored =
      TableProfile::Deserialize(&buf, ds.table).ValueOrDie();

  ComponentTable a = BuildComponents(ds.table, original, ds.planted).ValueOrDie();
  ComponentTable b = BuildComponents(ds.table, restored, ds.planted).ValueOrDie();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.components()[i].effect.value, b.components()[i].effect.value);
    EXPECT_DOUBLE_EQ(a.components()[i].p_value, b.components()[i].p_value);
  }
}

TEST(ProfileSerializationTest, FileRoundTrip) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  const std::string path = testing::TempDir() + "/ziggy_profile_test.bin";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  TableProfile restored =
      TableProfile::LoadFromFile(path, ds.table).ValueOrDie();
  EXPECT_TRUE(original.Equals(restored));
  std::remove(path.c_str());
}

TEST(ProfileSerializationTest, BadMagicRejected) {
  std::stringstream buf;
  buf << "NOTAPROF-and-some-garbage-bytes-here";
  EXPECT_TRUE(
      TableProfile::Deserialize(&buf, MakeBoxOfficeDataset()->table)
          .status()
          .IsParseError());
}

TEST(ProfileSerializationTest, LegacyVersionGetsExplicitMismatchError) {
  // A ZIGPROF1 stream (format 1 binned histogram boundaries differently —
  // see the kMagic comment in profile_io.cc) must be rejected with an
  // actionable version error telling the user to recompute, not the
  // generic bad-magic ParseError an unrelated file gets.
  std::stringstream v1;
  v1 << "ZIGPROF1" << std::string(64, '\0');
  const Table table = MakeBoxOfficeDataset()->table;
  Status st = TableProfile::Deserialize(&v1, table).status();
  EXPECT_TRUE(st.IsFailedPrecondition()) << st;
  EXPECT_NE(st.message().find("version"), std::string::npos);
  EXPECT_NE(st.message().find("recompute"), std::string::npos);

  // A hypothetical future format is refused the same way (no silent
  // misparse of a newer stream by an older binary).
  std::stringstream v9;
  v9 << "ZIGPROF9" << std::string(64, '\0');
  EXPECT_TRUE(
      TableProfile::Deserialize(&v9, table).status().IsFailedPrecondition());
}

TEST(ProfileSerializationTest, TruncatedStreamRejected) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  TableProfile original = TableProfile::Compute(ds.table).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  const std::string full = buf.str();
  for (size_t cut : {size_t{4}, full.size() / 4, full.size() / 2, full.size() - 3}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_FALSE(TableProfile::Deserialize(&truncated, ds.table).ok())
        << "cut=" << cut;
  }
}

TEST(ProfileSerializationTest, MissingFileIsIOError) {
  EXPECT_TRUE(TableProfile::LoadFromFile("/nonexistent/dir/p.bin",
                                         MakeBoxOfficeDataset()->table)
                  .status()
                  .IsIOError());
}

TEST(ProfileSerializationTest, OptionsSurviveRoundTrip) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  ProfileOptions opts;
  opts.pair_dependency_floor = 0.123;
  opts.histogram_bins = 7;
  opts.cache_sort_orders = false;
  TableProfile original = TableProfile::Compute(ds.table, opts).ValueOrDie();
  std::stringstream buf;
  ASSERT_TRUE(original.Serialize(&buf).ok());
  TableProfile restored =
      TableProfile::Deserialize(&buf, ds.table).ValueOrDie();
  EXPECT_DOUBLE_EQ(restored.options().pair_dependency_floor, 0.123);
  EXPECT_EQ(restored.options().histogram_bins, 7u);
  EXPECT_FALSE(restored.options().cache_sort_orders);
  EXPECT_TRUE(restored.Equals(original));

  // Without cached sort orders there are no midranks, before or after the
  // round trip, and hence no rank-shift component.
  for (const TableProfile* p : {&original, &restored}) {
    for (size_t c = 0; c < ds.table.num_columns(); ++c) {
      EXPECT_TRUE(p->SortOrder(c).empty());
      EXPECT_TRUE(p->DoubledMidranks(c).empty());
    }
    ComponentTable comps =
        BuildComponents(ds.table, *p, ds.planted).ValueOrDie();
    ASSERT_GT(comps.size(), 0u);
    for (const ZigComponent& comp : comps.components()) {
      EXPECT_NE(comp.kind, ComponentKind::kRankShift);
    }
  }
}

// ----------------------------------------------------------------- JSON ------

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscapeTest, NonAsciiBecomesUnicodeEscapes) {
  // BMP code points escape to one \uXXXX ...
  EXPECT_EQ(JsonEscape("caf\xc3\xa9"), "caf\\u00e9");
  EXPECT_EQ(JsonEscape("\xe2\x82\xac"), "\\u20ac");  // EURO SIGN
  // ... and non-BMP code points (emoji category labels) to a surrogate
  // pair — a bare \uXXXXX token or raw truncation would be invalid JSON.
  EXPECT_EQ(JsonEscape("\xf0\x9f\x98\x80"), "\\ud83d\\ude00");  // U+1F600
  EXPECT_EQ(JsonEscape("x\xf0\x90\x8d\x88y"), "x\\ud800\\udf48y");  // U+10348
}

TEST(JsonEscapeTest, InvalidUtf8BecomesReplacementCharacter) {
  // Latin-1 bytes, lone continuation bytes, truncated sequences, and
  // overlong encodings must never leak through raw: the reply would not
  // be valid JSON (or valid UTF-8).
  EXPECT_EQ(JsonEscape("\xe9"), "\\ufffd");              // Latin-1 e-acute
  EXPECT_EQ(JsonEscape("a\x80z"), "a\\ufffdz");          // bare continuation
  EXPECT_EQ(JsonEscape("\xf0\x9f\x98"), "\\ufffd\\ufffd\\ufffd");  // cut
  EXPECT_EQ(JsonEscape("\xc0\xaf"), "\\ufffd\\ufffd");   // overlong '/'
  EXPECT_EQ(JsonEscape("\xed\xa0\x80"),                  // encoded surrogate
            "\\ufffd\\ufffd\\ufffd");
}

TEST(JsonRenderTest, ContainsAllSections) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string query = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery(query).ValueOrDie();
  const std::string json = CharacterizationToJson(r, engine.table().schema());
  EXPECT_NE(json.find("\"inside_count\":"), std::string::npos);
  EXPECT_NE(json.find("\"timings_ms\":"), std::string::npos);
  EXPECT_NE(json.find("\"views\":["), std::string::npos);
  EXPECT_NE(json.find("\"headline\":"), std::string::npos);
  EXPECT_NE(json.find("\"score_breakdown\":"), std::string::npos);
  // Balanced braces and brackets (cheap structural check).
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(JsonRenderTest, ViewCountMatches) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string query = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery(query).ValueOrDie();
  const std::string json = CharacterizationToJson(r, engine.table().schema());
  size_t count = 0;
  size_t pos = 0;
  while ((pos = json.find("\"rank\":", pos)) != std::string::npos) {
    ++count;
    pos += 7;
  }
  EXPECT_EQ(count, r.views.size());
}

TEST(JsonRenderTest, NoNaNLiterals) {
  SyntheticDataset ds = MakeBoxOfficeDataset().ValueOrDie();
  const std::string query = ds.selection_predicate;
  ZiggyEngine engine = ZiggyEngine::Create(std::move(ds.table)).ValueOrDie();
  Characterization r = engine.CharacterizeQuery(query).ValueOrDie();
  const std::string json = CharacterizationToJson(r, engine.table().schema());
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace ziggy
