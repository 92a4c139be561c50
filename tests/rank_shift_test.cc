// Differential tests of the rank-shift component against a naive pairwise
// Mann-Whitney reference.
//
// The component computes U as a sum of the selected rows' profile
// midranks. The reference below compares every inside value with every
// outside value, O(n_in * n_out), counting ties as 1/2. Both are exact
// (integer or half-integer arithmetic far below 2^53), so the component's
// U-derived fields must match bit for bit — on heavy ties, NULLs, and
// selections at every size boundary — and every way the serving stack can
// reach BuildComponentsFromSketches (engine scan, Preparer delta, server
// exact and patched cache hits) must agree bit for bit too.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/ziggy_engine.h"
#include "serve/ziggy_server.h"
#include "stats/effect_size.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "storage/types.h"
#include "zig/component_builder.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {
namespace {

constexpr size_t kRows = 257;  // not a multiple of the 64-row bitmap word

// Numeric columns: continuous, quantized to one decimal (heavy ties),
// constant (one tie run), all NULL; plus a categorical column. The first
// two carry ~10% NULLs.
Table MakeRankTable(uint64_t seed) {
  Rng rng(seed);
  std::vector<double> cont(kRows);
  std::vector<double> tied(kRows);
  std::vector<double> constant(kRows, 1.5);
  std::vector<double> all_null(kRows, NullNumeric());
  std::vector<std::string> cat(kRows);
  const char* labels[] = {"a", "b", "c"};
  for (size_t r = 0; r < kRows; ++r) {
    cont[r] =
        rng.Uniform(0.0, 1.0) < 0.1 ? NullNumeric() : rng.Normal(0.0, 1.0);
    tied[r] = rng.Uniform(0.0, 1.0) < 0.1
                  ? NullNumeric()
                  : std::round(rng.Uniform(0.0, 1.0) * 10.0) / 10.0;
    cat[r] = labels[rng.UniformInt(0, 2)];
  }
  auto table = Table::FromColumns({
      Column::FromNumeric("cont", std::move(cont)),
      Column::FromNumeric("tied", std::move(tied)),
      Column::FromNumeric("constant", std::move(constant)),
      Column::FromNumeric("all_null", std::move(all_null)),
      Column::FromStrings("cat", cat),
  });
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

Selection RandomSelection(size_t count, Rng* rng) {
  const std::vector<size_t> rows = rng->SampleWithoutReplacement(kRows, count);
  return Selection::FromIndices(kRows, rows);
}

// Pairwise Mann-Whitney U over the non-NULL values of `data`.
struct NaiveRank {
  double u = 0.0;
  int64_t n_in = 0;
  int64_t n_out = 0;
};

NaiveRank NaiveMannWhitney(const std::vector<double>& data,
                           const Selection& selection) {
  std::vector<double> in;
  std::vector<double> out;
  for (size_t r = 0; r < data.size(); ++r) {
    if (IsNullNumeric(data[r])) continue;
    (selection.Contains(r) ? in : out).push_back(data[r]);
  }
  NaiveRank ref;
  for (double x : in) {
    for (double y : out) {
      if (x > y) {
        ref.u += 1.0;
      } else if (x == y) {
        ref.u += 0.5;
      }
    }
  }
  ref.n_in = static_cast<int64_t>(in.size());
  ref.n_out = static_cast<int64_t>(out.size());
  return ref;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

// Checks every numeric column's rank-shift component against the naive
// reference: present exactly when both sides reach min_side_rows, and then
// bitwise equal in every U-derived field.
void ExpectMatchesReference(const Table& table, const ComponentTable& comps,
                            const Selection& selection, int64_t min_side_rows) {
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ZigComponent* rank =
        comps.Find(ComponentKind::kRankShift, c, kNoColumn);
    if (!table.column(c).is_numeric()) {
      EXPECT_EQ(rank, nullptr);
      continue;
    }
    const NaiveRank ref =
        NaiveMannWhitney(table.column(c).numeric_data(), selection);
    if (ref.n_in < min_side_rows || ref.n_out < min_side_rows) {
      EXPECT_EQ(rank, nullptr) << "column " << c;
      continue;
    }
    ASSERT_NE(rank, nullptr) << "column " << c;
    const EffectSize want = CliffsDelta(ref.u, ref.n_in, ref.n_out);
    const double p_sup = ref.u / (static_cast<double>(ref.n_in) *
                                  static_cast<double>(ref.n_out));
    EXPECT_EQ(rank->inside_n, ref.n_in) << "column " << c;
    EXPECT_EQ(rank->outside_n, ref.n_out) << "column " << c;
    EXPECT_EQ(Bits(rank->inside_value), Bits(p_sup)) << "column " << c;
    EXPECT_EQ(Bits(rank->outside_value), Bits(1.0 - p_sup)) << "column " << c;
    EXPECT_EQ(Bits(rank->effect.value), Bits(want.value)) << "column " << c;
    EXPECT_EQ(Bits(rank->effect.std_error), Bits(want.std_error));
    EXPECT_EQ(rank->effect.defined, want.defined);
    EXPECT_EQ(Bits(rank->p_value), Bits(want.PValue())) << "column " << c;
  }
}

// Bitwise equality of the rank-shift components of two component tables.
void ExpectSameRankComponents(const ComponentTable& a, const ComponentTable& b,
                              const std::string& label) {
  size_t seen = 0;
  for (const ZigComponent& x : a.components()) {
    if (x.kind != ComponentKind::kRankShift) continue;
    ++seen;
    const ZigComponent* y =
        b.Find(ComponentKind::kRankShift, x.col_a, kNoColumn);
    ASSERT_NE(y, nullptr) << label << ": column " << x.col_a;
    EXPECT_EQ(Bits(x.inside_value), Bits(y->inside_value)) << label;
    EXPECT_EQ(Bits(x.outside_value), Bits(y->outside_value)) << label;
    EXPECT_EQ(Bits(x.effect.value), Bits(y->effect.value)) << label;
    EXPECT_EQ(Bits(x.effect.std_error), Bits(y->effect.std_error)) << label;
    EXPECT_EQ(Bits(x.p_value), Bits(y->p_value)) << label;
    EXPECT_EQ(x.inside_n, y->inside_n) << label;
    EXPECT_EQ(x.outside_n, y->outside_n) << label;
  }
  size_t other = 0;
  for (const ZigComponent& y : b.components()) {
    other += y.kind == ComponentKind::kRankShift ? 1 : 0;
  }
  EXPECT_EQ(seen, other) << label;
}

TEST(RankShiftTest, MatchesPairwiseReferenceAtEverySelectionSize) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Table table = MakeRankTable(seed);
    const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
    Rng rng(100 + seed);
    ComponentBuildOptions options;
    for (int64_t min_side : {int64_t{1}, int64_t{3}}) {
      options.min_side_rows = min_side;
      for (size_t count : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                           kRows / 2, kRows - 3, kRows - 1}) {
        const Selection selection = RandomSelection(count, &rng);
        ComponentTable comps =
            BuildComponents(table, profile, selection, options).ValueOrDie();
        SCOPED_TRACE("seed " + std::to_string(seed) + ", |S| " +
                     std::to_string(count) + ", min_side_rows " +
                     std::to_string(min_side));
        ExpectMatchesReference(table, comps, selection, min_side);
      }
    }
  }
}

TEST(RankShiftTest, ConstantColumnIsAllTiesAndAllNullColumnHasNoComponent) {
  const Table table = MakeRankTable(4);
  const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
  Rng rng(5);
  const Selection selection = RandomSelection(kRows / 3, &rng);
  ComponentTable comps =
      BuildComponents(table, profile, selection).ValueOrDie();
  const ZigComponent* constant =
      comps.Find(ComponentKind::kRankShift, 2, kNoColumn);
  ASSERT_NE(constant, nullptr);
  EXPECT_EQ(constant->inside_value, 0.5);  // every pair tied
  EXPECT_EQ(constant->effect.value, 0.0);
  EXPECT_EQ(comps.Find(ComponentKind::kRankShift, 3, kNoColumn), nullptr);
  // Every row of the constant column shares one tie run: doubled midrank
  // 1 + N for all of them.
  for (uint32_t v : profile.DoubledMidranks(2)) EXPECT_EQ(v, kRows + 1);
  for (uint32_t v : profile.DoubledMidranks(3)) EXPECT_EQ(v, 0u);
}

TEST(RankShiftTest, EveryPreparationPathYieldsBitIdenticalRankComponents) {
  const Table table = MakeRankTable(6);
  const TableProfile profile = TableProfile::Compute(table).ValueOrDie();
  const ComponentBuildOptions options;
  Rng rng(7);
  for (size_t count : {size_t{40}, kRows / 2, kRows - 40}) {
    const Selection selection = RandomSelection(count, &rng);
    // A neighbouring selection: a few rows flipped.
    Selection previous = selection;
    for (size_t r : {size_t{0}, size_t{70}, size_t{130}, size_t{256}}) {
      previous.Set(r, !previous.Contains(r));
    }
    SCOPED_TRACE("|S| " + std::to_string(count));

    // Engine scan (the Preparer's full scan and BuildComponents).
    const ComponentTable scan =
        BuildComponents(table, profile, selection, options).ValueOrDie();
    ExpectMatchesReference(table, scan, selection, options.min_side_rows);

    // Preparer delta from the neighbouring selection.
    Preparer preparer(&table, &profile, options);
    ASSERT_TRUE(preparer.Prepare(previous).ok());
    const ComponentTable delta = preparer.Prepare(selection).ValueOrDie();
    EXPECT_EQ(preparer.last_strategy(), Preparer::Strategy::kIncremental);
    ExpectSameRankComponents(scan, delta, "preparer delta");

    // Server exact hit: cached sketches of this very selection, outside
    // derived as the complement (what the engine does with provided
    // sketches).
    const SelectionSketches cached =
        SelectionSketches::Build(table, profile, selection, 1, 0);
    SelectionSketches outside;
    outside.InitShapes(table, profile);
    outside.DeriveAsComplement(profile, cached);
    const ComponentTable exact =
        BuildComponentsFromSketches(table, profile, selection, cached, outside,
                                    options)
            .ValueOrDie();
    ExpectSameRankComponents(scan, exact, "exact hit");

    // Server patched hit: the neighbour's sketches patched over the XOR
    // delta row by row.
    SelectionSketches patched =
        SelectionSketches::Build(table, profile, previous, 1, 0);
    for (size_t r = 0; r < kRows; ++r) {
      if (selection.Contains(r) == previous.Contains(r)) continue;
      if (selection.Contains(r)) {
        patched.AddRow(table, profile, r);
      } else {
        patched.RemoveRow(table, profile, r);
      }
    }
    SelectionSketches patched_outside;
    patched_outside.InitShapes(table, profile);
    patched_outside.DeriveAsComplement(profile, patched);
    const ComponentTable patched_comps =
        BuildComponentsFromSketches(table, profile, selection, patched,
                                    patched_outside, options)
            .ValueOrDie();
    ExpectSameRankComponents(scan, patched_comps, "patched hit");
  }
}

// End to end through ZiggyServer: the same query answered from a scan, an
// exact cache hit, a patched cache hit, and the stand-alone engine scores
// every view's rank-shift share identically (the share is a function of
// the rank-shift components alone).
TEST(RankShiftTest, ServerSketchSourcesAgreeOnRankShiftScores) {
  const Table table = MakeRankTable(8);
  ServeOptions options;
  options.session.novelty = SessionOptions::NoveltyPolicy::kOff;
  auto server = ZiggyServer::Create(table, options).ValueOrDie();
  const std::string query = "cont > 0.0";
  const std::string neighbour = "cont > 0.05";  // a few rows fewer

  auto warmup = server->Characterize(server->OpenSession(), neighbour);
  ASSERT_TRUE(warmup.ok());
  EXPECT_EQ(warmup->sketch_source, SketchSource::kScan);
  auto patched = server->Characterize(server->OpenSession(), query);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(patched->sketch_source, SketchSource::kCachePatched);
  auto exact = server->Characterize(server->OpenSession(), query);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->sketch_source, SketchSource::kCacheExact);

  auto cold = ZiggyServer::Create(table, options).ValueOrDie();
  auto scanned = cold->Characterize(cold->OpenSession(), query);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(scanned->sketch_source, SketchSource::kScan);

  auto engine = ZiggyEngine::Create(table).ValueOrDie();
  auto local = engine.CharacterizeQuery(query);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->sketch_source, SketchSource::kEngineScan);

  constexpr size_t kRank = static_cast<size_t>(ComponentKind::kRankShift);
  size_t compared = 0;
  for (const Characterization* other : {&*patched, &*exact, &*local}) {
    for (const CharacterizedView& want : scanned->views) {
      for (const CharacterizedView& got : other->views) {
        if (got.view.columns != want.view.columns) continue;
        EXPECT_EQ(got.view.score.count_per_kind[kRank],
                  want.view.score.count_per_kind[kRank]);
        EXPECT_EQ(Bits(got.view.score.per_kind[kRank]),
                  Bits(want.view.score.per_kind[kRank]));
        compared += want.view.score.count_per_kind[kRank] > 0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace ziggy
