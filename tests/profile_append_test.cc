// TableProfile::ApplyAppend vs. a fresh Compute over the grown table.
//
// The serving layer's append path leans on a strong claim: everything the
// delta machinery reaches is updated *bit-identically* to recomputing from
// scratch (same summation chains, same sort order after the tiebreak and
// so the same midranks, same refreshed dependencies for tracked pairs).
// With the pair-tracking floor at 0 every pair is tracked, nothing is
// frozen, and the claim upgrades to full TableProfile::Equals — which these
// tests assert.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/table.h"
#include "storage/types.h"
#include "zig/profile.h"

namespace ziggy {
namespace {

// No NULLs: a mixed pair whose observation count crosses 2 mid-append
// would be tracked by a fresh Compute but is frozen by ApplyAppend (the
// one documented divergence class this fixture avoids).
Table MakeTable(size_t rows, uint64_t seed, double lo = -5.0, double hi = 5.0) {
  Rng rng(seed);
  std::vector<double> a(rows);
  std::vector<double> b(rows);
  std::vector<double> c(rows);
  std::vector<std::string> g(rows);
  std::vector<std::string> h(rows);
  const char* glabels[] = {"g0", "g1", "g2"};
  const char* hlabels[] = {"h0", "h1"};
  for (size_t i = 0; i < rows; ++i) {
    a[i] = rng.Uniform(lo, hi);
    b[i] = 0.7 * a[i] + rng.Uniform(-1.0, 1.0);
    c[i] = rng.Normal(0.0, 1.0);
    g[i] = glabels[rng.UniformInt(0, 2)];
    h[i] = hlabels[rng.UniformInt(0, 1)];
  }
  auto table = Table::FromColumns({
      Column::FromNumeric("a", std::move(a)),
      Column::FromNumeric("b", std::move(b)),
      Column::FromNumeric("c", std::move(c)),
      Column::FromStrings("g", g),
      Column::FromStrings("h", h),
  });
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

ProfileOptions TrackEverything() {
  ProfileOptions options;
  options.pair_dependency_floor = 0.0;  // nothing frozen: full equality holds
  options.histogram_bins = 8;
  options.cache_sort_orders = true;
  return options;
}

TEST(ProfileAppendTest, WithinRangeAppendEqualsFreshCompute) {
  const Table base = MakeTable(230, 1);
  // Re-sampled base rows: guaranteed inside every range and category set,
  // so this is the pure incremental path with no re-binning.
  Rng sample_rng(2);
  const Table tail = base.SampleRows(57, &sample_rng);
  auto grown = base.WithAppendedRows(tail);
  ASSERT_TRUE(grown.ok());

  auto incremental = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(incremental.ok());
  auto effects = incremental->ApplyAppend(*grown, base.num_rows());
  ASSERT_TRUE(effects.ok());
  EXPECT_EQ(effects->rows_appended, 57u);
  EXPECT_FALSE(effects->ranges_extended);
  EXPECT_FALSE(effects->categories_added);
  EXPECT_TRUE(effects->rebinned_columns.empty());
  EXPECT_FALSE(effects->invalidates_sketches());

  auto fresh = TableProfile::Compute(*grown, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(incremental->Equals(*fresh))
      << "incremental append diverged from full recompute";
}

TEST(ProfileAppendTest, RangeExtendingAppendRebinsAndStillMatches) {
  const Table base = MakeTable(190, 3);
  const Table tail = MakeTable(40, 4, -9.0, 9.0);  // extends every range
  auto grown = base.WithAppendedRows(tail);
  ASSERT_TRUE(grown.ok());

  auto incremental = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(incremental.ok());
  auto effects = incremental->ApplyAppend(*grown, base.num_rows());
  ASSERT_TRUE(effects.ok());
  EXPECT_TRUE(effects->ranges_extended);
  EXPECT_TRUE(effects->invalidates_sketches());
  EXPECT_FALSE(effects->rebinned_columns.empty());

  auto fresh = TableProfile::Compute(*grown, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(incremental->Equals(*fresh));
}

TEST(ProfileAppendTest, NewCategoryGrowsShapesAndMatches) {
  const Table base = MakeTable(150, 5);
  // Tail introduces an unseen label in column g.
  std::vector<double> a = {0.5, -0.5};
  std::vector<double> b = {0.1, 0.2};
  std::vector<double> c = {1.0, -1.0};
  auto tail = Table::FromColumns({
      Column::FromNumeric("a", std::move(a)),
      Column::FromNumeric("b", std::move(b)),
      Column::FromNumeric("c", std::move(c)),
      Column::FromStrings("g", {"g_new", "g0"}),
      Column::FromStrings("h", {"h1", "h0"}),
  });
  ASSERT_TRUE(tail.ok());
  auto grown = base.WithAppendedRows(*tail);
  ASSERT_TRUE(grown.ok());

  auto incremental = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(incremental.ok());
  auto effects = incremental->ApplyAppend(*grown, base.num_rows());
  ASSERT_TRUE(effects.ok());
  EXPECT_TRUE(effects->categories_added);
  EXPECT_TRUE(effects->invalidates_sketches());

  auto fresh = TableProfile::Compute(*grown, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(incremental->Equals(*fresh));
}

TEST(ProfileAppendTest, ChainedAppendsStayExact) {
  const Table base = MakeTable(128, 6);  // exactly two bitmap words
  auto profile = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(profile.ok());

  Table current = base;
  for (uint64_t step = 0; step < 4; ++step) {
    // 1-row and 63/64/65-row tails cross every word-boundary case.
    const size_t tail_rows = step == 0 ? 1 : 62 + step;
    const Table tail = MakeTable(tail_rows, 10 + step, -4.5, 4.5);
    auto grown = current.WithAppendedRows(tail);
    ASSERT_TRUE(grown.ok());
    auto effects = profile->ApplyAppend(*grown, current.num_rows());
    ASSERT_TRUE(effects.ok());
    current = std::move(*grown);
  }
  auto fresh = TableProfile::Compute(current, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(profile->Equals(*fresh));
}

// Doubled midrank from the definition: 2 * (#values below) + (#equal
// values, the row itself included) + 1; 0 for NULL.
std::vector<uint32_t> NaiveDoubledMidranks(const std::vector<double>& data) {
  std::vector<uint32_t> out(data.size(), 0);
  for (size_t r = 0; r < data.size(); ++r) {
    if (IsNullNumeric(data[r])) continue;
    uint32_t below = 0;
    uint32_t equal = 0;
    for (double v : data) {
      if (IsNullNumeric(v)) continue;
      below += v < data[r] ? 1 : 0;
      equal += v == data[r] ? 1 : 0;
    }
    out[r] = 2 * below + equal + 1;
  }
  return out;
}

TEST(ProfileAppendTest, TieHeavyAppendWithNullAndNewMinimumMatches) {
  // Values quantized to one decimal: long tie runs in every numeric column.
  Rng rng(17);
  const size_t rows = 150;
  std::vector<double> a(rows);
  std::vector<double> b(rows);
  std::vector<std::string> g(rows);
  const char* labels[] = {"g0", "g1", "g2"};
  for (size_t i = 0; i < rows; ++i) {
    a[i] = std::round(rng.Uniform(0.0, 2.0) * 10.0) / 10.0;
    b[i] = std::round((a[i] + rng.Uniform(-0.5, 0.5)) * 10.0) / 10.0;
    g[i] = labels[rng.UniformInt(0, 2)];
  }
  const std::vector<double> base_a = a;
  auto base = Table::FromColumns({Column::FromNumeric("a", a),
                                  Column::FromNumeric("b", b),
                                  Column::FromStrings("g", g)});
  ASSERT_TRUE(base.ok());
  // Tail: values equal to existing ones (joining tie runs at both ends
  // and in the middle), a NULL, and a new minimum of b.
  auto tail = Table::FromColumns({
      Column::FromNumeric("a", {base_a[0], base_a[1], NullNumeric(), 0.0,
                                2.0, base_a[2]}),
      Column::FromNumeric("b", {b[3], -3.0, b[4], b[4], b[5], b[0]}),
      Column::FromStrings("g", {"g1", "g0", "g2", "g1", "g0", "g2"}),
  });
  ASSERT_TRUE(tail.ok());
  auto grown = base->WithAppendedRows(*tail);
  ASSERT_TRUE(grown.ok());

  auto incremental = TableProfile::Compute(*base, TrackEverything());
  ASSERT_TRUE(incremental.ok());
  auto effects = incremental->ApplyAppend(*grown, base->num_rows());
  ASSERT_TRUE(effects.ok());
  EXPECT_TRUE(effects->ranges_extended);  // b's new minimum

  auto fresh = TableProfile::Compute(*grown, TrackEverything());
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(incremental->Equals(*fresh));
  for (size_t c : {size_t{0}, size_t{1}}) {
    EXPECT_EQ(incremental->DoubledMidranks(c),
              NaiveDoubledMidranks(grown->column(c).numeric_data()))
        << "column " << c;
  }
  EXPECT_EQ(incremental->DoubledMidranks(0)[base->num_rows() + 2], 0u);
  EXPECT_TRUE(incremental->DoubledMidranks(2).empty());  // categorical
}

TEST(ProfileAppendTest, RejectsMalformedAppends) {
  const Table base = MakeTable(64, 7);
  auto profile = TableProfile::Compute(base, TrackEverything());
  ASSERT_TRUE(profile.ok());
  // Fewer rows than the profile covers.
  EXPECT_FALSE(profile->ApplyAppend(base, 65).ok());
  // Column-count mismatch.
  auto narrow = Table::FromColumns({Column::FromNumeric("a", {1.0})});
  ASSERT_TRUE(narrow.ok());
  EXPECT_FALSE(profile->ApplyAppend(*narrow, 0).ok());
}

}  // namespace
}  // namespace ziggy
