// Component builder: Ziggy's Preparation stage (paper §3).
//
// Given a table, its shared TableProfile, and a query Selection, computes
// every Zig-Component (per column and per tracked pair). Three execution
// strategies exist:
//
//  * kSharedSketch (default, the full paper's optimization): one scan over
//    the *selected* rows builds the inside sketches; outside statistics are
//    derived by subtracting from the profile's global sketches. Cost is
//    O(|selection| * M) regardless of table size.
//  * kTwoScan (baseline): both sides are scanned explicitly. Cost is
//    O(N * M). Exists to quantify the sharing benefit (bench A1) and as a
//    numerical cross-check in tests.
//  * incremental (via Preparer): when consecutive exploration queries
//    overlap, the cached inside sketches of the previous query are patched
//    by adding/removing only the rows in the symmetric difference. Cost is
//    O(|S_prev XOR S_new| * M).
//
// Whatever the strategy, the rank-shift component costs one gather of the
// selected rows' profile midranks per numeric column, O(|selection| * M):
// its Mann-Whitney U is a rank sum, so the complement is never visited.
// The remaining assembly is O(M + tracked pairs), independent of N.

#ifndef ZIGGY_ZIG_COMPONENT_BUILDER_H_
#define ZIGGY_ZIG_COMPONENT_BUILDER_H_

#include <optional>

#include "common/result.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "zig/component_table.h"
#include "zig/profile.h"
#include "zig/selection_sketches.h"

namespace ziggy {

/// \brief How outside-of-selection statistics are obtained.
enum class PreparationMode {
  kSharedSketch,  ///< outside = global − inside (one scan)
  kTwoScan,       ///< outside scanned explicitly (two scans)
};

/// \brief Options for component construction.
struct ComponentBuildOptions {
  PreparationMode mode = PreparationMode::kSharedSketch;
  /// Components are skipped when either side has fewer rows than this
  /// (effect sizes on tiny samples are pure noise).
  int64_t min_side_rows = 3;
  /// Compute the rank-shift (Cliff's delta) component. Requires the
  /// profile to cache sort orders (and with them the midranks); costs one
  /// O(|selection|) midrank gather per numeric column per query.
  bool enable_rank_shift = true;
  /// Compute the distribution-shift (histogram TV) component. Requires
  /// profile histograms.
  bool enable_distribution_shift = true;
  /// Threads for the full-scan columnar accumulation (1 = sequential,
  /// 0 = one per hardware core). The incremental delta path is always
  /// sequential: deltas are tiny by construction.
  size_t num_threads = 1;
  /// Rows per accumulation block of the columnar scan (0 = default). Tune
  /// only for cache experiments; results are identical for any value.
  size_t block_size = 0;

  bool operator==(const ComponentBuildOptions&) const = default;
};

/// \brief Validates a (table, profile, selection) triple for
/// characterization: matching shapes, and a selection that is neither
/// empty nor the whole table (Ziggy characterizes a selection *against its
/// complement*, paper Figure 2). Shared by BuildComponents, the Preparer,
/// and the serving layer's cached-sketch path.
Status ValidateCharacterizationInput(const Table& table, const TableProfile& profile,
                                     const Selection& selection);

/// \brief Builds the ComponentTable for one query.
///
/// Fails when the selection is empty or covers the whole table: Ziggy
/// characterizes a selection *against its complement*, so both sides must be
/// non-empty (paper Figure 2).
Result<ComponentTable> BuildComponents(const Table& table, const TableProfile& profile,
                                       const Selection& selection,
                                       const ComponentBuildOptions& options = {});

/// \brief Core assembly: derives/accepts both sides and emits components.
/// `selection` is still needed for the rank-shift gather. Exposed for the
/// Preparer and for tests.
Result<ComponentTable> BuildComponentsFromSketches(
    const Table& table, const TableProfile& profile, const Selection& selection,
    const SelectionSketches& inside, const SelectionSketches& outside,
    const ComponentBuildOptions& options);

/// \brief Stateful preparation helper that exploits the overlap between
/// consecutive exploration queries (users refine predicates; row sets
/// change little). Chooses, per query, the cheaper of:
///   full scan     O(|S| * M)
///   delta update  O(|S_prev XOR S| * M)
class Preparer {
 public:
  enum class Strategy { kFullScan, kIncremental, kTwoScan };

  /// `table` and `profile` must outlive the Preparer.
  Preparer(const Table* table, const TableProfile* profile,
           ComponentBuildOptions options);

  /// Builds the component table for `selection`, reusing cached state when
  /// profitable.
  Result<ComponentTable> Prepare(const Selection& selection);

  /// Strategy used by the most recent Prepare call.
  Strategy last_strategy() const { return last_strategy_; }
  /// Rows added+removed by the most recent incremental update (0 for full).
  size_t last_delta_rows() const { return last_delta_rows_; }

  /// Drops the cached state (e.g. after the table changed).
  void Reset();

 private:
  const Table* table_;
  const TableProfile* profile_;
  ComponentBuildOptions options_;
  std::optional<Selection> last_selection_;
  SelectionSketches last_inside_;
  Strategy last_strategy_ = Strategy::kFullScan;
  size_t last_delta_rows_ = 0;
};

}  // namespace ziggy

#endif  // ZIGGY_ZIG_COMPONENT_BUILDER_H_
