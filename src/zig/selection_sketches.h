// SelectionSketches: all mergeable statistics of one side of a selection
// (the "inside" of paper Figure 2).
//
// Two accumulation paths exist:
//  * Columnar blocked scan (AccumulateColumns / Build): the selection
//    bitmap is decoded once per cache-sized block into a row-index vector,
//    then every column (and tracked pair) is scanned contiguously over
//    that vector — column-at-a-time, branch-light inner loops, one
//    type dispatch per column per block instead of one per cell. This is
//    the hot path for full preparation scans and parallelizes by
//    word-aligned bitmap ranges with per-thread partials merged in
//    deterministic order (Merge).
//  * Row-at-a-time AddRow/RemoveRow: kept exclusively for the incremental
//    delta path, where consecutive exploration queries differ in few rows
//    and per-row patching beats any rescan.
//
// Every field supports exact subtraction, which enables two optimizations:
//  * the outside side is derived as (global profile − inside) without a
//    second scan (DeriveAsComplement), and
//  * a cached inside state can be *updated* to a similar new selection by
//    adding/removing only the rows in the symmetric difference.

#ifndef ZIGGY_ZIG_SELECTION_SKETCHES_H_
#define ZIGGY_ZIG_SELECTION_SKETCHES_H_

#include <cstdint>
#include <vector>

#include "common/binary_io.h"
#include "stats/descriptive.h"
#include "storage/selection.h"
#include "storage/table.h"
#include "zig/profile.h"

namespace ziggy {

/// \brief Per-side accumulation state for component construction.
class SelectionSketches {
 public:
  /// Default rows per accumulation block (~32 KiB of row indices; the
  /// decoded block plus one column's touched cells stay cache-resident).
  static constexpr size_t kDefaultBlockRows = 4096;

  SelectionSketches() = default;

  /// Allocates zeroed sketches shaped after (table, profile).
  void InitShapes(const Table& table, const TableProfile& profile);

  /// \name Columnar blocked path (full scans).
  /// @{

  /// Accumulates every selected row, column-at-a-time in blocks of
  /// `block_rows` (0 = kDefaultBlockRows). Single-threaded and
  /// bit-identical to calling AddRow for each selected row in ascending
  /// order: each accumulator sees values in exactly that order.
  void AccumulateColumns(const Table& table, const TableProfile& profile,
                         const Selection& selection, size_t block_rows = 0);

  /// AccumulateColumns restricted to bitmap words [word_begin, word_end) —
  /// the unit of parallel partitioning.
  void AccumulateWordRange(const Table& table, const TableProfile& profile,
                           const Selection& selection, size_t word_begin,
                           size_t word_end, size_t block_rows = 0);

  /// Merges another sketch set of identical shape (element-wise sums).
  /// Used to combine per-thread partials; integer statistics are exact,
  /// floating-point sums may differ from the sequential order by ULPs.
  void Merge(const SelectionSketches& other);

  /// One-call construction: InitShapes + accumulation of `selection`,
  /// parallelized over word-aligned bitmap ranges when num_threads > 1
  /// (0 = one thread per core). Deterministic for a fixed thread count.
  static SelectionSketches Build(const Table& table, const TableProfile& profile,
                                 const Selection& selection, size_t num_threads = 1,
                                 size_t block_rows = 0);
  /// @}

  /// \name Row-at-a-time path (incremental deltas).
  /// @{

  /// Accumulates row `r` of the table.
  void AddRow(const Table& table, const TableProfile& profile, size_t r);

  /// Removes a previously accumulated row (exact inverse of AddRow).
  void RemoveRow(const Table& table, const TableProfile& profile, size_t r);
  /// @}

  /// Rebuilds this state as (profile global − other).
  void DeriveAsComplement(const TableProfile& profile, const SelectionSketches& other);

  /// \name Accumulated statistics (indexing mirrors TableProfile).
  /// @{
  const MomentSketch& column_sketch(size_t col) const { return column_sketches_[col]; }
  const std::vector<int64_t>& category_counts(size_t col) const {
    return category_counts_[col];
  }
  const PairMomentSketch& numeric_pair_sketch(size_t idx) const {
    return numeric_pair_sketches_[idx];
  }
  const std::vector<MomentSketch>& mixed_pair_groups(size_t idx) const {
    return mixed_pair_groups_[idx];
  }
  const std::vector<int64_t>& categorical_pair_table(size_t idx) const {
    return categorical_pair_tables_[idx];
  }
  /// Histogram counts of numeric column `col` (profile-aligned bins).
  const std::vector<int64_t>& histogram(size_t col) const { return histograms_[col]; }
  /// @}

  /// Approximate heap footprint (used to budget the engine's query cache).
  size_t MemoryUsageBytes() const;

  /// \name Persistence (persist/sketch_codec.cc — the store's warm-cache
  /// file). Only the accumulated statistics travel; the scan scratch and
  /// binners are rebuilt by InitShapes on load.
  /// @{

  /// Appends the accumulated statistics to `out` (binary_io framing).
  void SerializeTo(std::string* out) const;

  /// Restores the statistics from a payload written by SerializeTo. The
  /// sketches must already be shaped via InitShapes against the same
  /// (table, profile); any shape disagreement fails cleanly — a persisted
  /// sketch can never be installed against a profile it was not built for.
  Status DeserializeFrom(ByteReader* reader);

  /// Exact equality of every accumulated statistic (round-trip tests).
  bool Equals(const SelectionSketches& other) const;
  /// @}

 private:
  template <int Sign>
  void ApplyRow(const Table& table, const TableProfile& profile, size_t r);

  /// Column-at-a-time accumulation of one decoded block of selected rows.
  void AccumulateRowBlock(const Table& table, const TableProfile& profile,
                          const uint32_t* rows, size_t n);

  std::vector<MomentSketch> column_sketches_;
  std::vector<std::vector<int64_t>> category_counts_;
  std::vector<PairMomentSketch> numeric_pair_sketches_;
  std::vector<std::vector<MomentSketch>> mixed_pair_groups_;
  std::vector<std::vector<int64_t>> categorical_pair_tables_;
  std::vector<std::vector<int64_t>> histograms_;
  // Per-column binners precomputed in InitShapes: the per-cell histogram
  // cost is one multiply instead of two divisions, on both scan paths.
  std::vector<HistogramBinner> binners_;
  // Columnar-scan scratch: per column, how many tracked pairs reference it
  // (computed in InitShapes), and the dense per-block gather buffers for
  // referenced columns (allocated lazily by AccumulateWordRange; unused by
  // the row-at-a-time path).
  std::vector<uint32_t> pair_use_count_;
  std::vector<std::vector<double>> num_scratch_;
  std::vector<std::vector<CategoryCode>> code_scratch_;
};

}  // namespace ziggy

#endif  // ZIGGY_ZIG_SELECTION_SKETCHES_H_
