#include "zig/selection_sketches.h"

#include <algorithm>

#include "common/logging.h"
#include "common/parallel.h"
#include "storage/types.h"

namespace ziggy {

void SelectionSketches::InitShapes(const Table& table, const TableProfile& profile) {
  const size_t m = table.num_columns();
  column_sketches_.assign(m, MomentSketch{});
  category_counts_.assign(m, {});
  histograms_.assign(m, {});
  binners_.assign(m, HistogramBinner{});
  for (size_t c = 0; c < m; ++c) {
    const Column& col = table.column(c);
    if (col.is_categorical()) {
      category_counts_[c].assign(col.cardinality(), 0);
    } else if (!profile.HistogramCountsOf(c).empty()) {
      const size_t bins = profile.HistogramCountsOf(c).size();
      histograms_[c].assign(bins, 0);
      const auto [lo, hi] = profile.ColumnRange(c);
      binners_[c] = HistogramBinner::Make(lo, hi, bins);
    }
  }
  numeric_pair_sketches_.assign(profile.tracked_numeric_pairs().size(),
                                PairMomentSketch{});
  mixed_pair_groups_.resize(profile.tracked_mixed_pairs().size());
  for (size_t i = 0; i < profile.tracked_mixed_pairs().size(); ++i) {
    mixed_pair_groups_[i].assign(profile.MixedPairGroups(i).groups.size(),
                                 MomentSketch{});
  }
  categorical_pair_tables_.resize(profile.tracked_categorical_pairs().size());
  for (size_t i = 0; i < profile.tracked_categorical_pairs().size(); ++i) {
    categorical_pair_tables_[i].assign(profile.CategoricalPairTable(i).size(), 0);
  }
  pair_use_count_.assign(m, 0);
  num_scratch_.assign(m, {});
  code_scratch_.assign(m, {});
  for (const auto& [a, b] : profile.tracked_numeric_pairs()) {
    ++pair_use_count_[a];
    ++pair_use_count_[b];
  }
  for (const auto& [a, b] : profile.tracked_mixed_pairs()) {
    ++pair_use_count_[a];
    ++pair_use_count_[b];
  }
  for (const auto& [a, b] : profile.tracked_categorical_pairs()) {
    ++pair_use_count_[a];
    ++pair_use_count_[b];
  }
}

template <int Sign>
void SelectionSketches::ApplyRow(const Table& table, const TableProfile& profile,
                                 size_t r) {
  static_assert(Sign == 1 || Sign == -1);
  const size_t m = table.num_columns();
  for (size_t c = 0; c < m; ++c) {
    const Column& col = table.column(c);
    if (col.is_numeric()) {
      const double v = col.numeric_data()[r];
      if (IsNullNumeric(v)) continue;
      if constexpr (Sign == 1) {
        column_sketches_[c].Add(v);
      } else {
        column_sketches_[c].Remove(v);
      }
      if (!histograms_[c].empty()) {
        histograms_[c][binners_[c].BinOf(v)] += Sign;
      }
    } else {
      const CategoryCode code = col.codes()[r];
      if (code != kNullCategory) {
        category_counts_[c][static_cast<size_t>(code)] += Sign;
      }
    }
  }
  const auto& npairs = profile.tracked_numeric_pairs();
  for (size_t i = 0; i < npairs.size(); ++i) {
    const double x = table.column(npairs[i].first).numeric_data()[r];
    const double y = table.column(npairs[i].second).numeric_data()[r];
    if (IsNullNumeric(x) || IsNullNumeric(y)) continue;
    if constexpr (Sign == 1) {
      numeric_pair_sketches_[i].Add(x, y);
    } else {
      numeric_pair_sketches_[i].Remove(x, y);
    }
  }
  const auto& mpairs = profile.tracked_mixed_pairs();
  for (size_t i = 0; i < mpairs.size(); ++i) {
    const CategoryCode code = table.column(mpairs[i].first).codes()[r];
    const double x = table.column(mpairs[i].second).numeric_data()[r];
    if (code == kNullCategory || IsNullNumeric(x)) continue;
    if constexpr (Sign == 1) {
      mixed_pair_groups_[i][static_cast<size_t>(code)].Add(x);
    } else {
      mixed_pair_groups_[i][static_cast<size_t>(code)].Remove(x);
    }
  }
  const auto& cpairs = profile.tracked_categorical_pairs();
  for (size_t i = 0; i < cpairs.size(); ++i) {
    const CategoryCode ca = table.column(cpairs[i].first).codes()[r];
    const CategoryCode cb = table.column(cpairs[i].second).codes()[r];
    if (ca == kNullCategory || cb == kNullCategory) continue;
    const size_t kb = table.column(cpairs[i].second).cardinality();
    categorical_pair_tables_[i][static_cast<size_t>(ca) * kb +
                                static_cast<size_t>(cb)] += Sign;
  }
}

void SelectionSketches::AddRow(const Table& table, const TableProfile& profile,
                               size_t r) {
  ApplyRow<1>(table, profile, r);
}

void SelectionSketches::RemoveRow(const Table& table, const TableProfile& profile,
                                  size_t r) {
  ApplyRow<-1>(table, profile, r);
}

void SelectionSketches::AccumulateRowBlock(const Table& table,
                                           const TableProfile& profile,
                                           const uint32_t* rows, size_t n) {
  const size_t m = table.num_columns();
  // ---- Unary statistics, column-at-a-time --------------------------------
  // Columns referenced by tracked pairs are gathered once into a dense
  // per-block scratch buffer while their unary statistics accumulate; the
  // pair passes below then read dense L1-resident vectors instead of
  // re-gathering through the row-index indirection (each column feeds
  // several pairs on correlated tables). Accumulation order per field is
  // ascending rows, bit-identical to the row-at-a-time path.
  for (size_t c = 0; c < m; ++c) {
    const Column& col = table.column(c);
    double* scratch =
        pair_use_count_[c] > 0 && col.is_numeric() ? num_scratch_[c].data() : nullptr;
    if (col.is_numeric()) {
      const double* data = col.numeric_data().data();
      // Continue the member sketch's chains in registers: additions stay in
      // ascending row order across blocks, bit-identical to AddRow.
      MomentSketch& member = column_sketches_[c];
      double sum = member.sum;
      double sum_sq = member.sum_sq;
      int64_t cnt = member.count;
      if (histograms_[c].empty()) {
        for (size_t i = 0; i < n; ++i) {
          const double v = data[rows[i]];
          if (scratch != nullptr) scratch[i] = v;
          if (IsNullNumeric(v)) continue;
          ++cnt;
          sum += v;
          sum_sq += v * v;
        }
      } else {
        int64_t* hist = histograms_[c].data();
        const HistogramBinner binner = binners_[c];
        for (size_t i = 0; i < n; ++i) {
          const double v = data[rows[i]];
          if (scratch != nullptr) scratch[i] = v;
          if (IsNullNumeric(v)) continue;
          ++cnt;
          sum += v;
          sum_sq += v * v;
          ++hist[binner.BinOf(v)];
        }
      }
      member.count = cnt;
      member.sum = sum;
      member.sum_sq = sum_sq;
    } else {
      const CategoryCode* codes = col.codes().data();
      CategoryCode* cscratch =
          pair_use_count_[c] > 0 ? code_scratch_[c].data() : nullptr;
      int64_t* counts = category_counts_[c].data();
      for (size_t i = 0; i < n; ++i) {
        const CategoryCode code = codes[rows[i]];
        if (cscratch != nullptr) cscratch[i] = code;
        if (code != kNullCategory) ++counts[static_cast<size_t>(code)];
      }
    }
  }
  // ---- Numeric pair sketches (dense scratch reads) ------------------------
  const auto& npairs = profile.tracked_numeric_pairs();
  for (size_t p = 0; p < npairs.size(); ++p) {
    const double* x = num_scratch_[npairs[p].first].data();
    const double* y = num_scratch_[npairs[p].second].data();
    PairMomentSketch s = numeric_pair_sketches_[p];
    for (size_t i = 0; i < n; ++i) {
      if (!IsNullNumeric(x[i]) && !IsNullNumeric(y[i])) s.Add(x[i], y[i]);
    }
    numeric_pair_sketches_[p] = s;
  }
  // ---- Mixed pair grouped moments ----------------------------------------
  const auto& mpairs = profile.tracked_mixed_pairs();
  for (size_t p = 0; p < mpairs.size(); ++p) {
    const CategoryCode* codes = code_scratch_[mpairs[p].first].data();
    const double* x = num_scratch_[mpairs[p].second].data();
    MomentSketch* groups = mixed_pair_groups_[p].data();
    for (size_t i = 0; i < n; ++i) {
      const CategoryCode code = codes[i];
      if (code != kNullCategory && !IsNullNumeric(x[i])) {
        groups[static_cast<size_t>(code)].Add(x[i]);
      }
    }
  }
  // ---- Categorical pair contingency tables -------------------------------
  const auto& cpairs = profile.tracked_categorical_pairs();
  for (size_t p = 0; p < cpairs.size(); ++p) {
    const CategoryCode* a = code_scratch_[cpairs[p].first].data();
    const CategoryCode* b = code_scratch_[cpairs[p].second].data();
    const size_t kb = table.column(cpairs[p].second).cardinality();
    int64_t* cells = categorical_pair_tables_[p].data();
    for (size_t i = 0; i < n; ++i) {
      const CategoryCode ca = a[i];
      const CategoryCode cb = b[i];
      if (ca != kNullCategory && cb != kNullCategory) {
        ++cells[static_cast<size_t>(ca) * kb + static_cast<size_t>(cb)];
      }
    }
  }
}

void SelectionSketches::AccumulateWordRange(const Table& table,
                                            const TableProfile& profile,
                                            const Selection& selection,
                                            size_t word_begin, size_t word_end,
                                            size_t block_rows) {
  if (block_rows == 0) block_rows = kDefaultBlockRows;
  const size_t block_words =
      std::max<size_t>(1, block_rows / Selection::kWordBits);
  const size_t capacity = block_words * Selection::kWordBits;
  // Dense gather buffers for pair-referenced columns, one block deep.
  for (size_t c = 0; c < pair_use_count_.size(); ++c) {
    if (pair_use_count_[c] == 0) continue;
    if (table.column(c).is_numeric()) {
      if (num_scratch_[c].size() < capacity) num_scratch_[c].resize(capacity);
    } else if (code_scratch_[c].size() < capacity) {
      code_scratch_[c].resize(capacity);
    }
  }
  std::vector<uint32_t> rows;
  rows.reserve(capacity);
  for (size_t w = word_begin; w < word_end; w += block_words) {
    const size_t we = std::min(w + block_words, word_end);
    rows.clear();
    selection.ForEachSetBitInWords(
        w, we, [&rows](size_t r) { rows.push_back(static_cast<uint32_t>(r)); });
    if (!rows.empty()) AccumulateRowBlock(table, profile, rows.data(), rows.size());
  }
}

void SelectionSketches::AccumulateColumns(const Table& table,
                                          const TableProfile& profile,
                                          const Selection& selection,
                                          size_t block_rows) {
  AccumulateWordRange(table, profile, selection, 0, selection.num_words(),
                      block_rows);
}

void SelectionSketches::Merge(const SelectionSketches& other) {
  ZIGGY_CHECK(column_sketches_.size() == other.column_sketches_.size());
  for (size_t c = 0; c < column_sketches_.size(); ++c) {
    column_sketches_[c].Merge(other.column_sketches_[c]);
    for (size_t k = 0; k < category_counts_[c].size(); ++k) {
      category_counts_[c][k] += other.category_counts_[c][k];
    }
    for (size_t k = 0; k < histograms_[c].size(); ++k) {
      histograms_[c][k] += other.histograms_[c][k];
    }
  }
  for (size_t i = 0; i < numeric_pair_sketches_.size(); ++i) {
    numeric_pair_sketches_[i].Merge(other.numeric_pair_sketches_[i]);
  }
  for (size_t i = 0; i < mixed_pair_groups_.size(); ++i) {
    for (size_t g = 0; g < mixed_pair_groups_[i].size(); ++g) {
      mixed_pair_groups_[i][g].Merge(other.mixed_pair_groups_[i][g]);
    }
  }
  for (size_t i = 0; i < categorical_pair_tables_.size(); ++i) {
    for (size_t k = 0; k < categorical_pair_tables_[i].size(); ++k) {
      categorical_pair_tables_[i][k] += other.categorical_pair_tables_[i][k];
    }
  }
}

SelectionSketches SelectionSketches::Build(const Table& table,
                                           const TableProfile& profile,
                                           const Selection& selection,
                                           size_t num_threads, size_t block_rows) {
  SelectionSketches out;
  out.InitShapes(table, profile);
  const size_t threads = EffectiveThreads(num_threads);
  const size_t num_words = selection.num_words();
  if (threads <= 1 || num_words < 2) {
    out.AccumulateColumns(table, profile, selection, block_rows);
    return out;
  }
  // Per-thread partials over deterministic word-aligned ranges, merged in
  // range order so the result is reproducible for a fixed thread count.
  const std::vector<TaskRange> ranges = PartitionTasks(num_words, threads);
  std::vector<SelectionSketches> partials(ranges.size());
  ParallelFor(threads, num_words,
              [&](TaskRange range, size_t worker) {
                SelectionSketches& part = partials[worker];
                part.InitShapes(table, profile);
                part.AccumulateWordRange(table, profile, selection, range.begin,
                                         range.end, block_rows);
              });
  for (SelectionSketches& part : partials) out.Merge(part);
  return out;
}

void SelectionSketches::DeriveAsComplement(const TableProfile& profile,
                                           const SelectionSketches& other) {
  const size_t m = profile.num_columns();
  for (size_t c = 0; c < m; ++c) {
    column_sketches_[c] = profile.ColumnSketch(c);
    column_sketches_[c].Subtract(other.column_sketches_[c]);
    if (!profile.CategoryCountsOf(c).empty()) {
      const auto& global = profile.CategoryCountsOf(c);
      for (size_t k = 0; k < global.size(); ++k) {
        category_counts_[c][k] = global[k] - other.category_counts_[c][k];
      }
    }
    if (!profile.HistogramCountsOf(c).empty()) {
      const auto& global = profile.HistogramCountsOf(c);
      for (size_t k = 0; k < global.size(); ++k) {
        histograms_[c][k] = global[k] - other.histograms_[c][k];
      }
    }
  }
  for (size_t i = 0; i < numeric_pair_sketches_.size(); ++i) {
    numeric_pair_sketches_[i] = profile.NumericPairSketch(static_cast<int64_t>(i));
    numeric_pair_sketches_[i].Subtract(other.numeric_pair_sketches_[i]);
  }
  for (size_t i = 0; i < mixed_pair_groups_.size(); ++i) {
    const auto& global = profile.MixedPairGroups(i).groups;
    for (size_t g = 0; g < global.size(); ++g) {
      mixed_pair_groups_[i][g] = global[g];
      mixed_pair_groups_[i][g].Subtract(other.mixed_pair_groups_[i][g]);
    }
  }
  for (size_t i = 0; i < categorical_pair_tables_.size(); ++i) {
    const auto& global = profile.CategoricalPairTable(i);
    for (size_t k = 0; k < global.size(); ++k) {
      categorical_pair_tables_[i][k] = global[k] - other.categorical_pair_tables_[i][k];
    }
  }
}

size_t SelectionSketches::MemoryUsageBytes() const {
  size_t bytes = column_sketches_.capacity() * sizeof(MomentSketch);
  for (const auto& v : category_counts_) bytes += v.capacity() * sizeof(int64_t);
  bytes += numeric_pair_sketches_.capacity() * sizeof(PairMomentSketch);
  for (const auto& v : mixed_pair_groups_) bytes += v.capacity() * sizeof(MomentSketch);
  for (const auto& v : categorical_pair_tables_) {
    bytes += v.capacity() * sizeof(int64_t);
  }
  for (const auto& v : histograms_) bytes += v.capacity() * sizeof(int64_t);
  bytes += binners_.capacity() * sizeof(HistogramBinner);
  return bytes;
}

}  // namespace ziggy
