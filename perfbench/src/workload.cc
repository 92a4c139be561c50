#include "workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "data/synthetic.h"
#include "query/parser.h"
#include "query/simplify.h"
#include "storage/csv.h"

namespace perfbench {

using ziggy::Result;
using ziggy::Selection;
using ziggy::Status;
using ziggy::Table;

namespace {

constexpr size_t kReaders = 4;
constexpr size_t kIngestReaders = 3;
constexpr size_t kBatchRows = 8;
/// One APPEND every 750 ms: a checkpoint-on-append that persists a full
/// sketch cache takes ~0.4 s here, and an open-loop writer above the
/// daemon's capacity would only measure its growing backlog.
constexpr double kAppendIntervalMs = 750.0;
/// APPEND batches the traced replay applies in-process on the workloads
/// without a writer, so every workload measures the append layers.
constexpr size_t kProbeBatches = 3;
/// In the first half of the schedule, every kRangeBatchPeriod-th batch
/// carries one value above its column's running maximum, so the append
/// path re-bins and flushes the cache. None in the second half: the cache
/// refills to its steady working set before the last checkpoints, so what
/// they persist does not depend on how far a refill got.
constexpr size_t kRangeBatchPeriod = 4;
/// Columns the refinement chains walk on; their thresholds and bands sit
/// on a grid of kGridSteps quantiles, which bounds the distinct
/// selections (and so the sketch-cache working set) of refine traffic.
constexpr size_t kChainColumns = 6;
constexpr int kGridSteps = 20;

std::string FormatValue(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Writes `table` rows [begin, end) as CSV with shortest round-trip
/// numbers, so the daemon parses back exactly the generated values.
/// Returns the bytes written.
Result<uint64_t> WriteCsv(const Table& table, const std::vector<size_t>& rows,
                          const std::string& path) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += ',';
    out += table.column(c).name();
  }
  out += '\n';
  for (const size_t r : rows) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      const ziggy::Column& col = table.column(c);
      if (col.is_numeric()) {
        out += FormatValue(col.numeric_data()[r]);
      } else {
        out += col.dictionary()[static_cast<size_t>(col.codes()[r])];
      }
    }
    out += '\n';
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  file.close();
  if (!file.good()) return Status::IOError("cannot write " + path);
  return static_cast<uint64_t>(out.size());
}

/// The OECD analogue of data/synthetic.h (6823 x 519) with values kept to
/// three decimals, as survey indicators are published.
ziggy::SyntheticSpec OecdShapedSpec(uint64_t seed) {
  ziggy::SyntheticSpec spec;
  spec.num_rows = 6823;
  spec.planted_fraction = 0.05;
  spec.seed = seed;
  spec.driver_name = "patent_intensity";
  spec.themes.push_back({"rnd_spending", 4, 0.85, 1.5, 0.9, 0.0});
  spec.themes.push_back({"tertiary_educ", 4, 0.8, 1.1, 1.0, 0.0});
  spec.themes.push_back({"urbanization", 3, 0.75, 0.8, 1.0, 0.3});
  for (size_t t = 0; t < 34; ++t) {
    spec.themes.push_back(
        {"indicator" + std::to_string(t), 4, 0.7, 0.0, 1.0, 0.0});
  }
  spec.num_noise_columns = 365;
  spec.num_categorical = 6;
  spec.num_shifted_categorical = 2;
  spec.categorical_cardinality = 12;
  spec.value_decimals = 3;
  return spec;
}

std::vector<size_t> NumericColumns(const Table& table) {
  std::vector<size_t> out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).is_numeric()) out.push_back(c);
  }
  return out;
}

/// Quantile lookups over sorted copies of the columns queries refer to.
class Quantiles {
 public:
  explicit Quantiles(const Table& table) : table_(&table) {}

  double At(size_t col, double q) {
    auto it = sorted_.find(col);
    if (it == sorted_.end()) {
      std::vector<double> values = table_->column(col).numeric_data();
      std::sort(values.begin(), values.end());
      it = sorted_.emplace(col, std::move(values)).first;
    }
    const std::vector<double>& v = it->second;
    const double pos = std::clamp(q, 0.0, 1.0) *
                       static_cast<double>(v.size() - 1);
    return v[static_cast<size_t>(std::lround(pos))];
  }

 private:
  const Table* table_;
  std::unordered_map<size_t, std::vector<double>> sorted_;
};

std::string BandQuery(const Table& table, Quantiles* q, size_t col, double lo,
                      double hi) {
  return table.column(col).name() + " BETWEEN " + FormatValue(q->At(col, lo)) +
         " AND " + FormatValue(q->At(col, hi));
}

/// Interns query texts and records their per-generation inside counts.
/// Rejects (returns false for) a predicate that selects no row or every
/// row of some generation: the daemon answers those with an error, and a
/// clean run has none by construction.
class QueryBook {
 public:
  QueryBook(WorkloadPlan* plan, const Table& eval_table)
      : plan_(plan), eval_table_(&eval_table) {}

  Result<bool> Add(const std::string& text, size_t* index) {
    if (auto it = index_.find(text); it != index_.end()) {
      *index = it->second;
      return true;
    }
    ZIGGY_ASSIGN_OR_RETURN(ziggy::ExprPtr expr, ziggy::ParseQuery(text));
    expr = ziggy::SimplifyPredicate(std::move(expr));
    ZIGGY_ASSIGN_OR_RETURN(Selection selection, expr->Evaluate(*eval_table_));
    std::vector<int64_t> counts;
    for (const int64_t rows : plan_->generation_rows) {
      const int64_t inside =
          CountPrefix(selection, static_cast<size_t>(rows));
      if (inside == 0 || inside == rows) return false;
      counts.push_back(inside);
    }
    *index = plan_->queries.size();
    plan_->queries.push_back(text);
    plan_->inside_counts.push_back(std::move(counts));
    index_.emplace(text, *index);
    return true;
  }

 private:
  WorkloadPlan* plan_;
  const Table* eval_table_;
  std::unordered_map<std::string, size_t> index_;
};

/// explore_oecd: every request a distinct quantile band (5-40% of rows)
/// on a column no recent request used, so no cache tier can serve it.
Status MakeExploreStreams(WorkloadPlan* plan, const Table& table,
                          ziggy::Rng* rng, size_t per_client) {
  Quantiles quantiles(table);
  QueryBook book(plan, table);
  std::vector<size_t> columns = NumericColumns(table);
  for (size_t i = columns.size(); i > 1; --i) {
    std::swap(columns[i - 1], columns[static_cast<size_t>(rng->UniformInt(
                                  0, static_cast<int64_t>(i) - 1))]);
  }
  plan->streams.assign(kReaders, {});
  // Band widths and positions follow additive-recurrence (golden ratio)
  // sequences from seeded offsets rather than independent draws: each
  // run's few hundred requests then cover the 5-40% range evenly, so the
  // latency percentiles do not move with how one seed's draws clumped.
  const double width_offset = rng->Uniform();
  const double position_offset = rng->Uniform();
  const auto frac = [](double x) { return x - std::floor(x); };
  size_t next = 0;
  for (size_t i = 0; i < per_client; ++i) {
    for (size_t c = 0; c < kReaders; ++c, ++next) {
      const size_t col = columns[next % columns.size()];
      size_t index = 0;
      for (size_t attempt = 0;; ++attempt) {
        const auto k = static_cast<double>(next + attempt * 7919);
        const double width =
            0.05 + 0.35 * frac(width_offset + k * 0.6180339887498949);
        const double lo =
            (1.0 - width) * frac(position_offset + k * 0.7548776662466927);
        ZIGGY_ASSIGN_OR_RETURN(
            const bool ok,
            book.Add(BandQuery(table, &quantiles, col, lo, lo + width),
                     &index));
        if (ok) break;
      }
      plan->streams[c].push_back({ziggy::Verb::kCharacterize, index});
    }
  }
  return Status::OK();
}

/// One session's refinement chain: a threshold or a band on one column,
/// drifting one grid step at a time.
struct Chain {
  size_t column = 0;
  bool band = false;
  int width = 2;  ///< band width in grid steps
  int step = 0;   ///< threshold / band start, in grid steps
};

/// refine_crime (and the readers of ingest_crime): sessions walk
/// refinement chains and revisit their own and other sessions' recent
/// queries. CHARACTERIZE and VIEWS are mixed.
Status MakeRefineStreams(WorkloadPlan* plan, const Table& table,
                         const Table& eval_table, ziggy::Rng* rng,
                         size_t readers, size_t per_client) {
  Quantiles quantiles(table);
  QueryBook book(plan, eval_table);
  std::vector<size_t> pool = NumericColumns(table);
  for (size_t i = 0; i < kChainColumns && i < pool.size(); ++i) {
    std::swap(pool[i], pool[static_cast<size_t>(rng->UniformInt(
                           static_cast<int64_t>(i),
                           static_cast<int64_t>(pool.size()) - 1))]);
  }
  pool.resize(std::min(kChainColumns, pool.size()));

  const auto new_chain = [&] {
    Chain chain;
    chain.column = pool[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    chain.band = rng->Bernoulli(0.5);
    chain.width = rng->Bernoulli(0.5) ? 2 : 4;
    chain.step = chain.band
                     ? static_cast<int>(
                           rng->UniformInt(0, kGridSteps - chain.width))
                     : static_cast<int>(rng->UniformInt(1, kGridSteps - 1));
    return chain;
  };
  const auto chain_query = [&](const Chain& chain) {
    const double lo = chain.step / static_cast<double>(kGridSteps);
    if (chain.band) {
      const double hi = (chain.step + chain.width) /
                        static_cast<double>(kGridSteps);
      return BandQuery(table, &quantiles, chain.column, lo, hi);
    }
    return table.column(chain.column).name() + " > " +
           FormatValue(quantiles.At(chain.column, lo));
  };
  // Recency skew of revisits: how far back from the newest entry.
  const auto pick_recent = [&](const std::vector<size_t>& history) {
    const auto back = static_cast<size_t>(rng->Exponential(1.0 / 8.0));
    return history[history.size() - 1 - std::min(back, history.size() - 1)];
  };

  std::vector<Chain> chains(readers);
  for (Chain& chain : chains) chain = new_chain();
  std::vector<std::vector<size_t>> history(readers);
  plan->streams.assign(readers, {});
  for (size_t i = 0; i < per_client; ++i) {
    for (size_t c = 0; c < readers; ++c) {
      const double action = rng->Uniform();
      const size_t other =
          (c + 1 + static_cast<size_t>(rng->UniformInt(
                       0, static_cast<int64_t>(readers) - 2))) %
          readers;
      size_t index = 0;
      if (action < 0.35 && !history[c].empty()) {
        index = pick_recent(history[c]);
      } else if (action < 0.55 && !history[other].empty()) {
        index = pick_recent(history[other]);
      } else {
        Chain& chain = chains[c];
        if (rng->Bernoulli(0.1)) {
          chain = new_chain();
        } else {
          const int lo = chain.band ? 0 : 1;
          const int hi = chain.band ? kGridSteps - chain.width : kGridSteps - 1;
          chain.step += rng->Bernoulli(0.5) ? 1 : -1;
          if (chain.step < lo) chain.step = lo + 1;
          if (chain.step > hi) chain.step = hi - 1;
        }
        for (;;) {
          ZIGGY_ASSIGN_OR_RETURN(const bool ok,
                                 book.Add(chain_query(chain), &index));
          if (ok) break;
          chain = new_chain();
        }
      }
      history[c].push_back(index);
      const ziggy::Verb verb = rng->Bernoulli(0.3) ? ziggy::Verb::kViews
                                                   : ziggy::Verb::kCharacterize;
      plan->streams[c].push_back({verb, index});
    }
  }
  return Status::OK();
}

/// APPEND batches of rows sampled from `base`, written as CSV. With
/// `served` (ingest_crime's writer sends them), some batches in the first
/// half push one column past its maximum, and `*served` (the base table on
/// entry) grows by each batch as the daemon will parse it, one generation
/// per batch. Otherwise they are probe batches, appended only in-process
/// by the traced replay.
Status MakeBatches(WorkloadPlan* plan, const Table& base, ziggy::Rng* rng,
                   size_t count, const std::string& dir, Table* served) {
  const std::vector<size_t> numeric = NumericColumns(base);
  std::vector<double> running_max(base.num_columns(), 0.0);
  for (const size_t c : numeric) {
    const std::vector<double>& v = base.column(c).numeric_data();
    running_max[c] = *std::max_element(v.begin(), v.end());
  }
  for (size_t b = 0; b < count; ++b) {
    std::vector<size_t> rows(kBatchRows);
    for (size_t& r : rows) {
      r = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(base.num_rows()) - 1));
    }
    // Sampled rows as a standalone table, so one cell can be edited.
    std::vector<ziggy::Column> columns;
    for (size_t c = 0; c < base.num_columns(); ++c) {
      const ziggy::Column& src = base.column(c);
      if (src.is_numeric()) {
        std::vector<double> values;
        for (const size_t r : rows) values.push_back(src.numeric_data()[r]);
        columns.push_back(ziggy::Column::FromNumeric(src.name(), values));
      } else {
        std::vector<std::string> labels;
        for (const size_t r : rows) {
          labels.push_back(
              src.dictionary()[static_cast<size_t>(src.codes()[r])]);
        }
        columns.push_back(ziggy::Column::FromStrings(src.name(), labels));
      }
    }
    if (served != nullptr && b % kRangeBatchPeriod == kRangeBatchPeriod / 2 &&
        2 * b < count) {
      const size_t c = numeric[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(numeric.size()) - 1))];
      running_max[c] = std::abs(running_max[c]) * 1.25 + 1.0;
      std::vector<double> values = columns[c].numeric_data();
      values[0] = running_max[c];
      columns[c] = ziggy::Column::FromNumeric(base.column(c).name(), values);
    }
    ZIGGY_ASSIGN_OR_RETURN(Table batch, Table::FromColumns(std::move(columns)));
    std::vector<size_t> all(batch.num_rows());
    std::iota(all.begin(), all.end(), size_t{0});
    const std::string path = dir + "/batch_" + std::to_string(b) + ".csv";
    ZIGGY_ASSIGN_OR_RETURN(const uint64_t bytes, WriteCsv(batch, all, path));
    plan->batch_paths.push_back(path);
    plan->batch_bytes += bytes;
    if (served != nullptr) {
      // Grow the local copy from the file the daemon will read.
      ZIGGY_ASSIGN_OR_RETURN(Table parsed, ziggy::ReadCsvFile(path));
      ZIGGY_ASSIGN_OR_RETURN(*served, served->WithAppendedRows(parsed));
      plan->generation_rows.push_back(
          static_cast<int64_t>(served->num_rows()));
    }
  }
  return Status::OK();
}

}  // namespace

bool IsKnownWorkload(const std::string& name) {
  return name == "explore_oecd" || name == "refine_crime" ||
         name == "ingest_crime";
}

int64_t CountPrefix(const Selection& selection, size_t rows) {
  const size_t full_words = rows / Selection::kWordBits;
  int64_t count =
      static_cast<int64_t>(selection.CountWordRange(0, full_words));
  for (size_t r = full_words * Selection::kWordBits; r < rows; ++r) {
    if (selection.Contains(r)) ++count;
  }
  return count;
}

Result<WorkloadPlan> WriteWorkloadTable(const std::string& workload,
                                        uint64_t seed,
                                        const std::string& dir) {
  if (!IsKnownWorkload(workload)) {
    return Status::InvalidArgument("unknown workload: " + workload);
  }
  WorkloadPlan plan;
  plan.workload = workload;
  const bool oecd = workload == "explore_oecd";
  plan.table_name = oecd ? "oecd" : "crime";
  ZIGGY_ASSIGN_OR_RETURN(
      ziggy::SyntheticDataset data,
      oecd ? ziggy::GenerateSynthetic(OecdShapedSpec(seed))
           : ziggy::MakeCrimeDataset(seed, /*value_decimals=*/3));
  plan.csv_path = dir + "/" + plan.table_name + ".csv";
  std::vector<size_t> all(data.table.num_rows());
  std::iota(all.begin(), all.end(), size_t{0});
  ZIGGY_ASSIGN_OR_RETURN(plan.csv_bytes,
                         WriteCsv(data.table, all, plan.csv_path));
  return plan;
}

Status PlanTraffic(WorkloadPlan* plan, const Table& table, uint64_t seed,
                   double seconds, double warmup_seconds,
                   const std::string& dir) {
  plan->generation_rows = {static_cast<int64_t>(table.num_rows())};
  // Independent generator streams per concern, so resizing one (say, a
  // longer run) leaves the others unchanged.
  const double stream_seconds = seconds + warmup_seconds;
  ziggy::Rng query_rng(seed * 1000003 + 1);
  ziggy::Rng batch_rng(seed * 1000003 + 2);
  if (plan->workload == "explore_oecd") {
    plan->view_checks = 40;
    plan->replay_requests = 48;
    ZIGGY_RETURN_NOT_OK(
        MakeExploreStreams(plan, table, &query_rng,
                           static_cast<size_t>(60 + 30 * stream_seconds)));
    return MakeBatches(plan, table, &batch_rng, kProbeBatches, dir, nullptr);
  }
  const auto per_client = static_cast<size_t>(2000 + 2000 * stream_seconds);
  if (plan->workload == "refine_crime") {
    plan->view_checks = 160;
    plan->replay_requests = 500;
    ZIGGY_RETURN_NOT_OK(MakeRefineStreams(plan, table, table, &query_rng,
                                          kReaders, per_client));
    return MakeBatches(plan, table, &batch_rng, kProbeBatches, dir, nullptr);
  }
  plan->checkpoint_on_append = true;
  plan->replay_requests = 500;
  plan->append_interval_ms = kAppendIntervalMs;
  const auto batches =
      static_cast<size_t>(std::ceil(seconds * 1000.0 / kAppendIntervalMs));
  Table final_table = table;
  ZIGGY_RETURN_NOT_OK(
      MakeBatches(plan, table, &batch_rng, batches, dir, &final_table));
  return MakeRefineStreams(plan, table, final_table, &query_rng,
                           kIngestReaders, per_client);
}

}  // namespace perfbench
