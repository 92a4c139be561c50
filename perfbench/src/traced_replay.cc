#include "traced_replay.h"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "engine/json.h"
#include "engine/report.h"
#include "persist/store.h"
#include "query/parser.h"
#include "query/simplify.h"
#include "storage/csv.h"
#include "views/view_search.h"
#include "zig/component_builder.h"
#include "zig/selection_sketches.h"

namespace perfbench {

using ziggy::Result;
using ziggy::Status;

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Exact-fingerprint sketch reuse, the one reuse tier the replay keeps.
/// Bounded by entry count; cleared when full or when an append changes
/// the table.
constexpr size_t kMemoEntries = 256;

/// Layers reported with percentiles, in report order.
constexpr const char* kLayers[] = {
    "query.parse",      "query.eval",        "zig.accumulate",
    "zig.complement",   "zig.components",    "views.search",
    "explain.validate", "explain.explain",   "engine.render",
    "storage.csv_parse", "storage.append_rows", "zig.apply_append",
    "zig.dendrogram",   "persist.save",      "persist.load"};

/// Replay state for one pass: the evolving table generation plus the
/// sketch memo and the pass's store.
class ReplayPass {
 public:
  ReplayPass(const WorkloadPlan& plan, const ColdState& cold,
             SpanRecorder* recorder, std::unique_ptr<ziggy::ZiggyStore> store)
      : plan_(plan),
        options_(ServedEngineOptions()),
        recorder_(recorder),
        store_(std::move(store)),
        table_(cold.table),
        profile_(cold.profile),
        dendrogram_(cold.dendrogram) {}

  Status Run(const ReplayEvent& event, uint64_t id) {
    return event.append ? Append(event.index, id)
                        : Characterize(event.verb, event.index, id);
  }

  /// One checkpoint save + load of the current generation, as the
  /// durability epilogue of the untraced run does.
  Status SaveAndLoad(uint64_t id) {
    if (saved_generation_ != generation_) {
      SpanRecorder::Scope root(recorder_, "save", id);
      ZIGGY_RETURN_NOT_OK(Save(id));
    }
    SpanRecorder::Scope root(recorder_, "load", id);
    SpanRecorder::Scope span(recorder_, "persist.load", id);
    return store_->LoadTable(plan_.table_name, /*lineage=*/1).status();
  }

  uint64_t accumulated_rows() const { return accumulated_rows_; }
  uint64_t candidates() const { return candidates_; }
  uint64_t validated() const { return validated_; }
  uint64_t dropped() const { return dropped_; }
  size_t characterizes() const { return characterizes_; }
  uint64_t rendered_bytes() const { return rendered_bytes_; }

 private:
  Status Characterize(ziggy::Verb verb, size_t query, uint64_t id) {
    SpanRecorder::Scope root(recorder_, "request", id);
    ++characterizes_;
    ziggy::ExprPtr expr;
    {
      SpanRecorder::Scope span(recorder_, "query.parse", id);
      ZIGGY_ASSIGN_OR_RETURN(expr, ziggy::ParseQuery(plan_.queries[query]));
      expr = ziggy::SimplifyPredicate(std::move(expr));
    }
    ziggy::Selection selection;
    {
      SpanRecorder::Scope span(recorder_, "query.eval", id);
      ZIGGY_ASSIGN_OR_RETURN(selection, expr->Evaluate(*table_));
    }
    const uint64_t fingerprint = selection.Fingerprint();
    std::shared_ptr<const ziggy::SelectionSketches> inside;
    if (auto it = memo_.find(fingerprint); it != memo_.end()) {
      inside = it->second;
    } else {
      SpanRecorder::Scope span(recorder_, "zig.accumulate", id);
      inside = std::make_shared<const ziggy::SelectionSketches>(
          ziggy::SelectionSketches::Build(*table_, *profile_, selection, 1));
      accumulated_rows_ += selection.Count();
      if (memo_.size() >= kMemoEntries) memo_.clear();
      memo_.emplace(fingerprint, inside);
    }
    ziggy::SelectionSketches outside;
    {
      SpanRecorder::Scope span(recorder_, "zig.complement", id);
      outside.InitShapes(*table_, *profile_);
      outside.DeriveAsComplement(*profile_, *inside);
    }
    ziggy::ComponentTable components;
    {
      SpanRecorder::Scope span(recorder_, "zig.components", id);
      ZIGGY_ASSIGN_OR_RETURN(
          components,
          ziggy::BuildComponentsFromSketches(*table_, *profile_, selection,
                                             *inside, outside, options_.build));
    }
    ziggy::ViewSearchResult search;
    {
      SpanRecorder::Scope span(recorder_, "views.search", id);
      ZIGGY_ASSIGN_OR_RETURN(search,
                             ziggy::SearchViews(*profile_, components,
                                                options_.search,
                                                dendrogram_.get()));
    }
    candidates_ += search.num_candidates;
    validated_ += search.views.size();
    ziggy::Characterization result;
    result.inside_count = components.inside_count();
    result.outside_count = components.outside_count();
    result.num_candidates = search.num_candidates;
    {
      SpanRecorder::Scope span(recorder_, "explain.validate", id);
      result.views_dropped = ziggy::ValidateViews(&search.views, components,
                                                  options_.validation);
    }
    dropped_ += result.views_dropped;
    {
      SpanRecorder::Scope span(recorder_, "explain.explain", id);
      for (ziggy::View& view : search.views) {
        ziggy::CharacterizedView cv;
        cv.explanation = ziggy::ExplainView(view, components, table_->schema(),
                                            options_.explain);
        cv.view = std::move(view);
        result.views.push_back(std::move(cv));
      }
    }
    {
      SpanRecorder::Scope span(recorder_, "engine.render", id);
      rendered_bytes_ +=
          verb == ziggy::Verb::kViews
              ? ziggy::RenderCharacterizationReport(result, table_->schema())
                    .size()
              : ziggy::CharacterizationToJson(result, table_->schema()).size();
    }
    return Status::OK();
  }

  Status Append(size_t batch, uint64_t id) {
    SpanRecorder::Scope root(recorder_, "append", id);
    ziggy::Table rows;
    {
      SpanRecorder::Scope span(recorder_, "storage.csv_parse", id);
      ZIGGY_ASSIGN_OR_RETURN(rows,
                             ziggy::ReadCsvFile(plan_.batch_paths[batch]));
    }
    std::shared_ptr<const ziggy::Table> next_table;
    {
      SpanRecorder::Scope span(recorder_, "storage.append_rows", id);
      ZIGGY_ASSIGN_OR_RETURN(ziggy::Table grown,
                             table_->WithAppendedRows(rows));
      next_table = std::make_shared<const ziggy::Table>(std::move(grown));
    }
    auto next_profile = std::make_shared<ziggy::TableProfile>(*profile_);
    {
      SpanRecorder::Scope span(recorder_, "zig.apply_append", id);
      ZIGGY_RETURN_NOT_OK(
          next_profile->ApplyAppend(*next_table, table_->num_rows()).status());
    }
    {
      SpanRecorder::Scope span(recorder_, "zig.dendrogram", id);
      ZIGGY_ASSIGN_OR_RETURN(ziggy::Dendrogram dendrogram,
                             ziggy::BuildColumnDendrogram(*next_profile));
      dendrogram_ = std::make_shared<const ziggy::Dendrogram>(
          std::move(dendrogram));
    }
    table_ = std::move(next_table);
    profile_ = std::move(next_profile);
    ++generation_;
    memo_.clear();
    return plan_.checkpoint_on_append ? Save(id) : Status::OK();
  }

  Status Save(uint64_t id) {
    SpanRecorder::Scope span(recorder_, "persist.save", id);
    saved_generation_ = generation_;
    return store_->SaveTable(plan_.table_name, *table_,
                             static_cast<uint64_t>(generation_), *profile_, {},
                             /*lineage=*/1);
  }

  const WorkloadPlan& plan_;
  const ziggy::ZiggyOptions options_;
  SpanRecorder* recorder_;
  std::unique_ptr<ziggy::ZiggyStore> store_;
  std::shared_ptr<const ziggy::Table> table_;
  std::shared_ptr<const ziggy::TableProfile> profile_;
  std::shared_ptr<const ziggy::Dendrogram> dendrogram_;
  int64_t generation_ = 0;
  int64_t saved_generation_ = -1;
  std::unordered_map<uint64_t, std::shared_ptr<const ziggy::SelectionSketches>>
      memo_;
  uint64_t accumulated_rows_ = 0;
  uint64_t candidates_ = 0;
  uint64_t validated_ = 0;
  uint64_t dropped_ = 0;
  uint64_t rendered_bytes_ = 0;
  size_t characterizes_ = 0;
};

Result<std::unique_ptr<ziggy::ZiggyStore>> FreshStore(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return ziggy::ZiggyStore::Open(dir);
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name,
                           uint64_t request)
    : recorder_(recorder) {
  if (!recorder_->enabled_) return;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = recorder_->open_.empty() ? -1 : recorder_->open_.back();
  index_ = static_cast<int64_t>(recorder_->spans_.size());
  recorder_->spans_.push_back(span);
  recorder_->open_.push_back(index_);
  // Read the clock last, so the bookkeeping above is not inside the span.
  recorder_->spans_.back().start_ns = NowNs();
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  recorder_->spans_[static_cast<size_t>(index_)].end_ns = end;
  recorder_->open_.pop_back();
}

std::string SpanRecorder::ToJsonLines() const {
  std::ostringstream os;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
       << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
       << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return os.str();
}

ziggy::ZiggyOptions ServedEngineOptions() {
  ziggy::ZiggyOptions options;
  options.search.min_tightness = 0.4;
  options.search.max_views = 10;
  return options;
}

Result<ColdState> BuildColdState(const std::string& csv_path,
                                 SpanRecorder* recorder) {
  ColdState state;
  SpanRecorder::Scope root(recorder, "setup", 0);
  auto t0 = Clock::now();
  {
    SpanRecorder::Scope span(recorder, "storage.csv_parse", 0);
    ZIGGY_ASSIGN_OR_RETURN(ziggy::Table table, ziggy::ReadCsvFile(csv_path));
    state.table = std::make_shared<const ziggy::Table>(std::move(table));
  }
  auto t1 = Clock::now();
  state.csv_parse_ms = 1e3 * SecondsBetween(t0, t1);
  {
    SpanRecorder::Scope span(recorder, "zig.profile_build", 0);
    ZIGGY_ASSIGN_OR_RETURN(
        ziggy::TableProfile profile,
        ziggy::TableProfile::Compute(*state.table,
                                     ServedEngineOptions().profile));
    state.profile =
        std::make_shared<const ziggy::TableProfile>(std::move(profile));
  }
  t0 = Clock::now();
  state.profile_build_ms = 1e3 * SecondsBetween(t1, t0);
  {
    SpanRecorder::Scope span(recorder, "zig.dendrogram", 0);
    ZIGGY_ASSIGN_OR_RETURN(ziggy::Dendrogram dendrogram,
                           ziggy::BuildColumnDendrogram(*state.profile));
    state.dendrogram =
        std::make_shared<const ziggy::Dendrogram>(std::move(dendrogram));
  }
  state.dendrogram_ms = 1e3 * SecondsBetween(t0, Clock::now());
  return state;
}

Result<ReplayResult> RunTracedReplay(const WorkloadPlan& plan,
                                     const ColdState& cold,
                                     const std::vector<ReplayEvent>& events,
                                     const std::string& dir) {
  // Untraced passes run before and after the traced one, so a drift of
  // the host's speed during the replay cancels out of the overhead ratio;
  // a short untraced pass ahead of them takes the first-touch costs.
  const auto run = [&](ReplayPass* pass, size_t count) -> Result<double> {
    const auto t0 = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      ZIGGY_RETURN_NOT_OK(pass->Run(events[i], i + 1));
    }
    ZIGGY_RETURN_NOT_OK(pass->SaveAndLoad(count + 1));
    return Result<double>(SecondsBetween(t0, Clock::now()));
  };
  const auto run_untraced = [&](size_t count) -> Result<double> {
    SpanRecorder off(false);
    ZIGGY_ASSIGN_OR_RETURN(auto store, FreshStore(dir + "/untraced"));
    ReplayPass pass(plan, cold, &off, std::move(store));
    return run(&pass, count);
  };
  const size_t replayed = events.size();
  ZIGGY_RETURN_NOT_OK(run_untraced(replayed / 10 + 1).status());
  ZIGGY_ASSIGN_OR_RETURN(const double before_s, run_untraced(replayed));
  SpanRecorder on(true);
  ZIGGY_ASSIGN_OR_RETURN(auto on_store, FreshStore(dir + "/traced"));
  ReplayPass traced(plan, cold, &on, std::move(on_store));
  ZIGGY_ASSIGN_OR_RETURN(const double traced_s, run(&traced, replayed));
  ZIGGY_ASSIGN_OR_RETURN(const double after_s, run_untraced(replayed));
  const double untraced_s = (before_s + after_s) / 2.0;
  std::filesystem::remove_all(dir + "/untraced");
  std::filesystem::remove_all(dir + "/traced");

  // Per layer: durations, self time (duration minus direct children).
  const std::vector<Span>& spans = on.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> durations_us;
  std::map<std::string, double> self_us;
  double request_ns = 0.0;
  double request_unattributed_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const auto duration = static_cast<double>(s.end_ns - s.start_ns);
    const double self = duration - static_cast<double>(child_ns[i]);
    durations_us[s.name].push_back(duration / 1e3);
    self_us[s.name] += self / 1e3;
    if (std::string(s.name) == "request") {
      request_ns += duration;
      request_unattributed_ns += self;
    }
  }
  const auto p = [&](const std::string& layer, double q) {
    auto it = durations_us.find(layer);
    return it == durations_us.end() ? 0.0
                                    : ExactPercentile(it->second, q).value;
  };
  const auto total = [&](const std::string& layer) {
    auto it = durations_us.find(layer);
    double sum = 0.0;
    if (it != durations_us.end()) {
      for (const double v : it->second) sum += v;
    }
    return sum;
  };

  ReplayResult out;
  std::map<std::string, double>& m = out.metrics;
  m["query.parse_us_p50"] = p("query.parse", 0.5);
  m["query.eval_us_p50"] = p("query.eval", 0.5);
  m["zig.accumulate_us_p50"] = p("zig.accumulate", 0.5);
  const double accumulate_s = total("zig.accumulate") / 1e6;
  m["zig.accumulate_rows_per_s"] =
      accumulate_s > 0.0
          ? static_cast<double>(traced.accumulated_rows()) / accumulate_s
          : 0.0;
  m["zig.complement_us_p50"] = p("zig.complement", 0.5);
  m["zig.components_us_p50"] = p("zig.components", 0.5);
  m["zig.profile_build_ms"] = cold.profile_build_ms;
  m["zig.dendrogram_ms"] = cold.dendrogram_ms;
  m["zig.apply_append_us_p50"] = p("zig.apply_append", 0.5);
  m["views.search_us_p50"] = p("views.search", 0.5);
  m["views.search_us_p99"] = p("views.search", 0.99);
  m["views.candidates_mean"] =
      traced.characterizes() > 0
          ? static_cast<double>(traced.candidates()) /
                static_cast<double>(traced.characterizes())
          : 0.0;
  m["explain.validate_us_p50"] = p("explain.validate", 0.5);
  m["explain.explain_us_p50"] = p("explain.explain", 0.5);
  m["explain.dropped_ratio"] =
      traced.validated() > 0 ? static_cast<double>(traced.dropped()) /
                                   static_cast<double>(traced.validated())
                             : 0.0;
  m["engine.render_us_p50"] = p("engine.render", 0.5);
  m["storage.csv_parse_ms"] = cold.csv_parse_ms;
  // The cold parse is the setup span; the p50 is over APPEND batches.
  std::vector<double> batch_parse_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == "storage.csv_parse") {
      batch_parse_us.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
    }
  }
  m["storage.csv_parse_us_p50"] = ExactPercentile(batch_parse_us, 0.5).value;
  m["persist.load_ms"] = total("persist.load") / 1e3;
  m["trace.unattributed_ratio"] =
      request_ns > 0.0 ? request_unattributed_ns / request_ns : 0.0;
  m["trace.overhead_ratio"] = untraced_s > 0.0 ? traced_s / untraced_s : 0.0;

  std::ostringstream header;
  header << "# traced replay: " << replayed << " operations ("
         << traced.characterizes() << " characterize), untraced "
         << before_s << " s and " << after_s << " s, traced " << traced_s
         << " s; rendered "
         << traced.rendered_bytes() << " reply bytes";
  out.lines.push_back(header.str());
  out.lines.push_back(
      "# layer               count     total_ms      self_ms     p50_us     "
      "p99_us");
  for (const char* layer : kLayers) {
    auto it = durations_us.find(layer);
    if (it == durations_us.end()) continue;
    const Percentile p99 = ExactPercentile(it->second, 0.99);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "#   %-18s %7zu %12.3f %12.3f %10.1f %10.1f%s",
                  layer, it->second.size(), total(layer) / 1e3,
                  self_us[layer] / 1e3, p(layer, 0.5), p99.value,
                  p99.supported() ? "" : " (p99: <10 beyond)");
    out.lines.emplace_back(line);
  }
  out.spans_json = on.ToJsonLines();
  return out;
}

}  // namespace perfbench
