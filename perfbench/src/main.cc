// perfbench_runner: runs one workload of the repository benchmark against
// a real ziggy_daemon process and prints its metrics. Usually started by
// perfbench/run.py, which builds it first:
//
//   perfbench_runner --workload <explore_oecd|refine_crime|ingest_crime>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --daemon <path to ziggy_daemon> --work-dir <dir>
//                    --report-dir <dir> [--source-id <id>]
//
// A run: generate the workload from the seed; build the reference state
// in-process; start the daemon cold repeatedly (setup_s); drive the
// closed-loop readers (and the open-loop writer) for a warm-up and then
// the measured seconds; checkpoint, stop, then repeatedly restart on the
// same store and answer one request (warm_open_s); check replies; with
// --trace 1, replay the same requests in-process with spans. The last
// stdout line is the JSON result; perfbench/README.md documents every
// metric.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "engine/json.h"
#include "engine/session.h"
#include "engine/ziggy_engine.h"
#include "query/parser.h"
#include "query/simplify.h"
#include "serve/client.h"
#include "zig/selection_sketches.h"
#include "daemon_process.h"
#include "measure.h"
#include "traced_replay.h"
#include "workload.h"

namespace perfbench {
namespace {

using ziggy::Result;
using ziggy::Status;
using ziggy::Verb;
using ziggy::WireRequest;
using ziggy::WireResponse;
using ziggy::ZiggyClient;

/// Cold starts and warm restarts run single-threaded, where the host's
/// clock speed varies most, so each is repeated and the median reported:
/// at least the minimum count, and on while the repetitions so far took
/// under kRepeatSeconds, up to kMaxRepeats.
constexpr size_t kMinColdStarts = 3;
constexpr size_t kMinWarmRestarts = 5;
constexpr size_t kMaxRepeats = 15;
constexpr double kRepeatSeconds = 2.0;
constexpr double kWarmupSeconds = 2.0;
constexpr const char* kHost = "127.0.0.1";

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string daemon;
  std::string work_dir;
  std::string report_dir;
  std::string source_id = "unknown";
};

int Usage() {
  std::cerr << "usage: perfbench_runner --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --daemon <path> --work-dir <dir> "
               "--report-dir <dir> [--source-id <id>]\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    Result<int64_t> number = ziggy::ParseInt(value);
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && number.ok() && *number >= 0) {
      args->seed = static_cast<uint64_t>(*number);
    } else if (flag == "--seconds" && number.ok() && *number >= 1) {
      args->seconds = static_cast<double>(*number);
    } else if (flag == "--trace" && number.ok() && *number >= 0 &&
               *number <= 1) {
      args->trace = *number == 1;
    } else if (flag == "--daemon") {
      args->daemon = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--report-dir") {
      args->report_dir = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsKnownWorkload(args->workload) &&
         args->seconds > 0.0 && !args->daemon.empty() &&
         !args->work_dir.empty() && !args->report_dir.empty();
}

/// What one CHARACTERIZE/VIEWS reply said, decoded client-side.
struct ReplySummary {
  int64_t inside = -1;
  int64_t outside = -1;
  std::vector<std::vector<size_t>> views;  ///< ranked column sets
};

/// Resolves reply column names to schema indices.
class ColumnIndex {
 public:
  explicit ColumnIndex(const ziggy::Schema& schema) {
    for (size_t i = 0; i < schema.num_fields(); ++i) {
      index_.emplace(schema.field(i).name, i);
    }
  }
  bool Find(const std::string& name, size_t* out) const {
    auto it = index_.find(name);
    if (it == index_.end()) return false;
    *out = it->second;
    return true;
  }

 private:
  std::unordered_map<std::string, size_t> index_;
};

/// CHARACTERIZE replies are JSON ({"result":{"inside_count":..,"views":
/// [{"rank":1,"columns":[..]..}..]}}); VIEWS replies are the report text
/// as a JSON string ("inside=N outside=M", then "#k {a, b}" per view).
Status ParseReply(Verb verb, const std::string& body,
                  const ColumnIndex& columns, ReplySummary* out) {
  if (verb == Verb::kCharacterize) {
    out->inside = static_cast<int64_t>(
        JsonNumberAt(body, {"result", "inside_count"}));
    out->outside = static_cast<int64_t>(
        JsonNumberAt(body, {"result", "outside_count"}));
    size_t pos = 0;
    while ((pos = body.find("{\"rank\":", pos)) != std::string::npos) {
      pos = body.find("\"columns\":[", pos);
      if (pos == std::string::npos) break;
      pos += 11;
      const size_t end = body.find(']', pos);
      if (end == std::string::npos) break;
      std::vector<size_t> view;
      for (const std::string& quoted :
           ziggy::Split(std::string_view(body).substr(pos, end - pos), ',')) {
        size_t index = 0;
        if (quoted.size() < 2 ||
            !columns.Find(quoted.substr(1, quoted.size() - 2), &index)) {
          return Status::ParseError("unknown view column " + quoted);
        }
        view.push_back(index);
      }
      out->views.push_back(std::move(view));
      pos = end;
    }
    return Status::OK();
  }
  if (body.size() < 2) return Status::ParseError("empty VIEWS reply");
  ZIGGY_ASSIGN_OR_RETURN(
      const std::string report,
      ziggy::JsonUnescape(std::string_view(body).substr(1, body.size() - 2)));
  std::istringstream lines(report);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("inside=", 0) == 0) {
      long long inside = -1;
      long long outside = -1;
      if (std::sscanf(line.c_str(), "inside=%lld outside=%lld", &inside,
                      &outside) == 2) {
        out->inside = inside;
        out->outside = outside;
      }
    } else if (line.rfind('#', 0) == 0) {
      const size_t open = line.find('{');
      const size_t close = line.rfind('}');
      if (open == std::string::npos || close == std::string::npos) {
        return Status::ParseError("bad view line: " + line);
      }
      std::vector<size_t> view;
      for (const std::string& part : ziggy::Split(
               std::string_view(line).substr(open + 1, close - open - 1),
               ',')) {
        size_t index = 0;
        if (!columns.Find(std::string(ziggy::TrimWhitespace(part)), &index)) {
          return Status::ParseError("unknown view column " + part);
        }
        view.push_back(index);
      }
      out->views.push_back(std::move(view));
    }
  }
  return Status::OK();
}

/// One reader request as the client saw it.
struct Op {
  PlannedRequest request;
  double sent_s = 0.0;  ///< seconds since the run epoch
  double done_s = 0.0;
  bool ok = false;
  size_t reply_bytes = 0;
  std::vector<std::vector<size_t>> views;  ///< kept for view checks
};

/// Counts operations and failures; keeps the first failure reasons.
class Ledger {
 public:
  void Attempt() {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
  }
  void Fail(const std::string& reason) {
    std::lock_guard<std::mutex> lock(mu_);
    ++failed_;
    if (reasons_.size() < 20) reasons_.push_back(reason);
  }
  size_t attempted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return attempted_;
  }
  size_t failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failed_;
  }
  std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reasons_;
  }

 private:
  mutable std::mutex mu_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// A control-connection call that must succeed: counted, and any ERR or
/// transport failure is a failed operation.
Result<std::string> ControlCall(ZiggyClient* client, const WireRequest& request,
                                Ledger* ledger) {
  ledger->Attempt();
  Result<WireResponse> response = client->CallRaw(request);
  if (!response.ok() || !response->ok) {
    const std::string reason =
        std::string(ziggy::VerbToString(request.verb)) + ": " +
        (response.ok() ? response->body : response.status().ToString());
    ledger->Fail(reason);
    return Status::IOError(reason);
  }
  return response->body;
}

Result<ZiggyClient> ConnectTo(uint16_t port) {
  ZiggyClient client;
  ZIGGY_RETURN_NOT_OK(client.Connect(kHost, port));
  return client;
}

/// Shared state of the measured phase.
struct Traffic {
  const WorkloadPlan* plan = nullptr;
  const ColumnIndex* columns = nullptr;
  Clock::time_point epoch;
  Clock::time_point measure_start;
  Clock::time_point end;
  uint16_t port = 0;
  Ledger* ledger = nullptr;
  /// APPENDs sent so far / acknowledged so far: a reader's reply must come
  /// from a generation in [acked when sent, sent when answered].
  std::atomic<size_t> appends_sent{0};
  std::atomic<size_t> appends_acked{0};
};

double Since(const Traffic& t, Clock::time_point now) {
  return SecondsBetween(t.epoch, now);
}

/// Closed loop: the next request goes out when the previous reply is in.
struct ReaderResult {
  std::vector<Op> ops;
  uint64_t retries = 0;
  bool exhausted = false;
};

ReaderResult RunReader(Traffic* t, const std::vector<PlannedRequest>& stream,
                       bool keep_views) {
  ReaderResult out;
  const WorkloadPlan& plan = *t->plan;
  Result<ZiggyClient> connected = ConnectTo(t->port);
  if (!connected.ok()) {
    t->ledger->Attempt();
    t->ledger->Fail("reader connect: " + connected.status().ToString());
    return out;
  }
  ZiggyClient client = std::move(connected).ValueOrDie();
  out.ops.reserve(stream.size());
  size_t pos = 0;
  for (; pos < stream.size(); ++pos) {
    const Clock::time_point sent = Clock::now();
    if (sent >= t->end) break;
    const PlannedRequest& planned = stream[pos];
    const size_t acked_before = t->appends_acked.load();
    Result<WireResponse> response = client.CallRaw(
        WireRequest{planned.verb,
                    {plan.table_name, plan.queries[planned.query]}});
    const Clock::time_point done = Clock::now();
    const size_t sent_by_reply = t->appends_sent.load();
    t->ledger->Attempt();
    Op op;
    op.request = planned;
    op.sent_s = Since(*t, sent);
    op.done_s = Since(*t, done);
    std::string failure;
    ReplySummary reply;
    if (!response.ok()) {
      failure = "transport: " + response.status().ToString();
      if (!client.connected()) (void)client.Connect(kHost, t->port);
    } else if (!response->ok) {
      failure = "ERR " +
                std::string(ziggy::StatusCodeToString(response->code)) +
                " " + response->body;
    } else if (Status st = ParseReply(planned.verb, response->body,
                                      *t->columns, &reply);
               !st.ok()) {
      failure = "unparsable reply: " + st.ToString();
    } else {
      // The generation the reply came from, by its row count.
      const int64_t rows = reply.inside + reply.outside;
      size_t generation = plan.generation_rows.size();
      for (size_t g = acked_before;
           g < plan.generation_rows.size() && g <= sent_by_reply; ++g) {
        if (plan.generation_rows[g] == rows) generation = g;
      }
      if (generation == plan.generation_rows.size()) {
        failure = "reply covers " + std::to_string(rows) +
                  " rows: not a generation published between send and reply";
      } else if (const int64_t expected =
                     plan.inside_counts[planned.query][generation];
                 reply.inside != expected) {
        failure = "inside_count " + std::to_string(reply.inside) +
                  " != local evaluation " + std::to_string(expected) +
                  " for: " + plan.queries[planned.query];
      }
    }
    if (failure.empty()) {
      op.ok = true;
      op.reply_bytes = response->body.size();
      if (keep_views) op.views = std::move(reply.views);
    } else {
      t->ledger->Fail(failure);
    }
    out.ops.push_back(std::move(op));
  }
  out.exhausted = pos == stream.size();
  out.retries = client.retries();
  (void)client.Quit();
  return out;
}

/// Open loop: APPEND k is due at measure_start + k * interval and is timed
/// from when it was due.
struct WriterResult {
  std::vector<double> latency_ms;   ///< reply time - due time
  std::vector<double> lateness_ms;  ///< send time - due time
};

WriterResult RunWriter(Traffic* t) {
  WriterResult out;
  const WorkloadPlan& plan = *t->plan;
  Result<ZiggyClient> connected = ConnectTo(t->port);
  if (!connected.ok()) {
    t->ledger->Attempt();
    t->ledger->Fail("writer connect: " + connected.status().ToString());
    return out;
  }
  ZiggyClient client = std::move(connected).ValueOrDie();
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(plan.append_interval_ms));
  for (size_t k = 0; k < plan.batch_paths.size(); ++k) {
    const Clock::time_point due =
        t->measure_start + interval * static_cast<int64_t>(k);
    if (due >= t->end) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    t->appends_sent.store(k + 1);
    t->ledger->Attempt();
    Result<WireResponse> response = client.CallRaw(
        WireRequest{Verb::kAppend, {plan.table_name, plan.batch_paths[k]}});
    const Clock::time_point done = Clock::now();
    if (!response.ok() || !response->ok ||
        response->body.find("checkpoint_error") != std::string::npos ||
        static_cast<size_t>(JsonNumberAt(response->body, {"generation"})) !=
            k + 1) {
      t->ledger->Fail("APPEND " + std::to_string(k) + ": " +
                      (response.ok() ? response->body
                                     : response.status().ToString()));
      // Later generations would no longer match the plan.
      break;
    }
    t->appends_acked.store(k + 1);
    out.latency_ms.push_back(1e3 * SecondsBetween(due, done));
    out.lateness_ms.push_back(1e3 * SecondsBetween(due, sent));
  }
  (void)client.Quit();
  return out;
}

/// Reference answers: one engine over the cold state that scans every
/// selection afresh, so no cache tier can shape its output.
class Reference {
 public:
  static Result<Reference> Create(const ColdState& cold) {
    ziggy::ZiggyOptions options = ServedEngineOptions();
    options.cache_queries = false;
    ZIGGY_ASSIGN_OR_RETURN(
        ziggy::ZiggyEngine engine,
        ziggy::ZiggyEngine::CreateShared(cold.table, cold.profile,
                                         cold.dendrogram, options));
    Reference ref(std::move(engine));
    const ziggy::Table* table = cold.table.get();
    const ziggy::TableProfile* profile = cold.profile.get();
    ref.engine_.set_sketch_provider(
        [table, profile](const ziggy::Selection& selection,
                         uint64_t) -> std::optional<ziggy::ProvidedSketches> {
          ziggy::ProvidedSketches out;
          out.inside = std::make_shared<const ziggy::SelectionSketches>(
              ziggy::SelectionSketches::Build(*table, *profile, selection, 1));
          return out;
        });
    return ref;
  }

  Result<std::vector<ziggy::CharacterizedView>> Views(
      const std::string& query) {
    ZIGGY_ASSIGN_OR_RETURN(ziggy::Characterization result,
                           engine_.CharacterizeQuery(query));
    return std::move(result.views);
  }

 private:
  explicit Reference(ziggy::ZiggyEngine engine) : engine_(std::move(engine)) {}
  ziggy::ZiggyEngine engine_;
};

std::vector<ziggy::CharacterizedView> AsViews(
    const std::vector<std::vector<size_t>>& column_sets) {
  std::vector<ziggy::CharacterizedView> out(column_sets.size());
  for (size_t i = 0; i < column_sets.size(); ++i) {
    out[i].view.columns = column_sets[i];
  }
  return out;
}

/// Checks sampled replies of each session against the reference. The
/// daemon demotes views a session was already shown, so the expected
/// order is the reference ranking under the same policy, fed with the
/// session's earlier replies.
Status CheckViews(const WorkloadPlan& plan, const ColdState& cold,
                  const std::vector<ReaderResult>& readers, Ledger* ledger,
                  size_t* checked) {
  ZIGGY_ASSIGN_OR_RETURN(Reference reference, Reference::Create(cold));
  const size_t per_reader =
      std::max<size_t>(1, plan.view_checks /
                              std::max<size_t>(1, readers.size()));
  for (const ReaderResult& reader : readers) {
    const size_t stride = std::max<size_t>(1, reader.ops.size() / per_reader);
    ziggy::NoveltyTracker shown;
    for (size_t i = 0; i < reader.ops.size(); ++i) {
      const Op& op = reader.ops[i];
      if (!op.ok) continue;
      if (i % stride == stride / 2) {
        ZIGGY_ASSIGN_OR_RETURN(std::vector<ziggy::CharacterizedView> expected,
                               reference.Views(plan.queries[op.request.query]));
        ziggy::NoveltyTracker before = shown;
        before.ApplyAndObserve(ziggy::SessionOptions::NoveltyPolicy::kDemote,
                               &expected);
        std::vector<std::vector<size_t>> want;
        for (const ziggy::CharacterizedView& cv : expected) {
          want.push_back(cv.view.columns);
        }
        ++*checked;
        if (want != op.views) {
          ledger->Fail("ranked views differ from the reference engine for: " +
                       plan.queries[op.request.query]);
        }
      }
      std::vector<ziggy::CharacterizedView> served = AsViews(op.views);
      shown.ApplyAndObserve(ziggy::SessionOptions::NoveltyPolicy::kDemote,
                            &served);
    }
  }
  return Status::OK();
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Metric names with their units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics{
      {"characterize_p50_ms", "ms"},
      {"characterize_p95_ms", "ms"},
      {"throughput_rps", "1/s"},
      {"setup_s", "s"},
      {"warm_open_s", "s"},
      {"peak_rss_mb", "MB"},
      {"stored_bytes_per_user_byte", "ratio"}};
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics{
      {"daemon.queue_us_mean", "us"},
      {"daemon.execute_us_mean", "us"},
      {"daemon.flush_us_mean", "us"},
      {"engine.reply_bytes_mean", "bytes"},
      {"wire.residual_us_mean", "us"},
      {"wire.retries", "count"},
      {"serve.sketch_lookup_us_mean", "us"},
      {"serve.scan_us_mean", "us"},
      {"serve.sketch_hit_ratio", "ratio"},
      {"serve.patched_rows_per_hit", "rows"},
      {"serve.component_cache_hit_ratio", "ratio"},
      {"serve.coalesced_ratio", "ratio"},
      {"serve.cache_evictions", "count"},
      {"serve.cache_migrated_entries", "count"},
      {"serve.cache_flushes", "count"},
      {"query.parse_us_p50", "us"},
      {"query.eval_us_p50", "us"},
      {"zig.accumulate_us_p50", "us"},
      {"zig.accumulate_rows_per_s", "1/s"},
      {"zig.complement_us_p50", "us"},
      {"zig.components_us_p50", "us"},
      {"zig.profile_build_ms", "ms"},
      {"zig.dendrogram_ms", "ms"},
      {"zig.apply_append_us_p50", "us"},
      {"views.search_us_p50", "us"},
      {"views.search_us_p99", "us"},
      {"views.candidates_mean", "count"},
      {"explain.validate_us_p50", "us"},
      {"explain.explain_us_p50", "us"},
      {"explain.dropped_ratio", "ratio"},
      {"engine.render_us_p50", "us"},
      {"storage.csv_parse_ms", "ms"},
      {"storage.csv_parse_us_p50", "us"},
      {"persist.save_us_mean", "us"},
      {"persist.bytes_written_per_user_byte", "ratio"},
      {"persist.delta_checkpoints", "count"},
      {"persist.full_checkpoints", "count"},
      {"persist.compactions", "count"},
      {"persist.load_ms", "ms"},
      {"trace.unattributed_ratio", "ratio"},
      {"trace.overhead_ratio", "ratio"}};
  return metrics;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Fixed inputs of one run, shared by its phases.
struct RunContext {
  const Args* args = nullptr;
  const WorkloadPlan* plan = nullptr;
  const ColumnIndex* columns = nullptr;
  Ledger* ledger = nullptr;
  std::string log_path;
  WireRequest open_request;
  /// VIEWS of the first planned query: every start's first request.
  WireRequest probe_request;

  std::vector<std::string> DaemonArgs(const std::string& store) const {
    std::vector<std::string> out = {"--dispatch-threads", "4", "--threads",
                                    "1", "--store", store};
    if (plan->checkpoint_on_append) {
      out.emplace_back("--checkpoint-on-append");
    }
    return out;
  }
};

/// What the served part of one run produced.
struct ServedRun {
  std::vector<double> setup_s;
  std::vector<double> warm_open_s;
  std::vector<ReaderResult> readers;
  WriterResult writer;
  size_t appended = 0;
  /// METRICS when the measured window opened and closed, and after the
  /// epilogue's checkpoint; STATS of the table and of the catalog.
  std::string metrics_start;
  std::string metrics_end;
  std::string metrics_final;
  std::string table_stats;
  std::string catalog_stats;
  double peak_rss_mb = 0.0;
  uint64_t user_bytes = 0;
  double stored_ratio = 0.0;
};

bool RepeatAgain(size_t done, size_t min, Clock::time_point since) {
  return done < min || (done < kMaxRepeats &&
                        SecondsBetween(since, Clock::now()) < kRepeatSeconds);
}

/// Cold starts, each timed from process start to its first correct reply.
/// The last daemon keeps running.
Status RunSetup(const RunContext& ctx, DaemonProcess* daemon,
                std::string* store_dir, ServedRun* out) {
  const WorkloadPlan& plan = *ctx.plan;
  const Clock::time_point since = Clock::now();
  for (size_t r = 0; RepeatAgain(r, kMinColdStarts, since); ++r) {
    ZIGGY_RETURN_NOT_OK(daemon->Stop());
    *store_dir = ctx.args->work_dir + "/store" + std::to_string(r);
    std::filesystem::create_directories(*store_dir);
    const Clock::time_point t0 = Clock::now();
    ZIGGY_RETURN_NOT_OK(daemon->Start(ctx.args->daemon,
                                      ctx.DaemonArgs(*store_dir),
                                      ctx.args->work_dir, ctx.log_path));
    ZIGGY_ASSIGN_OR_RETURN(ZiggyClient control, ConnectTo(daemon->port()));
    Result<std::string> opened =
        ControlCall(&control, ctx.open_request, ctx.ledger);
    Result<std::string> first =
        ControlCall(&control, ctx.probe_request, ctx.ledger);
    const Clock::time_point t1 = Clock::now();
    ReplySummary reply;
    if (!opened.ok() || !first.ok() ||
        !ParseReply(Verb::kViews, *first, *ctx.columns, &reply).ok() ||
        reply.inside != plan.inside_counts[plan.streams[0][0].query][0]) {
      ctx.ledger->Fail("setup: first reply incorrect");
    }
    out->setup_s.push_back(SecondsBetween(t0, t1));
    (void)control.Quit();
  }
  return Status::OK();
}

/// Warm-up, then the measured window: the readers and the writer run on
/// their own threads while the control connection snapshots METRICS at
/// the window's start and end.
Status RunTraffic(const RunContext& ctx, uint16_t port, ServedRun* out) {
  const WorkloadPlan& plan = *ctx.plan;
  Traffic traffic;
  traffic.plan = &plan;
  traffic.columns = ctx.columns;
  traffic.port = port;
  traffic.ledger = ctx.ledger;
  traffic.epoch = Clock::now();
  traffic.measure_start =
      traffic.epoch + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kWarmupSeconds));
  traffic.end = traffic.measure_start +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ctx.args->seconds));
  ZIGGY_ASSIGN_OR_RETURN(ZiggyClient control, ConnectTo(port));
  const WireRequest metrics{Verb::kMetrics, {}};
  out->readers.resize(plan.streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < plan.streams.size(); ++c) {
    threads.emplace_back([&, c] {
      out->readers[c] =
          RunReader(&traffic, plan.streams[c], plan.view_checks > 0);
    });
  }
  if (plan.has_writer()) {
    threads.emplace_back([&] { out->writer = RunWriter(&traffic); });
  }
  std::this_thread::sleep_until(traffic.measure_start);
  out->metrics_start =
      ControlCall(&control, metrics, ctx.ledger).ValueOr(std::string());
  for (std::thread& t : threads) t.join();
  out->appended = traffic.appends_acked.load();
  out->metrics_end =
      ControlCall(&control, metrics, ctx.ledger).ValueOr(std::string());
  out->table_stats =
      ControlCall(&control, WireRequest{Verb::kStats, {plan.table_name}},
                  ctx.ledger)
          .ValueOr(std::string());
  (void)control.Quit();
  return Status::OK();
}

/// Checkpoint (SAVE unless every APPEND already checkpointed), VIEWS on a
/// fresh connection, clean shutdown, then warm restarts on the
/// same store, each timed to its first reply and compared with the VIEWS
/// from before the shutdown.
Status RunEpilogue(const RunContext& ctx, const std::string& store_dir,
                   DaemonProcess* daemon, ServedRun* out) {
  const WorkloadPlan& plan = *ctx.plan;
  std::string before_restart;
  {
    ZIGGY_ASSIGN_OR_RETURN(ZiggyClient control, ConnectTo(daemon->port()));
    if (!plan.checkpoint_on_append) {
      (void)ControlCall(&control, WireRequest{Verb::kSave, {plan.table_name}},
                        ctx.ledger);
    }
    out->metrics_final =
        ControlCall(&control, WireRequest{Verb::kMetrics, {}}, ctx.ledger)
            .ValueOr(std::string());
    out->catalog_stats =
        ControlCall(&control, WireRequest{Verb::kStats, {}}, ctx.ledger)
            .ValueOr(std::string());
    (void)control.Quit();
    ZIGGY_ASSIGN_OR_RETURN(ZiggyClient fresh, ConnectTo(daemon->port()));
    before_restart = ControlCall(&fresh, ctx.probe_request, ctx.ledger)
                         .ValueOr(std::string());
    (void)fresh.Quit();
  }
  out->peak_rss_mb = static_cast<double>(daemon->PeakRssKib()) / 1024.0;
  const auto stop = [&] {
    if (Status st = daemon->Stop(); !st.ok()) {
      ctx.ledger->Attempt();
      ctx.ledger->Fail("clean shutdown: " + st.ToString());
    }
  };
  stop();
  out->user_bytes = plan.csv_bytes;
  for (size_t k = 0; k < out->appended; ++k) {
    out->user_bytes += std::filesystem::file_size(plan.batch_paths[k]);
  }
  out->stored_ratio = Ratio(static_cast<double>(DirectoryBytes(store_dir)),
                            static_cast<double>(out->user_bytes));
  const Clock::time_point since = Clock::now();
  for (size_t r = 0; RepeatAgain(r, kMinWarmRestarts, since); ++r) {
    const Clock::time_point t0 = Clock::now();
    ZIGGY_RETURN_NOT_OK(daemon->Start(ctx.args->daemon,
                                      ctx.DaemonArgs(store_dir),
                                      ctx.args->work_dir, ctx.log_path));
    ZIGGY_ASSIGN_OR_RETURN(ZiggyClient fresh, ConnectTo(daemon->port()));
    const std::string opened = ControlCall(&fresh, ctx.open_request, ctx.ledger)
                                   .ValueOr(std::string());
    const std::string after_restart =
        ControlCall(&fresh, ctx.probe_request, ctx.ledger)
            .ValueOr(std::string());
    out->warm_open_s.push_back(SecondsBetween(t0, Clock::now()));
    if (static_cast<int64_t>(JsonNumberAt(opened, {"rows"})) !=
        plan.generation_rows[out->appended]) {
      ctx.ledger->Fail(
          "warm OPEN did not restore the last acknowledged generation");
    }
    if (after_restart != before_restart) {
      ctx.ledger->Fail(
          "VIEWS after the warm restart differs from before shutdown");
    }
    (void)fresh.Quit();
    stop();
  }
  return Status::OK();
}

/// Client-side numbers of the measured window. The window is cut into
/// equal time slices, each with enough requests for ten samples beyond
/// its p95; each metric is the median over the slices, so a burst of
/// noise from outside the benchmark moves at most a minority of them.
struct WindowNumbers {
  std::vector<double> latency_ms;  ///< every correct reply, pooled
  double reply_bytes = 0.0;
  uint64_t retries = 0;
  bool exhausted = false;
  size_t slices = 1;
  double slice_s = 0.0;
  size_t fewest_beyond_p95 = 0;  ///< over the slices
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double rps = 0.0;
};

WindowNumbers MeasureWindow(const ServedRun& served, double seconds) {
  WindowNumbers out;
  std::vector<const Op*> measured;
  for (const ReaderResult& reader : served.readers) {
    out.retries += reader.retries;
    out.exhausted = out.exhausted || reader.exhausted;
    for (const Op& op : reader.ops) {
      if (!op.ok || op.sent_s < kWarmupSeconds) continue;
      measured.push_back(&op);
      out.latency_ms.push_back(1e3 * (op.done_s - op.sent_s));
      out.reply_bytes += static_cast<double>(op.reply_bytes);
    }
  }
  out.slices = std::clamp<size_t>(measured.size() / 200, 1, 10);
  // A median of two is no more robust than the pooled value and has half
  // the samples behind each percentile.
  if (out.slices < 3) out.slices = 1;
  out.slice_s = seconds / static_cast<double>(out.slices);
  std::vector<std::vector<double>> per_slice(out.slices);
  for (const Op* op : measured) {
    const auto slice =
        static_cast<size_t>((op->sent_s - kWarmupSeconds) / out.slice_s);
    per_slice[std::min(slice, out.slices - 1)].push_back(
        1e3 * (op->done_s - op->sent_s));
  }
  std::vector<double> p50;
  std::vector<double> p95;
  std::vector<double> rps;
  out.fewest_beyond_p95 = measured.size();
  for (const std::vector<double>& samples : per_slice) {
    const Percentile slice_p95 = ExactPercentile(samples, 0.95);
    p50.push_back(ExactPercentile(samples, 0.50).value);
    p95.push_back(slice_p95.value);
    rps.push_back(static_cast<double>(samples.size()) / out.slice_s);
    out.fewest_beyond_p95 = std::min(out.fewest_beyond_p95, slice_p95.beyond);
  }
  out.p50_ms = Median(p50);
  out.p95_ms = Median(p95);
  out.rps = Median(rps);
  return out;
}

/// The per-layer metrics read from the daemon's registry and STATS. The
/// registry's percentiles are log-bucket bounds (1/16 resolution), so the
/// timed series are reported as exact means from its sums and counts: over
/// the measured window, except store saves, which span the whole run.
void AddDaemonLayers(const ServedRun& served, const WindowNumbers& window,
                     std::map<std::string, double>* metrics) {
  std::map<std::string, double>& m = *metrics;
  const auto hist = [](const std::string& json, const std::string& name,
                       const char* field) {
    return JsonNumberAt(json, {"histograms", name, field});
  };
  const auto window_mean = [&](const std::vector<std::string>& names) {
    double sum = 0.0;
    double count = 0.0;
    for (const std::string& name : names) {
      sum += hist(served.metrics_end, name, "sum") -
             hist(served.metrics_start, name, "sum");
      count += hist(served.metrics_end, name, "count") -
               hist(served.metrics_start, name, "count");
    }
    return Ratio(sum, count);
  };
  m["daemon.queue_us_mean"] = window_mean({"ziggy_request_queue_us"});
  m["daemon.execute_us_mean"] =
      window_mean({"ziggy_request_us{verb=\\\"CHARACTERIZE\\\"}",
                   "ziggy_request_us{verb=\\\"VIEWS\\\"}"});
  m["daemon.flush_us_mean"] = window_mean({"ziggy_request_flush_us"});
  m["engine.reply_bytes_mean"] =
      Ratio(window.reply_bytes, static_cast<double>(window.latency_ms.size()));
  // What the client waited beyond the daemon's own queue, execute and
  // flush time for a characterize request.
  m["wire.residual_us_mean"] =
      1e3 * Mean(window.latency_ms) -
      (m["daemon.queue_us_mean"] + m["daemon.execute_us_mean"] +
       m["daemon.flush_us_mean"]);
  m["wire.retries"] = static_cast<double>(window.retries);
  m["serve.sketch_lookup_us_mean"] = window_mean({"ziggy_sketch_lookup_us"});
  m["serve.scan_us_mean"] = window_mean({"ziggy_scan_us"});
  m["persist.save_us_mean"] =
      Ratio(hist(served.metrics_final, "ziggy_store_save_us", "sum"),
            hist(served.metrics_final, "ziggy_store_save_us", "count"));

  const std::string& table = served.table_stats;
  const double exact = JsonNumberAt(table, {"sketch_exact_hits"});
  const double patched = JsonNumberAt(table, {"sketch_patched_hits"});
  const double misses = JsonNumberAt(table, {"sketch_misses"});
  m["serve.sketch_hit_ratio"] =
      Ratio(exact + patched, exact + patched + misses);
  m["serve.patched_rows_per_hit"] =
      Ratio(JsonNumberAt(table, {"patched_delta_rows"}), patched);
  const double component_hits =
      JsonNumberAt(table, {"component_cache", "hits"});
  m["serve.component_cache_hit_ratio"] = Ratio(
      component_hits,
      component_hits + JsonNumberAt(table, {"component_cache", "misses"}));
  m["serve.coalesced_ratio"] =
      Ratio(JsonNumberAt(table, {"coalesced_requests"}), misses);
  m["serve.cache_evictions"] =
      JsonNumberAt(table, {"sketch_cache", "evictions"});
  m["serve.cache_migrated_entries"] =
      JsonNumberAt(table, {"cache_migrated_entries"});
  m["serve.cache_flushes"] = JsonNumberAt(table, {"cache_flushes"});

  const std::string& catalog = served.catalog_stats;
  m["persist.bytes_written_per_user_byte"] =
      Ratio(JsonNumberAt(catalog, {"store", "checkpoint_bytes"}),
            static_cast<double>(served.user_bytes));
  m["persist.delta_checkpoints"] =
      JsonNumberAt(catalog, {"store", "delta_checkpoints"});
  m["persist.full_checkpoints"] =
      JsonNumberAt(catalog, {"store", "full_checkpoints"});
  m["persist.compactions"] = JsonNumberAt(catalog, {"store", "compactions"});
}

/// The traced replay's input: the measured window in send order, with
/// characterize requests sampled evenly and every acknowledged APPEND
/// (without a writer: the probe batches, after the requests).
std::vector<ReplayEvent> ReplayEvents(const WorkloadPlan& plan,
                                      const ServedRun& served) {
  using Timed = std::pair<double, ReplayEvent>;
  const auto by_time = [](const Timed& a, const Timed& b) {
    return a.first < b.first;
  };
  std::vector<Timed> timeline;
  for (const ReaderResult& reader : served.readers) {
    for (const Op& op : reader.ops) {
      if (op.sent_s < kWarmupSeconds) continue;
      timeline.push_back(
          {op.sent_s, ReplayEvent{false, op.request.verb, op.request.query}});
    }
  }
  std::stable_sort(timeline.begin(), timeline.end(), by_time);
  const size_t stride = std::max<size_t>(
      1, timeline.size() / std::max<size_t>(1, plan.replay_requests));
  std::vector<Timed> sampled;
  for (size_t i = 0;
       i < timeline.size() && sampled.size() < plan.replay_requests;
       i += stride) {
    sampled.push_back(timeline[i]);
  }
  for (size_t k = 0; k < served.appended; ++k) {
    sampled.push_back({kWarmupSeconds + 1e-3 * plan.append_interval_ms *
                                            static_cast<double>(k),
                       ReplayEvent{true, Verb::kAppend, k}});
  }
  std::stable_sort(sampled.begin(), sampled.end(), by_time);
  std::vector<ReplayEvent> events;
  events.reserve(sampled.size());
  for (const Timed& timed : sampled) events.push_back(timed.second);
  if (!plan.has_writer()) {
    // Probe appends after the requests, so every workload measures the
    // append layers on its own table shape.
    for (size_t k = 0; k < plan.batch_paths.size(); ++k) {
      events.push_back(ReplayEvent{true, Verb::kAppend, k});
    }
  }
  return events;
}

/// The human-readable report: run description, every end-to-end number
/// with its sample counts, failures, and (traced) the per-layer table.
std::vector<std::string> ReportLines(const Args& args, const WorkloadPlan& plan,
                                     const ServedRun& served,
                                     const WindowNumbers& window,
                                     const Ledger& ledger, size_t views_checked,
                                     std::map<std::string, double>& metrics,
                                     const std::vector<std::string>& layers) {
  std::vector<std::string> lines;
  const auto add = [&](const std::string& line) { lines.push_back(line); };
  add("# perfbench " + args.workload + " seed=" + std::to_string(args.seed) +
      " seconds=" + FormatNumber(args.seconds) +
      " trace=" + std::to_string(args.trace ? 1 : 0));
  add("# machine: nproc=" +
      std::to_string(std::thread::hardware_concurrency()) +
      " compiler=\"" PERFBENCH_COMPILER "\" build=" PERFBENCH_BUILD_TYPE
      " ndebug=1 source=" +
      args.source_id);
  add("# daemon: --dispatch-threads 4 --threads 1 --store" +
      std::string(plan.checkpoint_on_append ? " --checkpoint-on-append" : "") +
      "; flush policy: synchronous (no background flusher); ZIGGY_FAULTS "
      "and ZIGGY_STORE_COMPRESSION cleared");
  add("# load: " + std::to_string(plan.streams.size()) +
      " closed-loop readers" +
      (!plan.has_writer()
           ? std::string()
           : ", 1 open-loop writer (APPEND every " +
                 FormatNumber(plan.append_interval_ms) + " ms)") +
      "; warm-up " + FormatNumber(kWarmupSeconds) + " s untimed");
  const Percentile p50 = ExactPercentile(window.latency_ms, 0.50);
  const Percentile p95 = ExactPercentile(window.latency_ms, 0.95);
  const std::string sliced = "median of " + std::to_string(window.slices) +
                             " slices of " + FormatNumber(window.slice_s) +
                             " s; ";
  add("characterize_p50_ms " + FormatNumber(metrics["characterize_p50_ms"]) +
      " (" + sliced + "pooled " + FormatNumber(p50.value) +
      ", n=" + std::to_string(p50.samples) + ")");
  add("characterize_p95_ms " + FormatNumber(metrics["characterize_p95_ms"]) +
      " (" + sliced + ">=" + std::to_string(window.fewest_beyond_p95) +
      " beyond in every slice" +
      (window.fewest_beyond_p95 >= 10 ? "" : ", UNSUPPORTED: <10 beyond") +
      "; pooled " + FormatNumber(p95.value) +
      ", n=" + std::to_string(p95.samples) + ")");
  add("throughput_rps " + FormatNumber(metrics["throughput_rps"]) + " (" +
      sliced + "pooled " +
      FormatNumber(static_cast<double>(window.latency_ms.size()) /
                   args.seconds) +
      ")" +
      (window.exhausted ? " (WARNING: a reader ran out of planned requests)"
                        : ""));
  const auto median_line = [&](const std::string& name,
                               const std::vector<double>& samples) {
    std::string line = name + " " + FormatNumber(metrics[name]) + " (median of";
    for (const double s : samples) line += " " + FormatNumber(s);
    add(line + ")");
  };
  median_line("setup_s", served.setup_s);
  median_line("warm_open_s", served.warm_open_s);
  add("peak_rss_mb " + FormatNumber(served.peak_rss_mb));
  add("stored_bytes_per_user_byte " + FormatNumber(served.stored_ratio) +
      " (user bytes " + std::to_string(served.user_bytes) + ")");
  if (plan.has_writer()) {
    const Percentile a50 = ExactPercentile(served.writer.latency_ms, 0.50);
    const Percentile a90 = ExactPercentile(served.writer.latency_ms, 0.90);
    add("append_p50_ms " + FormatNumber(a50.value) +
        " (n=" + std::to_string(a50.samples) + ")");
    add("append_p90_ms " + FormatNumber(a90.value) +
        " (n=" + std::to_string(a90.samples) + ", " +
        std::to_string(a90.beyond) + " beyond" +
        (a90.supported() ? "" : "; UNSUPPORTED: <10 beyond") + ")");
    add("append_generator_late_ms p50 " +
        FormatNumber(ExactPercentile(served.writer.lateness_ms, 0.5).value) +
        " max " +
        FormatNumber(ExactPercentile(served.writer.lateness_ms, 1.0).value));
  }
  const std::string& stats = served.table_stats;
  add("# serve: sketch hits exact " +
      FormatNumber(JsonNumberAt(stats, {"sketch_exact_hits"})) + " patched " +
      FormatNumber(JsonNumberAt(stats, {"sketch_patched_hits"})) +
      " misses " + FormatNumber(JsonNumberAt(stats, {"sketch_misses"})) +
      "; cache entries " +
      FormatNumber(JsonNumberAt(stats, {"sketch_cache", "entries"})) +
      " bytes " +
      FormatNumber(JsonNumberAt(stats, {"sketch_cache", "bytes_in_use"})) +
      "; component cache hits " +
      FormatNumber(JsonNumberAt(stats, {"component_cache", "hits"})) +
      " misses " +
      FormatNumber(JsonNumberAt(stats, {"component_cache", "misses"})));
  const auto bucket = [&](const std::string& json, const std::string& name,
                          const char* q) {
    return " " + std::string(q) + " " +
           FormatNumber(JsonNumberAt(json, {"histograms", name, q}));
  };
  add("# daemon registry, whole run, log-bucket bounds (us): queue" +
      bucket(served.metrics_end, "ziggy_request_queue_us", "p50") +
      bucket(served.metrics_end, "ziggy_request_queue_us", "p99") +
      "; execute" +
      bucket(served.metrics_end, "ziggy_request_execute_us", "p50") +
      "; flush" + bucket(served.metrics_end, "ziggy_request_flush_us", "p50") +
      "; scan" + bucket(served.metrics_end, "ziggy_scan_us", "p50") +
      bucket(served.metrics_end, "ziggy_scan_us", "p99") + "; store save" +
      bucket(served.metrics_final, "ziggy_store_save_us", "p50") +
      bucket(served.metrics_final, "ziggy_store_save_us", "p90"));
  const size_t attempted = ledger.attempted();
  const size_t failed = ledger.failed();
  add("failed_ops_ratio " +
      FormatNumber(Ratio(static_cast<double>(failed),
                         static_cast<double>(attempted))) +
      " (" + std::to_string(failed) + " failed of " +
      std::to_string(attempted) + " attempted; " +
      std::to_string(views_checked) + " replies checked view by view)");
  for (const std::string& reason : ledger.reasons()) {
    add("# failure: " + reason);
  }
  if (args.trace) {
    for (const auto& [name, unit] : PerLayerMetrics()) {
      add(name + " " + FormatNumber(metrics[name]) + " " + unit);
    }
    for (const std::string& line : layers) add(line);
  }
  return lines;
}

/// The result line: tracing off reports the end-to-end metrics, tracing
/// on the per-layer ones.
std::string ResultJson(bool trace, const Ledger& ledger,
                       std::map<std::string, double>& metrics) {
  std::string json =
      "{\"correct\":" + std::string(ledger.failed() == 0 ? "true" : "false") +
      ",\"attempted\":" + std::to_string(ledger.attempted()) +
      ",\"failed\":" + std::to_string(ledger.failed()) + ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, unit] :
       trace ? PerLayerMetrics() : EndToEndMetrics()) {
    json += (first ? "\"" : ",\"") + name + "\":{\"value\":" +
            FormatNumber(metrics[name]) + ",\"unit\":\"" + unit + "\"}";
    first = false;
  }
  return json + "}}";
}

int Run(const Args& args) {
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to run a build without NDEBUG (the "
               "debug lock-rank checker would be measured)\n";
  return 3;
#endif
  // The daemon inherits this environment: no fault injection, default
  // store codec.
  unsetenv("ZIGGY_FAULTS");
  unsetenv("ZIGGY_FAULT_SEED");
  unsetenv("ZIGGY_STORE_COMPRESSION");
  std::signal(SIGPIPE, SIG_IGN);
  const auto fatal = [](const std::string& what, const Status& st) {
    std::cerr << "perfbench: " << what << ": " << st.ToString() << "\n";
    return 1;
  };
  namespace fs = std::filesystem;
  fs::remove_all(args.work_dir);
  fs::create_directories(args.work_dir);
  fs::create_directories(args.report_dir);

  Result<WorkloadPlan> plan =
      WriteWorkloadTable(args.workload, args.seed, args.work_dir);
  if (!plan.ok()) return fatal("workload generation", plan.status());
  SpanRecorder setup_spans(args.trace);
  Result<ColdState> cold = BuildColdState(plan->csv_path, &setup_spans);
  if (!cold.ok()) return fatal("reference state", cold.status());
  if (Status st = PlanTraffic(&*plan, *cold->table, args.seed, args.seconds,
                              kWarmupSeconds, args.work_dir);
      !st.ok()) {
    return fatal("workload generation", st);
  }
  const ColumnIndex columns(cold->table->schema());
  Ledger ledger;
  RunContext ctx;
  ctx.args = &args;
  ctx.plan = &*plan;
  ctx.columns = &columns;
  ctx.ledger = &ledger;
  ctx.log_path = args.work_dir + "/daemon.log";
  ctx.open_request = WireRequest{
      Verb::kOpen, {plan->table_name, fs::absolute(plan->csv_path).string()}};
  ctx.probe_request =
      WireRequest{Verb::kViews,
                  {plan->table_name, plan->queries[plan->streams[0][0].query]}};

  ServedRun served;
  DaemonProcess daemon;
  std::string store_dir;
  if (Status st = RunSetup(ctx, &daemon, &store_dir, &served); !st.ok()) {
    return fatal("set-up", st);
  }
  if (Status st = RunTraffic(ctx, daemon.port(), &served); !st.ok()) {
    return fatal("traffic", st);
  }
  if (Status st = RunEpilogue(ctx, store_dir, &daemon, &served); !st.ok()) {
    return fatal("durability epilogue", st);
  }
  size_t views_checked = 0;
  if (plan->view_checks > 0) {
    if (Status st =
            CheckViews(*plan, *cold, served.readers, &ledger, &views_checked);
        !st.ok()) {
      return fatal("view check", st);
    }
  }

  const WindowNumbers window = MeasureWindow(served, args.seconds);
  std::map<std::string, double> metrics;
  metrics["characterize_p50_ms"] = window.p50_ms;
  metrics["characterize_p95_ms"] = window.p95_ms;
  metrics["throughput_rps"] = window.rps;
  metrics["setup_s"] = Median(served.setup_s);
  metrics["warm_open_s"] = Median(served.warm_open_s);
  metrics["peak_rss_mb"] = served.peak_rss_mb;
  metrics["stored_bytes_per_user_byte"] = served.stored_ratio;

  std::vector<std::string> layer_lines;
  std::string spans_json;
  if (args.trace) {
    AddDaemonLayers(served, window, &metrics);
    Result<ReplayResult> replay =
        RunTracedReplay(*plan, *cold, ReplayEvents(*plan, served),
                        args.work_dir + "/replay");
    if (!replay.ok()) return fatal("traced replay", replay.status());
    for (const auto& [name, value] : replay->metrics) metrics[name] = value;
    layer_lines = replay->lines;
    spans_json = setup_spans.ToJsonLines() + replay->spans_json;
  }

  const std::vector<std::string> lines =
      ReportLines(args, *plan, served, window, ledger, views_checked, metrics,
                  layer_lines);
  const std::string json = ResultJson(args.trace, ledger, metrics);
  const std::string stem = args.report_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           (args.trace ? "1" : "0");
  {
    std::ofstream report(stem + ".txt", std::ios::trunc);
    for (const std::string& line : lines) report << line << "\n";
    report << json << "\n";
  }
  if (args.trace) {
    std::ofstream spans(stem + ".spans.jsonl", std::ios::trunc);
    spans << spans_json;
  }
  for (const std::string& line : lines) std::cout << line << "\n";
  std::cout << json << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) return perfbench::Usage();
  return perfbench::Run(args);
}
