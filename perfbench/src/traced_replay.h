// The traced run: the generated requests replayed in-process through the
// library's public calls, one span around each call. Spans carry a name,
// start, end, parent and request id; they are kept in memory and written
// out when the run ends. The daemon is not involved, so the per-layer
// numbers come without wire, queue or cache-tier effects; see
// perfbench/README.md for what the replay does and does not mirror.

#ifndef PERFBENCH_TRACED_REPLAY_H_
#define PERFBENCH_TRACED_REPLAY_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/ziggy_engine.h"
#include "measure.h"
#include "workload.h"

namespace perfbench {

/// One recorded call.
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;  ///< index into the recorder's spans, -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log. A disabled recorder records nothing and reads no
/// clock, so the untraced replay runs the same code without the tracing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Closes its span when destroyed.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

   private:
    SpanRecorder* recorder_;
    int64_t index_ = -1;
  };

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// The spans as JSON lines (one object per span).
  std::string ToJsonLines() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Table, profile and dendrogram built cold from the served CSV, as a
/// cold OPEN builds them; the reference engine and the replay share it.
struct ColdState {
  std::shared_ptr<const ziggy::Table> table;
  std::shared_ptr<const ziggy::TableProfile> profile;
  std::shared_ptr<const ziggy::Dendrogram> dendrogram;
  double csv_parse_ms = 0.0;
  double profile_build_ms = 0.0;
  double dendrogram_ms = 0.0;
};

ziggy::Result<ColdState> BuildColdState(const std::string& csv_path,
                                        SpanRecorder* recorder);

/// The engine options the daemon serves with (tools/ziggy_daemon.cc).
ziggy::ZiggyOptions ServedEngineOptions();

/// One replayed operation, in the order the untraced run sent them.
struct ReplayEvent {
  bool append = false;
  ziggy::Verb verb = ziggy::Verb::kCharacterize;
  size_t index = 0;  ///< query index, or batch index for an append
};

struct ReplayResult {
  /// Per-layer metrics by name (the replay's share of BENCHMARK.json's
  /// per_layer list).
  std::map<std::string, double> metrics;
  /// Human-readable per-layer table.
  std::vector<std::string> lines;
  std::string spans_json;
};

/// Replays `events` from `cold` untraced, traced, and untraced again;
/// trace.overhead_ratio is the traced wall time over the mean of the two
/// untraced ones. `dir` holds the replay's own stores.
ziggy::Result<ReplayResult> RunTracedReplay(
    const WorkloadPlan& plan, const ColdState& cold,
    const std::vector<ReplayEvent>& events, const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_REPLAY_H_
