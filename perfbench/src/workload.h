// Seeded workload generation for the repository benchmark: the served
// table (written as CSV), the per-client request streams, and the APPEND
// batches. Everything here is a pure function of (workload, seed, run
// length); the daemon only ever sees the generated files and request
// lines. perfbench/README.md documents the three workloads.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "serve/protocol.h"
#include "storage/table.h"

namespace perfbench {

/// One request of a client's closed-loop stream.
struct PlannedRequest {
  ziggy::Verb verb = ziggy::Verb::kCharacterize;
  size_t query = 0;  ///< index into WorkloadPlan::queries
};

/// Everything one run sends, generated before any timing starts.
struct WorkloadPlan {
  std::string workload;
  std::string table_name;
  std::string csv_path;
  uint64_t csv_bytes = 0;
  /// Distinct predicate texts; requests refer to them by index.
  std::vector<std::string> queries;
  /// inside_counts[q][g]: rows query q selects in generation g (the table
  /// after g APPEND batches). One generation unless the workload appends.
  std::vector<std::vector<int64_t>> inside_counts;
  /// Row count of each generation.
  std::vector<int64_t> generation_rows;
  /// One closed-loop stream per reader connection.
  std::vector<std::vector<PlannedRequest>> streams;
  /// APPEND batches (CSV paths). With a writer they are sent open loop
  /// every append_interval_ms; otherwise only the traced replay appends
  /// them, in-process.
  std::vector<std::string> batch_paths;
  uint64_t batch_bytes = 0;  ///< CSV bytes of all batches together
  double append_interval_ms = 0.0;  ///< 0 = no writer

  bool has_writer() const { return append_interval_ms > 0.0; }
  /// Replies checked view-by-view against the in-process reference engine
  /// (0 = the workload checks counts and generations only).
  size_t view_checks = 0;
  /// Characterize requests the traced run replays, sampled evenly from
  /// the measured window (every APPEND of the window is replayed too).
  size_t replay_requests = 0;
  /// The daemon checkpoints every APPEND synchronously.
  bool checkpoint_on_append = false;
};

/// True for the workload names the benchmark knows.
bool IsKnownWorkload(const std::string& name);

/// Writes the workload's table as CSV under `dir` (created by the caller)
/// and returns the plan with its table fields set.
ziggy::Result<WorkloadPlan> WriteWorkloadTable(const std::string& workload,
                                               uint64_t seed,
                                               const std::string& dir);

/// Generates the streams and APPEND batches against `table`, the CSV as
/// parsed back (the daemon's view of it). Streams are sized to outlast
/// warm-up plus the measured `seconds`; the APPEND schedule covers the
/// measured seconds.
ziggy::Status PlanTraffic(WorkloadPlan* plan, const ziggy::Table& table,
                          uint64_t seed, double seconds, double warmup_seconds,
                          const std::string& dir);

/// Rows of generation `rows` that `selection` (over the final table)
/// contains.
int64_t CountPrefix(const ziggy::Selection& selection, size_t rows);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
