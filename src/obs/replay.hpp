// Offline QoS re-derivation from a JSONL cluster trace.
//
// Replays the fault / suspect / clear records of a trace - run_cluster's
// or the soak runner's - through the ground-truth transitions and the QoS
// ledger (cluster/qos_ledger.hpp) the drivers run live, with the trace's
// standing suspicions in place of the nodes' records. On a fixed seed the
// re-derived numbers must match the live report bit-for-bit - the proof
// that the trace is a complete record of the run (the completeness the ML
// arrival predictor and run-diffing tooling depend on).
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"

namespace rfd::obs {

struct ReplayQos {
  bool ok = false;
  std::string error;

  // From the run header.
  int n = 0;
  int max_nodes = 0;
  double duration_ms = 0.0;

  // Re-derived, same semantics as the ClusterReport fields.
  Summary detection_latency_ms;
  std::int64_t false_suspicions = 0;
  std::int64_t suspicion_raises = 0;
  std::int64_t suspicion_clears = 0;
  std::int64_t records_read = 0;
  /// Count from a "lost" accounting record, if present (a lossy trace
  /// cannot re-derive exactly; callers should check this is zero).
  std::int64_t lost_records = 0;
};

/// Parses the trace at `path` and re-derives cluster QoS. Only the fixed
/// record grammar produced by TraceWriter is understood.
ReplayQos replay_qos(const std::string& path);

}  // namespace rfd::obs
