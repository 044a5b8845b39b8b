// Cluster QoS accounting, one implementation for run_cluster
// (cluster/engine.cpp), the soak runner (transport/soak.cpp) and the trace
// replay (obs/replay.cpp). A QosTally is what a set of observer rows
// contributes: the disagreeing (observer, peer) pairs, raises, clears and
// false suspicions. Each engine shard keeps one for its rows, the soak one
// for all. The QosLedger takes the cluster-wide decisions on the summed
// tally: disruptions, convergence and agreement at each check tick, and
// detection and missed detections at the end. It holds no per-pair state.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <vector>

#include "cluster/metrics.hpp"
#include "cluster/node_step.hpp"
#include "cluster/scenario.hpp"
#include "common/bytes.hpp"
#include "obs/record.hpp"
#include "obs/registry.hpp"

namespace rfd::cluster {

struct QosTally {
  /// Known pairs of live observers whose verdict differs from the truth.
  std::int64_t disagreeing = 0;
  std::int64_t raises = 0;
  std::int64_t clears = 0;
  /// Raises against a peer that was up at that moment.
  std::int64_t false_suspicions = 0;

  /// Observer `i`'s cached verdict on `j` flipped to `suspected` at `now`,
  /// with `down` the truth about `j`; emits the kSuspect / kClear record
  /// into `trace` unless it is null.
  void flip(NodeId i, NodeId j, bool suspected, bool down, double now,
            obs::RecordSink* trace);

  /// An observer learned a peer: the fresh record is unsuspected, so it
  /// disagrees with the truth about a peer that is down.
  void learned(bool down) { disagreeing += down ? 1 : 0; }

  /// Rescores the rows `step` owns after it applied the effective node
  /// fault (kind, j): a dead row leaves the count, a restarted or joined
  /// row enters it, and column j is re-judged against the new truth.
  void rescore(FaultKind kind, NodeId j, const NodeStep& step);

  QosTally& operator+=(const QosTally& other);
};

/// An observer's final view of a victim, for QosLedger::finalize.
struct PeerView {
  bool known = false;
  bool suspected = false;
  double suspect_since = -1.0;
};

class QosLedger {
 public:
  /// An effective fault at `at`: a crash, recover or leave is a
  /// disruption, and so is a heal, storm end, link up, slow end or lie end
  /// that finds the cluster disagreeing. Same-instant disruptions (a rack
  /// failing) count once.
  void fault(FaultKind kind, double at);

  /// Check tick at `now`, with `total` the tally over every observer row:
  /// the cluster agrees when no pair disagrees, and the first agreement
  /// after a disruption is a convergence sample.
  void tick(double now, const QosTally& total);

  /// End of run: one detection sample (crash -> start of the suspicion
  /// still standing) per (live observer, down victim) pair, victim outer
  /// and observer inner; an observer that knows the victim without
  /// suspecting it is a miss. view(i, j) is observer i's view of j.
  template <typename View>
    requires std::invocable<View&, NodeId, NodeId>
  void finalize(const GroundTruth& truth, View&& view);
  /// finalize() over the nodes' own records.
  void finalize(const GroundTruth& truth, const NodeSet& nodes);

  /// The tally of the last tick.
  const QosTally& total() const { return total_; }
  bool agreement() const { return agreement_; }
  std::int64_t disruptions() const { return disruptions_; }
  /// Disruption-to-agreement times (ms), in order.
  const std::vector<double>& convergence() const { return convergence_; }
  /// Detection latencies (ms) in finalize() order.
  const std::vector<double>& detection() const { return detection_; }
  std::int64_t missed() const { return missed_; }

  /// Brings the QoS metrics of `registry` (cluster/metrics.hpp names,
  /// registered in snapshot field order on the first call) up to date.
  void publish(obs::Registry& registry) const;
  /// Fills the QoS fields of `out`.
  void report(ClusterReport& out) const;

  /// Checkpoint of everything but the finalize() results. restore()
  /// refuses counts that exceed `max_pairs` disagreeing pairs or
  /// `max_disruptions`, or that contradict each other.
  void save(ByteWriter& w) const;
  bool restore(ByteReader& r, std::int64_t max_pairs,
               std::int64_t max_disruptions);

 private:
  QosTally total_;
  std::int64_t disruptions_ = 0;
  double disrupted_at_ = 0.0;
  /// Whether the latest disruption has converged.
  bool converged_ = true;
  bool agreement_ = true;
  std::vector<double> convergence_;
  std::vector<double> detection_;
  std::int64_t missed_ = 0;
};

template <typename View>
  requires std::invocable<View&, NodeId, NodeId>
void QosLedger::finalize(const GroundTruth& truth, View&& view) {
  detection_.clear();
  missed_ = 0;
  const auto max_nodes = static_cast<NodeId>(truth.up.size());
  for (NodeId j = 0; j < max_nodes; ++j) {
    if (!truth.down(j)) continue;
    const double down_at = truth.down_since[static_cast<std::size_t>(j)];
    for (NodeId i = 0; i < max_nodes; ++i) {
      if (i == j || truth.up[static_cast<std::size_t>(i)] == 0) continue;
      const PeerView seen = view(i, j);
      if (seen.suspected) {
        // A suspicion already standing at crash time detects "instantly"
        // from the abstraction's point of view.
        detection_.push_back(std::max(0.0, seen.suspect_since - down_at));
      } else if (seen.known) {
        ++missed_;  // an observer that never met the victim misses nothing
      }
    }
  }
}

}  // namespace rfd::cluster
