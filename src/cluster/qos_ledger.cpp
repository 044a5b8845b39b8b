#include "cluster/qos_ledger.hpp"

#include <cmath>
#include <utility>

namespace rfd::cluster {

void QosTally::flip(NodeId i, NodeId j, bool suspected, bool down,
                    double now, obs::RecordSink* trace) {
  disagreeing += suspected != down ? 1 : -1;
  if (suspected) {
    ++raises;
    if (!down) ++false_suspicions;
  } else {
    ++clears;
  }
  if (trace != nullptr) {
    obs::Record r;
    r.type = suspected ? obs::RecordType::kSuspect : obs::RecordType::kClear;
    r.t = now;
    r.a = i;
    r.b = j;
    r.c = down ? 1 : 0;
    trace->emit(r);
  }
}

void QosTally::rescore(FaultKind kind, NodeId j, const NodeStep& step) {
  const bool enters = kind == FaultKind::kRecover || kind == FaultKind::kJoin;
  if (!enters && kind != FaultKind::kCrash && kind != FaultKind::kLeave) {
    return;  // a lie changes neither a row nor the truth
  }
  const std::vector<ClusterNode>& rows = step.nodes().nodes;
  const GroundTruth& truth = step.truth();
  // Adds or removes row j's known pairs as it enters or leaves the live
  // observers. The join itself does not change the crashed set, so only
  // the new row counts.
  const int sign = enters ? 1 : -1;
  if (step.owns(j)) {
    const ClusterNode& row = rows[static_cast<std::size_t>(j)];
    for (NodeId p = 0; p < step.nodes().max_nodes(); ++p) {
      if (p != j && row.knows(p) && row.is_suspected(p) != truth.down(p)) {
        disagreeing += sign;
      }
    }
  }
  if (kind == FaultKind::kJoin) return;
  // Column j: every step re-judging its own live rows covers it once.
  const bool down = truth.down(j);
  for (NodeId i = step.lo(); i < step.hi(); ++i) {
    const ClusterNode& row = rows[static_cast<std::size_t>(i)];
    if (i == j || !row.active() || !row.knows(j)) continue;
    disagreeing += row.is_suspected(j) != down ? 1 : -1;
  }
}

QosTally& QosTally::operator+=(const QosTally& other) {
  disagreeing += other.disagreeing;
  raises += other.raises;
  clears += other.clears;
  false_suspicions += other.false_suspicions;
  return *this;
}

void QosLedger::fault(FaultKind kind, double at) {
  switch (kind) {
    case FaultKind::kHeal:
    case FaultKind::kStormEnd:
    case FaultKind::kLinkUp:
    case FaultKind::kSlowEnd:
    case FaultKind::kLieEnd:
      // Re-convergence is only measurable if the episode actually drove
      // the cluster into disagreement.
      if (agreement_) return;
      break;
    case FaultKind::kCrash:
    case FaultKind::kLeave:
    case FaultKind::kRecover:
      break;
    default:
      return;  // a join or an episode's start
  }
  // A batch of same-instant faults is one disruption to converge from.
  if (disruptions_ > 0 && disrupted_at_ == at) return;
  ++disruptions_;
  disrupted_at_ = at;
  converged_ = false;
}

void QosLedger::tick(double now, const QosTally& total) {
  total_ = total;
  agreement_ = total.disagreeing == 0;
  if (agreement_ && !converged_) {
    convergence_.push_back(now - disrupted_at_);
    converged_ = true;
  }
}

void QosLedger::finalize(const GroundTruth& truth, const NodeSet& nodes) {
  finalize(truth, [&nodes](NodeId i, NodeId j) {
    const ClusterNode& row = nodes.nodes[static_cast<std::size_t>(i)];
    PeerView view;
    view.known = row.knows(j);
    view.suspected = view.known && row.is_suspected(j);
    if (view.suspected) view.suspect_since = row.record(j).suspect_since;
    return view;
  });
}

void QosLedger::publish(obs::Registry& registry) const {
  const auto count = [&registry](const char* name, std::int64_t value) {
    obs::Counter& c = registry.counter(name);
    c.add(value - c.value());
  };
  const auto samples = [&registry](const char* name,
                                   const std::vector<double>& all) {
    obs::Histo& h = registry.histogram(name);
    for (auto i = static_cast<std::size_t>(h.summary().count());
         i < all.size(); ++i) {
      h.add(all[i]);
    }
  };
  count(metric::kSuspicionRaises, total_.raises);
  count(metric::kSuspicionClears, total_.clears);
  count(metric::kFalseSuspicions, total_.false_suspicions);
  count(metric::kDisruptions, disruptions_);
  count(metric::kMissedDetections, missed_);
  samples(metric::kDetectionMs, detection_);
  samples(metric::kConvergenceMs, convergence_);
}

void QosLedger::report(ClusterReport& out) const {
  out.suspicion_raises = total_.raises;
  out.suspicion_clears = total_.clears;
  out.false_suspicions = total_.false_suspicions;
  out.missed_detections = missed_;
  out.disruptions = disruptions_;
  out.final_agreement = agreement_;
  out.detection_latency_ms = Summary{};
  for (const double sample : detection_) out.detection_latency_ms.add(sample);
  out.convergence_ms = Summary{};
  for (const double sample : convergence_) out.convergence_ms.add(sample);
  out.unconverged_disruptions = disruptions_ - out.convergence_ms.count();
}

void QosLedger::save(ByteWriter& w) const {
  for (const std::int64_t count : {total_.disagreeing, total_.raises,
                                   total_.clears, total_.false_suspicions,
                                   disruptions_}) {
    w.i64(count);
  }
  w.f64(disrupted_at_);
  w.u8(converged_ ? 1 : 0);
  w.u8(agreement_ ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(convergence_.size()));
  for (const double sample : convergence_) w.f64(sample);
}

bool QosLedger::restore(ByteReader& r, std::int64_t max_pairs,
                        std::int64_t max_disruptions) {
  QosTally t;
  t.disagreeing = r.i64();
  t.raises = r.i64();
  t.clears = r.i64();
  t.false_suspicions = r.i64();
  const std::int64_t disruptions = r.i64();
  const double disrupted_at = r.f64();
  const std::uint8_t converged = r.u8();
  const std::uint8_t agreement = r.u8();
  const std::uint32_t samples = r.u32();
  // Every clear ends a raise; every convergence ends a disruption.
  if (!r.ok() || t.disagreeing < 0 || t.disagreeing > max_pairs ||
      t.clears < 0 || t.false_suspicions < 0 || t.clears > t.raises ||
      t.false_suspicions > t.raises || disruptions < 0 ||
      disruptions > max_disruptions || samples > disruptions ||
      samples > r.remaining() / 8 || converged > 1 || agreement > 1 ||
      !std::isfinite(disrupted_at)) {
    return false;
  }
  std::vector<double> convergence(samples);
  for (double& sample : convergence) sample = r.f64();
  total_ = t;
  disruptions_ = disruptions;
  disrupted_at_ = disrupted_at;
  converged_ = converged != 0;
  agreement_ = agreement != 0;
  convergence_ = std::move(convergence);
  return r.ok();
}

}  // namespace rfd::cluster
