#include "cluster/node.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "common/assert.hpp"
#include "common/bytes.hpp"

namespace rfd::cluster {
namespace {

bool adaptive(rt::DetectorKind kind) {
  return kind != rt::DetectorKind::kFixed;
}

int window_of(const rt::DetectorParams& d) {
  return d.kind == rt::DetectorKind::kPhi ? d.phi.window : d.chen.window;
}

/// MemAvailable from /proc/meminfo in bytes, or 0 if unreadable.
std::uint64_t mem_available_bytes() {
  std::ifstream in("/proc/meminfo");
  std::string line;
  unsigned long long kib = 0;
  while (std::getline(in, line)) {
    if (std::sscanf(line.c_str(), "MemAvailable: %llu kB", &kib) == 1) {
      return static_cast<std::uint64_t>(kib) * 1024;
    }
  }
  return 0;
}

}  // namespace

std::size_t node_bytes_per_peer(const NodeParams& params) {
  // counters_, hot_, eval_tick_, records_, and the hot queue plus its
  // survivor scratch (one NodeId each at worst).
  std::size_t bytes = sizeof(std::int32_t) + sizeof(PeerHot) +
                      sizeof(std::int64_t) + sizeof(PeerRecord) +
                      2 * sizeof(NodeId);
  const rt::DetectorParams& d = params.detector;
  if (adaptive(d.kind)) {
    bytes += sizeof(double) * static_cast<std::size_t>(window_of(d));
    bytes += d.kind == rt::DetectorKind::kPhi ? sizeof(rt::PhiFit)
                                              : sizeof(double);
  }
  return bytes;
}

void require_node_memory(int n, int max_nodes, const NodeParams& params) {
  const double available = static_cast<double>(mem_available_bytes());
  if (available == 0.0) return;
  // In double: max_nodes^2 x a large window can exceed 2^64.
  const double estimate = static_cast<double>(max_nodes) *
                          static_cast<double>(max_nodes) *
                          static_cast<double>(node_bytes_per_peer(params));
  if (estimate <= available) return;
  char message[256];
  std::snprintf(message, sizeof(message),
                "cluster too large for this host: n=%d (max_nodes=%d) with "
                "%s detectors needs ~%.3g bytes of node state, MemAvailable "
                "is %.3g bytes",
                n, max_nodes,
                rt::detector_kind_name(params.detector.kind).c_str(),
                estimate, available);
  RFD_REQUIRE_MSG(estimate <= available, message);
}

ClusterNode::ClusterNode(NodeId id, int max_nodes, NodeParams params)
    : id_(id), max_nodes_(max_nodes), params_(params),
      counters_(static_cast<std::size_t>(max_nodes), 0),
      hot_(static_cast<std::size_t>(max_nodes)),
      eval_tick_(static_cast<std::size_t>(max_nodes), -1),
      records_(static_cast<std::size_t>(max_nodes)),
      digest_cursor_(static_cast<int>(id) % max_nodes) {
  RFD_REQUIRE(id >= 0 && id < max_nodes);
  RFD_REQUIRE(params_.bootstrap_grace_ms > 0.0);
  // 0 would re-queue a peer on every observe() without any topology ever
  // draining it - unbounded hot-queue growth; the count is stored as one
  // dense byte per peer, hence the upper bound.
  RFD_REQUIRE(params_.hot_transmissions >= 1 &&
              params_.hot_transmissions <= 127);
  const rt::DetectorParams& d = params_.detector;
  if (!adaptive(d.kind)) {
    fixed_timeout_ms_ = d.fixed.timeout_ms;
    RFD_REQUIRE(fixed_timeout_ms_ > 0.0);
    return;
  }
  // The same preconditions the standalone rt detectors enforce; the
  // window bound is what a RingPos can index.
  window_ = window_of(d);
  RFD_REQUIRE(window_ >= 2 && window_ <= rt::kMaxWindow);
  if (is_phi()) {
    RFD_REQUIRE(d.phi.threshold > 0.0);
    phi_z_ = rt::phi_z_threshold(d.phi.threshold);
  } else {
    RFD_REQUIRE(d.chen.alpha_ms > 0.0);
  }
}

bool ClusterNode::advance_adaptive(PeerHot& h, std::size_t p, double now) {
  const bool start = (h.flags & kStartedFlag) == 0;
  if (start) {
    if (ring_slab_ == nullptr) allocate_adaptive();
    h.flags |= kStartedFlag;
    h.ring = rt::RingPos{};
    h.last_heartbeat = -1.0;
    if (is_phi()) phi_fit_[p] = rt::PhiFit{0.0, 0.0};
  }
  if (is_phi()) {
    rt::phi_heartbeat(ring(p), h.last_heartbeat, phi_fit_[p], now);
  } else {
    chen_expected_[p] = rt::chen_heartbeat(ring(p), now);
    h.last_heartbeat = now;
  }
  return start;
}

bool ClusterNode::adaptive_suspects(std::size_t p, double now) const {
  const PeerHot& h = hot_[p];
  if (is_phi()) {
    return rt::phi_suspects(params_.detector.phi, h.ring.count,
                            h.last_heartbeat, phi_fit_[p], now);
  }
  return rt::chen_suspects(params_.detector.chen, h.ring.count,
                           h.last_heartbeat, chen_expected_[p], now);
}

double ClusterNode::adaptive_deadline(std::size_t p) const {
  const PeerHot& h = hot_[p];
  if (is_phi()) {
    return rt::phi_deadline(params_.detector.phi, phi_z_, h.ring.count,
                            h.last_heartbeat, phi_fit_[p]);
  }
  return rt::chen_deadline(params_.detector.chen, h.ring.count,
                           h.last_heartbeat, chen_expected_[p]);
}

void ClusterNode::allocate_adaptive() {
  const std::size_t n = static_cast<std::size_t>(max_nodes_);
  ring_slab_ = std::make_unique_for_overwrite<double[]>(
      n * static_cast<std::size_t>(window_));
  if (is_phi()) {
    phi_fit_ = std::make_unique_for_overwrite<rt::PhiFit[]>(n);
  } else {
    chen_expected_ = std::make_unique_for_overwrite<double[]>(n);
  }
}

void ClusterNode::reset_peers(double now,
                              const std::vector<NodeId>& contacts) {
  std::fill(counters_.begin(), counters_.end(), 0);
  std::fill(hot_.begin(), hot_.end(), PeerHot{});
  std::fill(eval_tick_.begin(), eval_tick_.end(), std::int64_t{-1});
  std::fill(records_.begin(), records_.end(), PeerRecord{});
  hot_queue_.clear();
  hot_head_ = 0;
  known_count_ = 0;
  ++membership_version_;
  for (NodeId contact : contacts) {
    learn_peer(contact, now);
  }
}

void ClusterNode::save_state(std::vector<std::uint8_t>& out) const {
  ByteWriter w(out);
  w.i32(id_);
  w.i32(max_nodes_);
  w.i64(membership_version_);
  w.u8(active_ ? 1 : 0);
  w.i64(own_counter_);
  w.i32(digest_cursor_);
  w.i32(known_count_);
  for (std::int32_t c : counters_) w.i32(c);
  // The hot slot's timestamp is the kFixed detector's state; an adaptive
  // detector's latest arrival travels in its own slice below, so the
  // slot is written as the unused -1 there. The started bit is carried
  // by the per-peer detector byte instead of the flags byte.
  // Wheel arming is the driver's derived state, rebuilt after a restore,
  // so every pair is written unarmed: eval tick -1, armed bit clear.
  const bool fixed = fixed_timeout_ms_ > 0.0;
  for (const PeerHot& h : hot_) {
    w.f64(fixed ? h.last_heartbeat : -1.0);
    w.u8(h.flags & static_cast<std::uint8_t>(~kUnsavedFlags));
    w.u8(static_cast<std::uint8_t>(h.hot_remaining));
  }
  for (std::size_t p = 0; p < eval_tick_.size(); ++p) w.i64(-1);
  std::vector<double> slice;
  for (std::size_t p = 0; p < records_.size(); ++p) {
    const PeerRecord& r = records_[p];
    w.f64(r.known_since);
    w.f64(r.suspect_since);
    const PeerHot& h = hot_[p];
    const bool started = (h.flags & kStartedFlag) != 0;
    w.u8(started ? 1 : 0);
    if (!started) continue;
    slice.clear();
    if (is_phi()) {
      rt::phi_save(slice, h.last_heartbeat, phi_fit_[p], ring(p));
    } else {
      rt::chen_save(slice, chen_expected_[p], ring(p));
    }
    w.u32(static_cast<std::uint32_t>(slice.size()));
    for (double x : slice) w.f64(x);
  }
  // Only the live [hot_head_, size()) region of the hot queue matters;
  // the restored queue starts compacted at head 0.
  w.u32(static_cast<std::uint32_t>(hot_queue_.size() - hot_head_));
  for (std::size_t i = hot_head_; i < hot_queue_.size(); ++i) {
    w.i32(hot_queue_[i]);
  }
}

bool ClusterNode::restore_state(const std::uint8_t* data, std::size_t size,
                                std::size_t& consumed) {
  ByteReader r(data, size);
  const std::int32_t id = r.i32();
  const std::int32_t max_nodes = r.i32();
  if (!r.ok() || id != id_ || max_nodes != max_nodes_) return false;
  membership_version_ = r.i64();
  active_ = r.u8() != 0;
  own_counter_ = r.i64();
  digest_cursor_ = r.i32();
  known_count_ = r.i32();
  for (std::int32_t& c : counters_) c = r.i32();
  for (PeerHot& h : hot_) {
    h.last_heartbeat = r.f64();
    h.flags = r.u8() & static_cast<std::uint8_t>(~kUnsavedFlags);
    h.hot_remaining = static_cast<std::int8_t>(r.u8());
  }
  // Restored pairs start unarmed whatever the stream says (see save_state).
  for (std::int64_t& t : eval_tick_) {
    r.i64();
    t = -1;
  }
  std::vector<double> slice;
  for (std::size_t p = 0; p < records_.size(); ++p) {
    PeerRecord& rec = records_[p];
    rec.known_since = r.f64();
    rec.suspect_since = r.f64();
    const bool has_detector = r.u8() != 0;
    if (!has_detector) continue;
    // Only adaptive detectors have state outside the hot slot.
    if (fixed_timeout_ms_ > 0.0) return false;
    const std::uint32_t count = r.u32();
    if (!r.ok() || count > (1u << 20)) return false;
    slice.resize(count);
    for (double& x : slice) {
      x = r.f64();
      // Times (ms) and their moments; a bound keeps every deadline's tick
      // conversion in range, and refuses NaN.
      if (!(std::fabs(x) <= 1e15)) return false;
    }
    if (!r.ok()) return false;
    if (ring_slab_ == nullptr) allocate_adaptive();
    PeerHot& h = hot_[p];
    const double* cursor = slice.data();
    const double* end = cursor + slice.size();
    bool restored = false;
    if (is_phi()) {
      restored = rt::phi_restore(cursor, end, ring(p), h.last_heartbeat,
                                 phi_fit_[p]);
    } else {
      restored = rt::chen_restore(cursor, end, ring(p), chen_expected_[p]);
      if (restored) {
        h.last_heartbeat =
            h.ring.count > 0 ? ring(p).view().newest() : -1.0;
      }
    }
    if (!restored || cursor != end) return false;
    h.flags |= kStartedFlag;
  }
  const std::uint32_t queued = r.u32();
  if (!r.ok() || queued > static_cast<std::uint32_t>(max_nodes_)) {
    return false;
  }
  hot_queue_.resize(queued);
  for (NodeId& peer : hot_queue_) {
    peer = r.i32();
    if (peer < 0 || peer >= max_nodes_) return false;
  }
  hot_head_ = 0;
  if (!r.ok()) return false;
  if (digest_cursor_ < 0 || digest_cursor_ >= max_nodes_ ||
      known_count_ < 0 || known_count_ > max_nodes_ || own_counter_ < 0 ||
      own_counter_ >= std::numeric_limits<std::int32_t>::max()) {
    return false;
  }
  // Times feed deadline arithmetic and the wheel's tick conversion: a
  // saved time is -1 (none) or a sim time in ms below ~31 years.
  const auto is_time = [](double t) { return t >= -1.0 && t <= 1e12; };
  int known = 0;
  for (std::size_t p = 0; p < hot_.size(); ++p) {
    known += (hot_[p].flags & kKnownFlag) != 0 ? 1 : 0;
    if (!is_time(hot_[p].last_heartbeat) || counters_[p] < 0 ||
        !is_time(records_[p].known_since) ||
        !is_time(records_[p].suspect_since)) {
      return false;
    }
  }
  if (known != known_count_) return false;
  consumed = size - r.remaining();
  return true;
}

}  // namespace rfd::cluster
