#include "cluster/node_step.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace rfd::cluster {

NodeSet::NodeSet(int n, int max_nodes, const NodeParams& params,
                 std::uint64_t rng_seed) {
  require_node_memory(n, max_nodes, params);
  lies.resize(static_cast<std::size_t>(max_nodes));
  nodes.reserve(static_cast<std::size_t>(max_nodes));
  rngs.reserve(static_cast<std::size_t>(max_nodes));
  const Rng base(rng_seed);
  for (NodeId i = 0; i < max_nodes; ++i) {
    nodes.emplace_back(i, max_nodes, params);
    rngs.push_back(base.split(static_cast<std::uint64_t>(i)));
  }
}

bool is_network_fault(FaultKind kind) {
  // Everything but the node faults NodeStep::apply_fault takes.
  return kind != FaultKind::kCrash && kind != FaultKind::kRecover &&
         kind != FaultKind::kJoin && kind != FaultKind::kLeave &&
         kind != FaultKind::kLieStart && kind != FaultKind::kLieEnd;
}

bool apply_network_fault(rt::Network& net, const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kPartition:
      net.set_partition(event.groups);
      return true;
    case FaultKind::kHeal:
      net.clear_partition();
      return true;
    case FaultKind::kStormStart:
      net.set_storm(event.extra_delay_ms, event.delay_prob);
      return true;
    case FaultKind::kStormEnd:
      net.clear_storm();
      return true;
    case FaultKind::kLinkDown:
      net.add_link_block(event.groups[0], event.groups[1]);
      return true;
    case FaultKind::kLinkUp:
      net.remove_link_block(event.groups[0], event.groups[1]);
      return true;
    case FaultKind::kSlowStart:
      net.set_delay_factor(event.node, event.factor);
      return true;
    case FaultKind::kSlowEnd:
      net.set_delay_factor(event.node, 1.0);
      return true;
    default:
      return false;
  }
}

bool validate_digest(const std::uint8_t* data, std::size_t size,
                     int max_nodes) {
  constexpr auto kMaxCounter =
      static_cast<std::uint32_t>(std::numeric_limits<std::int32_t>::max());
  DigestReader reader(data, size);
  std::uint32_t own = 0;
  std::uint32_t count = 0;
  if (!reader.read(own) || !reader.read(count) || own > kMaxCounter) {
    return false;
  }
  std::int64_t id = 0;
  for (std::uint32_t e = 0; e < count; ++e) {
    std::uint32_t gap = 0;
    std::uint32_t counter = 0;
    if (!reader.read(gap) || !reader.read(counter)) return false;
    id += gap;
    if (id >= max_nodes || counter > kMaxCounter) return false;
  }
  return reader.done();
}

NodeStep::NodeStep(NodeSet& set, NodeId lo, NodeId hi,
                   const TopologyParams& topology, double check_ms)
    : set_(set),
      lo_(lo),
      hi_(hi),
      check_ms_(check_ms),
      topology_(make_topology(topology, set.max_nodes())) {
  RFD_REQUIRE(lo >= 0 && lo <= hi && hi <= set.max_nodes());
  RFD_REQUIRE_MSG(set.max_nodes() <= kMaxNodes,
                  "max_nodes exceeds the suspicion wheel's 32-bit pair keys");
  RFD_REQUIRE_MSG(check_ms > 0.0, "check interval must be > 0");
  truth_.reset(set.max_nodes(), 0);
  id_bits_.assign((static_cast<std::size_t>(set.max_nodes()) + 63) / 64, 0);
}

void NodeStep::seed(int n) {
  truth_.reset(set_.max_nodes(), n);
  // The initial membership list is configuration, not discovery.
  for (NodeId i = lo_; i < hi_; ++i) {
    node(i).set_active(i < n);
    if (i >= n) continue;
    for (NodeId j = 0; j < n; ++j) {
      if (node(i).learn_peer(j, 0.0)) arm_deadline(i, j);
    }
  }
}

void NodeStep::encode(std::vector<std::uint8_t>& out) {
  sort_ids(digest_);
  const ClusterNode& sender = node(sender_);
  encode_digest(
      advertised_, digest_,
      [&sender](NodeId j) {
        return static_cast<std::uint32_t>(sender.counter(j));
      },
      out);
}

void GroundTruth::reset(int max_nodes, int n) {
  const auto size = static_cast<std::size_t>(max_nodes);
  ever.assign(size, 0);
  up.assign(size, 0);
  down_since.assign(size, -1.0);
  std::fill_n(ever.begin(), n, 1);
  std::fill_n(up.begin(), n, 1);
}

bool GroundTruth::apply(FaultKind kind, NodeId j, double now) {
  const auto p = static_cast<std::size_t>(j);
  switch (kind) {
    case FaultKind::kCrash:
    case FaultKind::kLeave:
      if (up[p] == 0) return false;
      up[p] = 0;
      down_since[p] = now;
      return true;
    case FaultKind::kRecover:
      if (ever[p] == 0 || up[p] != 0) return false;
      up[p] = 1;
      down_since[p] = -1.0;
      return true;
    case FaultKind::kJoin:
      if (ever[p] != 0) return false;
      ever[p] = 1;
      up[p] = 1;
      return true;
    default:
      return true;
  }
}

bool NodeStep::apply_fault(const FaultEvent& event, double now) {
  const NodeId j = event.node;
  RFD_REQUIRE(j >= 0 && j < set_.max_nodes());
  if (!truth_.apply(event.kind, j, now)) return false;
  if (!owns(j)) return true;
  const auto p = static_cast<std::size_t>(j);
  switch (event.kind) {
    case FaultKind::kCrash:
    case FaultKind::kLeave:
      node(j).set_active(false);
      return true;
    case FaultKind::kRecover:
    case FaultKind::kJoin:
      restart(j, now);
      return true;
    case FaultKind::kLieStart:
      // The lie diverges from the current truth, so a jump and a regress
      // both start from the counter peers last believed.
      set_.lies[p] = Lie{true, event.factor,
                         static_cast<double>(node(j).own_counter())};
      return true;
    case FaultKind::kLieEnd:
      set_.lies[p].on = false;
      return true;
    default:
      RFD_UNREACHABLE("network fault passed to NodeStep::apply_fault");
  }
}

void NodeStep::rearm() {
  for (NodeId i = lo_; i < hi_; ++i) {
    const ClusterNode& n = node(i);
    if (!n.active()) continue;
    for (NodeId j = 0; j < set_.max_nodes(); ++j) {
      if (j != i && n.knows(j) && !n.is_suspected(j)) arm_deadline(i, j);
    }
  }
}

/// Arms pair (i, j) for evaluation at check tick `tick` (clamped to the
/// next tick). Earliest arming wins; superseded wheel entries are skipped
/// via the eval_tick mismatch when their tick comes up.
void NodeStep::arm_pair(NodeId i, NodeId j, std::int64_t tick) {
  tick = std::max(tick, check_tick_ + 1);
  ClusterNode& n = node(i);
  const std::int64_t current = n.eval_tick(j);
  if (current >= 0 && current <= tick) return;
  n.set_eval_tick(j, tick);
  wheel_.push(check_tick_, tick, pair_key(i, j));
}

/// Arms (i, j) one check tick before its deadline could first flip the
/// verdict. Early on purpose: arming early costs one extra suspects()
/// query, arming late would miss the tick a scan of every pair would have
/// caught.
void NodeStep::arm_deadline(NodeId i, NodeId j) {
  const double deadline = node(i).suspect_deadline(j);
  if (!std::isfinite(deadline)) return;
  arm_pair(i, j,
           static_cast<std::int64_t>(std::floor(deadline / check_ms_)) - 1);
}

/// A restarted process lost its peer memory; it rejoins from the current
/// membership the way a provisioning system would seed it, with the grace
/// deadline of every seeded pair armed.
void NodeStep::restart(NodeId x, double now) {
  std::vector<NodeId> contacts;
  for (NodeId j = 0; j < set_.max_nodes(); ++j) {
    if (truth_.up[static_cast<std::size_t>(j)] != 0) contacts.push_back(j);
  }
  node(x).reset_peers(now, contacts);
  for (const NodeId contact : contacts) {
    if (contact != x) arm_deadline(x, contact);
  }
  node(x).set_active(true);
}

/// Sorts digest ids ascending in place for the codec: a bitmap insert and
/// an ordered bit walk instead of a comparison sort. An id selected twice
/// (a hot-queue id the rotation cursor also reached) falls back to
/// std::sort. With digests as large as the membership, the hot pass and
/// the rotation both emit most ids, so that fallback runs on nearly every
/// message. Either path yields the identical sorted multiset.
void NodeStep::sort_ids(std::vector<NodeId>& ids) {
  auto& words = id_bits_;
  for (const NodeId id : ids) {
    const std::size_t w = static_cast<std::size_t>(id) >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if ((words[w] & bit) != 0) {
      for (const NodeId x : ids) words[static_cast<std::size_t>(x) >> 6] = 0;
      std::sort(ids.begin(), ids.end());
      return;
    }
    words[w] |= bit;
  }
  std::size_t n = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    std::uint64_t word = words[w];
    if (word == 0) continue;
    words[w] = 0;
    do {
      ids[n++] = static_cast<NodeId>(
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    } while (word != 0);
  }
}

}  // namespace rfd::cluster
