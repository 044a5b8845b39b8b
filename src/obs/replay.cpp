#include "obs/replay.hpp"

#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "cluster/qos_ledger.hpp"
#include "cluster/scenario.hpp"

namespace rfd::obs {
namespace {

// Field extraction for the flat record grammar TraceWriter produces: every
// line is one object whose first field is "type", and the replayed records
// carry no nested objects.
bool has_type(const std::string& line, const char* type) {
  return line.starts_with(std::string("{\"type\":\"") + type + "\"");
}

bool field(const std::string& line, const char* key, double& out) {
  const std::string pattern = std::string("\"") + key + "\":";
  const std::size_t pos = line.find(pattern);
  return pos != std::string::npos &&
         std::sscanf(line.c_str() + pos + pattern.size(), "%lf", &out) == 1;
}

}  // namespace

ReplayQos replay_qos(const std::string& path) {
  ReplayQos result;
  std::ifstream in(path);
  if (!in) {
    result.error = "cannot open " + path;
    return result;
  }

  // The fault records drive the ground-truth transitions the live run
  // made; the suspect and clear records drive the same tally and the
  // standing suspicions, (observer, victim) -> raise time, that the
  // ledger's finalize reads in place of the nodes' records.
  cluster::GroundTruth truth;
  cluster::QosTally tally;
  std::unordered_map<std::int64_t, double> suspicion;
  const auto key = [&](cluster::NodeId i, cluster::NodeId j) {
    return static_cast<std::int64_t>(i) * result.max_nodes + j;
  };
  // Reads an id field, false when absent or outside the id space.
  const auto id = [&](const std::string& line, const char* name,
                      cluster::NodeId& out) {
    double v = -1.0;
    if (!field(line, name, v) || v < 0.0 || v >= result.max_nodes) {
      return false;
    }
    out = static_cast<cluster::NodeId>(v);
    return true;
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line.front() != '{') continue;
    ++result.records_read;
    double t = 0.0;
    field(line, "t", t);
    cluster::NodeId i = -1;
    cluster::NodeId j = -1;
    if (has_type(line, "run")) {
      double n = 0.0;
      double max_nodes = 0.0;
      field(line, "n", n);
      field(line, "max_nodes", max_nodes);
      field(line, "duration_ms", result.duration_ms);
      result.n = static_cast<int>(n);
      result.max_nodes = static_cast<int>(max_nodes);
      if (result.max_nodes <= 0 || result.n < 0 || result.n > max_nodes) {
        result.error = "bad run header in " + path;
        return result;
      }
      truth.reset(result.max_nodes, result.n);
    } else if (truth.up.empty()) {
      continue;  // nothing to replay before the run header
    } else if (has_type(line, "fault") && id(line, "node", j)) {
      // The drivers emit fault records only for faults that took effect.
      for (const cluster::FaultKind k :
           {cluster::FaultKind::kCrash, cluster::FaultKind::kRecover,
            cluster::FaultKind::kJoin, cluster::FaultKind::kLeave}) {
        const std::string kind =
            std::string("\"kind\":\"") + cluster::fault_kind_cstr(k) + "\"";
        if (line.find(kind) == std::string::npos) continue;
        truth.apply(k, j, t);
        if (k == cluster::FaultKind::kRecover ||
            k == cluster::FaultKind::kJoin) {
          // A restarted/joined process has no peer memory: its row of
          // standing suspicions is wiped (ClusterNode::reset_peers).
          for (cluster::NodeId v = 0; v < result.max_nodes; ++v) {
            suspicion.erase(key(j, v));
          }
        }
      }
    } else if ((has_type(line, "suspect") || has_type(line, "clear")) &&
               id(line, "observer", i) && id(line, "victim", j)) {
      const bool suspected = has_type(line, "suspect");
      double down = 0.0;
      field(line, "down", down);
      tally.flip(i, j, suspected, down != 0.0, t, nullptr);
      if (suspected) {
        suspicion[key(i, j)] = t;
      } else {
        suspicion.erase(key(i, j));
      }
    } else if (has_type(line, "lost")) {
      double dropped = 0.0;
      field(line, "dropped", dropped);
      result.lost_records += static_cast<std::int64_t>(dropped);
    }
  }
  if (truth.up.empty()) {
    result.error = "no run header record in " + path;
    return result;
  }

  cluster::QosLedger ledger;
  ledger.finalize(truth, [&](cluster::NodeId observer,
                             cluster::NodeId victim) {
    cluster::PeerView view;
    const auto it = suspicion.find(key(observer, victim));
    if (it != suspicion.end()) {
      view.known = view.suspected = true;
      view.suspect_since = it->second;
    }
    return view;
  });
  for (const double sample : ledger.detection()) {
    result.detection_latency_ms.add(sample);
  }
  result.false_suspicions = tally.false_suspicions;
  result.suspicion_raises = tally.raises;
  result.suspicion_clears = tally.clears;
  result.ok = true;
  return result;
}

}  // namespace rfd::obs
