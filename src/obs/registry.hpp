// Named metrics registry: counters, gauges and histograms with periodic
// snapshot records interleaved into the trace stream.
//
// The engine publishes its QoS ledger and counters here (the ledger also
// fills the ClusterReport, so the live report and the streamed snapshots
// can never disagree). Handles returned by counter()/gauge()/histogram() are
// stable for the registry's lifetime; hot paths cache the pointer once
// and pay one add per update. Snapshot field order is registration order,
// which keeps snapshot lines byte-identical across fixed-seed runs.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/trace_writer.hpp"

namespace rfd::obs {

class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Histogram metric backed by the repo's Summary (exact percentiles from
/// retained samples - fine at experiment scales).
class Histo {
 public:
  void add(double x) { summary_.add(x); }
  const Summary& summary() const { return summary_; }

 private:
  Summary summary_;
};

class Registry {
 public:
  /// Returns (creating on first use) the metric with `name`. A name keeps
  /// its kind: asking for an existing name with a different kind is a
  /// programming error and asserts.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histo& histogram(const std::string& name);

  /// Lookup without creation; nullptr when absent or of another kind.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histo* find_histogram(const std::string& name) const;

  /// Emits one snapshot record into `out`:
  ///   {"type":"snap","t":...,"tick":...,"m":{name:value,...}}
  /// Counters and gauges are plain numbers; histograms are
  /// {"count":..,"mean":..,"p50":..,"p99":..,"max":..}. Field order is
  /// registration order.
  void snapshot(TraceWriter& out, double t, std::int64_t tick) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHisto };
  struct Entry {
    std::string name;
    Kind kind;
    std::size_t index;  // into the kind's deque
  };
  const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;  // registration order
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histo> histos_;
};

}  // namespace rfd::obs
