// Timeout-based failure detector implementations over heartbeats.
//
// These are the "realistic failure detectors" as deployed systems build
// them - <>P-grade at best: they can always be wrong before the network
// stabilizes. Three classics are provided:
//
//   FixedTimeoutDetector  - suspect after a constant silence window;
//   ChenAdaptiveDetector  - Chen-Toueg NFD-E style: estimate the next
//                           heartbeat arrival from a sliding window of
//                           past arrivals and add a safety margin alpha;
//   PhiAccrualDetector    - Hayashibara-style accrual detector: suspicion
//                           level phi = -log10 P(heartbeat still pending),
//                           with inter-arrival times fitted by a normal
//                           distribution; suspect when phi exceeds a
//                           threshold.
//
// Each detector instance monitors ONE peer (see qos.cpp / membership.cpp).
// The adaptive math itself - window update, deadline, verdict, and the
// checkpoint slice - is a set of free functions over a ring view of the
// window, so the cluster node can run the same arithmetic over its
// per-node ring slab without a detector object per (observer, peer)
// pair; the classes are thin owners of one ring each.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rfd::rt {

// ------------------------------------------------------------- windows

/// Where a sliding window sits in caller-owned storage of `capacity`
/// doubles: `count` live entries, oldest at `head`, wrapping. Four bytes,
/// so the cluster node keeps one per peer in its hot-slot padding.
struct RingPos {
  std::uint16_t head = 0;
  std::uint16_t count = 0;
};

/// Largest window a RingPos can index.
inline constexpr int kMaxWindow = 0xffff;

/// Read-only view of one window.
struct RingView {
  const double* slots;
  int capacity;
  RingPos pos;

  std::size_t size() const { return pos.count; }
  /// The i-th oldest entry.
  double operator[](std::size_t i) const {
    std::size_t k = pos.head + i;
    if (k >= static_cast<std::size_t>(capacity)) {
      k -= static_cast<std::size_t>(capacity);
    }
    return slots[k];
  }
  double oldest() const { return (*this)[0]; }
  double newest() const { return (*this)[pos.count - 1u]; }
  /// Calls f(x) for every entry, oldest to newest - the summation order
  /// every window statistic uses.
  template <typename F>
  void for_each(F&& f) const {
    const std::size_t cap = static_cast<std::size_t>(capacity);
    const std::size_t first = pos.head;
    const std::size_t run = std::min<std::size_t>(pos.count, cap - first);
    for (std::size_t i = first; i < first + run; ++i) f(slots[i]);
    for (std::size_t i = 0; i < pos.count - run; ++i) f(slots[i]);
  }
};

/// Mutable view of one window.
struct RingRef {
  double* slots;
  int capacity;
  RingPos& pos;

  RingView view() const { return RingView{slots, capacity, pos}; }
  /// Appends x, evicting the oldest entry when the window is full.
  void push(double x) {
    const std::size_t cap = static_cast<std::size_t>(capacity);
    std::size_t tail = static_cast<std::size_t>(pos.head) + pos.count;
    if (tail >= cap) tail -= cap;
    slots[tail] = x;
    if (pos.count < capacity) {
      ++pos.count;
    } else if (++pos.head == capacity) {
      pos.head = 0;
    }
  }
  /// Replaces the window with `count` (<= capacity) entries, oldest first.
  void assign(const double* first, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) slots[i] = first[i];
    pos.head = 0;
    pos.count = static_cast<std::uint16_t>(count);
  }
};

// ---------------------------------------------------------- parameters

struct FixedTimeoutParams {
  double timeout_ms = 500.0;
};

struct ChenAdaptiveParams {
  int window = 16;           // arrivals remembered
  double alpha_ms = 100.0;   // safety margin added to the estimated arrival
  double fallback_timeout_ms = 1000.0;  // before the first heartbeat
};

struct PhiAccrualParams {
  int window = 32;
  double threshold = 8.0;          // suspect when phi exceeds this
  double min_stddev_ms = 10.0;     // variance floor for early samples
  double fallback_timeout_ms = 1000.0;
};

// ------------------------------------------------- Chen-Toueg NFD-E math
//
// State: the arrival window, the expected next arrival (-1 until the
// window holds two arrivals) and the latest arrival `last` (-1 before
// any; the window's newest entry otherwise).

/// Appends arrival `now`; returns the new expected arrival.
double chen_heartbeat(RingRef arrivals, double now);
/// Verdict at `now`; `count` is the window's size.
bool chen_suspects(const ChenAdaptiveParams& params, std::size_t count,
                   double last, double expected, double now);
/// Expiry deadline: absent further arrivals, suspects(t) iff t > it.
double chen_deadline(const ChenAdaptiveParams& params, std::size_t count,
                     double last, double expected);
/// Checkpoint slice [expected, count, arrivals...]; restore consumes one
/// slice from `cursor` and returns false when it is truncated or its
/// count exceeds the window.
void chen_save(std::vector<double>& out, double expected, RingView arrivals);
bool chen_restore(const double*& cursor, const double* end,
                  RingRef arrivals, double& expected);

// ---------------------------------------------------- phi accrual math
//
// State: the inter-arrival window, its normal fit, and the latest arrival
// `last` (-1 before any).

/// Normal fit of the interval window (sample mean and variance).
/// Deliberately without member initializers: the cluster node keeps an
/// array of them that must not be zero-filled up front.
struct PhiFit {
  double mean;
  double var;
};

/// z-score at which phi crosses `threshold` under the normal fit: the
/// deadline is then last + mean + stddev * z in O(1). Solved by a
/// 120-step bisection, memoized per thread for the last threshold asked.
double phi_z_threshold(double threshold);
/// How many bisections phi_z_threshold has run in this process.
std::uint64_t phi_z_solves();

/// Records arrival `now`: appends the interval since `last` (if any),
/// refits, and moves `last` to `now`.
void phi_heartbeat(RingRef intervals, double& last, PhiFit& fit, double now);
/// Suspicion level phi at `now` (0 without an interval sample).
double phi_level(const PhiAccrualParams& params, std::size_t count,
                 double last, const PhiFit& fit, double now);
bool phi_suspects(const PhiAccrualParams& params, std::size_t count,
                  double last, const PhiFit& fit, double now);
/// Expiry deadline; `z` is phi_z_threshold(params.threshold).
double phi_deadline(const PhiAccrualParams& params, double z,
                    std::size_t count, double last, const PhiFit& fit);
/// Checkpoint slice [last, mean, var, count, intervals...].
void phi_save(std::vector<double>& out, double last, const PhiFit& fit,
              RingView intervals);
bool phi_restore(const double*& cursor, const double* end,
                 RingRef intervals, double& last, PhiFit& fit);

// ----------------------------------------------------------- detectors

class PeerDetector {
 public:
  virtual ~PeerDetector() = default;

  /// Records a heartbeat from the monitored peer at time `now` (ms).
  virtual void on_heartbeat(double now) = 0;

  /// Whether the peer is suspected at time `now`.
  virtual bool suspects(double now) const = 0;

  /// The expiry deadline D (absolute ms): absent further heartbeats,
  /// suspects(t) holds exactly for t > D. Suspicion is monotone between
  /// heartbeats, so a scheduler can register one cancelable deadline per
  /// peer instead of polling suspects() on a grid; a heartbeat may move D
  /// in either direction (an adaptive window can tighten), so re-query
  /// after every on_heartbeat.
  virtual double suspect_deadline() const = 0;

  virtual std::string name() const = 0;
};

class FixedTimeoutDetector final : public PeerDetector {
 public:
  explicit FixedTimeoutDetector(FixedTimeoutParams params);

  void on_heartbeat(double now) override;
  bool suspects(double now) const override;
  double suspect_deadline() const override;
  std::string name() const override { return "fixed"; }

 private:
  FixedTimeoutParams params_;
  double last_heartbeat_ = -1.0;  // -1 = none yet (grace until first)
};

class ChenAdaptiveDetector final : public PeerDetector {
 public:
  explicit ChenAdaptiveDetector(ChenAdaptiveParams params);

  void on_heartbeat(double now) override;
  bool suspects(double now) const override;
  double suspect_deadline() const override;
  std::string name() const override { return "chen"; }

  /// Expected arrival time of the next heartbeat (for diagnostics).
  double expected_arrival() const { return expected_arrival_; }

 private:
  RingView arrivals() const {
    return RingView{slots_.get(), params_.window, pos_};
  }
  double last() const { return pos_.count > 0 ? arrivals().newest() : -1.0; }

  ChenAdaptiveParams params_;
  std::unique_ptr<double[]> slots_;
  RingPos pos_;
  double expected_arrival_ = -1.0;
};

class PhiAccrualDetector final : public PeerDetector {
 public:
  explicit PhiAccrualDetector(PhiAccrualParams params);

  void on_heartbeat(double now) override;
  bool suspects(double now) const override;
  double suspect_deadline() const override;
  std::string name() const override { return "phi"; }

  /// Current suspicion level phi at time `now`.
  double phi(double now) const;

 private:
  PhiAccrualParams params_;
  std::unique_ptr<double[]> slots_;
  RingPos pos_;
  double last_heartbeat_ = -1.0;
  PhiFit fit_{0.0, 0.0};
  double z_threshold_ = 0.0;
};

enum class DetectorKind { kFixed, kChen, kPhi };

struct DetectorParams {
  DetectorKind kind = DetectorKind::kChen;
  FixedTimeoutParams fixed;
  ChenAdaptiveParams chen;
  PhiAccrualParams phi;
};

std::unique_ptr<PeerDetector> make_detector(const DetectorParams& params);
std::string detector_kind_name(DetectorKind kind);

}  // namespace rfd::rt
