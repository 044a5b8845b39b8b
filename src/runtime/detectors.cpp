#include "runtime/detectors.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace rfd::rt {
namespace {

/// Solves erfc(x) = y for x by bisection (erfc is strictly decreasing).
/// Returns the lower bracket end, so the caller's derived deadline errs
/// early - a deadline that fires a hair before the true crossing costs
/// one spurious suspects() query; one that fires after misses it.
double inverse_erfc(double y) {
  double lo = -6.0;   // erfc(-6) ~ 2
  double hi = 28.0;   // erfc(28) underflows to 0
  for (int i = 0; i < 120; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (std::erfc(mid) >= y) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::atomic<std::uint64_t> g_z_solves{0};

/// Checks a checkpoint slice's element count against the window and the
/// doubles left after `cursor`; on success `count` holds it.
bool read_window_count(const double* cursor, const double* end,
                       double count_d, int window, std::size_t& count) {
  if (!(count_d >= 0.0) || count_d > static_cast<double>(window)) {
    return false;
  }
  count = static_cast<std::size_t>(count_d);
  return static_cast<std::size_t>(end - cursor) >= count;
}

}  // namespace

// ---------------------------------------------------------------- Chen

double chen_heartbeat(RingRef arrivals, double now) {
  arrivals.push(now);
  const RingView w = arrivals.view();
  if (w.size() < 2) return -1.0;
  // Chen-Toueg NFD-E: EA = mean inter-arrival extrapolated from the
  // window's first arrival, advanced one period past the latest.
  const double span = w.newest() - w.oldest();
  const double period = span / static_cast<double>(w.size() - 1);
  return w.newest() + period;
}

bool chen_suspects(const ChenAdaptiveParams& params, std::size_t count,
                   double last, double expected, double now) {
  if (count == 0) {
    return now > params.fallback_timeout_ms;
  }
  if (expected < 0.0) {
    return now - last > params.fallback_timeout_ms;
  }
  return now > expected + params.alpha_ms;
}

double chen_deadline(const ChenAdaptiveParams& params, std::size_t count,
                     double last, double expected) {
  if (count == 0) return params.fallback_timeout_ms;
  if (expected < 0.0) return last + params.fallback_timeout_ms;
  return expected + params.alpha_ms;
}

void chen_save(std::vector<double>& out, double expected,
               RingView arrivals) {
  out.push_back(expected);
  out.push_back(static_cast<double>(arrivals.size()));
  arrivals.for_each([&out](double x) { out.push_back(x); });
}

bool chen_restore(const double*& cursor, const double* end,
                  RingRef arrivals, double& expected) {
  if (end - cursor < 2) return false;
  const double saved_expected = cursor[0];
  const double count_d = cursor[1];
  cursor += 2;
  std::size_t count = 0;
  if (!read_window_count(cursor, end, count_d, arrivals.capacity, count)) {
    return false;
  }
  expected = saved_expected;
  arrivals.assign(cursor, count);
  cursor += count;
  return true;
}

// ----------------------------------------------------------------- phi

double phi_z_threshold(double threshold) {
  // One entry per thread: a run uses one threshold, so every detector
  // and node after the first reuses the solve; thread_local keeps the
  // memo race-free without a lock.
  thread_local double memo_threshold =
      std::numeric_limits<double>::quiet_NaN();
  thread_local double memo_z = 0.0;
  if (threshold != memo_threshold) {
    // suspects() fires when phi > threshold, i.e. when the normal tail
    // 0.5*erfc(z/sqrt(2)) drops below 10^-threshold; invert once here.
    const double tail = std::pow(10.0, -threshold);
    memo_z = std::sqrt(2.0) * inverse_erfc(2.0 * tail);
    memo_threshold = threshold;
    g_z_solves.fetch_add(1, std::memory_order_relaxed);
  }
  return memo_z;
}

std::uint64_t phi_z_solves() {
  return g_z_solves.load(std::memory_order_relaxed);
}

void phi_heartbeat(RingRef intervals, double& last, PhiFit& fit,
                   double now) {
  if (last >= 0.0) {
    intervals.push(now - last);
    const RingView w = intervals.view();
    double sum = 0.0;
    w.for_each([&sum](double x) { sum += x; });
    fit.mean = sum / static_cast<double>(w.size());
    double sq = 0.0;
    const double mean = fit.mean;
    w.for_each([&sq, mean](double x) { sq += (x - mean) * (x - mean); });
    fit.var = w.size() > 1 ? sq / static_cast<double>(w.size() - 1) : 0.0;
  }
  last = now;
}

double phi_level(const PhiAccrualParams& params, std::size_t count,
                 double last, const PhiFit& fit, double now) {
  if (last < 0.0 || count == 0) {
    return 0.0;
  }
  const double elapsed = now - last;
  const double stddev = std::max(std::sqrt(fit.var), params.min_stddev_ms);
  // P(inter-arrival > elapsed) under a normal fit; phi = -log10 of it.
  const double z = (elapsed - fit.mean) / stddev;
  // Complementary CDF via erfc; clamp to avoid -log10(0).
  double tail = 0.5 * std::erfc(z / std::sqrt(2.0));
  tail = std::max(tail, 1e-300);
  return -std::log10(tail);
}

bool phi_suspects(const PhiAccrualParams& params, std::size_t count,
                  double last, const PhiFit& fit, double now) {
  if (last < 0.0) {
    // Grace period measured from time 0 until the first heartbeat.
    return now > params.fallback_timeout_ms;
  }
  if (count == 0) {
    // One heartbeat seen, no interval yet: fall back to a fixed window
    // from that arrival (mirrors Chen's warm-up).
    return now - last > params.fallback_timeout_ms;
  }
  return phi_level(params, count, last, fit, now) > params.threshold;
}

double phi_deadline(const PhiAccrualParams& params, double z,
                    std::size_t count, double last, const PhiFit& fit) {
  if (last < 0.0) return params.fallback_timeout_ms;
  if (count == 0) return last + params.fallback_timeout_ms;
  const double stddev = std::max(std::sqrt(fit.var), params.min_stddev_ms);
  return last + fit.mean + stddev * z;
}

void phi_save(std::vector<double>& out, double last, const PhiFit& fit,
              RingView intervals) {
  // z is derived from the params; only the observed-timing state travels.
  out.push_back(last);
  out.push_back(fit.mean);
  out.push_back(fit.var);
  out.push_back(static_cast<double>(intervals.size()));
  intervals.for_each([&out](double x) { out.push_back(x); });
}

bool phi_restore(const double*& cursor, const double* end,
                 RingRef intervals, double& last, PhiFit& fit) {
  if (end - cursor < 4) return false;
  const double saved_last = cursor[0];
  const PhiFit saved_fit{cursor[1], cursor[2]};
  const double count_d = cursor[3];
  cursor += 4;
  std::size_t count = 0;
  if (!read_window_count(cursor, end, count_d, intervals.capacity, count)) {
    return false;
  }
  last = saved_last;
  fit = saved_fit;
  intervals.assign(cursor, count);
  cursor += count;
  return true;
}

// ----------------------------------------------------------- detectors

FixedTimeoutDetector::FixedTimeoutDetector(FixedTimeoutParams params)
    : params_(params) {
  RFD_REQUIRE(params.timeout_ms > 0.0);
}

void FixedTimeoutDetector::on_heartbeat(double now) { last_heartbeat_ = now; }

bool FixedTimeoutDetector::suspects(double now) const {
  if (last_heartbeat_ < 0.0) {
    // Grace period measured from time 0 until the first heartbeat.
    return now > params_.timeout_ms;
  }
  return now - last_heartbeat_ > params_.timeout_ms;
}

double FixedTimeoutDetector::suspect_deadline() const {
  if (last_heartbeat_ < 0.0) return params_.timeout_ms;
  return last_heartbeat_ + params_.timeout_ms;
}

ChenAdaptiveDetector::ChenAdaptiveDetector(ChenAdaptiveParams params)
    : params_(params) {
  RFD_REQUIRE(params.window >= 2 && params.window <= kMaxWindow);
  RFD_REQUIRE(params.alpha_ms > 0.0);
  slots_ = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(params.window));
}

void ChenAdaptiveDetector::on_heartbeat(double now) {
  expected_arrival_ =
      chen_heartbeat(RingRef{slots_.get(), params_.window, pos_}, now);
}

bool ChenAdaptiveDetector::suspects(double now) const {
  return chen_suspects(params_, pos_.count, last(), expected_arrival_, now);
}

double ChenAdaptiveDetector::suspect_deadline() const {
  return chen_deadline(params_, pos_.count, last(), expected_arrival_);
}

PhiAccrualDetector::PhiAccrualDetector(PhiAccrualParams params)
    : params_(params), z_threshold_(phi_z_threshold(params.threshold)) {
  RFD_REQUIRE(params.window >= 2 && params.window <= kMaxWindow);
  RFD_REQUIRE(params.threshold > 0.0);
  slots_ = std::make_unique_for_overwrite<double[]>(
      static_cast<std::size_t>(params.window));
}

void PhiAccrualDetector::on_heartbeat(double now) {
  phi_heartbeat(RingRef{slots_.get(), params_.window, pos_},
                last_heartbeat_, fit_, now);
}

double PhiAccrualDetector::phi(double now) const {
  return phi_level(params_, pos_.count, last_heartbeat_, fit_, now);
}

bool PhiAccrualDetector::suspects(double now) const {
  return phi_suspects(params_, pos_.count, last_heartbeat_, fit_, now);
}

double PhiAccrualDetector::suspect_deadline() const {
  return phi_deadline(params_, z_threshold_, pos_.count, last_heartbeat_,
                      fit_);
}

std::unique_ptr<PeerDetector> make_detector(const DetectorParams& params) {
  switch (params.kind) {
    case DetectorKind::kFixed:
      return std::make_unique<FixedTimeoutDetector>(params.fixed);
    case DetectorKind::kChen:
      return std::make_unique<ChenAdaptiveDetector>(params.chen);
    case DetectorKind::kPhi:
      return std::make_unique<PhiAccrualDetector>(params.phi);
  }
  RFD_UNREACHABLE("unknown detector kind");
}

std::string detector_kind_name(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kFixed:
      return "fixed";
    case DetectorKind::kChen:
      return "chen";
    case DetectorKind::kPhi:
      return "phi";
  }
  return "?";
}

}  // namespace rfd::rt
