#include "astrolabe/failure_detector.h"

#include <algorithm>
#include <cmath>

namespace nw::astrolabe {

namespace {

// Seconds; floors the model's sigma so a perfectly regular heartbeat still
// tolerates scheduling jitter.
constexpr double kMinStd = 0.1;
// Always suspect past this many silent periods (bounds detection time when
// the learned distribution is very wide).
constexpr double kCapRounds = 16;

}  // namespace

void PhiAccrualDetector::Heartbeat(const std::string& key, double now) {
  auto [it, inserted] = histories_.try_emplace(key);
  History& h = it->second;
  if (inserted) {
    h.intervals.assign(config_.window, 0.0);
    h.last = now;
    return;
  }
  const double interval = now - h.last;
  if (interval < 0) return;  // out-of-order sample: keep the newest anchor
  h.intervals[h.next] = interval;
  h.next = (h.next + 1) % config_.window;
  h.count += 1;
  h.last = now;
}

std::size_t PhiAccrualDetector::SampleCount(const std::string& key) const {
  const auto it = histories_.find(key);
  return it == histories_.end() ? 0 : it->second.count;
}

double PhiAccrualDetector::LastArrival(const std::string& key) const {
  const auto it = histories_.find(key);
  return it == histories_.end() ? 0.0 : it->second.last;
}

void PhiAccrualDetector::ModelOf(const History& h, double* mean,
                                 double* std_dev) const {
  const std::size_t n = std::min(h.count, config_.window);
  double sum = 0;
  for (std::size_t i = 0; i < n; ++i) sum += h.intervals[i];
  *mean = n > 0 ? sum / double(n) : 0.0;
  double var = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = h.intervals[i] - *mean;
    var += d * d;
  }
  if (n > 0) var /= double(n);
  *std_dev = std::max(std::sqrt(var), kMinStd);
}

double PhiAccrualDetector::Phi(const std::string& key, double now) const {
  const auto it = histories_.find(key);
  if (it == histories_.end() || it->second.count == 0) return 0.0;
  const History& h = it->second;
  double mean = 0, std_dev = 0;
  ModelOf(h, &mean, &std_dev);
  const double elapsed = now - h.last;
  // P(interval > elapsed) under N(mean, std_dev^2).
  const double z = (elapsed - mean) / (std_dev * std::sqrt(2.0));
  const double p_later = std::max(0.5 * std::erfc(z), 1e-15);
  return -std::log10(p_later);
}

bool PhiAccrualDetector::Suspect(const std::string& key, double now,
                                 double period) const {
  const auto it = histories_.find(key);
  if (it == histories_.end()) return false;
  const double elapsed = now - it->second.last;
  if (elapsed < config_.floor_rounds * period) return false;
  if (elapsed > kCapRounds * period) return true;
  if (it->second.count < config_.min_samples) return false;
  return Phi(key, now) > config_.threshold;
}

}  // namespace nw::astrolabe
