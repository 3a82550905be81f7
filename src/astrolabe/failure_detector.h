// Phi-accrual failure detection (DESIGN.md §10): instead of the paper's
// fixed fail_timeout_rounds row expiry, each agent learns the observed
// inter-arrival distribution of version advances per monitored row and
// converts the time since the last advance into a suspicion level
//
//   phi(e) = -log10( P(interval > e) )
//
// under a normal model of the sampled intervals. A fixed timeout tuned for
// healthy 1 s gossip misfires the moment a slow-but-alive node stretches
// its rounds to 8 s; the accrual detector re-centers on the observed 8 s
// rhythm after a handful of samples and stops suspecting it.
//
// The detector is deliberately clock-agnostic: it consumes the timestamps
// it is handed (simulated seconds here), holds a bounded per-key window,
// and is deterministic — no wall clock, no randomness.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace nw::astrolabe {

struct PhiAccrualConfig {
  double threshold = 8.0;    // suspect when phi exceeds this
  std::size_t window = 20;   // inter-arrival samples kept per key
  std::size_t min_samples = 3;  // below this, callers fall back to the
                                // fixed timeout; SIZE_MAX = always fixed
  double floor_rounds = 6;   // never suspect within this many periods of
                             // the last arrival, whatever phi says. The
                             // default matches the fixed rule's
                             // fail_timeout_rounds, so phi is never more
                             // trigger-happy than the fixed rule it
                             // replaces — adaptivity only ever extends
                             // the benefit of the doubt (short outages
                             // that the fixed cutoff rode out, like a
                             // sub-6-round crash/restart, still ride out)
};

class PhiAccrualDetector {
 public:
  PhiAccrualDetector() = default;
  explicit PhiAccrualDetector(PhiAccrualConfig config) : config_(config) {}

  // Records an arrival for `key` at time `now`. The first arrival only
  // anchors the clock; intervals accumulate from the second one on.
  void Heartbeat(const std::string& key, double now);

  bool Known(const std::string& key) const {
    return histories_.contains(key);
  }
  std::size_t SampleCount(const std::string& key) const;
  // Time of the most recent arrival; 0 if the key is unknown.
  double LastArrival(const std::string& key) const;

  // Suspicion level at `now`: 0 when the key is unknown or the elapsed
  // silence is ordinary, growing without bound as the silence becomes
  // implausible under the observed interval distribution.
  double Phi(const std::string& key, double now) const;

  // Full expiry decision for a heartbeat nominally issued every `period`
  // seconds: the phi threshold bracketed by the floor/cap round bounds.
  bool Suspect(const std::string& key, double now, double period) const;

  void Forget(const std::string& key) { histories_.erase(key); }
  void Clear() { histories_.clear(); }

  const PhiAccrualConfig& config() const noexcept { return config_; }

 private:
  struct History {
    std::vector<double> intervals;  // ring buffer of config_.window entries
    std::size_t next = 0;           // ring write cursor
    std::size_t count = 0;          // total intervals ever recorded
    double last = 0;                // time of the most recent arrival
  };

  // Mean and (floored) standard deviation over the windowed intervals.
  void ModelOf(const History& h, double* mean, double* std_dev) const;

  PhiAccrualConfig config_;
  std::map<std::string, History> histories_;
};

}  // namespace nw::astrolabe
