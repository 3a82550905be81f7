#include "multicast/reliable.h"

#include <algorithm>

namespace nw::multicast {

namespace {

// Growth of the retransmission timeout per attempt (exponential backoff).
constexpr double kBackoffMultiplier = 2.0;

}  // namespace

double BackoffPolicy::BaseDelay(int attempt) const {
  double delay = config_.ack_timeout;
  for (int i = 1; i < attempt; ++i) {
    delay *= kBackoffMultiplier;
    if (delay >= config_.backoff_cap) break;
  }
  return std::min(delay, config_.backoff_cap);
}

double BackoffPolicy::DelayFor(int attempt, util::DeterministicRng& rng) const {
  const double base = BaseDelay(attempt);
  const double spread = 2.0 * rng.NextDouble() - 1.0;  // uniform in [-1, 1]
  return base * (1.0 + config_.jitter_frac * spread);
}

SuspicionCache::SuspicionCache(double ttl, double slow_ttl,
                               int escalate_strikes)
    : ttl_(ttl),
      slow_ttl_(slow_ttl > 0 ? slow_ttl : ttl / 4.0),
      escalate_strikes_(std::max(1, escalate_strikes)) {}

bool SuspicionCache::Suspect(sim::NodeId peer, double now) {
  const bool fresh = LevelOf(peer, now) == SuspicionLevel::kNone;
  Entry& e = entries_[peer];
  e.level = SuspicionLevel::kDead;
  e.until = std::max(e.until, now + ttl_);
  e.strikes += 1;
  return fresh;
}

bool SuspicionCache::SuspectSlow(sim::NodeId peer, double now) {
  const bool fresh = LevelOf(peer, now) == SuspicionLevel::kNone;
  Entry& e = entries_[peer];
  e.strikes += 1;
  if (e.level == SuspicionLevel::kDead || e.strikes >= escalate_strikes_) {
    e.level = SuspicionLevel::kDead;
    e.until = std::max(e.until, now + ttl_);
    return fresh;
  }
  e.level = SuspicionLevel::kSlow;
  const double quarantine =
      std::min(slow_ttl_ * double(1u << std::min(e.strikes - 1, 20)), ttl_);
  e.until = std::max(e.until, now + quarantine);
  return fresh;
}

void SuspicionCache::Clear(sim::NodeId peer) { entries_.erase(peer); }

SuspicionLevel SuspicionCache::LevelOf(sim::NodeId peer, double now) const {
  auto it = entries_.find(peer);
  if (it == entries_.end() || it->second.until <= now) {
    return SuspicionLevel::kNone;
  }
  return it->second.level;
}

std::size_t SuspicionCache::LiveCount(double now) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    it = it->second.until > now ? std::next(it) : entries_.erase(it);
  }
  return entries_.size();
}

int SuspicionCache::StrikesOf(sim::NodeId peer) const {
  auto it = entries_.find(peer);
  return it == entries_.end() ? 0 : it->second.strikes;
}

}  // namespace nw::multicast
