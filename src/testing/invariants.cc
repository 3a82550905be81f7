#include "testing/invariants.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "astrolabe/agent.h"
#include "astrolabe/zone_path.h"
#include "util/hash.h"

namespace nw::testing {

namespace {

// Exact or (when the system runs hierarchical subjects, §7) dot-prefix
// subscription match: "tech" covers "tech.linux".
bool MatchesSubject(const std::string& subscribed, const std::string& subject,
                    bool hierarchical) {
  if (subscribed == subject) return true;
  if (!hierarchical) return false;
  return subject.size() > subscribed.size() &&
         subject.compare(0, subscribed.size(), subscribed) == 0 &&
         subject[subscribed.size()] == '.';
}

bool SubscribedTo(newswire::NewswireSystem& sys, std::size_t subscriber,
                  const std::string& subject) {
  const bool hierarchical = sys.config().pubsub.hierarchical_subjects;
  for (const std::string& s : sys.SubjectsOf(subscriber)) {
    if (MatchesSubject(s, subject, hierarchical)) return true;
  }
  return false;
}

bool ScopeCovers(const std::string& scope, const astrolabe::ZonePath& path) {
  return astrolabe::ZonePath::Parse(scope).IsPrefixOf(path);
}

bool SubscriberAlive(newswire::NewswireSystem& sys, std::size_t i) {
  return sys.deployment().net().IsAlive(sys.subscriber_agent(i).id());
}

}  // namespace

std::string InvariantReport::Summary() const {
  std::string out = invariant + ": ";
  if (ok()) {
    return out + "ok (" + std::to_string(checked) + " checked)";
  }
  out += std::to_string(violations.size()) + " violation(s) of " +
         std::to_string(checked) + " checked";
  constexpr std::size_t kMaxListed = 5;
  for (std::size_t i = 0; i < std::min(violations.size(), kMaxListed); ++i) {
    out += "\n  - " + violations[i].detail;
  }
  if (violations.size() > kMaxListed) {
    out += "\n  ... " + std::to_string(violations.size() - kMaxListed) +
           " more";
  }
  return out;
}

DeliveryRecorder::DeliveryRecorder(newswire::NewswireSystem& sys)
    : sys_(sys), per_sub_(sys.subscriber_count()) {
  for (std::size_t i = 0; i < sys_.subscriber_count(); ++i) {
    sys_.subscriber(i).AddNewsHandler(
        [this, i](const newswire::NewsItem& item, double) {
          DeliveryRecord rec;
          rec.time = sys_.Now();
          rec.subscriber = i;
          rec.incarnation =
              sys_.deployment().net().Incarnation(sys_.subscriber_agent(i).id());
          rec.item_id = item.Id();
          rec.subject = item.subject;
          rec.scope = item.scope;
          per_sub_[i].push_back(std::move(rec));
        });
  }
}

const std::vector<DeliveryRecord>& DeliveryRecorder::trace() const {
  std::size_t total = 0;
  for (const auto& buf : per_sub_) total += buf.size();
  if (trace_.size() != total) {
    // Canonical merge: (time, subscriber, per-subscriber arrival order).
    // Each buffer is time-ordered on its own, so a stable sort keyed on
    // (time, subscriber) preserves arrival order within a subscriber.
    trace_.clear();
    trace_.reserve(total);
    for (const auto& buf : per_sub_) {
      trace_.insert(trace_.end(), buf.begin(), buf.end());
    }
    std::stable_sort(trace_.begin(), trace_.end(),
                     [](const DeliveryRecord& a, const DeliveryRecord& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.subscriber < b.subscriber;
                     });
  }
  return trace_;
}

std::uint64_t DeliveryRecorder::TraceHash() const {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) { h = util::HashCombine(h, v); };
  for (const DeliveryRecord& rec : trace()) {
    std::uint64_t time_bits;
    static_assert(sizeof time_bits == sizeof rec.time);
    __builtin_memcpy(&time_bits, &rec.time, sizeof time_bits);
    mix(time_bits);
    mix(rec.subscriber);
    mix(rec.incarnation);
    mix(util::Fnv1a64(rec.item_id));
    mix(util::Fnv1a64(rec.scope));
  }
  return h;
}

InvariantReport CheckMembershipAgreement(astrolabe::Deployment& dep,
                                         std::int64_t expected_members,
                                         std::int64_t min_members) {
  InvariantReport report;
  report.invariant = "membership-agreement";
  if (min_members <= 0) min_members = expected_members;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    if (!dep.net().IsAlive(dep.agent(i).id())) continue;
    ++report.checked;
    astrolabe::Row summary = dep.agent(i).ZoneSummary(0);
    auto it = summary.find(astrolabe::kAttrMembers);
    if (it == summary.end()) {
      report.violations.push_back(
          {"agent " + std::to_string(i) + " has no membership summary"});
      continue;
    }
    const std::int64_t members = it->second.AsInt();
    if (members < min_members || members > expected_members) {
      report.violations.push_back(
          {"agent " + std::to_string(i) + " sees " + std::to_string(members) +
           " members, want [" + std::to_string(min_members) + ", " +
           std::to_string(expected_members) + "]"});
    }
  }
  return report;
}

InvariantReport CheckMembershipAgreement(newswire::NewswireSystem& sys) {
  astrolabe::Deployment& dep = sys.deployment();
  std::int64_t live = 0;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    if (dep.net().IsAlive(dep.agent(i).id())) ++live;
  }
  return CheckMembershipAgreement(dep, live);
}

InvariantReport CheckSubscriberCompleteness(
    newswire::NewswireSystem& sys, const std::vector<PublishedItem>& published,
    double min_completeness) {
  InvariantReport report;
  report.invariant = "subscriber-completeness";
  std::size_t expected = 0, got = 0;
  std::vector<Violation> missing;
  for (std::size_t i = 0; i < sys.subscriber_count(); ++i) {
    if (!SubscriberAlive(sys, i)) continue;
    const astrolabe::ZonePath& path = sys.subscriber_agent(i).path();
    for (const PublishedItem& item : published) {
      if (!SubscribedTo(sys, i, item.subject)) continue;
      if (!ScopeCovers(item.scope, path)) continue;
      ++expected;
      if (sys.subscriber(i).cache().Contains(item.id)) {
        ++got;
      } else {
        missing.push_back({"subscriber " + std::to_string(i) + " (" +
                           path.ToString() + ") is missing " + item.id +
                           " [" + item.subject + "]"});
      }
    }
  }
  report.checked = expected;
  report.completeness = expected ? double(got) / double(expected) : 1.0;
  if (report.completeness < min_completeness) {
    report.violations = std::move(missing);
  }
  return report;
}

InvariantReport CheckNoDuplicateDelivery(newswire::NewswireSystem& sys,
                                         const DeliveryRecorder& recorder) {
  (void)sys;
  InvariantReport report;
  report.invariant = "no-duplicate-delivery";
  // (subscriber, incarnation, item) must be unique: the cache deduplicates
  // within a process lifetime, and only a crash may reset it.
  std::set<std::tuple<std::size_t, std::uint32_t, std::string>> seen;
  for (const DeliveryRecord& rec : recorder.trace()) {
    ++report.checked;
    if (!seen.insert({rec.subscriber, rec.incarnation, rec.item_id}).second) {
      report.violations.push_back(
          {"subscriber " + std::to_string(rec.subscriber) + " accepted " +
           rec.item_id + " twice within incarnation " +
           std::to_string(rec.incarnation)});
    }
  }
  return report;
}

InvariantReport CheckNoScopeLeak(newswire::NewswireSystem& sys,
                                 const DeliveryRecorder& recorder) {
  InvariantReport report;
  report.invariant = "no-scope-leak";
  for (const DeliveryRecord& rec : recorder.trace()) {
    ++report.checked;
    const astrolabe::ZonePath& path =
        sys.subscriber_agent(rec.subscriber).path();
    if (!ScopeCovers(rec.scope, path)) {
      report.violations.push_back(
          {"item " + rec.item_id + " scoped to " + rec.scope + " leaked to " +
           path.ToString()});
    }
  }
  return report;
}

InvariantReport CheckSubscriptionSoundness(newswire::NewswireSystem& sys,
                                           const DeliveryRecorder& recorder) {
  InvariantReport report;
  report.invariant = "subscription-soundness";
  for (const DeliveryRecord& rec : recorder.trace()) {
    ++report.checked;
    if (!SubscribedTo(sys, rec.subscriber, rec.subject)) {
      report.violations.push_back(
          {"non-subscriber " + std::to_string(rec.subscriber) + " received " +
           rec.item_id + " [" + rec.subject + "]"});
    }
  }
  return report;
}

InvariantReport CheckReplayIdentical(const std::vector<DeliveryRecord>& a,
                                     const std::vector<DeliveryRecord>& b) {
  InvariantReport report;
  report.invariant = "replay-identical";
  report.checked = std::max(a.size(), b.size());
  if (a.size() != b.size()) {
    report.violations.push_back(
        {"trace lengths differ: " + std::to_string(a.size()) + " vs " +
         std::to_string(b.size())});
    return report;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      report.violations.push_back(
          {"trace diverges at record " + std::to_string(i) + ": " +
           a[i].item_id + "@sub" + std::to_string(a[i].subscriber) + " vs " +
           b[i].item_id + "@sub" + std::to_string(b[i].subscriber)});
      if (report.violations.size() >= 5) break;
    }
  }
  return report;
}

InvariantReport CheckSameDeliverySets(const std::vector<DeliveryRecord>& a,
                                      const std::vector<DeliveryRecord>& b) {
  InvariantReport report;
  report.invariant = "same-delivery-sets";
  auto as_set = [](const std::vector<DeliveryRecord>& trace) {
    std::set<std::pair<std::size_t, std::string>> out;
    for (const DeliveryRecord& rec : trace) out.insert({rec.subscriber, rec.item_id});
    return out;
  };
  const auto sa = as_set(a);
  const auto sb = as_set(b);
  report.checked = std::max(sa.size(), sb.size());
  for (const auto& [sub, item] : sa) {
    if (!sb.contains({sub, item})) {
      report.violations.push_back({"subscriber " + std::to_string(sub) +
                                   " got " + item + " only in trace A"});
    }
  }
  for (const auto& [sub, item] : sb) {
    if (!sa.contains({sub, item})) {
      report.violations.push_back({"subscriber " + std::to_string(sub) +
                                   " got " + item + " only in trace B"});
    }
  }
  return report;
}

std::uint64_t MibContentHash(astrolabe::Deployment& dep) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) { h = util::HashCombine(h, v); };
  // Replicas of one zone table are usually one shared object, so the
  // string hashes of each table (key, then name and value per attribute)
  // are computed once per call and only the mixing runs per replica.
  std::unordered_map<const astrolabe::Table*, std::vector<std::uint64_t>>
      table_hashes;
  for (std::size_t i = 0; i < dep.size(); ++i) {
    const astrolabe::Agent& agent = dep.agent(i);
    mix(util::Fnv1a64(agent.path().ToString()));
    for (std::size_t level = 0; level < agent.Depth(); ++level) {
      const astrolabe::Table& table = agent.TableAt(level);
      auto [it, fresh] = table_hashes.try_emplace(&table);
      if (fresh) {
        for (const auto& [key, entry] : table) {
          it->second.push_back(util::Fnv1a64(key));
          for (const auto& [name, value] : entry.attrs) {
            it->second.push_back(util::Fnv1a64(name));
            it->second.push_back(util::Fnv1a64(value.ToString()));
          }
        }
      }
      for (std::uint64_t v : it->second) mix(v);
    }
  }
  return h;
}

}  // namespace nw::testing
