#include "pubsub/pubsub.h"

#include "astrolabe/sql/eval.h"
#include "astrolabe/sql/parser.h"

namespace nw::pubsub {

using astrolabe::AttrValue;
using astrolabe::Row;
using astrolabe::ValueList;
using multicast::Item;

bool SubjectIsUnder(const std::string& subject, const std::string& ancestor) {
  if (subject == ancestor) return true;
  return subject.size() > ancestor.size() &&
         subject.compare(0, ancestor.size(), ancestor) == 0 &&
         subject[ancestor.size()] == '.';
}

std::vector<std::string> SubjectPrefixes(const std::string& subject) {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos < subject.size();) {
    const std::size_t dot = subject.find('.', pos);
    if (dot == std::string::npos) break;
    out.push_back(subject.substr(0, dot));
    pos = dot + 1;
  }
  out.push_back(subject);
  return out;
}

PubSubService::PubSubService(astrolabe::Agent& agent,
                             multicast::MulticastService& mc,
                             PubSubOptions options)
    : agent_(agent), mc_(mc), options_(options), filter_(options.bloom) {
  agent_.SetLocalAttr(kAttrSubs, filter_.bits());
  mc_.SetForwardFilter([](const Item& item, const Row& child_row) {
    return ChildAdmits(item, child_row);
  });
  mc_.SetDeliveryCallback(
      [this](const multicast::Envelope& env) { OnDeliver(*env.item); });
}

void PubSubService::Subscribe(const std::string& subject) {
  if (!subjects_.insert(subject).second) return;
  RebuildFilter();
}

void PubSubService::Unsubscribe(const std::string& subject) {
  if (subjects_.erase(subject) == 0) return;
  RebuildFilter();
}

void PubSubService::SetPredicate(const std::string& sql_expr) {
  predicate_ = std::shared_ptr<const astrolabe::sql::Expr>(
      astrolabe::sql::ParseExpression(sql_expr).release());
  predicate_text_ = sql_expr;
}

void PubSubService::RebuildFilter() {
  filter_.Clear();
  for (const std::string& subject : subjects_) filter_.Add(subject);
  // Republishing the MIB attribute makes the change flow up through the
  // OR aggregation within a few gossip rounds (paper §6: "within tens of
  // seconds the root zone will have all the information").
  agent_.SetLocalAttr(kAttrSubs, filter_.bits());
}

void PubSubService::Publish(Item item, const std::string& subject,
                            const astrolabe::ZonePath& scope,
                            const std::string& forward_predicate) {
  item.metadata[kAttrSubject] = subject;
  auto group_for = [this](const std::string& s) {
    ValueList group;
    for (std::size_t pos : filter_.Positions(s)) {
      group.emplace_back(static_cast<std::int64_t>(pos));
    }
    return group;
  };
  if (options_.hierarchical_subjects) {
    // One group per prefix: a zone subscribed to any ancestor admits.
    ValueList groups;
    for (const std::string& prefix : SubjectPrefixes(subject)) {
      groups.emplace_back(group_for(prefix));
    }
    item.metadata[kAttrSubBits] = std::move(groups);
  } else {
    item.metadata[kAttrSubBits] = group_for(subject);
  }
  if (!forward_predicate.empty()) {
    // Validate eagerly so the publisher learns about malformed predicates
    // rather than every forwarder silently dropping.
    astrolabe::sql::ParseExpression(forward_predicate);
    item.metadata[kAttrFwdPredicate] = forward_predicate;
  }
  if (item.published_at == 0) item.published_at = agent_.Now();
  ++stats_.published;
  mc_.SendToZone(scope, std::move(item));
}

namespace {
// Forwarders see the same predicate strings repeatedly (once per child per
// hop); memoize the parse.
const astrolabe::sql::Expr* CachedPredicate(const std::string& text) {
  static std::map<std::string, std::shared_ptr<const astrolabe::sql::Expr>>
      cache;
  auto it = cache.find(text);
  if (it == cache.end()) {
    std::shared_ptr<const astrolabe::sql::Expr> parsed;
    try {
      parsed = std::shared_ptr<const astrolabe::sql::Expr>(
          astrolabe::sql::ParseExpression(text).release());
    } catch (const astrolabe::sql::ParseError&) {
      parsed = nullptr;  // cache the failure too
    }
    it = cache.emplace(text, std::move(parsed)).first;
  }
  return it->second.get();
}
}  // namespace

bool PubSubService::ChildAdmits(const Item& item, const Row& child_row) {
  // Publisher-controlled forwarding predicate (§8 extension): evaluated
  // against the child zone's aggregated attributes at every hop, and
  // against the leaf MIB row at the last hop.
  if (auto pred_it = item.metadata.find(kAttrFwdPredicate);
      pred_it != item.metadata.end()) {
    const astrolabe::sql::Expr* pred =
        CachedPredicate(pred_it->second.AsString());
    if (pred == nullptr ||
        !astrolabe::sql::EvalPredicate(*pred, child_row)) {
      return false;
    }
  }
  auto bits_it = item.metadata.find(kAttrSubBits);
  if (bits_it == item.metadata.end()) return true;  // untargeted: flood
  auto subs_it = child_row.find(kAttrSubs);
  if (subs_it == child_row.end() ||
      subs_it->second.type() != AttrValue::Type::kBits) {
    // No aggregated filter known for this child (e.g. not yet converged):
    // err on the side of delivery; the leaf re-check stays exact.
    return true;
  }
  const astrolabe::BitVector& agg = subs_it->second.AsBits();
  auto all_set = [&agg](const ValueList& group) {
    for (const AttrValue& v : group) {
      const std::int64_t pos = v.AsInt();
      if (pos < 0 || static_cast<std::size_t>(pos) >= agg.size() ||
          !agg.Test(static_cast<std::size_t>(pos))) {
        return false;
      }
    }
    return true;
  };
  // Either a flat conjunctive group (exact-subject stamping) or a
  // disjunction of groups (hierarchical stamping: one per prefix).
  const ValueList& stamped = bits_it->second.AsList();
  const bool grouped =
      !stamped.empty() && stamped.front().type() == AttrValue::Type::kList;
  if (!grouped) return all_set(stamped);
  for (const AttrValue& g : stamped) {
    if (all_set(g.AsList())) return true;
  }
  return false;
}

bool PubSubService::SubjectMatchesLocally(const std::string& subject) const {
  if (subjects_.contains(subject)) return true;
  if (!options_.hierarchical_subjects) return false;
  for (const std::string& mine : subjects_) {
    if (SubjectIsUnder(subject, mine)) return true;
  }
  return false;
}

bool PubSubService::Matches(const Item& item) const {
  auto subj_it = item.metadata.find(kAttrSubject);
  if (subj_it == item.metadata.end()) return false;
  if (!SubjectMatchesLocally(subj_it->second.AsString())) return false;
  return !predicate_ ||
         astrolabe::sql::EvalPredicate(*predicate_, item.metadata);
}

void PubSubService::OnDeliver(const Item& item) {
  auto subj_it = item.metadata.find(kAttrSubject);
  if (subj_it == item.metadata.end()) {
    // Untargeted multicast: hand through.
    ++stats_.delivered;
    if (on_news_) on_news_(item);
    return;
  }
  // Exact re-check (paper §6): Bloom admission may be a false positive.
  if (!SubjectMatchesLocally(subj_it->second.AsString())) {
    // Distinguish a genuine filter collision (this leaf's own filter
    // admits the stamped bits) from ordinary relay traffic.
    Row self;
    self[kAttrSubs] = filter_.bits();
    if (ChildAdmits(item, self)) {
      ++stats_.false_positives;
    } else {
      ++stats_.relay_discards;
    }
    return;
  }
  if (predicate_ &&
      !astrolabe::sql::EvalPredicate(*predicate_, item.metadata)) {
    ++stats_.predicate_rejected;
    return;
  }
  ++stats_.delivered;
  if (on_news_) on_news_(item);
}

}  // namespace nw::pubsub
