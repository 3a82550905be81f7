// Publish/subscribe on top of the Astrolabe multicast (paper §6).
//
// Each leaf publishes a Bloom filter of its subscriptions in its MIB
// ("subs" attribute); an aggregation function ORs the filters up the tree;
// publications are stamped with their subject's bit positions; forwarding
// components test the stamped bits against each child zone's aggregated
// filter; and the leaf performs the exact subject (and optional SQL
// predicate) re-check the paper requires because Bloom matches can be
// false positives.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "astrolabe/sql/ast.h"
#include "multicast/multicast.h"
#include "pubsub/bloom_filter.h"

namespace nw::pubsub {

// Metadata attribute names used on publications.
inline constexpr const char* kAttrSubject = "subject";
// Bloom positions stamped on the item: either a flat list<int> (one
// conjunctive group — exact-subject matching) or a list of list<int>
// (disjunction of groups — hierarchical matching stamps one group per
// subject prefix). A child admits if any group is fully present.
inline constexpr const char* kAttrSubBits = "subbits";
inline constexpr const char* kAttrFwdPredicate = "fwd_pred";  // SQL (§8)

// Dot-separated subject hierarchy helpers ("tech.linux.kernel" is under
// "tech.linux" and "tech"). Part of the §7 direction of enriching "the
// subscription space within which our Bloom filters operate".
bool SubjectIsUnder(const std::string& subject, const std::string& ancestor);
std::vector<std::string> SubjectPrefixes(const std::string& subject);
// MIB / aggregated attribute holding the subscription Bloom filter.
inline constexpr const char* kAttrSubs = "subs";

// SQL aggregation function that merges subscription filters up the tree.
inline constexpr const char* kSubsFunctionName = "pubsub.subs";
inline const char* SubsFunctionCode() { return "SELECT OR(subs) AS subs"; }

struct PubSubStats {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;        // exact matches handed to the app
  // Items that reached this leaf *because its own filter admitted them*
  // yet failed the exact re-check — genuine Bloom collisions (§6).
  std::uint64_t false_positives = 0;
  // Items seen only because this node relayed them for its zone; not a
  // filter error.
  std::uint64_t relay_discards = 0;
  std::uint64_t predicate_rejected = 0;
};

struct PubSubOptions {
  BloomConfig bloom;
  // When true, a subscription to "tech" also receives "tech.linux",
  // "tech.linux.kernel", ...: publications stamp one Bloom group per
  // subject prefix and the leaf re-check performs the prefix match.
  bool hierarchical_subjects = false;
};

class PubSubService {
 public:
  using NewsCallback = std::function<void(const multicast::Item&)>;

  // Attaches to an agent+multicast pair. Installs the forwarding filter
  // and the delivery re-check; maintains the "subs" MIB attribute.
  PubSubService(astrolabe::Agent& agent, multicast::MulticastService& mc,
                BloomConfig bloom)
      : PubSubService(agent, mc, PubSubOptions{bloom, false}) {}
  PubSubService(astrolabe::Agent& agent, multicast::MulticastService& mc,
                PubSubOptions options);

  // ---- subscriber side ---------------------------------------------------
  void Subscribe(const std::string& subject);
  void Unsubscribe(const std::string& subject);
  const std::set<std::string>& subjects() const { return subjects_; }

  // Optional richer selection (paper §8): an SQL predicate over the item
  // metadata, evaluated after the exact subject match. Throws
  // sql::ParseError on malformed input.
  void SetPredicate(const std::string& sql_expr);

  void SetNewsCallback(NewsCallback cb) { on_news_ = std::move(cb); }

  // ---- publisher side ------------------------------------------------------
  // Stamps subject + Bloom positions onto the item and disseminates it
  // within `scope` (root by default). `forward_predicate` implements the
  // paper's §8 "future feature": an SQL predicate over the *aggregated
  // attributes of each child zone* that must hold before the item is
  // forwarded into that zone (e.g. "premium = 1" to deliver only where
  // premium subscribers exist — leaf rows are MIB rows, so the same test
  // selects the final recipients). Throws sql::ParseError if malformed.
  void Publish(multicast::Item item, const std::string& subject,
               const astrolabe::ZonePath& scope = astrolabe::ZonePath::Root(),
               const std::string& forward_predicate = "");

  const PubSubStats& stats() const { return stats_; }
  const BloomFilter& filter() const { return filter_; }

  // True iff the item's subject is locally subscribed and the optional
  // predicate accepts its metadata. Used by repair/state-transfer paths
  // that bypass the normal delivery flow; does not update stats.
  bool Matches(const multicast::Item& item) const;

  // The forwarding-filter decision, exposed for tests: does `child_row`'s
  // aggregated state admit an item with these metadata attributes?
  static bool ChildAdmits(const multicast::Item& item,
                          const astrolabe::Row& child_row);

 private:
  void RebuildFilter();
  void OnDeliver(const multicast::Item& item);
  bool SubjectMatchesLocally(const std::string& subject) const;

  astrolabe::Agent& agent_;
  multicast::MulticastService& mc_;
  PubSubOptions options_;
  BloomFilter filter_;
  std::set<std::string> subjects_;
  std::optional<std::string> predicate_text_;
  std::shared_ptr<const astrolabe::sql::Expr> predicate_;
  NewsCallback on_news_;
  PubSubStats stats_;
};

}  // namespace nw::pubsub
