// Zone tables: the "collection of hierarchical database tables" of §3.
// A Table holds one row per child zone (or per agent, at the deepest
// level). Rows carry owner versions for gossip merging and a local refresh
// time for failure detection.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "astrolabe/value.h"

namespace nw::astrolabe {

// Attribute map. std::map gives deterministic iteration order, which the
// simulator relies on for replayability.
using Row = std::map<std::string, AttrValue>;

inline std::size_t RowWireBytes(const Row& row) {
  std::size_t n = 8;
  for (const auto& [k, v] : row) n += k.size() + 2 + v.WireBytes();
  return n;
}

// Compact summary of a replica for digest-first anti-entropy (wire format
// v2, PROTOCOLS.md): per row, the held version and the version at which
// its content last changed. Versions are owner-issued and totally ordered,
// so two replicas can reconcile from the digest alone — rows with equal
// versions are identical and never re-sent, and a matching content_version
// proves the receiver's row body is current (only the heartbeat differs).
struct DigestEntry {
  std::uint64_t version = 0;
  std::uint64_t content_version = 0;
};
using TableDigest = std::map<std::string, DigestEntry>;

inline std::size_t DigestWireBytes(const TableDigest& digest) {
  std::size_t n = 8;
  for (const auto& [k, v] : digest) n += k.size() + 18;  // key + 2 u64 + len
  return n;
}

// A versioned row as stored in a table replica.
struct RowEntry {
  Row attrs;
  // Owner-issued version; strictly increasing per row owner. Gossip keeps
  // the entry with the larger version. The owner re-issues it every round
  // even when nothing changed — the version is also the liveness heartbeat
  // the failure detector watches.
  std::uint64_t version = 0;
  // The version at which `attrs` last actually changed (always <= version).
  // A replica whose version is >= the owner's content_version holds the
  // current attributes; only the heartbeat needs forwarding to it, not the
  // row body (RowRefresh below).
  std::uint64_t content_version = 0;
  // Local wall-clock (sim time) when this entry last changed version; rows
  // that are not refreshed within the failure timeout are evicted.
  double last_refresh = 0;
};

// Heartbeat-only update for a row whose content the receiver already
// holds: advances version/last_refresh without shipping the attributes.
// ~20 bytes on the wire versus a full row body.
struct RowRefresh {
  std::string key;
  std::uint64_t version = 0;
  std::uint64_t content_version = 0;
};

inline std::size_t RefreshWireBytes(const RowRefresh& r) {
  return r.key.size() + 18;  // key + two u64 + length
}

class Table {
 public:
  using Map = std::map<std::string, RowEntry>;

  bool Has(const std::string& key) const { return rows_.contains(key); }

  const RowEntry* Find(const std::string& key) const {
    auto it = rows_.find(key);
    return it == rows_.end() ? nullptr : &it->second;
  }

  // Hands out a mutable row, creating it if absent. Conservatively bumps
  // the content epoch — the caller gets write access to the row body. A
  // heartbeat-only reissue must use Refresh() instead so it stays
  // epoch-neutral.
  RowEntry& Upsert(const std::string& key) {
    ++content_epoch_;
    return rows_[key];
  }

  // Heartbeat-only reissue of an existing row: the version (liveness) and
  // refresh clock advance, the body — and therefore the content epoch —
  // stay untouched. No-op if the row is absent.
  void Refresh(const std::string& key, std::uint64_t version, double now) {
    auto it = rows_.find(key);
    if (it == rows_.end()) return;
    it->second.version = version;
    it->second.last_refresh = now;
  }

  void Erase(const std::string& key) {
    if (rows_.erase(key) > 0) ++content_epoch_;
  }

  // Merges one remote entry; returns true if it replaced/added local state.
  bool MergeEntry(const std::string& key, const RowEntry& incoming,
                  double now) {
    auto it = rows_.find(key);
    if (it == rows_.end()) {
      RowEntry e = incoming;
      e.last_refresh = now;
      rows_.emplace(key, std::move(e));
      ++content_epoch_;
      return true;
    }
    if (incoming.version > it->second.version) {
      // Owners stamp a globally unique content_version per body (the node
      // id is embedded in the version), so an equal content_version proves
      // the incoming body is byte-identical to ours: only the heartbeat
      // advanced, the stored attributes and the content epoch stay put.
      // 0 means un-stamped (hand-built rows): no proof, copy conservatively.
      if (incoming.content_version == 0 ||
          incoming.content_version != it->second.content_version) {
        it->second.attrs = incoming.attrs;
        ++content_epoch_;
      }
      it->second.version = incoming.version;
      it->second.content_version = incoming.content_version;
      it->second.last_refresh = now;
      return true;
    }
    return false;
  }

  // Applies a heartbeat-only refresh. Only valid when the local copy
  // already reflects the exact content the heartbeat vouches for — same
  // content_version (same author stream) and version at least as new as
  // the content change; otherwise it is dropped and the digest exchange
  // ships the full row instead. A refresh never creates a row, so it
  // cannot resurrect an expired one.
  bool MergeRefresh(const RowRefresh& refresh, double now) {
    auto it = rows_.find(refresh.key);
    if (it == rows_.end()) return false;
    RowEntry& mine = it->second;
    if (refresh.version <= mine.version) return false;
    if (mine.content_version != refresh.content_version) return false;
    mine.version = refresh.version;
    mine.last_refresh = now;
    return true;
  }

  // ---- digest-first reconciliation ------------------------------------
  TableDigest MakeDigest() const {
    TableDigest digest;
    for (const auto& [key, entry] : rows_) {
      digest.emplace(key, DigestEntry{entry.version, entry.content_version});
    }
    return digest;
  }

  // What the digest's sender needs from this replica, split by cost:
  // full row bodies for entries it is missing or whose content changed
  // past its version, and heartbeat-only refreshes for entries where it
  // holds the current content but an older version. Equal versions mean
  // the identical owner-issued row — never re-sent at all.
  struct Delta {
    std::vector<std::pair<std::string, RowEntry>> rows;
    std::vector<RowRefresh> refreshes;
  };
  // Restriction of a peer's full inventory digest to what we actually need
  // pushed back: rows it holds newer than ours (with our versions, so it
  // can choose refresh vs body) and rows it holds that we lack at all
  // (version 0 = explicit request). Rows where we are ahead or tied buy
  // the peer nothing and are omitted — this is what keeps the reply leg's
  // digest O(divergence) instead of O(table).
  TableDigest RequestsAgainst(const TableDigest& inventory) const {
    TableDigest requests;
    for (const auto& [key, theirs] : inventory) {
      auto it = rows_.find(key);
      if (it == rows_.end()) {
        requests.emplace(key, DigestEntry{0, 0});
      } else if (theirs.version > it->second.version) {
        requests.emplace(key, DigestEntry{it->second.version,
                                          it->second.content_version});
      }
    }
    return requests;
  }

  Delta DeltaAgainst(const TableDigest& digest) const {
    Delta out;
    for (const auto& [key, entry] : rows_) {
      auto it = digest.find(key);
      if (it == digest.end()) {
        out.rows.emplace_back(key, entry);
      } else if (entry.version > it->second.version) {
        // Heartbeat-only if the peer provably holds the current content:
        // it has seen past the content change AND its row came from the
        // same author stream (content_version matches — two concurrent
        // authors of a key, e.g. during an election flap, each stamp their
        // own content_version, so a mismatch means the bodies may differ).
        if (it->second.version >= entry.content_version &&
            it->second.content_version == entry.content_version) {
          out.refreshes.push_back(
              RowRefresh{key, entry.version, entry.content_version});
        } else {
          out.rows.emplace_back(key, entry);
        }
      }
    }
    return out;
  }

  // Delta for an explicit request list (a RequestsAgainst digest): only the
  // requested keys are considered — keys absent from the list are ones the
  // requester is already current on (or ahead of), never shipped.
  Delta DeltaForRequests(const TableDigest& requests) const {
    Delta out;
    for (const auto& [key, want] : requests) {
      auto it = rows_.find(key);
      if (it == rows_.end()) continue;
      const RowEntry& entry = it->second;
      if (entry.version <= want.version) continue;
      if (want.version >= entry.content_version &&
          want.content_version == entry.content_version) {
        out.refreshes.push_back(
            RowRefresh{key, entry.version, entry.content_version});
      } else {
        out.rows.emplace_back(key, entry);
      }
    }
    return out;
  }

  std::size_t size() const noexcept { return rows_.size(); }
  bool empty() const noexcept { return rows_.empty(); }
  Map::const_iterator begin() const { return rows_.begin(); }
  Map::const_iterator end() const { return rows_.end(); }

  // Monotone counter of content-changing mutations (DESIGN.md §11): row
  // bodies written (Upsert, MergeEntry with a different content stream)
  // and rows removed (Erase, which row expiry uses). Heartbeat-only
  // updates — Refresh, MergeRefresh, and same-content MergeEntry version
  // advances — leave it untouched. An unchanged epoch proves the table's
  // aggregate-relevant content is unchanged, which is what lets the agent's
  // dirty-tracked recomputation skip the level entirely. Copied by the copy
  // constructor (a COW clone holds the same content), reset only by
  // constructing a fresh Table.
  std::uint64_t content_epoch() const noexcept { return content_epoch_; }

  std::size_t WireBytes() const {
    std::size_t n = 8;
    for (const auto& [k, e] : rows_) n += k.size() + 10 + RowWireBytes(e.attrs);
    return n;
  }

 private:
  Map rows_;
  std::uint64_t content_epoch_ = 0;
};

}  // namespace nw::astrolabe
