// EventTracer: a sim-time, category-filtered ring buffer of typed events.
//
// Every layer of the stack records what it is doing (gossip rounds, table
// merges, sends/drops/deliveries, representative elections, fault-plan
// events, publications, cache pulls) as fixed-size TraceEvent records —
// Record() never allocates, so tracing a deterministic run does not perturb
// it. The buffer can be dumped as human-readable text or as JSONL, and its
// content folds into a 64-bit sequence hash so regression tests can assert
// replay determinism without committing megabytes of golden traces.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nw::obs {

enum class EventCategory : std::uint8_t {
  kGossip,    // epidemic rounds and exchanges
  kMerge,     // MIB / zone-table merges
  kCert,      // certificate verification results
  kElection,  // representative set changes
  kSend,      // network sends
  kDeliver,   // network deliveries
  kDrop,      // network drops (loss, dead, stale incarnation, partition)
  kFault,     // fault-plan events and node kill/restart
  kPublish,   // publisher output
  kCache,     // message-cache activity (duplicate suppression)
  kRepair,    // anti-entropy pull repair and state transfer
  kReliable,  // hop-level acks, retransmissions, failovers
  kIntegrity, // frame corruption and checksum verify-and-drop
  kAggregation, // dirty-tracked recompute memo hits and evaluations
  kCount_,    // sentinel
};

inline constexpr std::uint32_t CategoryBit(EventCategory c) noexcept {
  return 1u << static_cast<unsigned>(c);
}
inline constexpr std::uint32_t kAllCategories =
    (1u << static_cast<unsigned>(EventCategory::kCount_)) - 1;

const char* CategoryName(EventCategory c) noexcept;
std::optional<EventCategory> CategoryFromName(std::string_view name);
// Parses a comma-separated category list ("gossip,send,drop"; "all" for
// everything) into a bitmask; nullopt on an unknown name.
std::optional<std::uint32_t> ParseCategoryMask(std::string_view list);

struct TraceEvent {
  double time = 0;          // simulated seconds
  std::uint32_t node = 0;   // acting node id
  EventCategory category = EventCategory::kFault;
  const char* type = "";    // static string literal, e.g. "net.drop.loss"
  std::uint64_t a = 0;      // type-specific operands (peer id, count, ...)
  std::uint64_t b = 0;
  char detail[24] = {};     // truncated free-form tag (message type, item id)
};

class EventTracer {
 public:
  explicit EventTracer(std::size_t capacity = 1 << 16,
                       std::uint32_t category_mask = kAllCategories);

  bool Enabled(EventCategory c) const noexcept {
    return (mask_ & CategoryBit(c)) != 0;
  }
  void SetCategoryMask(std::uint32_t mask) noexcept { mask_ = mask; }
  std::uint32_t category_mask() const noexcept { return mask_; }

  // Records an event unless its category is masked out. Copies `detail`
  // (truncated to the inline buffer); `type` must be a static literal.
  void Record(double time, std::uint32_t node, EventCategory category,
              const char* type, std::uint64_t a = 0, std::uint64_t b = 0,
              std::string_view detail = {}) noexcept;

  std::size_t capacity() const noexcept { return ring_.size(); }
  std::size_t size() const noexcept { return std::min(total_, ring_.size()); }
  // All Record() calls that passed the filter, including overwritten ones.
  std::uint64_t total_recorded() const noexcept { return total_; }
  std::uint64_t overwritten() const noexcept {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }
  void Clear() noexcept { total_ = 0; }

  // Buffer contents in record order (oldest surviving event first).
  std::vector<TraceEvent> Events() const;

  void DumpText(FILE* out) const;
  void DumpJsonl(FILE* out) const;

  // Order-sensitive 64-bit digest of the buffered events whose category is
  // in `mask`. Two identical runs produce identical hashes.
  std::uint64_t SequenceHash(std::uint32_t mask = kAllCategories) const;

  static std::string ToJsonl(const TraceEvent& ev);

  // Parsed form of one JSONL line (owned strings, for tests and tooling).
  struct ParsedEvent {
    double time = 0;
    std::uint32_t node = 0;
    std::string category;
    std::string type;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::string detail;
  };
  static std::optional<ParsedEvent> ParseJsonlLine(std::string_view line);

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t total_ = 0;  // next write position = total_ % capacity
  std::uint32_t mask_;
};

}  // namespace nw::obs
