// Simulated network message. Payloads are carried by shared_ptr-to-const so
// a multicast fan-out of one item shares a single payload object, while the
// wire size used for bandwidth accounting is declared explicitly.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "util/hash.h"

namespace nw::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;

// Interned protocol discriminator, e.g. "astro.gossip" or "mc.fwd". Each
// name is registered once per process and gets a dense id, so comparing,
// hashing and table lookups by type never touch the string; the name is
// kept for traces, logs and per-type stats. Ids follow registration order
// and are not stable across programs: nothing observable depends on them.
class MsgType {
 public:
  struct Entry {
    std::string_view name;  // NUL-terminated interned storage
    std::uint64_t hash = 0;  // util::Fnv1a64(name)
    std::uint32_t id = 0;
  };

  // The empty type, id 0.
  constexpr MsgType() noexcept : entry_(&kEmpty) {}
  // Interns `name` (a registry lookup: hoist hot-path types into
  // constants).
  MsgType(const char* name) : MsgType(std::string_view(name)) {}
  explicit MsgType(std::string_view name);

  std::uint32_t id() const noexcept { return entry_->id; }
  std::string_view name() const noexcept { return entry_->name; }
  const char* c_str() const noexcept { return entry_->name.data(); }
  std::uint64_t hash() const noexcept { return entry_->hash; }

  // Types interned so far; every id is below this.
  static std::uint32_t Count();
  static MsgType FromId(std::uint32_t id);

  friend bool operator==(MsgType a, MsgType b) noexcept {
    return a.entry_ == b.entry_;
  }

 private:
  static constexpr Entry kEmpty{"", util::Fnv1a64(""), 0};
  explicit MsgType(const Entry* entry) noexcept : entry_(entry) {}
  const Entry* entry_;
};

namespace detail {
// One object per payload type; its address tags Message::payload.
template <typename T>
inline constexpr char kPayloadTag = 0;
}  // namespace detail

struct Message {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MsgType type;             // protocol discriminator
  std::shared_ptr<const void> payload;  // protocol-defined body
  const void* payload_tag = nullptr;    // &detail::kPayloadTag<T> of the body
  std::size_t wire_bytes = 0;  // size charged against link bandwidth
  // Envelope checksum (wire-format v3, PROTOCOLS.md): stamped by
  // Network::Send, verified-and-dropped by receiving protocol layers.
  // Payloads are shared immutable objects, so in-flight corruption is
  // modeled by flipping bits here rather than mutating the body. 0 means
  // "unstamped" (a locally injected frame) and is accepted as intact.
  std::uint64_t checksum = 0;

  template <typename T>
  const T& As() const {
    assert(payload_tag == &detail::kPayloadTag<T>);
    return *static_cast<const T*>(payload.get());
  }

  template <typename T>
  static Message Make(NodeId from, NodeId to, MsgType type, T body,
                      std::size_t wire_bytes) {
    Message m;
    m.from = from;
    m.to = to;
    m.type = type;
    m.payload = std::make_shared<const T>(std::move(body));
    m.payload_tag = &detail::kPayloadTag<T>;
    m.wire_bytes = wire_bytes;
    return m;
  }
};

// FNV/mix checksum over the envelope fields a real frame would carry in its
// header (addresses, discriminator, length). The simulated payload bytes are
// represented by wire_bytes; flipping any checksum bit models a corrupted
// frame that fails verification at the receiver.
inline std::uint64_t EnvelopeChecksum(const Message& msg) noexcept {
  std::uint64_t h = msg.type.hash();
  h = util::HashCombine(h, msg.from);
  h = util::HashCombine(h, msg.to);
  h = util::HashCombine(h, msg.wire_bytes);
  return h;
}

// True when the frame passes envelope verification. Unstamped frames
// (checksum == 0: direct local injection in unit tests) are accepted.
inline bool IntegrityOk(const Message& msg) noexcept {
  return msg.checksum == 0 || msg.checksum == EnvelopeChecksum(msg);
}

}  // namespace nw::sim
