#include "sim/message.h"

#include <deque>
#include <map>
#include <mutex>
#include <vector>

namespace nw::sim {

namespace {

struct Registry {
  std::mutex mu;
  std::deque<std::string> names;  // element addresses never move
  std::deque<MsgType::Entry> entries;
  std::vector<const MsgType::Entry*> by_id;
  std::map<std::string_view, const MsgType::Entry*> by_name;
};

Registry& TheRegistry() {
  static Registry* registry = new Registry;  // never destroyed: static
                                             // MsgType constants outlive it
  return *registry;
}

}  // namespace

MsgType::MsgType(std::string_view name) : entry_(&kEmpty) {
  if (name.empty()) return;
  Registry& r = TheRegistry();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (r.by_id.empty()) r.by_id.push_back(&kEmpty);
  if (auto it = r.by_name.find(name); it != r.by_name.end()) {
    entry_ = it->second;
    return;
  }
  const std::string& stored = r.names.emplace_back(name);
  const Entry& entry = r.entries.emplace_back(
      Entry{stored, util::Fnv1a64(stored),
            static_cast<std::uint32_t>(r.by_id.size())});
  r.by_id.push_back(&entry);
  r.by_name.emplace(entry.name, &entry);
  entry_ = &entry;
}

std::uint32_t MsgType::Count() {
  Registry& r = TheRegistry();
  const std::lock_guard<std::mutex> lock(r.mu);
  return r.by_id.empty() ? 1 : static_cast<std::uint32_t>(r.by_id.size());
}

MsgType MsgType::FromId(std::uint32_t id) {
  Registry& r = TheRegistry();
  const std::lock_guard<std::mutex> lock(r.mu);
  if (id == 0 || id >= r.by_id.size()) return MsgType();
  return MsgType(r.by_id[id]);
}

}  // namespace nw::sim
