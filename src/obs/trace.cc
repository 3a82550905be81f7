#include "obs/trace.h"

#include <cstdlib>
#include <cstring>

#include "util/hash.h"

namespace nw::obs {

namespace {

constexpr const char* kCategoryNames[] = {
    "gossip", "merge",   "cert",  "election", "send",   "deliver",
    "drop",   "fault",   "publish", "cache",  "repair", "reliable",
    "integrity", "aggregation",
};
static_assert(sizeof(kCategoryNames) / sizeof(kCategoryNames[0]) ==
                  static_cast<std::size_t>(EventCategory::kCount_),
              "category name table out of sync");

std::uint64_t BitsOf(double v) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

void AppendEscaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

// Minimal extractor for the flat JSONL objects ToJsonl emits; not a
// general-purpose JSON parser.
bool FindField(std::string_view line, std::string_view key,
               std::string_view* value) {
  const std::string pattern = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return false;
  std::size_t pos = at + pattern.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  if (pos >= line.size()) return false;
  if (line[pos] == '"') {
    std::size_t end = pos + 1;
    while (end < line.size() && line[end] != '"') {
      if (line[end] == '\\') ++end;
      ++end;
    }
    if (end >= line.size()) return false;
    *value = line.substr(pos + 1, end - pos - 1);
  } else {
    std::size_t end = pos;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    *value = line.substr(pos, end - pos);
  }
  return true;
}

std::string Unescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'u':
          if (i + 4 < s.size()) {
            out.push_back(static_cast<char>(
                std::strtoul(std::string(s.substr(i + 1, 4)).c_str(), nullptr,
                             16)));
            i += 4;
          }
          break;
        default: out.push_back(s[i]);
      }
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

}  // namespace

const char* CategoryName(EventCategory c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < static_cast<std::size_t>(EventCategory::kCount_)
             ? kCategoryNames[i]
             : "?";
}

std::optional<EventCategory> CategoryFromName(std::string_view name) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(EventCategory::kCount_);
       ++i) {
    if (name == kCategoryNames[i]) return static_cast<EventCategory>(i);
  }
  return std::nullopt;
}

std::optional<std::uint32_t> ParseCategoryMask(std::string_view list) {
  if (list.empty() || list == "all") return kAllCategories;
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t next = list.find(',', pos);
    if (next == std::string_view::npos) next = list.size();
    std::string_view name = list.substr(pos, next - pos);
    while (!name.empty() && name.front() == ' ') name.remove_prefix(1);
    while (!name.empty() && name.back() == ' ') name.remove_suffix(1);
    if (!name.empty()) {
      const auto cat = CategoryFromName(name);
      if (!cat) return std::nullopt;
      mask |= CategoryBit(*cat);
    }
    pos = next + 1;
  }
  return mask;
}

EventTracer::EventTracer(std::size_t capacity, std::uint32_t category_mask)
    : ring_(std::max<std::size_t>(1, capacity)), mask_(category_mask) {}

void EventTracer::Record(double time, std::uint32_t node,
                         EventCategory category, const char* type,
                         std::uint64_t a, std::uint64_t b,
                         std::string_view detail) noexcept {
  if (!Enabled(category)) return;
  TraceEvent ev;
  ev.time = time;
  ev.node = node;
  ev.category = category;
  ev.type = type;
  ev.a = a;
  ev.b = b;
  // string_view::copy, unlike memcpy, accepts an empty view whose data()
  // is null.
  ev.detail[detail.copy(ev.detail, sizeof ev.detail - 1)] = '\0';
  ring_[total_++ % ring_.size()] = ev;
}

std::vector<TraceEvent> EventTracer::Events() const {
  std::vector<TraceEvent> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t start = total_ - n;
  for (std::uint64_t i = start; i < total_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

void EventTracer::DumpText(FILE* out) const {
  for (const TraceEvent& ev : Events()) {
    std::fprintf(out, "%12.6f n%-5u %-8s %-24s a=%llu b=%llu%s%s\n", ev.time,
                 ev.node, CategoryName(ev.category), ev.type,
                 static_cast<unsigned long long>(ev.a),
                 static_cast<unsigned long long>(ev.b),
                 ev.detail[0] ? " " : "", ev.detail);
  }
}

std::string EventTracer::ToJsonl(const TraceEvent& ev) {
  char buf[96];
  std::string out = "{\"t\": ";
  std::snprintf(buf, sizeof buf, "%.9f", ev.time);
  out += buf;
  std::snprintf(buf, sizeof buf, ", \"node\": %u, \"cat\": \"%s\", \"type\": ",
                ev.node, CategoryName(ev.category));
  out += buf;
  AppendEscaped(out, ev.type);
  std::snprintf(buf, sizeof buf, ", \"a\": %llu, \"b\": %llu, \"detail\": ",
                static_cast<unsigned long long>(ev.a),
                static_cast<unsigned long long>(ev.b));
  out += buf;
  AppendEscaped(out, ev.detail);
  out += "}";
  return out;
}

void EventTracer::DumpJsonl(FILE* out) const {
  for (const TraceEvent& ev : Events()) {
    const std::string line = ToJsonl(ev);
    std::fwrite(line.data(), 1, line.size(), out);
    std::fputc('\n', out);
  }
}

std::uint64_t EventTracer::SequenceHash(std::uint32_t mask) const {
  std::uint64_t h = util::Fnv1a64("nw.trace");
  for (const TraceEvent& ev : Events()) {
    if ((mask & CategoryBit(ev.category)) == 0) continue;
    h = util::HashCombine(h, BitsOf(ev.time));
    h = util::HashCombine(h, ev.node);
    h = util::HashCombine(h, static_cast<std::uint64_t>(ev.category));
    h = util::HashCombine(h, util::Fnv1a64(ev.type));
    h = util::HashCombine(h, ev.a);
    h = util::HashCombine(h, ev.b);
    h = util::HashCombine(h, util::Fnv1a64(ev.detail));
  }
  return h;
}

std::optional<EventTracer::ParsedEvent> EventTracer::ParseJsonlLine(
    std::string_view line) {
  ParsedEvent ev;
  std::string_view field;
  if (!FindField(line, "t", &field)) return std::nullopt;
  ev.time = std::strtod(std::string(field).c_str(), nullptr);
  if (!FindField(line, "node", &field)) return std::nullopt;
  ev.node = static_cast<std::uint32_t>(
      std::strtoul(std::string(field).c_str(), nullptr, 10));
  if (!FindField(line, "cat", &field)) return std::nullopt;
  ev.category = Unescape(field);
  if (!FindField(line, "type", &field)) return std::nullopt;
  ev.type = Unescape(field);
  if (!FindField(line, "a", &field)) return std::nullopt;
  ev.a = std::strtoull(std::string(field).c_str(), nullptr, 10);
  if (!FindField(line, "b", &field)) return std::nullopt;
  ev.b = std::strtoull(std::string(field).c_str(), nullptr, 10);
  if (!FindField(line, "detail", &field)) return std::nullopt;
  ev.detail = Unescape(field);
  return ev;
}

}  // namespace nw::obs
