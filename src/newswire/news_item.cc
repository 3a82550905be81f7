#include "newswire/news_item.h"

#include "util/hash.h"

namespace nw::newswire {

using astrolabe::AttrValue;
using astrolabe::Row;

std::uint64_t NewsItem::Digest() const {
  using util::Fnv1a64;
  using util::HashCombine;
  std::uint64_t h = Fnv1a64(publisher);
  h = HashCombine(h, seq);
  h = HashCombine(h, Fnv1a64(subject));
  h = HashCombine(h, Fnv1a64(headline));
  h = HashCombine(h, body_bytes);
  h = HashCombine(h, categories);
  h = HashCombine(h, static_cast<std::uint64_t>(revision));
  h = HashCombine(h, Fnv1a64(supersedes));
  h = HashCombine(h, static_cast<std::uint64_t>(urgency));
  h = HashCombine(h, Fnv1a64(scope));
  h = HashCombine(h, Fnv1a64(forward_predicate));
  return h;
}

Row NewsItem::ToMetadata() const {
  Row row;
  row["publisher"] = publisher;
  row["seq"] = static_cast<std::int64_t>(seq);
  row["headline"] = headline;
  row["categories"] = static_cast<std::int64_t>(categories);
  row["revision"] = revision;
  if (!supersedes.empty()) row["supersedes"] = supersedes;
  row[multicast::kAttrUrgency] = urgency;
  row["published_at"] = published_at;
  row["signature"] = static_cast<std::int64_t>(signature);
  row["scope"] = scope;
  // Attribute names shared with the pub/sub layer so repair and
  // state-transfer copies behave like first-hand deliveries.
  if (!forward_predicate.empty()) row["fwd_pred"] = forward_predicate;
  if (!subject.empty()) row["subject"] = subject;
  return row;
}

std::optional<NewsItem> NewsItem::FromMetadata(const Row& row) {
  NewsItem item;
  try {
    item.publisher = row.at("publisher").AsString();
    item.seq = static_cast<std::uint64_t>(row.at("seq").AsInt());
    item.headline = row.at("headline").AsString();
    item.categories = static_cast<std::uint64_t>(row.at("categories").AsInt());
    item.revision = row.at("revision").AsInt();
    if (auto it = row.find("supersedes"); it != row.end()) {
      item.supersedes = it->second.AsString();
    }
    item.urgency = row.at(multicast::kAttrUrgency).AsInt();
    item.published_at = row.at("published_at").AsDouble();
    if (auto it = row.find("scope"); it != row.end()) {
      item.scope = it->second.AsString();
    }
    if (auto it = row.find("fwd_pred"); it != row.end()) {
      item.forward_predicate = it->second.AsString();
    }
    item.signature = static_cast<std::uint64_t>(row.at("signature").AsInt());
    if (auto it = row.find("subject"); it != row.end()) {
      item.subject = it->second.AsString();
    }
  } catch (const astrolabe::TypeError&) {
    return std::nullopt;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
  return item;
}

multicast::Item NewsItem::ToMulticastItem() const {
  multicast::Item item;
  item.id = Id();
  item.metadata = ToMetadata();
  item.body_bytes = body_bytes;
  item.published_at = published_at;
  return item;
}

std::optional<NewsItem> NewsItem::FromMulticastItem(
    const multicast::Item& item) {
  auto news = FromMetadata(item.metadata);
  if (news) news->body_bytes = item.body_bytes;
  return news;
}

}  // namespace nw::newswire
