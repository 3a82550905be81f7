#include "pubsub/category_subscriptions.h"

namespace nw::pubsub {

using astrolabe::AttrValue;
using astrolabe::Row;
using multicast::Item;

std::string CategoryAttrFor(const std::string& publisher) {
  return "pub_" + publisher;
}

std::string CategoryFunctionNameFor(const std::string& publisher) {
  return "pubsub.cat." + publisher;
}

std::string CategoryFunctionCodeFor(const std::string& publisher) {
  const std::string attr = CategoryAttrFor(publisher);
  return "SELECT OR(" + attr + ") AS " + attr;
}

CategorySubscriptions::CategorySubscriptions(astrolabe::Agent& agent,
                                             multicast::MulticastService& mc)
    : agent_(agent), mc_(mc) {
  mc_.SetForwardFilter([](const Item& item, const Row& child_row) {
    return ChildAdmits(item, child_row);
  });
  mc_.SetDeliveryCallback(
      [this](const multicast::Envelope& env) { OnDeliver(*env.item); });
}

void CategorySubscriptions::Subscribe(const std::string& publisher,
                                      std::uint64_t mask) {
  const std::string attr = CategoryAttrFor(publisher);
  if (mask == 0) {
    masks_.erase(publisher);
    agent_.RemoveLocalAttr(attr);
    return;
  }
  masks_[publisher] = mask;
  agent_.SetLocalAttr(attr, static_cast<std::int64_t>(mask));
}

std::uint64_t CategorySubscriptions::MaskFor(
    const std::string& publisher) const {
  auto it = masks_.find(publisher);
  return it == masks_.end() ? 0 : it->second;
}

void CategorySubscriptions::Publish(Item item, const std::string& publisher,
                                    std::uint64_t categories,
                                    const astrolabe::ZonePath& scope) {
  item.metadata[kAttrPublisher] = publisher;
  item.metadata[kAttrCatMask] = static_cast<std::int64_t>(categories);
  if (item.published_at == 0) item.published_at = agent_.Now();
  ++stats_.published;
  mc_.SendToZone(scope, std::move(item));
}

bool CategorySubscriptions::ChildAdmits(const Item& item,
                                        const Row& child_row) {
  auto pub_it = item.metadata.find(kAttrPublisher);
  auto mask_it = item.metadata.find(kAttrCatMask);
  if (pub_it == item.metadata.end() || mask_it == item.metadata.end()) {
    return true;  // untargeted multicast
  }
  auto agg = child_row.find(CategoryAttrFor(pub_it->second.AsString()));
  if (agg == child_row.end() ||
      agg->second.type() != AttrValue::Type::kInt) {
    return false;  // no subscriber below this child for that publisher
  }
  return (static_cast<std::uint64_t>(agg->second.AsInt()) &
          static_cast<std::uint64_t>(mask_it->second.AsInt())) != 0;
}

void CategorySubscriptions::OnDeliver(const Item& item) {
  auto pub_it = item.metadata.find(kAttrPublisher);
  auto mask_it = item.metadata.find(kAttrCatMask);
  if (pub_it == item.metadata.end() || mask_it == item.metadata.end()) {
    ++stats_.delivered;
    if (on_news_) on_news_(item);
    return;
  }
  const std::uint64_t wanted = MaskFor(pub_it->second.AsString());
  if ((wanted & static_cast<std::uint64_t>(mask_it->second.AsInt())) == 0) {
    ++stats_.rejected;
    return;
  }
  ++stats_.delivered;
  if (on_news_) on_news_(item);
}

}  // namespace nw::pubsub
