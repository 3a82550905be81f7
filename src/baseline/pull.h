// The traditional web pull model the paper argues against (§1): clients
// periodically re-fetch a front page (or an RSS summary, or a
// last-modified delta) from a centralized server. Used by experiment E1
// (redundant-data ratio vs. poll rate) and E2 (publisher load), and by the
// NewsWire bootstrap feed agents (§10).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "baseline/article.h"
#include "sim/network.h"
#include "util/stats.h"

namespace nw::baseline {

enum class PullMode {
  kFullPage,    // every poll returns the whole front page
  kRssSummary,  // poll returns headlines; unseen bodies fetched separately
  kDeltaSince,  // if-modified-since + delta encoding (§1)
};

const char* PullModeName(PullMode mode) noexcept;

// Centralized news site. Front page shows the most recent `front_page_size`
// articles.
class PullServer : public sim::Node {
 public:
  explicit PullServer(std::size_t front_page_size = 25)
      : front_page_size_(front_page_size) {}

  // Adds a new article (workload generator calls this).
  const Article& AddArticle(std::size_t body_bytes, std::size_t summary_bytes,
                            std::string subject);

  void OnMessage(const sim::Message& msg) override;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t response_bytes = 0;   // application payload served
    std::uint64_t not_modified = 0;     // 304-style empty responses
  };
  const Stats& stats() const { return stats_; }
  std::uint64_t article_count() const { return next_id_ - 1; }
  const std::vector<Article>& articles() const { return articles_; }

  // Wire protocol types (shared with PullClient).
  static inline const sim::MsgType kRequestType{"pull.req"};
  static inline const sim::MsgType kResponseType{"pull.resp"};

  struct Request {
    PullMode mode = PullMode::kFullPage;
    std::uint64_t last_seen_id = 0;  // kDeltaSince / body fetch floor
    bool bodies_only = false;        // RSS follow-up: fetch bodies > last_seen
  };
  struct Response {
    std::vector<Article> articles;  // bodies (or summaries for RSS)
    bool summaries = false;
    bool not_modified = false;
  };

 private:
  std::size_t front_page_size_;
  std::vector<Article> articles_;
  std::uint64_t next_id_ = 1;
  Stats stats_;
};

// A subscriber that polls the server on a fixed interval.
class PullClient : public sim::Node {
 public:
  struct Config {
    sim::NodeId server = 0;
    PullMode mode = PullMode::kFullPage;
    double poll_interval = 3600;  // seconds between polls
    double start_offset = 0;      // desynchronize clients
  };

  explicit PullClient(Config config) : config_(config) {}

  void Start();
  void OnMessage(const sim::Message& msg) override;

  struct Stats {
    std::uint64_t polls = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t redundant_bytes = 0;  // content already seen
    std::uint64_t new_articles = 0;
    util::SampleStats staleness;  // article age at first sight (s)
  };
  const Stats& stats() const { return stats_; }

 private:
  void Poll();

  Config config_;
  std::set<std::uint64_t> seen_;
  std::uint64_t max_seen_ = 0;
  Stats stats_;
};

// The proprietary one-to-many push the paper contrasts with (§2): the
// publisher unicasts every article to every subscriber directly.
class DirectPushServer : public sim::Node {
 public:
  void AddSubscriber(sim::NodeId id) { subscribers_.push_back(id); }
  std::size_t subscriber_count() const { return subscribers_.size(); }

  // Unicasts the article to all subscribers.
  void Publish(const Article& article);

  void OnMessage(const sim::Message& /*msg*/) override {}

  static inline const sim::MsgType kPushType{"push.item"};

 private:
  std::vector<sim::NodeId> subscribers_;
};

class DirectPushClient : public sim::Node {
 public:
  void OnMessage(const sim::Message& msg) override;

  const util::SampleStats& latency() const { return latency_; }
  std::uint64_t received() const { return received_; }

 private:
  util::SampleStats latency_;
  std::uint64_t received_ = 0;
};

}  // namespace nw::baseline
