// Remote queries over the replicated zone state — the monitoring /
// data-mining face of Astrolabe (paper §3: "monitoring, management and
// data-mining of large-scale distributed systems"; §4 uses it as the
// management service for the pub/sub overlay itself).
//
// A client sends an aggregation query (the same SQL dialect as the
// mobile aggregation functions) to any agent, naming the zone level to
// evaluate against; the agent runs it over its local replica and returns
// the summary row. Queries are strictly read-only.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "astrolabe/agent.h"

namespace nw::astrolabe {

class QueryService {
 public:
  struct Result {
    bool ok = false;
    std::string error;  // set when !ok
    Row row;
  };
  using Callback = std::function<void(const Result&)>;

  struct Config {
    double timeout = 5.0;  // seconds before a pending query fails
  };

  explicit QueryService(Agent& agent) : QueryService(agent, Config{}) {}
  QueryService(Agent& agent, Config config);

  // Evaluates `sql` against `peer`'s replica of the zone with `level`
  // path components (0 = the root table) and invokes `cb` exactly once —
  // with the resulting row, or with ok=false on parse errors, bad levels,
  // or timeout (peer dead / message lost).
  void QueryZone(sim::NodeId peer, std::size_t level, const std::string& sql,
                 Callback cb);

  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;   // served for remote clients
    std::uint64_t rejected = 0;   // malformed queries we refused to run
    std::uint64_t timeouts = 0;
  };
  const Stats& stats() const { return stats_; }

  static inline const sim::MsgType kRequestType{"astro.query"};
  static inline const sim::MsgType kResponseType{"astro.query_resp"};

 private:
  struct Request {
    std::uint64_t id = 0;
    std::size_t level = 0;
    std::string sql;
  };
  struct Response {
    std::uint64_t id = 0;
    bool ok = false;
    std::string error;
    Row row;
  };

  void HandleRequest(const sim::Message& msg);
  void HandleResponse(const sim::Message& msg);

  Agent& agent_;
  Config config_;
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, Callback> pending_;
  Stats stats_;
};

}  // namespace nw::astrolabe
