#include "astrolabe/query.h"

#include "astrolabe/sql/parser.h"
#include "astrolabe/sql/plan.h"

namespace nw::astrolabe {

QueryService::QueryService(Agent& agent, Config config)
    : agent_(agent), config_(config) {
  agent_.RegisterHandler(kRequestType, [this](const sim::Message& msg) {
    HandleRequest(msg);
  });
  agent_.RegisterHandler(kResponseType, [this](const sim::Message& msg) {
    HandleResponse(msg);
  });
}

void QueryService::QueryZone(sim::NodeId peer, std::size_t level,
                             const std::string& sql, Callback cb) {
  const std::uint64_t id = next_id_++;
  Request req{id, level, sql};
  pending_.emplace(id, std::move(cb));
  ++stats_.sent;
  agent_.Send(sim::Message::Make(agent_.id(), peer, kRequestType,
                                 std::move(req), 32 + sql.size()));
  agent_.Schedule(config_.timeout, [this, id] {
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    Callback cb = std::move(it->second);
    pending_.erase(it);
    ++stats_.timeouts;
    Result result;
    result.ok = false;
    result.error = "timeout";
    cb(result);
  });
}

void QueryService::HandleRequest(const sim::Message& msg) {
  const auto& req = msg.As<Request>();
  Response resp;
  resp.id = req.id;
  if (req.level >= agent_.Depth()) {
    resp.error = "level out of range";
    ++stats_.rejected;
  } else {
    try {
      resp.row = sql::CompiledQuery::Compile(sql::ParseQuery(req.sql))
                     .Eval(agent_.TableAt(req.level));
      resp.ok = true;
      ++stats_.answered;
    } catch (const sql::ParseError& e) {
      resp.error = e.what();
      ++stats_.rejected;
    } catch (const TypeError& e) {
      resp.error = e.what();
      ++stats_.rejected;
    }
  }
  const std::size_t wire = 24 + resp.error.size() + RowWireBytes(resp.row);
  agent_.Send(sim::Message::Make(agent_.id(), msg.from, kResponseType,
                                 std::move(resp), wire));
}

void QueryService::HandleResponse(const sim::Message& msg) {
  const auto& resp = msg.As<Response>();
  auto it = pending_.find(resp.id);
  if (it == pending_.end()) return;  // answered after timeout: drop
  Callback cb = std::move(it->second);
  pending_.erase(it);
  Result result;
  result.ok = resp.ok;
  result.error = resp.error;
  result.row = resp.row;
  cb(result);
}

}  // namespace nw::astrolabe
