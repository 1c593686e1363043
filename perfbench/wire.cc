#include "wire.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "util/string_util.h"

namespace perfbench {

using seedb::server::JsonValue;

seedb::Result<std::unique_ptr<WireLoad>> WireLoad::Connect(
    const std::string& socket_path, size_t connections) {
  std::vector<Conn> conns;
  for (size_t i = 0; i < connections; ++i) {
    SEEDB_ASSIGN_OR_RETURN(seedb::server::Client client,
                           seedb::server::Client::ConnectUnix(socket_path));
    SEEDB_RETURN_IF_ERROR(client.Hello());
    if (!client.push_enabled()) {
      return seedb::Status::Internal("server did not grant push");
    }
    conns.push_back(Conn{std::move(client), {}});
  }
  return std::unique_ptr<WireLoad>(new WireLoad(std::move(conns)));
}

void WireLoad::Fail(SessionRecord* rec, const std::string& why) {
  rec->ok = false;
  if (rec->error.empty()) rec->error = why;
  if (rec->done_us == 0) rec->done_us = NowUs();
}

void WireLoad::Send(size_t conn, const std::string& line) {
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::send(conns_[conn].client.fd(), line.data() + off,
                             line.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;  // the read side reports the broken connection
    off += static_cast<size_t>(n);
  }
}

void WireLoad::Open(size_t conn, const seedb::server::OpenSpec& spec,
                    SessionRecord* rec) {
  const std::string id = seedb::StringPrintf(
      "s%llu", static_cast<unsigned long long>(next_id_++));
  live_[id] = Live{conn, rec};
  rec->sent_us = NowUs();
  Send(conn, seedb::server::OpenRequestToJson(id, spec).Dump() + "\n");
}

void WireLoad::OnFrame(const JsonValue& frame, int64_t recv_us) {
  auto it = live_.find(frame.GetString("id"));
  if (it == live_.end()) return;
  SessionRecord* rec = it->second.rec;
  const std::string type = frame.GetString("type");
  const bool push = frame.GetBool("push");
  const int64_t sent = push ? frame.GetInt("ts_us") : 0;
  if (push) {
    if (sent > 0 && recv_us >= sent) {
      rec->frame_delivery_ms.push_back(static_cast<double>(recv_us - sent) /
                                       1e3);
    }
  }
  if (!frame.GetBool("ok")) {
    // A pushed error (e.g. a budget breach) is followed by `drained`; an
    // error response ends the session here.
    rec->error = frame.GetString("error");
    if (push) return;
    Fail(rec, rec->error);
    live_.erase(it);
    return;
  }
  if (type == "opened") {
    rec->opened_us = recv_us;
  } else if (type == "progress") {
    seedb::Result<seedb::server::RemoteProgress> p =
        seedb::server::ProgressFromJson(frame);
    if (!p.ok()) {
      rec->error = p.status().ToString();
      return;
    }
    rec->phase_seconds += p->phase_seconds;
    rec->phases += 1;
    // The frame is stamped right after its phase: what lies between the
    // previous frame and this phase's start is server time outside it.
    if (rec->last_push_ts_us > 0) {
      rec->server_between_phases_ms +=
          static_cast<double>(sent - rec->last_push_ts_us) / 1e3 -
          p->phase_seconds * 1e3;
    }
    rec->last_push_ts_us = sent;
    if (rec->first_topk_us == 0 && !p->top.empty()) {
      rec->first_topk_us = recv_us;
    }
  } else if (type == "drained") {
    rec->drained_us = recv_us;
    if (rec->last_push_ts_us > 0) {
      rec->server_between_phases_ms +=
          static_cast<double>(sent - rec->last_push_ts_us) / 1e3;
    }
    rec->drained_delivery_ms = static_cast<double>(recv_us - sent) / 1e3;
    rec->finish_sent_us = NowUs();
    Send(it->second.conn,
         "{\"op\":\"finish\",\"id\":" + seedb::server::JsonQuote(it->first) +
             "}\n");
  } else if (type == "result") {
    rec->done_us = recv_us;
    seedb::Result<seedb::server::RemoteResult> r =
        seedb::server::ResultFromJson(frame);
    if (!r.ok()) {
      Fail(rec, r.status().ToString());
    } else {
      for (const auto& v : r->top) rec->top.push_back(v.view_id);
      rec->views_executed = r->profile.views_executed;
      rec->views_pruned_online = r->profile.views_pruned_online;
      rec->early_stopped = r->profile.early_stopped;
      rec->ok = rec->error.empty() && rec->first_topk_us != 0;
      if (rec->first_topk_us == 0 && rec->error.empty()) {
        rec->error = "no progress frame carried a top-k";
      }
    }
    live_.erase(it);
  }
}

void WireLoad::Pump(int timeout_ms) {
  std::vector<pollfd> pfds;
  for (const Conn& c : conns_) pfds.push_back(pollfd{c.client.fd(), POLLIN, 0});
  if (::poll(pfds.data(), pfds.size(), timeout_ms) <= 0) return;
  for (size_t i = 0; i < pfds.size(); ++i) {
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    char chunk[1 << 16];
    const ssize_t got = ::read(pfds[i].fd, chunk, sizeof(chunk));
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      Abandon("connection closed by the server");
      return;
    }
    const int64_t recv_us = NowUs();
    std::string& buf = conns_[i].rbuf;
    buf.append(chunk, static_cast<size_t>(got));
    size_t start = 0;
    for (size_t end = buf.find('\n'); end != std::string::npos;
         end = buf.find('\n', start)) {
      seedb::Result<JsonValue> frame = seedb::server::ParseJson(
          std::string_view(buf).substr(start, end - start));
      start = end + 1;
      if (frame.ok()) OnFrame(*frame, recv_us);
    }
    buf.erase(0, start);
  }
}

void WireLoad::Abandon(const std::string& why) {
  for (auto& [id, live] : live_) Fail(live.rec, why);
  live_.clear();
}

}  // namespace perfbench
