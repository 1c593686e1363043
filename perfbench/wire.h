// Multiplexed protocol-v2 load client: several push-mode connections to a
// RecommendationServer driven from one thread, sessions addressed by id.
//
// Each connection is a server::Client that negotiated `push` with Hello();
// afterwards its socket is read and written directly so one poll() loop can
// serve every connection (a server::Client is blocking, one request at a
// time). Per session it sends `open`, consumes the pushed progress
// frames, answers the pushed `drained` with `finish`, and records the
// `result` — stamping each step into the session's SessionRecord.

#ifndef PERFBENCH_WIRE_H_
#define PERFBENCH_WIRE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "perfbench.h"
#include "server/client.h"
#include "server/protocol.h"

namespace perfbench {

class WireLoad {
 public:
  /// Connects `connections` push-mode clients to the server's socket.
  static seedb::Result<std::unique_ptr<WireLoad>> Connect(
      const std::string& socket_path, size_t connections);

  size_t connections() const { return conns_.size(); }

  /// Sends `open` for `spec` on connection `conn`; `rec` receives the
  /// session's stamps and result and must stay valid until it completes.
  /// rec->sent_us is stamped here.
  void Open(size_t conn, const seedb::server::OpenSpec& spec,
            SessionRecord* rec);

  /// Reads frames for up to `timeout_ms` (0 = only what is ready) and
  /// advances sessions.
  void Pump(int timeout_ms);

  size_t in_flight() const { return live_.size(); }

  /// Marks every unfinished session failed (a run that cannot wait longer).
  void Abandon(const std::string& why);

 private:
  struct Conn {
    seedb::server::Client client;
    std::string rbuf;
  };
  struct Live {
    size_t conn;
    SessionRecord* rec;
  };
  explicit WireLoad(std::vector<Conn> conns) : conns_(std::move(conns)) {}
  void Send(size_t conn, const std::string& line);
  void OnFrame(const seedb::server::JsonValue& frame, int64_t recv_us);
  void Fail(SessionRecord* rec, const std::string& why);

  std::vector<Conn> conns_;
  std::unordered_map<std::string, Live> live_;
  uint64_t next_id_ = 1;
};

}  // namespace perfbench

#endif  // PERFBENCH_WIRE_H_
