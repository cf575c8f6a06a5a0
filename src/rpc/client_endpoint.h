// ClientEndpoint — an end client process (§2.1). End clients live outside
// every service domain: their messages are never DV-tagged and an MSP always
// performs a (distributed) log flush before replying to them.
//
// The client implements the paper's reliability contract: it maintains a
// next-available request sequence number per session, resends the same
// request until the matching reply arrives, discards duplicate or stale
// replies, and — when the server answers Busy because it is checkpointing or
// recovering — sleeps 100 ms (model time) before resending (§5.4).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "rpc/message.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {

/// Client-side view of one session with one MSP.
struct ClientSession {
  std::string msp;
  std::string session_id;
  uint64_t next_seqno = 1;
};

/// Statistics of a single synchronous call.
struct CallStats {
  double response_model_ms = 0;
  uint32_t sends = 0;       ///< 1 + number of resends
  uint32_t busy_replies = 0;
};

struct ClientOptions {
  /// How long to wait for a reply before resending (model ms).
  double resend_timeout_ms = 400.0;
  /// Sleep before resending after a Busy reply (model ms; §5.4 uses 100 ms).
  double busy_backoff_ms = 100.0;
  /// Give up after this many sends.
  uint32_t max_sends = 200;
};

class ClientEndpoint {
 public:
  ClientEndpoint(SimEnvironment* env, SimNetwork* network, std::string name,
                 ClientOptions options = ClientOptions());
  ~ClientEndpoint();

  /// Open a new session with `msp`. Purely local: the server materializes
  /// the session when the first request arrives.
  ClientSession StartSession(const std::string& msp);

  /// Synchronous exactly-once call: send, wait, resend on loss/Busy.
  Status Call(ClientSession* session, const std::string& method,
              ByteView arg, Bytes* reply, CallStats* stats = nullptr);

  const std::string& name() const { return name_; }

 private:
  SimEnvironment* env_;
  SimNetwork* network_;
  std::string name_;
  ClientOptions options_;
  std::shared_ptr<Mailbox> mailbox_;
  std::atomic<uint64_t> next_session_ = 1;
};

}  // namespace msplog
