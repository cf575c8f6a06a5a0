// StateServerNode — the §5 "StateServer" baseline: session states are kept
// in memory at a state server on a different computer. Cheap (two light
// network round trips per request per MSP) but not durable: if the state
// server crashes, every session state is gone — exactly the weakness the
// paper contrasts with log-based recovery.
//
// Protocol (over SimNetwork, reusing the rpc::Message frame), spoken only
// by StateServerNode and StateServerClient below:
//   method "__ss_get": payload = session key
//                      reply   = [u8 found][blob]
//   method "__ss_put": payload = PutBytes(key) PutBytes(blob)
//                      reply   = empty
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "audit/mutex.h"
#include "baseline/session_store.h"
#include "common/bytes.h"
#include "common/status.h"
#include "rpc/message.h"
#include "sim/sim_env.h"
#include "sim/sim_network.h"

namespace msplog {

class StateServerNode {
 public:
  StateServerNode(SimEnvironment* env, SimNetwork* network, std::string name);
  ~StateServerNode();

  Status Start();
  /// Abrupt failure: the in-memory session states are lost.
  void Crash();

  const std::string& name() const { return name_; }
  size_t StoredSessions() const;

 private:
  void Loop();

  SimEnvironment* env_;
  SimNetwork* network_;
  std::string name_;
  std::shared_ptr<Mailbox> mailbox_;
  std::thread thread_;
  /// Touched only by the driver thread (Start/Crash/dtor); Loop() never
  /// reads it, so it needs no lock.
  bool running_ = false;

  mutable audit::Mutex mu_{"state_server"};
  std::map<std::string, Bytes> store_ GUARDED_BY(mu_);
};

/// The MSP side of the protocol: StateServer's SessionStore, one round trip
/// to `server` per Get and per Put. `call` sends a request and awaits its
/// reply (Msp::CallRoundTrip).
class StateServerClient : public SessionStore {
 public:
  using CallFn = std::function<Status(const std::string& dest,
                                      const Message& req, Message* reply)>;
  StateServerClient(std::string self, std::string server, CallFn call)
      : self_(std::move(self)),
        server_(std::move(server)),
        call_(std::move(call)) {}

  Status Get(const std::string& session_id, Bytes* blob) override;
  Status Put(const std::string& session_id, const Bytes& blob) override;

 private:
  Status RoundTrip(const std::string& session_id, const char* method,
                   Bytes payload, Message* reply);

  const std::string self_, server_;
  const CallFn call_;
  /// One counter for every session: a request's pending-call key,
  /// ("<self>/<session>@ss", seqno), never repeats.
  std::atomic<uint64_t> next_seqno_{1};
};

}  // namespace msplog
