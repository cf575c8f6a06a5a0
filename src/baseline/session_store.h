// SessionStore — where the §5 stateful baselines keep a session's state
// between requests: Msp fetches it before each request and stores it before
// the reply. Psession keeps it in a local KvDb, StateServer at the state
// server (StateServerClient, baseline/state_server.h).
#pragma once

#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "db/kvdb.h"

namespace msplog {

class SessionStore {
 public:
  virtual ~SessionStore() = default;
  /// The state last stored for `session_id`; NotFound when there is none.
  virtual Status Get(const std::string& session_id, Bytes* blob) = 0;
  /// Store `blob` (Session::EncodeCheckpoint) as the session's state.
  virtual Status Put(const std::string& session_id, const Bytes& blob) = 0;
};

/// Psession's store: one KvDb read and one write transaction per request
/// (§5.2), each session under the key `session/<id>`.
class KvDbSessionStore : public SessionStore {
 public:
  KvDbSessionStore(SimEnvironment* env, SimDisk* disk, std::string name)
      : db_(env, disk, std::move(name)) {}
  /// Rebuild the database from its WAL; call before first use.
  Status Recover() { return db_.Recover(); }
  Status Get(const std::string& session_id, Bytes* blob) override {
    return db_.TxnGet("session/" + session_id, blob);
  }
  Status Put(const std::string& session_id, const Bytes& blob) override {
    return db_.TxnPut("session/" + session_id, blob);
  }

 private:
  KvDb db_;  // internally locked
};

}  // namespace msplog
