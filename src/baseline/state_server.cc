#include "audit/mutex.h"
#include "baseline/state_server.h"

#include "common/serde.h"

namespace msplog {

StateServerNode::StateServerNode(SimEnvironment* env, SimNetwork* network,
                                 std::string name)
    : env_(env), network_(network), name_(std::move(name)) {}

StateServerNode::~StateServerNode() { Crash(); }

Status StateServerNode::Start() {
  if (running_) return Status::InvalidArgument("already running");
  mailbox_ = network_->Register(name_);
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void StateServerNode::Crash() {
  if (!running_) return;
  running_ = false;
  network_->Unregister(name_);
  if (thread_.joinable()) thread_.join();
  audit::LockGuard lk(mu_);
  store_.clear();  // in-memory only: a crash loses everything
}

size_t StateServerNode::StoredSessions() const {
  audit::LockGuard lk(mu_);
  return store_.size();
}

void StateServerNode::Loop() {
  Packet p;
  while (mailbox_->Pop(&p)) {
    Message m;
    if (!Message::Decode(p.wire, &m).ok()) continue;
    if (m.type != MessageType::kRequest) continue;
    Message r;
    r.type = MessageType::kReply;
    r.sender = name_;
    r.session_id = m.session_id;
    r.seqno = m.seqno;
    r.reply_code = ReplyCode::kOk;
    if (m.method == "__ss_get") {
      audit::LockGuard lk(mu_);
      auto it = store_.find(m.payload);
      if (it == store_.end()) {
        r.payload.push_back('\0');
      } else {
        r.payload.push_back('\1');
        r.payload.append(it->second);
      }
    } else if (m.method == "__ss_put") {
      BinaryReader br(m.payload);
      Bytes key, blob;
      if (br.GetBytes(&key).ok() && br.GetBytes(&blob).ok()) {
        audit::LockGuard lk(mu_);
        store_[key] = std::move(blob);
      } else {
        r.reply_code = ReplyCode::kAppError;
        r.payload = "bad put payload";
      }
    } else {
      r.reply_code = ReplyCode::kAppError;
      r.payload = "unknown method " + m.method;
    }
    network_->Send(name_, p.from, r.Encode());
  }
}

Status StateServerClient::RoundTrip(const std::string& session_id,
                                    const char* method, Bytes payload,
                                    Message* reply) {
  Message req;
  req.type = MessageType::kRequest;
  req.sender = self_;
  req.session_id = self_ + "/" + session_id + "@ss";
  req.seqno = next_seqno_.fetch_add(1, std::memory_order_relaxed);
  req.method = method;
  req.payload = std::move(payload);
  return call_(server_, req, reply);
}

Status StateServerClient::Get(const std::string& session_id, Bytes* blob) {
  Message rep;
  MSPLOG_RETURN_IF_ERROR(RoundTrip(session_id, "__ss_get", session_id, &rep));
  if (rep.payload.empty()) return Status::Corruption("bad state reply");
  if (rep.payload[0] != 1) return Status::NotFound(session_id);
  *blob = rep.payload.substr(1);
  return Status::OK();
}

Status StateServerClient::Put(const std::string& session_id,
                              const Bytes& blob) {
  BinaryWriter w;
  w.PutBytes(session_id);
  w.PutBytes(blob);
  Message rep;
  return RoundTrip(session_id, "__ss_put", w.Take(), &rep);
}

}  // namespace msplog
