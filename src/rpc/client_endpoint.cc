#include "rpc/client_endpoint.h"

namespace msplog {

ClientEndpoint::ClientEndpoint(SimEnvironment* env, SimNetwork* network,
                               std::string name, ClientOptions options)
    : env_(env), network_(network), name_(std::move(name)), options_(options) {
  obs::MetricsRegistry& m = env_->metrics();
  hist_call_ms_ = m.GetHistogram("client.call_ms");
  ctr_calls_ = m.GetCounter("client.calls");
  ctr_resends_ = m.GetCounter("client.resends");
  ctr_busy_ = m.GetCounter("client.busy_replies");
  ctr_timeouts_ = m.GetCounter("client.timeouts");
  mailbox_ = network_->Register(name_);
}

ClientEndpoint::~ClientEndpoint() { network_->Unregister(name_); }

ClientSession ClientEndpoint::StartSession(const std::string& msp) {
  ClientSession s;
  s.msp = msp;
  s.session_id = name_ + "/se" + std::to_string(next_session_.fetch_add(1));
  s.next_seqno = 1;
  return s;
}

Status ClientEndpoint::Call(ClientSession* session, const std::string& method,
                            ByteView arg, Bytes* reply, CallStats* stats) {
  const uint64_t seqno = session->next_seqno;
  // Root of this request's causal trace: the trace id doubles as the root
  // span id; servers parent their request spans on it via the wire fields.
  obs::SpanContext root;
  root.trace_id = obs::NextSpanId();
  root.span_id = root.trace_id;
  Message req;
  req.type = MessageType::kRequest;
  req.sender = name_;
  req.session_id = session->session_id;
  req.seqno = seqno;
  req.method = method;
  req.payload = Bytes(arg);
  req.trace_id = root.trace_id;
  req.parent_span_id = root.span_id;

  CallStats local;
  double t0 = env_->NowModelMs();
  Bytes wire = req.Encode();
  env_->tracer().Record(obs::TraceEventType::kClientCallStart, t0, name_,
                        session->session_id, seqno, method, root);

  // Single finish path: stats and registry metrics are recorded on every
  // exit, including the give-up timeout (callers passing stats == nullptr
  // still get the metrics).
  auto finish = [&](Status st) {
    local.response_model_ms = env_->NowModelMs() - t0;
    env_->tracer().Record(obs::TraceEventType::kClientCallEnd,
                          env_->NowModelMs(), name_, session->session_id,
                          seqno, st.ok() ? "" : st.ToString(), root);
    ctr_calls_->Add(1);
    if (local.sends > 1) ctr_resends_->Add(local.sends - 1);
    if (local.busy_replies > 0) ctr_busy_->Add(local.busy_replies);
    if (st.IsTimedOut()) ctr_timeouts_->Add(1);
    hist_call_ms_->Record(local.response_model_ms);
    if (stats) *stats = local;
    return st;
  };

  while (local.sends < options_.max_sends) {
    network_->Send(name_, session->msp, wire);
    ++local.sends;

    // Wait for the matching reply until this send's resend deadline.
    const std::chrono::nanoseconds timeout =
        env_->RealTimeout(options_.resend_timeout_ms);
    const uint64_t deadline =
        env_->ElapsedRealNs() + static_cast<uint64_t>(timeout.count());
    Packet p;
    while (mailbox_->PopUntil(&p, deadline)) {
      Message m;
      Status st = Message::Decode(p.wire, &m);
      if (!st.ok()) continue;  // garbage on the wire: drop
      if (m.type != MessageType::kReply || m.session_id != session->session_id) {
        continue;  // not ours
      }
      if (m.seqno != seqno) continue;  // duplicate reply of an older request
      if (m.reply_code == ReplyCode::kBusy) {
        // Server is checkpointing or recovering: back off, then resend.
        ++local.busy_replies;
        env_->SleepModelMs(options_.busy_backoff_ms);
        break;
      }
      session->next_seqno = seqno + 1;
      *reply = std::move(m.payload);
      return finish(m.reply_code == ReplyCode::kOk
                        ? Status::OK()
                        : Status::Aborted("application error: " + *reply));
    }
    if (mailbox_->closed()) {
      return finish(Status::Crashed("client endpoint closed"));
    }
  }
  return finish(Status::TimedOut("no reply after " +
                                 std::to_string(local.sends) + " sends"));
}

}  // namespace msplog
