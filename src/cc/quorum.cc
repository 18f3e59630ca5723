#include "cc/quorum.h"

#include <cassert>
#include <memory>
#include <utility>

namespace esr::cc {

namespace {

struct ReadReq {
  int64_t req;
  ObjectId object;
};
struct ReadResp {
  int64_t req;
  Value value;
  int64_t version;
};
struct WriteReq {
  int64_t req;
  ObjectId object;
  Value value;
  int64_t version;
};
struct WriteAck {
  int64_t req;
};

}  // namespace

QuorumEngine::QuorumEngine(sim::Simulator* simulator, msg::Mailbox* mailbox,
                           int num_sites, QuorumConfig config)
    : simulator_(simulator),
      mailbox_(mailbox),
      num_sites_(num_sites),
      config_(config) {
  assert(simulator != nullptr && mailbox != nullptr);
  const int majority = num_sites / 2 + 1;
  read_quorum_ = config.read_quorum > 0 ? config.read_quorum : majority;
  write_quorum_ = config.write_quorum > 0 ? config.write_quorum : majority;
  assert(read_quorum_ + write_quorum_ > num_sites &&
         "quorums must intersect (r + w > n)");
  mailbox_->RegisterHandler(kQvReadReq,
                            [this](SiteId src, const std::any& body) {
                              OnReadReq(src, body);
                            });
  mailbox_->RegisterHandler(kQvReadResp,
                            [this](SiteId src, const std::any& body) {
                              OnReadResp(src, body);
                            });
  mailbox_->RegisterHandler(kQvWriteReq,
                            [this](SiteId src, const std::any& body) {
                              OnWriteReq(src, body);
                            });
  mailbox_->RegisterHandler(kQvWriteAck,
                            [this](SiteId src, const std::any& body) {
                              OnWriteAck(src, body);
                            });
}

void QuorumEngine::BroadcastRead(int64_t req) {
  auto it = pending_reads_.find(req);
  if (it == pending_reads_.end()) return;
  PendingRead& pr = it->second;
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (pr.responses.count(s)) continue;
    mailbox_->Send(s, msg::Envelope{kQvReadReq, ReadReq{req, pr.object}},
                   /*size_bytes=*/64);
  }
  pr.retry_event = simulator_->Schedule(config_.retry_interval_us,
                                        [this, req]() { BroadcastRead(req); });
}

void QuorumEngine::ReadQuorum(ObjectId object, ReadCallback done) {
  ReadQuorumVersioned(object,
                      [done = std::move(done)](Value value, int64_t) {
                        if (done) done(Result<Value>(std::move(value)));
                      });
}

void QuorumEngine::ReadQuorumVersioned(ObjectId object,
                                       VersionedReadCallback done) {
  const int64_t req = next_req_++;
  PendingRead& pr = pending_reads_[req];
  pr.object = object;
  pr.done = std::move(done);
  events_.Increment("quorum.read_begin");
  BroadcastRead(req);
}

void QuorumEngine::OnReadReq(SiteId source, const std::any& body) {
  const auto* rr = std::any_cast<ReadReq>(&body);
  assert(rr != nullptr);
  const Versioned local =
      replica_.count(rr->object) ? replica_.at(rr->object) : Versioned{};
  mailbox_->Send(source,
                 msg::Envelope{kQvReadResp,
                               ReadResp{rr->req, local.value, local.version}},
                 /*size_bytes=*/96);
}

void QuorumEngine::OnReadResp(SiteId source, const std::any& body) {
  const auto* resp = std::any_cast<ReadResp>(&body);
  assert(resp != nullptr);
  auto it = pending_reads_.find(resp->req);
  if (it == pending_reads_.end()) return;
  PendingRead& pr = it->second;
  pr.responses.emplace(source, Versioned{resp->value, resp->version});
  if (static_cast<int>(pr.responses.size()) < read_quorum_) return;
  // Freshest value wins.
  Versioned best;
  best.version = -1;
  for (const auto& [_, v] : pr.responses) {
    if (v.version > best.version) best = v;
  }
  if (pr.retry_event != 0) simulator_->Cancel(pr.retry_event);
  VersionedReadCallback done = std::move(pr.done);
  events_.Increment("quorum.read_done");
  pending_reads_.erase(it);
  if (done) done(best.value, best.version);
}

void QuorumEngine::StartWrite(ObjectId object, Value value, int64_t version,
                              std::function<void()> done) {
  const int64_t req = next_req_++;
  PendingWrite& pw = pending_writes_[req];
  pw.object = object;
  pw.value = std::move(value);
  pw.version = version;
  pw.done = std::move(done);
  events_.Increment("quorum.write_begin");
  BroadcastWrite(req);
}

void QuorumEngine::BroadcastWrite(int64_t req) {
  auto it = pending_writes_.find(req);
  if (it == pending_writes_.end()) return;
  PendingWrite& pw = it->second;
  for (SiteId s = 0; s < num_sites_; ++s) {
    if (pw.acks.count(s)) continue;
    mailbox_->Send(
        s,
        msg::Envelope{kQvWriteReq,
                      WriteReq{req, pw.object, pw.value, pw.version}},
        /*size_bytes=*/128);
  }
  pw.retry_event = simulator_->Schedule(
      config_.retry_interval_us, [this, req]() { BroadcastWrite(req); });
}

void QuorumEngine::OnWriteReq(SiteId source, const std::any& body) {
  const auto* wr = std::any_cast<WriteReq>(&body);
  assert(wr != nullptr);
  Versioned& local = replica_[wr->object];
  if (wr->version > local.version) {
    local.value = wr->value;
    local.version = wr->version;
  }
  mailbox_->Send(source, msg::Envelope{kQvWriteAck, WriteAck{wr->req}},
                 /*size_bytes=*/32);
}

void QuorumEngine::OnWriteAck(SiteId source, const std::any& body) {
  const auto* ack = std::any_cast<WriteAck>(&body);
  assert(ack != nullptr);
  auto it = pending_writes_.find(ack->req);
  if (it == pending_writes_.end()) return;
  PendingWrite& pw = it->second;
  pw.acks.insert(source);
  if (static_cast<int>(pw.acks.size()) < write_quorum_) return;
  if (pw.retry_event != 0) simulator_->Cancel(pw.retry_event);
  std::function<void()> done = std::move(pw.done);
  events_.Increment("quorum.write_done");
  pending_writes_.erase(it);
  if (done) done();
}

void QuorumEngine::UpdateQuorum(std::vector<store::Operation> ops,
                                CommitCallback done) {
  // Group operations by object, preserving per-object order.
  auto groups =
      std::make_shared<std::vector<std::pair<ObjectId,
                                             std::vector<store::Operation>>>>();
  for (const store::Operation& op : ops) {
    assert(op.IsUpdate());
    bool found = false;
    for (auto& [obj, vec] : *groups) {
      if (obj == op.object) {
        vec.push_back(op);
        found = true;
        break;
      }
    }
    if (!found) groups->push_back({op.object, {op}});
  }
  auto remaining = std::make_shared<int>(static_cast<int>(groups->size()));
  auto finish = std::make_shared<CommitCallback>(std::move(done));
  if (*remaining == 0) {
    (*finish)(Status::Ok());
    return;
  }
  for (const auto& [object, object_ops] : *groups) {
    // Quorum read-modify-write per object: the new version supersedes the
    // freshest version any read-quorum member reported.
    ReadQuorumVersioned(
        object, [this, object, object_ops, remaining, finish](
                    Value current, int64_t version) {
          Value next = std::move(current);
          for (const store::Operation& op : object_ops) {
            Status s = op.ApplyTo(next);
            assert(s.ok());
            (void)s;
          }
          StartWrite(object, std::move(next), version + 1,
                     [remaining, finish]() {
                       if (--*remaining == 0) (*finish)(Status::Ok());
                     });
        });
  }
}

Value QuorumEngine::LocalValue(ObjectId object) const {
  auto it = replica_.find(object);
  return it == replica_.end() ? Value() : it->second.value;
}

int64_t QuorumEngine::LocalVersion(ObjectId object) const {
  auto it = replica_.find(object);
  return it == replica_.end() ? 0 : it->second.version;
}

void QuorumEngine::CancelPending() {
  for (auto& [_, pr] : pending_reads_) {
    if (pr.retry_event != 0) simulator_->Cancel(pr.retry_event);
    // Callbacks are dropped; callers treat the measurement run as over.
  }
  pending_reads_.clear();
  for (auto& [_, pw] : pending_writes_) {
    if (pw.retry_event != 0) simulator_->Cancel(pw.retry_event);
    // UpdateQuorum completions are dropped; callers treat the run as over.
  }
  pending_writes_.clear();
}

}  // namespace esr::cc
