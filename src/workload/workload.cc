#include "workload/workload.h"

#include <cassert>
#include <sstream>

#include "store/operation.h"

namespace esr::workload {

using core::ReplicatedSystem;
using store::Operation;

std::string WorkloadResult::ToString() const {
  std::ostringstream os;
  os << "updates/s=" << UpdatesPerSec() << " queries/s=" << QueriesPerSec()
     << " completion=" << QueryCompletionRate()
     << " upd_lat_p50us=" << update_latency_us.Percentile(50)
     << " qry_lat_p50us=" << query_latency_us.Percentile(50)
     << " inconsistency_mean=" << query_inconsistency.mean()
     << " blocked=" << query_blocked_attempts << " restarts=" << query_restarts;
  return os.str();
}

struct WorkloadRunner::Client {
  SiteId site;
  Rng rng;
  bool stopped = false;

  Client(SiteId s, uint64_t seed) : site(s), rng(seed) {}
};

WorkloadRunner::WorkloadRunner(ReplicatedSystem* system, WorkloadSpec spec)
    : system_(system), spec_(spec), rng_(spec.seed) {
  assert(system != nullptr);
}

ObjectId WorkloadRunner::PickObject(Rng& rng) {
  if (spec_.zipf_theta > 0) {
    return rng.Zipf(spec_.num_objects, spec_.zipf_theta);
  }
  return rng.Uniform(0, spec_.num_objects - 1);
}

WorkloadResult WorkloadRunner::Run() {
  result_ = WorkloadResult{};
  result_.issue_window_us = spec_.duration_us;
  stop_time_ = system_->simulator().Now() + spec_.duration_us;
  for (SiteId s = 0; s < system_->config().num_sites; ++s) {
    for (int c = 0; c < spec_.clients_per_site; ++c) {
      StartClient(s, c);
    }
  }
  system_->RunFor(spec_.duration_us + spec_.drain_us);
  return result_;
}

void WorkloadRunner::StartClient(SiteId site, int index) {
  auto client = std::make_shared<Client>(
      site, spec_.seed ^ (static_cast<uint64_t>(site) << 32) ^
                static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL);
  // Stagger client starts across one mean think time.
  const SimDuration first =
      static_cast<SimDuration>(client->rng.Exponential(
          static_cast<double>(spec_.think_time_us)));
  system_->simulator().Schedule(first, [this, client]() {
    ClientIteration(client);
  });
}

void WorkloadRunner::ClientIteration(std::shared_ptr<Client> client) {
  if (system_->simulator().Now() >= stop_time_) {
    client->stopped = true;
    return;
  }
  if (client->rng.Bernoulli(spec_.update_fraction)) {
    IssueUpdate(client);
  } else {
    IssueQuery(client);
  }
}

void WorkloadRunner::IssueUpdate(std::shared_ptr<Client> client) {
  std::vector<Operation> ops;
  ops.reserve(spec_.ops_per_update);
  // Partial replication: optionally confine this ET's objects to one shard.
  // The shard is fixed by the first draw; later draws are rejected (bounded)
  // until they land in it. No extra rng draws happen when the knob is off,
  // so unsharded runs replay the legacy object sequence exactly.
  const shard::PlacementMap* placement = system_->placement();
  const bool confine = placement != nullptr && placement->num_shards() > 1 &&
                       spec_.single_shard_fraction > 0 &&
                       client->rng.Bernoulli(spec_.single_shard_fraction);
  ShardId target_shard = -1;
  auto pick = [&]() {
    ObjectId object = PickObject(client->rng);
    if (confine) {
      if (target_shard < 0) {
        target_shard = placement->ShardOf(object);
      } else {
        for (int tries = 0;
             tries < 1024 && placement->ShardOf(object) != target_shard;
             ++tries) {
          object = PickObject(client->rng);
        }
      }
    }
    return object;
  };
  if (spec_.update_kind == WorkloadSpec::UpdateKind::kTransfer) {
    // One balanced transfer per update ET: the two deltas cancel, so the
    // sum over all objects is invariant under any serializable execution.
    const ObjectId from = pick();
    ObjectId to = pick();
    if (to == from && !confine) to = (to + 1) % spec_.num_objects;
    // Under confinement a same-object transfer is left alone (it still
    // cancels); nudging it could leave the target shard.
    const int64_t amount = client->rng.Uniform(1, 50);
    ops.push_back(Operation::Increment(from, -amount));
    ops.push_back(Operation::Increment(to, amount));
  }
  for (int i = 0;
       spec_.update_kind != WorkloadSpec::UpdateKind::kTransfer &&
       i < spec_.ops_per_update;
       ++i) {
    const ObjectId object = pick();
    switch (spec_.update_kind) {
      case WorkloadSpec::UpdateKind::kIncrement:
        ops.push_back(Operation::Increment(object,
                                           client->rng.Uniform(1, 10)));
        break;
      case WorkloadSpec::UpdateKind::kTimestampedWrite:
        // Timestamp is stamped by the method at submit.
        ops.push_back(Operation::TimestampedWrite(
            object, Value(client->rng.Uniform(0, 1'000'000)),
            kZeroTimestamp));
        break;
      case WorkloadSpec::UpdateKind::kMixedNonCommutative: {
        const int64_t kind = client->rng.Uniform(0, 2);
        if (kind == 0) {
          ops.push_back(
              Operation::Increment(object, client->rng.Uniform(1, 10)));
        } else if (kind == 1) {
          ops.push_back(Operation::Write(
              object, Value(client->rng.Uniform(0, 1'000'000))));
        } else {
          ops.push_back(Operation::Multiply(object, 2));
        }
        break;
      }
      case WorkloadSpec::UpdateKind::kTransfer:
        break;  // built whole above; the loop never runs for it
    }
  }
  const SimTime begin = system_->simulator().Now();
  auto finish = [this, client, begin](Status s) {
    if (s.ok()) {
      ++result_.updates_committed;
      result_.update_latency_us.Add(
          static_cast<double>(system_->simulator().Now() - begin));
    } else {
      ++result_.updates_rejected;
    }
    const SimDuration think = static_cast<SimDuration>(
        client->rng.Exponential(static_cast<double>(spec_.think_time_us)));
    system_->simulator().Schedule(think, [this, client]() {
      ClientIteration(client);
    });
  };
  Result<EtId> submitted = system_->SubmitUpdate(client->site, std::move(ops),
                                                 finish);
  if (!submitted.ok()) {
    // Rejected at admission (never reached the commit callback).
    finish(submitted.status());
    return;
  }
  // COMPE: announce the global outcome after the configured delay.
  if ((system_->config().method == core::Method::kCompe ||
       system_->config().method == core::Method::kCompeOrdered)) {
    const bool abort =
        client->rng.Bernoulli(spec_.compe_abort_probability);
    const EtId et = *submitted;
    system_->simulator().Schedule(
        spec_.compe_decision_delay_us,
        [this, et, abort]() { (void)system_->Decide(et, !abort); });
  }
}

void WorkloadRunner::IssueQuery(std::shared_ptr<Client> client) {
  const SimTime begin = system_->simulator().Now();
  const EtId query = system_->BeginQuery(client->site, spec_.query_epsilon);
  ++result_.queries_started;
  auto reads_left = std::make_shared<int>(spec_.reads_per_query);
  auto step = std::make_shared<std::function<void()>>();
  *step = [this, client, query, begin, reads_left,
           weak = std::weak_ptr<std::function<void()>>(step)]() {
    // Alive for the duration of this call via the invoking copy; re-shared
    // into the read callback below so the chain owns itself without a
    // reference cycle.
    auto self = weak.lock();
    if (*reads_left == 0) {
      const core::QueryState* q = system_->query_state(query);
      if (q != nullptr) {
        result_.query_inconsistency.Add(static_cast<double>(q->inconsistency));
        result_.query_blocked_attempts += q->blocked_attempts;
        result_.query_restarts += q->restarts;
      }
      (void)system_->EndQuery(query);
      ++result_.queries_completed;
      result_.query_latency_us.Add(
          static_cast<double>(system_->simulator().Now() - begin));
      const SimDuration think = static_cast<SimDuration>(
          client->rng.Exponential(static_cast<double>(spec_.think_time_us)));
      system_->simulator().Schedule(think, [this, client]() {
        ClientIteration(client);
      });
      return;
    }
    --*reads_left;
    const ObjectId object = PickObject(client->rng);
    system_->Read(query, object, [this, self](Result<Value> v) {
      if (v.ok()) {
        ++result_.reads_completed;
        if (spec_.read_gap_us > 0) {
          system_->simulator().Schedule(spec_.read_gap_us,
                                        [self]() { (*self)(); });
        } else {
          (*self)();
        }
      } else {
        // Read failed terminally (e.g., query ended by teardown); the query
        // is abandoned.
        (void)v;
      }
    });
  };
  (*step)();
}

}  // namespace esr::workload
