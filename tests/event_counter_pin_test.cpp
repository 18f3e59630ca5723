// Event-counter pin: every protocol event count of one seeded run per
// replica control method, compared with literal strings captured at a
// known-good commit. Covers the facade and methods, the network (with the
// failure injector and mailboxes), each site's stable queues, and each
// site's 2PC or quorum engine. A change that moves, drops or renames any
// count fails here with the run's actual strings printed as initializers.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "test_util.h"
#include "workload/workload.h"

namespace esr::core {
namespace {

/// One run's counts, each rendered as "event=value\n" lines in name order.
struct EventCounts {
  std::string system;
  std::string network;
  std::vector<std::string> transport;  // per site
  std::vector<std::string> sync;       // per site; "" without an engine

  friend bool operator==(const EventCounts&, const EventCounts&) = default;
};

/// The series of `family` whose `site` label is `site` (every series when
/// empty), rendered as "event=value\n" lines in event order. `extra` adds
/// events counted under a registry counter of their own.
std::string Render(const obs::MetricRegistry& metrics,
                   const std::string& family, const std::string& site = "",
                   std::map<std::string, int64_t> extra = {}) {
  for (const auto& [event, value] : test::EventCounts(metrics, family, site)) {
    extra[event] += value;
  }
  std::string out;
  for (const auto& [event, value] : extra) {
    if (value != 0) out += event + "=" + std::to_string(value) + "\n";
  }
  return out;
}

EventCounts CaptureEvents(ReplicatedSystem& system) {
  const obs::MetricRegistry& metrics = system.metrics();
  EventCounts counts;
  // esr.queries_completed is esr_queries_completed_total, not an event.
  const std::string method(MethodToString(system.config().method));
  counts.system = Render(
      metrics, "esr_events_total", "",
      {{"esr.queries_completed",
        metrics.CounterValue("esr_queries_completed_total",
                             {{"method", method}})}});
  counts.network = Render(metrics, "esr_network_events_total");
  for (SiteId s = 0; s < system.config().num_sites; ++s) {
    const std::string site = std::to_string(s);
    counts.transport.push_back(
        Render(metrics, "esr_transport_events_total", site));
    counts.sync.push_back(Render(metrics, "esr_sync_events_total", site));
  }
  return counts;
}

/// The seeded run of one method. ORDUP and COMPE run over a lossy network,
/// COMPE and COMPE-ORD abort a fifth of their updates, ORDUP-TS runs over a
/// network with 10 % loss, COMMU crashes and restarts a site, and RITU-MV
/// partitions one site away for a while.
SystemConfig PinConfig(Method method) {
  SystemConfig config = test::Config(method, /*num_sites=*/3, /*seed=*/11);
  config.network.jitter_us = 2'000;
  if (method == Method::kOrdup || method == Method::kCompe) {
    config.network.loss_probability = 0.15;
  }
  if (method == Method::kOrdupTs) config.network.loss_probability = 0.1;
  return config;
}

void RunPinnedWorkload(ReplicatedSystem& system) {
  const Method method = system.config().method;
  if (method == Method::kCommu) {
    system.failures().ScheduleCrash(sim::CrashSpec{2, 30'000, 60'000});
  }
  if (method == Method::kRituMulti) {
    system.failures().SchedulePartition(
        sim::PartitionSpec{{{0, 1}, {2}}, 20'000, 50'000});
  }
  workload::WorkloadSpec spec;
  spec.seed = 11;
  spec.num_objects = 8;
  spec.update_fraction = 0.5;
  spec.clients_per_site = 2;
  spec.think_time_us = 4'000;
  spec.read_gap_us = 2'000;
  spec.query_epsilon = 2;
  spec.duration_us = 100'000;
  if (method == Method::kRituMulti || method == Method::kRituSingle) {
    spec.update_kind = workload::WorkloadSpec::UpdateKind::kTimestampedWrite;
  }
  if (method == Method::kCompe || method == Method::kCompeOrdered) {
    spec.compe_abort_probability = 0.2;
    spec.compe_decision_delay_us = 10'000;
  }
  workload::WorkloadRunner runner(&system, spec);
  runner.Run();
  system.RunUntilQuiescent();
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) out += c == '\n' ? std::string("\\n") : std::string(1, c);
  return out + "\"";
}

/// `counts` as an EventCounts initializer, printed when a pin does not match.
std::string Format(const EventCounts& counts) {
  auto list = [](const std::vector<std::string>& v) {
    std::string out = "{";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ",\n   ") + Quote(v[i]);
    }
    return out + "}";
  };
  return "{" + Quote(counts.system) + ",\n  " + Quote(counts.network) +
         ",\n  " + list(counts.transport) + ",\n  " + list(counts.sync) + "}";
}

EventCounts PinnedCounts(Method method) {
  switch (method) {
    case Method::kOrdup:
      return {"esr.msets_applied=105\n"
              "esr.msets_propagated=70\n"
              "esr.queries_begun=28\n"
              "esr.queries_completed=28\n"
              "esr.query_limit_hits=5\n"
              "esr.query_restarts=5\n"
              "esr.stable=35\n"
              "esr.updates_committed=35\n",
              "net.delivered=1259\n"
              "net.dropped_loss=202\n"
              "net.sent=1461\n",
              {"queue.delivered=212\n"
               "queue.duplicate=29\n"
               "queue.retransmit=104\n"
               "queue.sent=228\n",
               "queue.delivered=169\n"
               "queue.duplicate=59\n"
               "queue.retransmit=51\n"
               "queue.sent=161\n",
               "queue.delivered=169\n"
               "queue.duplicate=41\n"
               "queue.retransmit=77\n"
               "queue.sent=161\n"},
              {"", "", ""}};
    case Method::kOrdupTs:
      return {"esr.msets_applied=120\n"
              "esr.msets_propagated=80\n"
              "esr.queries_begun=43\n"
              "esr.queries_completed=43\n"
              "esr.query_limit_hits=2\n"
              "esr.query_restarts=2\n"
              "esr.stable=40\n"
              "esr.updates_committed=40\n",
              "net.delivered=1121\n"
              "net.dropped_loss=112\n"
              "net.sent=1233\n",
              {"queue.delivered=170\n"
               "queue.duplicate=26\n"
               "queue.retransmit=58\n"
               "queue.sent=181\n",
               "queue.delivered=170\n"
               "queue.duplicate=21\n"
               "queue.retransmit=50\n"
               "queue.sent=169\n",
               "queue.delivered=170\n"
               "queue.duplicate=28\n"
               "queue.retransmit=30\n"
               "queue.sent=160\n"},
              {"", "", ""}};
    case Method::kCommu:
      return {"esr.msets_applied=87\n"
              "esr.msets_propagated=58\n"
              "esr.queries_begun=31\n"
              "esr.queries_completed=31\n"
              "esr.query_blocked=164\n"
              "esr.stable=29\n"
              "esr.updates_committed=29\n",
              "failure.crash=1\n"
              "failure.restart=1\n"
              "net.delivered=972\n"
              "net.dropped_receiver_down=30\n"
              "net.dropped_sender_down=32\n"
              "net.sent=1034\n",
              {"queue.delivered=148\n"
               "queue.duplicate=19\n"
               "queue.retransmit=27\n"
               "queue.sent=146\n",
               "queue.delivered=148\n"
               "queue.duplicate=8\n"
               "queue.retransmit=28\n"
               "queue.sent=152\n",
               "queue.delivered=148\n"
               "queue.duplicate=16\n"
               "queue.retransmit=48\n"
               "queue.sent=146\n"},
              {"", "", ""}};
    case Method::kRituMulti:
      return {"esr.msets_applied=120\n"
              "esr.msets_propagated=80\n"
              "esr.queries_begun=43\n"
              "esr.queries_completed=43\n"
              "esr.ritu_snapshot_reads=52\n"
              "esr.stable=40\n"
              "esr.updates_committed=40\n",
              "failure.heal=1\n"
              "failure.partition=1\n"
              "net.delivered=1144\n"
              "net.dropped_partition=91\n"
              "net.sent=1235\n",
              {"queue.delivered=170\n"
               "queue.duplicate=22\n"
               "queue.retransmit=51\n"
               "queue.sent=181\n",
               "queue.delivered=170\n"
               "queue.duplicate=16\n"
               "queue.retransmit=46\n"
               "queue.sent=169\n",
               "queue.delivered=170\n"
               "queue.duplicate=29\n"
               "queue.retransmit=51\n"
               "queue.sent=160\n"},
              {"", "", ""}};
    case Method::kRituSingle:
      return {"esr.msets_applied=120\n"
              "esr.msets_propagated=80\n"
              "esr.queries_begun=42\n"
              "esr.queries_completed=42\n"
              "esr.query_blocked=20\n"
              "esr.stable=40\n"
              "esr.updates_committed=40\n",
              "net.delivered=1130\n"
              "net.sent=1130\n",
              {"queue.delivered=170\n"
               "queue.duplicate=18\n"
               "queue.retransmit=21\n"
               "queue.sent=181\n",
               "queue.delivered=170\n"
               "queue.duplicate=16\n"
               "queue.retransmit=23\n"
               "queue.sent=169\n",
               "queue.delivered=170\n"
               "queue.duplicate=21\n"
               "queue.retransmit=11\n"
               "queue.sent=160\n"},
              {"", "", ""}};
    case Method::kCompe:
      return {"esr.compe_aborts=18\n"
              "esr.compe_commits=63\n"
              "esr.compensations=18\n"
              "esr.msets_applied=81\n"
              "esr.msets_propagated=54\n"
              "esr.queries_begun=33\n"
              "esr.queries_completed=33\n"
              "esr.query_blocked=77\n"
              "esr.query_compensation_hits=13\n"
              "esr.stable=21\n"
              "esr.updates_committed=27\n",
              "net.delivered=1076\n"
              "net.dropped_loss=179\n"
              "net.sent=1255\n",
              {"queue.delivered=158\n"
               "queue.duplicate=40\n"
               "queue.retransmit=54\n"
               "queue.sent=155\n",
               "queue.delivered=155\n"
               "queue.duplicate=24\n"
               "queue.retransmit=89\n"
               "queue.sent=179\n",
               "queue.delivered=161\n"
               "queue.duplicate=39\n"
               "queue.retransmit=61\n"
               "queue.sent=140\n"},
              {"", "", ""}};
    case Method::kCompeOrdered:
      return {"esr.compe_aborts=18\n"
              "esr.compe_commits=51\n"
              "esr.compensations=18\n"
              "esr.msets_applied=69\n"
              "esr.msets_propagated=46\n"
              "esr.queries_begun=33\n"
              "esr.queries_completed=33\n"
              "esr.query_blocked=45\n"
              "esr.query_compensation_hits=12\n"
              "esr.stable=17\n"
              "esr.updates_committed=23\n",
              "net.delivered=1046\n"
              "net.sent=1046\n",
              {"queue.delivered=178\n"
               "queue.duplicate=18\n"
               "queue.retransmit=7\n"
               "queue.sent=180\n",
               "queue.delivered=155\n"
               "queue.duplicate=8\n"
               "queue.retransmit=25\n"
               "queue.sent=175\n",
               "queue.delivered=155\n"
               "queue.duplicate=9\n"
               "queue.retransmit=3\n"
               "queue.sent=133\n"},
              {"", "", ""}};
    case Method::kSync2pc:
      return {"esr.queries_begun=22\n"
              "esr.queries_completed=22\n",
              "net.delivered=716\n"
              "net.sent=716\n",
              {"queue.delivered=102\n"
               "queue.duplicate=13\n"
               "queue.retransmit=9\n"
               "queue.sent=102\n",
               "queue.delivered=114\n"
               "queue.duplicate=11\n"
               "queue.retransmit=10\n"
               "queue.sent=114\n",
               "queue.delivered=108\n"
               "queue.duplicate=10\n"
               "queue.retransmit=15\n"
               "queue.sent=108\n"},
              {"tpc.abort=2\n"
               "tpc.begin=8\n"
               "tpc.commit=6\n"
               "tpc.deadlock_abort=5\n"
               "tpc.lock_wait=1\n"
               "tpc.read_wait=4\n",
               "tpc.abort=3\n"
               "tpc.begin=10\n"
               "tpc.commit=7\n"
               "tpc.deadlock_abort=5\n"
               "tpc.lock_wait=1\n"
               "tpc.read_wait=6\n",
               "tpc.abort=3\n"
               "tpc.begin=9\n"
               "tpc.commit=6\n"
               "tpc.deadlock_abort=4\n"
               "tpc.lock_wait=4\n"
               "tpc.read_wait=5\n"}};
    case Method::kSyncQuorum:
      return {"esr.queries_begun=14\n"
              "esr.queries_completed=14\n",
              "net.delivered=864\n"
              "net.sent=864\n",
              {"", "", ""},
              {"quorum.read_begin=34\n"
               "quorum.read_done=34\n"
               "quorum.write_begin=14\n"
               "quorum.write_done=14\n",
               "quorum.read_begin=32\n"
               "quorum.read_done=32\n"
               "quorum.write_begin=16\n"
               "quorum.write_done=16\n",
               "quorum.read_begin=34\n"
               "quorum.read_done=34\n"
               "quorum.write_begin=14\n"
               "quorum.write_done=14\n"}};
    case Method::kQuasiCopy:
      return {"esr.msets_propagated=148\n"
              "esr.queries_begun=36\n"
              "esr.queries_completed=36\n"
              "quasi.forwarded=20\n"
              "quasi.primary_applied=37\n"
              "quasi.refresh_applied=148\n"
              "quasi.refreshes=74\n",
              "net.delivered=974\n"
              "net.sent=974\n",
              {"queue.delivered=110\n"
               "queue.retransmit=29\n"
               "queue.sent=258\n",
               "queue.delivered=175\n"
               "queue.duplicate=21\n"
               "queue.sent=101\n",
               "queue.delivered=173\n"
               "queue.duplicate=8\n"
               "queue.sent=99\n"},
              {"", "", ""}};
    default:
      return {};
  }
}

class EventCounterPin : public ::testing::TestWithParam<Method> {};

TEST_P(EventCounterPin, CountsMatchPinnedValues) {
  ReplicatedSystem system(PinConfig(GetParam()));
  RunPinnedWorkload(system);
  const EventCounts actual = CaptureEvents(system);
  EXPECT_TRUE(actual == PinnedCounts(GetParam()))
      << "actual counts:\n" << Format(actual);
}

/// The value `rendered` (an EventCounts string) pins for `event`, or "".
std::string PinnedValue(const std::string& rendered, const std::string& event) {
  const std::string key = event + "=";
  for (size_t pos = 0; pos < rendered.size();) {
    const size_t eol = rendered.find('\n', pos);
    if (rendered.compare(pos, key.size(), key) == 0) {
      return rendered.substr(pos + key.size(), eol - pos - key.size());
    }
    pos = eol + 1;
  }
  return "";
}

TEST(EventCounterExport, SnapshotCarriesThePinnedCompeCounts) {
  // The paper's cost claims rest on these counts: compensations (section
  // 4), stable-queue retransmissions (section 2.2) and the loss that causes
  // them. /metrics must show the values the pin holds.
  ReplicatedSystem system(PinConfig(Method::kCompe));
  RunPinnedWorkload(system);
  const std::string snapshot = system.MetricsSnapshot();
  EXPECT_EQ(test::ValidatePrometheusExposition(snapshot), "");
  const EventCounts pinned = PinnedCounts(Method::kCompe);
  auto expect_series = [&](const std::string& series,
                           const std::string& rendered,
                           const std::string& event) {
    const std::string value = PinnedValue(rendered, event);
    ASSERT_FALSE(value.empty()) << "the pin holds no " << event;
    EXPECT_NE(snapshot.find("\n" + series + " " + value + "\n"),
              std::string::npos)
        << series << " " << value;
  };
  expect_series("esr_events_total{event=\"esr.compensations\"}",
                pinned.system, "esr.compensations");
  expect_series("esr_network_events_total{event=\"net.dropped_loss\"}",
                pinned.network, "net.dropped_loss");
  for (SiteId s = 0; s < 3; ++s) {
    expect_series("esr_transport_events_total{event=\"queue.retransmit\","
                  "site=\"" + std::to_string(s) + "\"}",
                  pinned.transport[s], "queue.retransmit");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, EventCounterPin,
    ::testing::Values(Method::kOrdup, Method::kOrdupTs, Method::kCommu,
                      Method::kRituMulti, Method::kRituSingle, Method::kCompe,
                      Method::kCompeOrdered, Method::kSync2pc,
                      Method::kSyncQuorum, Method::kQuasiCopy),
    [](const ::testing::TestParamInfo<Method>& info) {
      std::string name(MethodToString(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace esr::core
