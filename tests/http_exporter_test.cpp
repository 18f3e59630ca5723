// Loopback integration tests for the live metrics scrape endpoint: a raw
// POSIX-socket client drives obs::HttpExporter end-to-end (request-line
// parsing, routing, self-metrics, bounded buffering) and a full
// ReplicatedSystem session is scraped twice to assert monotone counters and
// fresh snapshots. The exporter thread is the codebase's first real
// concurrency, so this suite also runs under the tier-2 ASan+UBSan gate
// (scripts/run_tier2.sh).

#include "obs/http_exporter.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metric_registry.h"
#include "test_util.h"

namespace esr::obs {
namespace {

using core::Method;
using store::Operation;
using test::Config;
using test::MustSubmit;
using test::ValidatePrometheusExposition;

/// Sends `request` to 127.0.0.1:`port` and returns the whole response (the
/// server closes the connection after every response). `chunk_gap_ms` > 0
/// splits the request in two writes to exercise request buffering.
std::string RawRequest(int port, const std::string& request,
                       int chunk_gap_ms = 0) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    ADD_FAILURE() << "connect to exporter failed";
    return "";
  }
  size_t sent = 0;
  const size_t first = chunk_gap_ms > 0 ? request.size() / 2 : request.size();
  while (sent < request.size()) {
    const size_t end = sent < first ? first : request.size();
    const ssize_t n = write(fd, request.data() + sent, end - sent);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
    if (sent == first && chunk_gap_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(chunk_gap_ms));
    }
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string HttpGet(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  const size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

/// Value of the (unlabeled) series `name` in an exposition; -1 if absent.
int64_t SeriesValue(const std::string& body, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  size_t at = body.rfind(needle);
  if (at == std::string::npos) {
    if (body.rfind(name + " ", 0) != 0) return -1;
    at = 0;
  } else {
    at += 1;
  }
  return std::stoll(body.substr(at + name.size() + 1));
}

TEST(MetricsSnapshotChannelTest, PublishAndLoad) {
  MetricsSnapshotChannel channel;
  EXPECT_EQ(channel.Load(), nullptr);
  EXPECT_EQ(channel.publishes(), 0);
  channel.Publish("a 1\n", 500);
  auto first = channel.Load();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->text, "a 1\n");
  EXPECT_EQ(first->sim_time_us, 500);
  EXPECT_EQ(first->sequence, 1);
  channel.Publish("a 2\n", 900);
  auto second = channel.Load();
  EXPECT_EQ(second->text, "a 2\n");
  EXPECT_EQ(second->sequence, 2);
  // The earlier snapshot stays valid for readers still holding it.
  EXPECT_EQ(first->text, "a 1\n");
  EXPECT_EQ(channel.publishes(), 2);
}

class HttpExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    channel_ = std::make_shared<MetricsSnapshotChannel>();
    HttpExporterConfig config;
    config.port = 0;  // ephemeral
    exporter_ = std::make_unique<HttpExporter>(channel_, config);
    ASSERT_TRUE(exporter_->Start().ok());
    ASSERT_GT(exporter_->port(), 0);
  }

  std::shared_ptr<MetricsSnapshotChannel> channel_;
  std::unique_ptr<HttpExporter> exporter_;
};

TEST_F(HttpExporterTest, RoutesHealthzMetricsAnd404) {
  channel_->Publish(
      "# TYPE esr_demo_total counter\nesr_demo_total 7\n", 1'000);

  const std::string health = HttpGet(exporter_->port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  const std::string metrics = HttpGet(exporter_->port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string body = BodyOf(metrics);
  EXPECT_NE(body.find("esr_demo_total 7"), std::string::npos);
  EXPECT_EQ(SeriesValue(body, "esr_exporter_scrapes_total"), 1);
  EXPECT_EQ(SeriesValue(body, "esr_exporter_snapshot_sim_time_us"), 1'000);
  EXPECT_EQ(ValidatePrometheusExposition(body), "");

  EXPECT_NE(HttpGet(exporter_->port(), "/other").find("404 Not Found"),
            std::string::npos);
  EXPECT_NE(RawRequest(exporter_->port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .find("404 Not Found"),
            std::string::npos);
}

TEST_F(HttpExporterTest, ScrapeTwiceMonotoneCountersAndFreshAge) {
  channel_->Publish("# TYPE esr_demo_total counter\nesr_demo_total 1\n", 10);
  const std::string body1 = BodyOf(HttpGet(exporter_->port(), "/metrics"));
  channel_->Publish("# TYPE esr_demo_total counter\nesr_demo_total 5\n", 20);
  const std::string body2 = BodyOf(HttpGet(exporter_->port(), "/metrics"));

  EXPECT_EQ(SeriesValue(body1, "esr_exporter_scrapes_total"), 1);
  EXPECT_EQ(SeriesValue(body2, "esr_exporter_scrapes_total"), 2);
  EXPECT_EQ(exporter_->scrapes_total(), 2);
  EXPECT_LT(SeriesValue(body1, "esr_demo_total"),
            SeriesValue(body2, "esr_demo_total"));
  // Both snapshots were published moments before the scrape: the age gauge
  // must be present, non-negative and well under a minute.
  for (const std::string* body : {&body1, &body2}) {
    const int64_t age = SeriesValue(*body, "esr_exporter_snapshot_age_us");
    EXPECT_GE(age, 0);
    EXPECT_LT(age, 60'000'000);
    EXPECT_EQ(ValidatePrometheusExposition(*body), "");
  }
}

TEST_F(HttpExporterTest, ServesSelfMetricsBeforeFirstPublish) {
  const std::string body = BodyOf(HttpGet(exporter_->port(), "/metrics"));
  EXPECT_EQ(SeriesValue(body, "esr_exporter_snapshot_age_us"), -1);
  EXPECT_EQ(SeriesValue(body, "esr_exporter_snapshot_sim_time_us"), -1);
  EXPECT_EQ(ValidatePrometheusExposition(body), "");
}

TEST_F(HttpExporterTest, SplitRequestIsBuffered) {
  const std::string response = RawRequest(
      exporter_->port(), "GET /healthz HTTP/1.0\r\n\r\n", /*chunk_gap_ms=*/30);
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
}

TEST_F(HttpExporterTest, OversizedRequestIsRejected) {
  const std::string huge(8192, 'x');  // > max_request_bytes, no terminator
  EXPECT_NE(RawRequest(exporter_->port(), huge).find("400 Bad Request"),
            std::string::npos);
}

TEST_F(HttpExporterTest, SurvivesClientsThatCloseEarly) {
  // A client that connects and immediately closes must not wedge the loop.
  for (int i = 0; i < 3; ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(exporter_->port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    close(fd);
  }
  EXPECT_NE(HttpGet(exporter_->port(), "/healthz").find("200 OK"),
            std::string::npos);
}

TEST(HttpExporterFacadeTest, EndToEndScrapeOfLiveSystem) {
  auto config = Config(Method::kCommu, 3, 21);
  config.metrics_port = 0;  // ephemeral loopback port
  config.metrics_publish_interval_us = 50'000;
  core::ReplicatedSystem system(config);
  ASSERT_NE(system.metrics_exporter(), nullptr);
  const int port = system.metrics_exporter()->port();
  ASSERT_GT(port, 0);

  // The constructor publishes an initial snapshot, so the very first scrape
  // already sees the full exposition.
  const std::string body1 = BodyOf(HttpGet(port, "/metrics"));
  EXPECT_NE(body1.find("esr_info"), std::string::npos);
  EXPECT_EQ(ValidatePrometheusExposition(body1), "");

  for (int i = 0; i < 4; ++i) {
    MustSubmit(system, static_cast<SiteId>(i % 3),
               {Operation::Increment(i, 1)});
    system.RunFor(60'000);  // crosses the publish cadence every iteration
  }
  const std::string body2 = BodyOf(HttpGet(port, "/metrics"));
  EXPECT_EQ(ValidatePrometheusExposition(body2), "");

  // Two consecutive scrapes of an advancing session: counters monotone,
  // snapshot fresh (published sim-time advanced, new sequence).
  // Absent (-1) in the construction-time snapshot: the counter is created
  // lazily on the first submit.
  EXPECT_LT(SeriesValue(body1, "esr_updates_submitted_total"), 4);
  EXPECT_EQ(SeriesValue(body2, "esr_updates_submitted_total"), 4);
  EXPECT_GT(SeriesValue(body2, "esr_exporter_snapshot_sim_time_us"),
            SeriesValue(body1, "esr_exporter_snapshot_sim_time_us"));
  EXPECT_GT(SeriesValue(body2, "esr_exporter_scrapes_total"),
            SeriesValue(body1, "esr_exporter_scrapes_total"));
  ASSERT_NE(system.metrics_channel(), nullptr);
  EXPECT_GE(system.metrics_channel()->publishes(), 2);

  // RunUntilQuiescent republishes so a scraper sees the drained state.
  system.RunUntilQuiescent();
  const std::string body3 = BodyOf(HttpGet(port, "/metrics"));
  EXPECT_NE(body3.find("esr_converged 1"), std::string::npos);
}

TEST(HttpExporterFacadeTest, PublishCadencePinned) {
  // The periodic publisher's snapshot sequence: one snapshot at
  // construction, one per metrics_publish_interval_us of simulated time,
  // one when RunUntilQuiescent drains (which restarts the cadence), one at
  // ShutdownMetricsEndpoint, and none after it.
  auto config = Config(Method::kOrdup, 3, 17);
  config.metrics_port = 0;
  config.metrics_publish_interval_us = 50'000;
  core::ReplicatedSystem system(config);
  const MetricsSnapshotChannel* channel = system.metrics_channel();
  ASSERT_NE(channel, nullptr);
  std::vector<std::pair<int64_t, int64_t>> seen;  // (sequence, sim time)
  auto record = [&] {
    const auto snapshot = channel->Load();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->sequence, channel->publishes());
    seen.emplace_back(snapshot->sequence, snapshot->sim_time_us);
  };
  record();
  MustSubmit(system, 0, {Operation::Increment(0, 1)});
  system.RunFor(240'000);
  record();
  MustSubmit(system, 1, {Operation::Increment(1, 1)});
  system.RunUntilQuiescent();
  record();
  system.RunFor(120'000);
  record();
  system.ShutdownMetricsEndpoint();
  record();
  system.RunFor(200'000);
  record();
  EXPECT_EQ(seen, (std::vector<std::pair<int64_t, int64_t>>{
                      {1, 0},
                      {5, 200'000},
                      {6, 290'303},
                      {8, 390'303},
                      {9, 410'303},
                      {9, 410'303}}));
}

}  // namespace
}  // namespace esr::obs
