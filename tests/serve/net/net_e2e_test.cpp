// End-to-end battery for the networked planning tier: a real PlanServer
// on a real socket, driven by the real NetClient.  Pins the contracts the
// class comments promise — bit-identical plans over the wire, READY
// gating, platform-skew rejection, malformed-stream close, slow-loris
// reaping, graceful drain with snapshot flush, shard failover, and warm
// restart — each on an ephemeral port so tests parallelize cleanly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/service.hpp"
#include "../../test_support.hpp"

namespace foscil::serve::net {
namespace {

core::Platform small_platform() { return testing::grid_platform(1, 2); }

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "foscil_net_" + name;
}

WirePlanRequest small_request(double t_max_c) {
  WirePlanRequest request;
  request.t_max_c = t_max_c;
  request.ao.max_m = 8;  // keep the search cheap: wire tests, not planning
  return request;
}

PlanRequest direct_equivalent(const WirePlanRequest& wire) {
  PlanRequest request;
  request.platform = small_platform();
  request.t_max_c = wire.t_max_c;
  request.kind = wire.kind;
  request.ao = wire.ao;
  request.pco = wire.pco;
  return request;
}

/// One shard: service + server + event-loop thread, torn down in order.
class Shard {
 public:
  explicit Shard(ServerOptions server_options = {},
                 ServiceOptions service_options = {}) {
    if (service_options.workers == 0) service_options.workers = 2;
    service_options.warm_load_at_construction = false;
    service_ = std::make_unique<PlanningService>(service_options);
    server_ = std::make_unique<PlanServer>(*service_, small_platform(),
                                           server_options);
    port_ = server_->listen();
    thread_ = std::thread([this] { server_->run(); });
  }

  ~Shard() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      server_->shutdown();
      thread_.join();
    }
  }

  /// Graceful counterpart to stop(): drain, then join run().
  void drain_and_join() {
    server_->begin_drain();
    if (thread_.joinable()) thread_.join();
  }

  /// Hard kill as a client would experience it: connections die mid-life.
  void kill() { stop(); }

  [[nodiscard]] Endpoint endpoint() const { return {"127.0.0.1", port_}; }
  [[nodiscard]] PlanServer& server() { return *server_; }
  [[nodiscard]] PlanningService& service() { return *service_; }

 private:
  std::unique_ptr<PlanningService> service_;
  std::unique_ptr<PlanServer> server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

ClientOptions fast_client_options() {
  ClientOptions options;
  options.backoff_initial_s = 0.005;
  options.backoff_max_s = 0.05;
  return options;
}

// ---- the happy path ------------------------------------------------------

TEST(NetE2E, PlansOverTheWireBitIdenticalToDirectPlanning) {
  Shard shard;
  NetClient client({shard.endpoint()}, small_platform(),
                   fast_client_options());
  for (const double t_max : {50.0, 57.5, 66.0}) {
    const WirePlanRequest request = small_request(t_max);
    const WirePlanResponse response = client.plan(request);
    const std::shared_ptr<const ServedPlan> direct =
        plan_direct(direct_equivalent(request));
    EXPECT_TRUE(plans_bit_identical(response.plan.result, direct->result))
        << "t_max " << t_max;
    EXPECT_EQ(response.plan.key, direct->key);
    EXPECT_TRUE(response.plan.certified_safe);
    EXPECT_FALSE(response.cache_hit);
  }
  EXPECT_EQ(client.stats().plans, 3u);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST(NetE2E, RepeatedRequestIsServedFromTheShardCache) {
  Shard shard;
  NetClient client({shard.endpoint()}, small_platform(),
                   fast_client_options());
  const WirePlanRequest request = small_request(55.0);
  const WirePlanResponse first = client.plan(request);
  const WirePlanResponse second = client.plan(request);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_TRUE(plans_bit_identical(first.plan.result, second.plan.result));
  EXPECT_EQ(client.stats().cache_hits, 1u);
}

TEST(NetE2E, PcoRequestsTravelWithTheirOwnOptionBlock) {
  Shard shard;
  NetClient client({shard.endpoint()}, small_platform(),
                   fast_client_options());
  WirePlanRequest request = small_request(60.0);
  request.kind = PlannerKind::kPco;
  request.pco.ao.max_m = 8;
  const WirePlanResponse response = client.plan(request);
  const std::shared_ptr<const ServedPlan> direct =
      plan_direct(direct_equivalent(request));
  EXPECT_EQ(response.plan.kind, PlannerKind::kPco);
  EXPECT_TRUE(plans_bit_identical(response.plan.result, direct->result));
}

TEST(NetE2E, HealthFrameReportsServiceAndSocketState) {
  Shard shard;
  NetClient client({shard.endpoint()}, small_platform(),
                   fast_client_options());
  (void)client.plan(small_request(55.0));
  (void)client.plan(small_request(55.0));
  const HealthInfo health = client.health(0);
  EXPECT_EQ(health.ready, 1);
  EXPECT_EQ(health.draining, 0);
  EXPECT_EQ(health.submitted, 2u);
  EXPECT_GE(health.completed, 1u);
  EXPECT_EQ(health.cache_hits, 1u);
  EXPECT_EQ(health.cache_lookups, 2u);
  EXPECT_GE(health.connections, 1u);
  EXPECT_GT(health.ewma_plan_seconds, 0.0);
}

// ---- READY gating --------------------------------------------------------

TEST(NetE2E, NotReadyIsRetryableAndClearsWhenReadyFlips) {
  ServerOptions options;
  options.manual_ready = true;
  Shard shard(options);
  NetClient client({shard.endpoint()}, small_platform(),
                   fast_client_options());

  const ReadyInfo gated = client.ready(0);
  EXPECT_EQ(gated.ready, 0);

  // With no retries the NOT_READY rejection surfaces as the final code.
  ClientOptions impatient = fast_client_options();
  impatient.max_retries = 0;
  NetClient one_shot({shard.endpoint()}, small_platform(), impatient);
  try {
    (void)one_shot.plan(small_request(55.0));
    FAIL() << "expected NetClientError";
  } catch (const NetClientError& error) {
    EXPECT_EQ(error.code(), StatusCode::kNotReady);
  }

  // A patient client retries straight through the flip.
  std::thread flipper([&shard] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    shard.server().set_ready(true);
  });
  const WirePlanResponse response = client.plan(small_request(55.0));
  flipper.join();
  EXPECT_TRUE(response.plan.certified_safe);
  EXPECT_GE(client.stats().retries +
                client.stats().statuses_by_code[status_index(
                    StatusCode::kNotReady)],
            1u);
  EXPECT_TRUE(client.await_ready(0, 1.0));
}

// ---- rejections ----------------------------------------------------------

TEST(NetE2E, PlatformSkewIsRejectedNotSilentlyPlanned) {
  Shard shard;  // serves grid_platform(1, 2)
  NetClient skewed({shard.endpoint()}, testing::grid_platform(2, 2),
                   fast_client_options());
  try {
    (void)skewed.plan(small_request(55.0));
    FAIL() << "expected NetClientError";
  } catch (const NetClientError& error) {
    EXPECT_EQ(error.code(), StatusCode::kPlatformMismatch);
  }
  EXPECT_EQ(skewed.stats().retries, 0u) << "mismatch must not be retried";
}

TEST(NetE2E, InfeasibleDomainComesBackMalformedWithoutKillingTheStream) {
  Shard shard;
  NetClient client({shard.endpoint()}, small_platform(),
                   fast_client_options());
  WirePlanRequest impossible = small_request(55.0);
  impossible.t_max_c = -40.0;  // below ambient: no schedule exists
  EXPECT_THROW((void)client.plan(impossible), NetClientError);
  // The connection survives the rejection: the next plan reuses it.
  const WirePlanResponse response = client.plan(small_request(55.0));
  EXPECT_TRUE(response.plan.certified_safe);
  EXPECT_EQ(client.stats().reconnects, 1u) << "no reconnect happened";
}

// ---- hostile bytes -------------------------------------------------------

/// Minimal raw TCP client for speaking garbage at the server.
class RawConnection {
 public:
  explicit RawConnection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConnection() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Read until EOF (or timeout); returns everything received.
  std::string drain(int timeout_ms = 2000) {
    std::string received;
    char chunk[4096];
    for (;;) {
      pollfd probe{fd_, POLLIN, 0};
      if (::poll(&probe, 1, timeout_ms) <= 0) break;
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;  // 0 = orderly close
      received.append(chunk, static_cast<std::size_t>(n));
    }
    return received;
  }

 private:
  int fd_ = -1;
};

TEST(NetE2E, MalformedStreamGetsOneStatusThenClose) {
  Shard shard;
  RawConnection raw(shard.server().port());
  raw.send_bytes("this is definitely not a frame, not even close........");
  const std::string reply = raw.drain();

  // The best-effort farewell is a parseable Status frame with request id 0.
  FrameAssembler assembler;
  assembler.feed(reply.data(), reply.size());
  Frame frame;
  ASSERT_EQ(assembler.next(&frame), FrameAssembler::Result::kFrame);
  EXPECT_EQ(frame.type, FrameType::kStatus);
  EXPECT_EQ(frame.request_id, 0u);
  const WireStatus status = decode_status(frame.body);
  EXPECT_EQ(status.code, StatusCode::kMalformed);

  // ... and the connection is gone, counted as a malformed close. The
  // counter ticks before the connection object is erased, so wait for both.
  for (int i = 0; i < 100 && (shard.server().stats().malformed_closes == 0 ||
                              shard.server().connection_count() != 0);
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(shard.server().stats().malformed_closes, 1u);
  EXPECT_EQ(shard.server().connection_count(), 0u);
}

TEST(NetE2E, SlowLorisPartialFrameIsReaped) {
  ServerOptions options;
  options.read_idle_timeout_s = 0.1;
  Shard shard(options);
  RawConnection raw(shard.server().port());
  // A valid prefix that never completes: magic + version, then silence.
  raw.send_bytes(std::string(kFrameMagic, 4) + std::string("\x01\x00", 2));
  const std::string reply = raw.drain(3000);
  EXPECT_TRUE(reply.empty()) << "a timed-out loris gets no reply";
  for (int i = 0; i < 200 && shard.server().stats().timeout_closes == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(shard.server().stats().timeout_closes, 1u);
  EXPECT_EQ(shard.server().connection_count(), 0u);
}

// ---- drain and failover --------------------------------------------------

TEST(NetE2E, DrainAnswersStoppingFlushesSnapshotAndReturns) {
  const std::string snapshot = temp_path("drain.snap");
  std::remove(snapshot.c_str());
  ServerOptions options;
  options.drain_snapshot_path = snapshot;
  auto shard = std::make_unique<Shard>(options);
  const Endpoint endpoint = shard->endpoint();

  NetClient client({endpoint}, small_platform(), fast_client_options());
  (void)client.plan(small_request(52.0));
  (void)client.plan(small_request(61.0));

  client.drain(0);
  shard->drain_and_join();  // run() must return on its own
  EXPECT_EQ(shard->server().stats().drains, 1u);
  shard.reset();

  // The drain snapshot warms a fresh service with both plans.
  ServiceOptions warmed;
  warmed.workers = 1;
  warmed.snapshot_path = snapshot;
  PlanningService revived(warmed);
  EXPECT_EQ(revived.stats().snapshot_loads, 1u);
  EXPECT_EQ(revived.stats().cache.entries, 2u);
  std::remove(snapshot.c_str());
}

TEST(NetE2E, KilledShardFailsOverToItsRingSuccessor) {
  Shard alpha;
  Shard beta;
  NetClient client({alpha.endpoint(), beta.endpoint()}, small_platform(),
                   fast_client_options());

  // Warm keys until both shards own at least one (routing is
  // deterministic, so scan t_max until the ring covers both endpoints).
  std::vector<WirePlanRequest> requests;
  bool saw_alpha = false;
  bool saw_beta = false;
  for (double t_max = 50.0; !(saw_alpha && saw_beta) && t_max < 80.0;
       t_max += 1.0) {
    const WirePlanRequest request = small_request(t_max);
    (client.route(request) == 0 ? saw_alpha : saw_beta) = true;
    requests.push_back(request);
  }
  ASSERT_TRUE(saw_alpha && saw_beta);
  for (const WirePlanRequest& request : requests)
    (void)client.plan(request);

  alpha.kill();  // connections die, no goodbye

  // Every key still resolves: keys alpha owned land on beta.
  for (const WirePlanRequest& request : requests) {
    const WirePlanResponse response = client.plan(request);
    EXPECT_TRUE(response.plan.certified_safe);
  }
  EXPECT_EQ(client.stats().plans, 2 * requests.size());
  // At least one key was alpha's, so at least one attempt failed over.
  EXPECT_GE(client.stats().failovers, 1u);
  EXPECT_GE(client.stats().transport_errors, 1u);
}

TEST(NetE2E, RestartedShardGatesReadyOnWarmRestore) {
  const std::string snapshot = temp_path("warm.snap");
  std::remove(snapshot.c_str());

  // First life: serve, drain, flush.
  ServerOptions first_options;
  first_options.drain_snapshot_path = snapshot;
  auto first = std::make_unique<Shard>(first_options);
  NetClient seeder({first->endpoint()}, small_platform(),
                   fast_client_options());
  const WirePlanRequest request = small_request(57.0);
  const WirePlanResponse original = seeder.plan(request);
  seeder.drain(0);
  first->drain_and_join();
  first.reset();

  // Second life: warm restore gates READY, then serves the cached plan.
  ServerOptions second_options;
  second_options.warm_snapshot_path = snapshot;
  Shard revived(second_options);
  NetClient client({revived.endpoint()}, small_platform(),
                   fast_client_options());
  ASSERT_TRUE(client.await_ready(0, 5.0));
  const ReadyInfo info = client.ready(0);
  EXPECT_EQ(info.ready, 1);
  EXPECT_EQ(info.warm_plans, 1u);
  EXPECT_EQ(info.load_failures, 0u);

  const WirePlanResponse served = client.plan(request);
  EXPECT_TRUE(served.cache_hit) << "warm restore must hit, not replan";
  EXPECT_TRUE(plans_bit_identical(served.plan.result, original.plan.result));
  std::remove(snapshot.c_str());
}

TEST(NetE2E, MissingWarmSnapshotStartsColdButReady) {
  ServerOptions options;
  options.warm_snapshot_path = temp_path("never_written.snap");
  Shard shard(options);
  NetClient client({shard.endpoint()}, small_platform(),
                   fast_client_options());
  ASSERT_TRUE(client.await_ready(0, 5.0));
  const ReadyInfo info = client.ready(0);
  EXPECT_EQ(info.ready, 1);
  EXPECT_EQ(info.warm_plans, 0u);
  EXPECT_EQ(info.load_failures, 1u);
  EXPECT_TRUE(client.plan(small_request(55.0)).plan.certified_safe);
}

}  // namespace
}  // namespace foscil::serve::net
