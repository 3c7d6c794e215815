// Server core under a fake clock: compile/caching semantics, per-tenant
// throttling, the degradation ladder, deadline sheds, journal-backed
// restart recovery, and a real framed round trip over a socketpair.
#include <gtest/gtest.h>
#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>

#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace flo::service {
namespace {

const char* kProgram =
    "program p\n"
    "array A 64 64\n"
    "array B 64 64\n"
    "nest t parallel=1 {\n"
    "  for i1 = 0..63\n"
    "  for i2 = 0..63\n"
    "  read  A[i1, i2]\n"
    "  write B[i2, i1]\n"
    "}\n";

Request valid_request(std::uint64_t id, const std::string& tenant = "t") {
  Request request;
  request.id = id;
  request.tenant = tenant;
  request.program = kProgram;
  return request;
}

Response ask(Server& server, const Request& request) {
  return parse_response(server.handle_payload(serialize_request(request)));
}

std::string temp_journal(const char* name) {
  return testing::TempDir() + "/" + name + "." + std::to_string(::getpid()) +
         ".journal";
}

TEST(ServerTest, CompilesThenServesFromCache) {
  ServerConfig config;
  config.workers = 1;
  double now = 0;
  config.clock = [&now] { return now; };
  Server server(std::move(config));

  const Response first = ask(server, valid_request(1));
  ASSERT_EQ(first.status, Status::kOk) << first.error;
  EXPECT_EQ(first.tier, "exact");
  EXPECT_EQ(first.cache, "miss");
  EXPECT_FALSE(first.degraded);
  EXPECT_FALSE(first.body.empty());
  EXPECT_FALSE(first.fingerprint.empty());
  EXPECT_EQ(first.id, 1u);
  EXPECT_EQ(first.tenant, "t");

  const Response second = ask(server, valid_request(2));
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_EQ(second.cache, "hit");
  EXPECT_EQ(second.fingerprint, first.fingerprint);
  EXPECT_EQ(second.body, first.body);
}

TEST(ServerTest, ThrottlesNoisyTenantsButNotNeighbours) {
  ServerConfig config;
  config.workers = 1;
  config.tenant_rate = 1;
  config.tenant_burst = 2;
  double now = 0;
  config.clock = [&now] { return now; };
  Server server(std::move(config));

  EXPECT_EQ(ask(server, valid_request(1, "noisy")).status, Status::kOk);
  EXPECT_EQ(ask(server, valid_request(2, "noisy")).status, Status::kOk);
  const Response throttled = ask(server, valid_request(3, "noisy"));
  EXPECT_EQ(throttled.status, Status::kThrottled);
  EXPECT_GT(throttled.retry_after_ms, 0.0);
  EXPECT_EQ(throttled.id, 3u);
  EXPECT_EQ(throttled.tenant, "noisy");

  // Per-tenant isolation: the quiet tenant still gets in.
  EXPECT_EQ(ask(server, valid_request(4, "quiet")).status, Status::kOk);

  // And the noisy tenant recovers once its bucket refills.
  now += 1.0;
  EXPECT_EQ(ask(server, valid_request(5, "noisy")).status, Status::kOk);
}

TEST(ServerTest, TightDeadlineDegradesToTemplateTier) {
  ServerConfig config;
  config.workers = 1;
  double now = 0;
  config.clock = [&now] { return now; };
  Server server(std::move(config));

  Request request = valid_request(1);
  // Remaining deadline (30 ms) under twice the 50 ms service estimate:
  // the ladder must pick the template tier and say so.
  request.deadline_ms = 30;
  const Response degraded = ask(server, request);
  ASSERT_EQ(degraded.status, Status::kOk) << degraded.error;
  EXPECT_EQ(degraded.tier, "template");
  EXPECT_TRUE(degraded.degraded);

  // A request that explicitly asks for the template tier is not
  // "degraded" — it got exactly what it ordered.
  Request wanted = valid_request(2);
  wanted.tier = Tier::kTemplate;
  const Response templated = ask(server, wanted);
  ASSERT_EQ(templated.status, Status::kOk);
  EXPECT_EQ(templated.tier, "template");
  EXPECT_FALSE(templated.degraded);
  EXPECT_EQ(templated.fingerprint, degraded.fingerprint);
  EXPECT_EQ(templated.cache, "hit");
}

TEST(ServerTest, ExactTierNeverDegrades) {
  ServerConfig config;
  config.workers = 1;
  double now = 0;
  config.clock = [&now] { return now; };
  Server server(std::move(config));

  Request request = valid_request(1);
  request.tier = Tier::kExact;
  request.deadline_ms = 1;  // tight, but the client forbade degradation
  const Response response = ask(server, request);
  ASSERT_EQ(response.status, Status::kOk) << response.error;
  EXPECT_EQ(response.tier, "exact");
  EXPECT_FALSE(response.degraded);
}

TEST(ServerTest, TemplateFamilyMembersShareOneCompile) {
  ServerConfig config;
  config.workers = 1;
  double now = 0;
  config.clock = [&now] { return now; };
  Server server(std::move(config));

  Request member1 = valid_request(1);
  member1.tier = Tier::kTemplate;
  member1.cache_scale = 1.0;
  Request member2 = valid_request(2);
  member2.tier = Tier::kTemplate;
  member2.cache_scale = 2.0;  // same family, scaled capacities

  const Response first = ask(server, member1);
  ASSERT_EQ(first.status, Status::kOk) << first.error;
  EXPECT_EQ(first.cache, "miss");
  const Response second = ask(server, member2);
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_EQ(second.cache, "hit") << "family member missed the shared compile";
  EXPECT_EQ(second.fingerprint, first.fingerprint);

  // An exact-tier request for a scaled member is its own key.
  Request exact = valid_request(3);
  exact.tier = Tier::kExact;
  exact.cache_scale = 2.0;
  const Response third = ask(server, exact);
  ASSERT_EQ(third.status, Status::kOk);
  EXPECT_NE(third.fingerprint, first.fingerprint);
}

TEST(ServerTest, ExpiredDeadlineIsShedBeforeCompiling) {
  ServerConfig config;
  config.workers = 1;
  // Every clock() call advances 20 ms: by the time the worker looks at a
  // 5 ms deadline, it is long gone.
  double now = 0;
  config.clock = [&now] {
    now += 0.020;
    return now;
  };
  Server server(std::move(config));

  Request request = valid_request(1);
  request.deadline_ms = 5;
  const Response response = ask(server, request);
  EXPECT_EQ(response.status, Status::kShed);
  EXPECT_GT(response.retry_after_ms, 0.0);
  EXPECT_EQ(response.id, 1u);
}

TEST(ServerTest, MalformedPayloadsGetTypedErrors) {
  ServerConfig config;
  config.workers = 1;
  Server server(std::move(config));

  const Response garbage = parse_response(server.handle_payload("not a req"));
  EXPECT_EQ(garbage.status, Status::kError);
  EXPECT_FALSE(garbage.error.empty());

  const Response bad_program = parse_response(server.handle_payload(
      "flo-req-v1\nid: 1\ntenant: t\n\nnest without a program\n"));
  EXPECT_EQ(bad_program.status, Status::kError);
  EXPECT_NE(bad_program.error.find("program"), std::string::npos);
  EXPECT_EQ(bad_program.id, 1u);
}

TEST(ServerTest, RestartReplaysTheCacheJournal) {
  const std::string journal = temp_journal("server_restart");
  std::remove(journal.c_str());

  std::string fingerprint;
  std::string body;
  {
    ServerConfig config;
    config.workers = 1;
    config.cache_journal = journal;
    Server server(std::move(config));
    const Response first = ask(server, valid_request(1));
    ASSERT_EQ(first.status, Status::kOk) << first.error;
    fingerprint = first.fingerprint;
    body = first.body;
  }

  ServerConfig config;
  config.workers = 1;
  config.cache_journal = journal;
  Server restarted(std::move(config));
  EXPECT_GE(restarted.journal_replayed(), 1u);
  const Response replay = ask(restarted, valid_request(2));
  ASSERT_EQ(replay.status, Status::kOk);
  EXPECT_EQ(replay.cache, "hit") << "journal replay did not restore the entry";
  EXPECT_EQ(replay.fingerprint, fingerprint);
  EXPECT_EQ(replay.body, body);
  std::remove(journal.c_str());
}

TEST(ServerTest, ServesFramedRequestsOverASocketpair) {
  int fds[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::signal(SIGPIPE, SIG_IGN);

  ServerConfig config;
  config.workers = 2;
  Server server(std::move(config));
  std::thread serving([&] { server.serve_fd(fds[1], fds[1]); });

  Client client;
  client.adopt(fds[0]);
  const auto first = client.call(valid_request(1), /*timeout_ms=*/30000);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->status, Status::kOk) << first->error;
  EXPECT_EQ(first->cache, "miss");
  const auto second = client.call(valid_request(2), 30000);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->cache, "hit");

  client.close();   // EOF ends serve_fd
  serving.join();
  ::close(fds[1]);
  server.stop();
}

}  // namespace
}  // namespace flo::service
