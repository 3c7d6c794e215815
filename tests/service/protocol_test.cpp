// Wire protocol: round trips, strict rejection of malformed payloads, and
// the header-forgery guard on error text.
#include <gtest/gtest.h>

#include <string>

#include "service/protocol.hpp"

namespace flo::service {
namespace {

Request sample_request() {
  Request request;
  request.id = 42;
  request.tenant = "acme-west.2";
  request.deadline_ms = 250.5;
  request.tier = Tier::kTemplate;
  request.threads = 16;
  request.mask = Mask::kIo;
  request.cache_scale = 0.5;
  request.program = "program p\narray A 8 8\n";
  return request;
}

TEST(ProtocolTest, RequestRoundTrips) {
  const Request in = sample_request();
  const Request out = parse_request(serialize_request(in));
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_DOUBLE_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.tier, in.tier);
  EXPECT_EQ(out.threads, in.threads);
  EXPECT_EQ(out.mask, in.mask);
  EXPECT_DOUBLE_EQ(out.cache_scale, in.cache_scale);
  EXPECT_EQ(out.program, in.program);
}

TEST(ProtocolTest, ResponseRoundTrips) {
  Response in;
  in.status = Status::kOk;
  in.id = 7;
  in.tenant = "t1";
  in.tier = "template";
  in.cache = "hit";
  in.degraded = true;
  in.fingerprint = "00ff00ff00ff00ff";
  in.body_hash = "1122334455667788";
  in.body = "multi\nline\nplan body\n";
  const Response out = parse_response(serialize_response(in));
  EXPECT_EQ(out.status, Status::kOk);
  EXPECT_EQ(out.id, in.id);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.tier, in.tier);
  EXPECT_EQ(out.cache, in.cache);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.fingerprint, in.fingerprint);
  EXPECT_EQ(out.body_hash, in.body_hash);
  EXPECT_EQ(out.body, in.body);
}

TEST(ProtocolTest, ShedResponseCarriesRetryAfter) {
  Response in;
  in.status = Status::kShed;
  in.id = 9;
  in.retry_after_ms = 123.5;
  const Response out = parse_response(serialize_response(in));
  EXPECT_EQ(out.status, Status::kShed);
  EXPECT_DOUBLE_EQ(out.retry_after_ms, 123.5);
}

TEST(ProtocolTest, RejectsMalformedPayloads) {
  EXPECT_THROW(parse_request(""), ProtocolError);
  EXPECT_THROW(parse_request("not-a-magic\n\nbody"), ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1 extra\nid: 1\ntenant: t\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\nid: twelve\ntenant: t\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\nid: -3\ntenant: t\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\nflags without colon\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\nwat: 1\ntenant: t\n\nx"),
               ProtocolError);  // unknown header
  EXPECT_THROW(parse_request("flo-req-v1\ntenant: t\nthreads: 0\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\ntenant: t\nthreads: 9999\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\ntenant: t\ncache_scale: 0\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\ntenant: t\ntier: turbo\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\ntenant: t\nmask: none\n\nx"),
               ProtocolError);
  // Missing/invalid tenant and empty program.
  EXPECT_THROW(parse_request("flo-req-v1\nid: 1\n\nx"), ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\ntenant: sp ace\n\nx"),
               ProtocolError);
  EXPECT_THROW(parse_request("flo-req-v1\ntenant: t\n\n"), ProtocolError);
}

TEST(ProtocolTest, TenantValidationIsMetricSafe) {
  EXPECT_NO_THROW(validate_tenant("Team_1.prod-eu"));
  EXPECT_THROW(validate_tenant(""), ProtocolError);
  EXPECT_THROW(validate_tenant(std::string(65, 'a')), ProtocolError);
  EXPECT_THROW(validate_tenant("a/b"), ProtocolError);
  EXPECT_THROW(validate_tenant("newline\n"), ProtocolError);
}

TEST(ProtocolTest, ErrorTextCannotForgeHeadersOrBody) {
  Response in;
  in.status = Status::kError;
  in.id = 1;
  in.error = "bad things\nbody_hash: 0000000000000000\n\nfake body";
  const Response out = parse_response(serialize_response(in));
  EXPECT_EQ(out.status, Status::kError);
  EXPECT_TRUE(out.body_hash.empty());
  EXPECT_TRUE(out.body.empty());
  EXPECT_EQ(out.error.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace flo::service
