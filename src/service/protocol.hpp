// Wire protocol of the flo_serve compile daemon (DESIGN.md §4h).
//
// Requests and responses travel as framed payloads (util/framing.hpp);
// each payload is a small text document — a magic line, `key: value`
// header lines, a blank line, then a free-form body:
//
//   flo-req-v1
//   id: 7
//   tenant: acme
//   deadline_ms: 250
//   tier: auto
//   threads: 64
//   mask: both
//   cache_scale: 1
//
//   array A[64][64]
//   nest scan ...            <- the .flo program text
//
//   flo-resp-v1 ok
//   id: 7
//   tenant: acme
//   tier: exact
//   cache: hit
//   fingerprint: 61dca4a18f7e9c32
//   body_hash: 09c1d848deadbeef
//
//   <transform-plan text>
//
// Statuses: `ok` (body = transform plan), `shed` (queue full or deadline
// exhausted; retry_after_ms set), `throttled` (per-tenant quota;
// retry_after_ms set), `error` (malformed request/program; error set).
// Every request gets exactly one terminal response — the chaos harness
// holds the daemon to that.
//
// body_hash echoes fnv1a(program text) so a client can verify its response
// was computed from *its* request — the cross-tenant leak canary.
// Parsing is strict: unknown header keys, bad integers, or an invalid
// tenant name raise ProtocolError (the server answers `error`, never
// guesses).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace flo::service {

inline constexpr const char* kRequestMagic = "flo-req-v1";
inline constexpr const char* kResponseMagic = "flo-resp-v1";

class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Which layer(s) the inter-node optimizer targets (maps onto
/// core::Scheme::kInterNode / kInterNodeIoOnly / kInterNodeStorageOnly).
enum class Mask { kBoth, kIo, kStorage };

/// Compilation tier the client asks for. kAuto lets the degradation
/// ladder decide; kExact forbids degradation; kTemplate requests the
/// template-family tier outright (cheapest, shared across the family).
enum class Tier { kAuto, kExact, kTemplate };

enum class Status { kOk, kShed, kThrottled, kError };

const char* status_name(Status status);
const char* tier_name(Tier tier);
const char* mask_name(Mask mask);

struct Request {
  std::uint64_t id = 0;
  std::string tenant;
  double deadline_ms = 0;  ///< relative to server receipt; 0 = none
  Tier tier = Tier::kAuto;
  std::size_t threads = 64;
  Mask mask = Mask::kBoth;
  /// Scales the paper topology's cache capacities — the knob that makes a
  /// request a *member* of a template family rather than the reference
  /// hierarchy itself (members differing only by scale share one template
  /// compile). Must be finite and in (0, 1024].
  double cache_scale = 1.0;
  std::string program;  ///< .flo text (src/ir/parser.hpp grammar)
};

struct Response {
  Status status = Status::kError;
  std::uint64_t id = 0;
  std::string tenant;
  std::string tier;         ///< "exact"/"template" (ok only)
  std::string cache;        ///< "hit"/"miss" (ok only)
  bool degraded = false;    ///< served below the requested tier
  std::string fingerprint;  ///< compile key actually served
  std::string body_hash;    ///< hex16(fnv1a(request program)) — leak canary
  double retry_after_ms = 0;  ///< shed/throttled backpressure hint
  std::string error;          ///< error status only
  std::string body;           ///< transform-plan text (ok only)
};

/// Validates a tenant name: 1..64 chars of [A-Za-z0-9_.-] (metric- and
/// log-safe). Throws ProtocolError otherwise.
void validate_tenant(const std::string& tenant);

std::string serialize_request(const Request& request);
Request parse_request(const std::string& payload);  ///< throws ProtocolError

std::string serialize_response(const Response& response);
Response parse_response(const std::string& payload);  ///< throws ProtocolError

}  // namespace flo::service
