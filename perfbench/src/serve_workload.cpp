// serve_compile: a closed loop of compile requests from one client
// connection, with two requests in flight, against an in-process
// service::Server (2 workers, no journal) over a socketpair. Every pass
// starts a fresh server, so its CompileCache starts cold. One op is one
// request.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "core/compile_cache.hpp"
#include "ir/parser.hpp"
#include "layers.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "storage/qos.hpp"
#include "testing/emit.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"
#include "workloads/analytics.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

namespace core = flo::core;
namespace service = flo::service;

namespace {

constexpr double kScales[] = {0.5, 1, 2, 4};
constexpr service::Mask kMasks[] = {service::Mask::kBoth, service::Mask::kIo,
                                    service::Mask::kStorage};
constexpr std::size_t kVariants = 12;  // scales x masks
/// Requests for the most popular variant of a pass (Zipf head).
constexpr double kHeadRequests = 40;
constexpr std::size_t kInFlight = 2;
constexpr int kIoTimeoutMs = 120000;

/// The request universe: the printed .flo of the 16 Table 2 apps and the
/// chunk and write suites.
struct Universe {
  std::vector<std::string> names;
  std::vector<std::string> texts;
  std::vector<std::string> body_hashes;
};

Universe build_universe() {
  Universe u;
  std::vector<flo::workloads::Workload> apps = flo::workloads::workload_suite();
  for (auto& w : flo::workloads::chunk_suite()) apps.push_back(std::move(w));
  for (auto& w : flo::workloads::write_suite()) apps.push_back(std::move(w));
  for (const flo::workloads::Workload& app : apps) {
    u.names.push_back(app.name);
    u.texts.push_back(flo::testing::emit_flo(app.program));
    u.body_hashes.push_back(core::hex16(core::fnv1a(u.texts.back())));
  }
  return u;
}

struct Draw {
  std::size_t program = 0;
  std::size_t variant = 0;  ///< index into scales x masks
  service::Tier tier = service::Tier::kAuto;
};

double scale_of(std::size_t variant) { return kScales[variant / 3]; }
service::Mask mask_of(std::size_t variant) { return kMasks[variant % 3]; }

std::string request_key(const Universe& u, const Draw& d) {
  char scale[16];
  std::snprintf(scale, sizeof scale, "%g", scale_of(d.variant));
  return u.names[d.program] + "/" + service::mask_name(mask_of(d.variant)) +
         "/x" + scale + "/" + service::tier_name(d.tier);
}

/// One pass's requests: every program contributes one (scale, mask)
/// variant drawn by the seed; the variants get seeded popularity ranks
/// with Zipf counts max(2, round(kHeadRequests / rank)), and the request
/// order is a seeded shuffle. The variants ranked 2, 7, 12 and 17 are
/// asked for at the template tier (about one request in five), the rest
/// at the auto tier. A variant keeps one tier, so each one is compiled
/// exactly once per pass whatever the arrival order: the seed decides
/// which variants are compiled and in what order, not how many.
std::vector<Draw> draw_pass(const Universe& u, std::uint64_t seed,
                            std::size_t pass) {
  flo::util::Rng rng(seed * 1000003 + pass);
  std::vector<Draw> keys;
  for (std::size_t p = 0; p < u.names.size(); ++p) {
    keys.push_back({p, rng.next_below(kVariants), service::Tier::kAuto});
  }
  std::vector<std::uint32_t> rank(keys.size());
  rng.shuffle_indices(rank.data(), rank.size());
  std::vector<Draw> requests;
  for (std::size_t r = 0; r < keys.size(); ++r) {
    Draw d = keys[rank[r]];
    if (r % 5 == 1) d.tier = service::Tier::kTemplate;
    const auto copies = std::max<long>(
        2, std::lround(kHeadRequests / static_cast<double>(r + 1)));
    for (long c = 0; c < copies; ++c) requests.push_back(d);
  }
  std::vector<std::uint32_t> order(requests.size());
  rng.shuffle_indices(order.data(), order.size());
  std::vector<Draw> out;
  for (std::uint32_t i : order) out.push_back(requests[i]);
  return out;
}

service::Request make_request(const Universe& u, const Draw& d,
                              std::uint64_t id) {
  service::Request r;
  r.id = id;
  r.tenant = "bench";
  r.tier = d.tier;
  r.mask = mask_of(d.variant);
  r.cache_scale = scale_of(d.variant);
  r.program = u.texts[d.program];
  return r;
}

/// What the checks compare: the compile key actually served and its plan.
std::string response_digest(const service::Response& r) {
  return digest(r.fingerprint + '\n' + r.body);
}

/// A fresh server with one client connected over a socketpair.
class Connection {
 public:
  Connection() {
    service::ServerConfig config;
    config.workers = 2;
    server_ = std::make_unique<service::Server>(config);
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    reader_ = std::thread([this] { server_->serve_fd(fds_[1], fds_[1]); });
    client_.adopt(fds_[0]);
  }
  ~Connection() {
    client_.close();  // EOF ends the server's reader loop
    if (reader_.joinable()) reader_.join();
    server_->stop();
    ::close(fds_[1]);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  service::Client& client() { return client_; }
  service::Server& server() { return *server_; }

 private:
  std::unique_ptr<service::Server> server_;
  int fds_[2] = {-1, -1};
  service::Client client_;
  std::thread reader_;
};

/// One served request as the client saw it.
struct Served {
  double sent = 0;
  double latency = 0;
  service::Response response;
  bool answered = false;
};

/// Runs `draws` through the connection, kInFlight at a time.
std::vector<Served> serve_pass(Connection& conn, const Universe& u,
                               const std::vector<Draw>& draws,
                               const Tracer& tracer) {
  std::vector<Served> served(draws.size());
  std::size_t next = 0;
  const auto send_next = [&] {
    const service::Request request = make_request(u, draws[next], next + 1);
    served[next].sent = tracer.now();
    conn.client().send_raw(service::serialize_request(request), kIoTimeoutMs);
    ++next;
  };
  while (next < draws.size() && next < kInFlight) send_next();
  for (std::size_t done = 0; done < draws.size(); ++done) {
    const std::optional<std::string> payload =
        conn.client().recv_raw(1 << 24, kIoTimeoutMs);
    if (!payload) throw std::runtime_error("server closed the connection");
    service::Response response = service::parse_response(*payload);
    if (response.id == 0 || response.id > draws.size() ||
        served[response.id - 1].answered) {
      throw std::runtime_error("response with unexpected id " +
                               std::to_string(response.id));
    }
    Served& s = served[response.id - 1];
    s.latency = tracer.now() - s.sent;
    s.response = std::move(response);
    s.answered = true;
    if (next < draws.size()) send_next();
  }
  return served;
}

std::string check_response(const Universe& u, const Draw& d,
                           const service::Response& r,
                           const ExpectedTable& expected) {
  if (r.status != service::Status::kOk) {
    return std::string("status ") + service::status_name(r.status) +
           (r.error.empty() ? "" : ": " + r.error);
  }
  std::vector<std::string> reasons;
  if (r.body_hash != u.body_hashes[d.program]) {
    reasons.push_back("body_hash " + r.body_hash + " does not echo " +
                      u.body_hashes[d.program]);
  }
  reasons.push_back(expected.check(request_key(u, d), response_digest(r)));
  return join_reasons(reasons);
}

/// The server's compile configuration for a request (see
/// service::Server): paper topology with both cache capacities scaled.
core::ExperimentConfig server_config(const Draw& d) {
  core::ExperimentConfig config;
  const auto scaled = [](std::uint64_t bytes, double scale) {
    const double v = static_cast<double>(bytes) * scale;
    return v < 1 ? std::uint64_t{1} : static_cast<std::uint64_t>(std::llround(v));
  };
  config.topology.io_cache_bytes =
      scaled(config.topology.io_cache_bytes, scale_of(d.variant));
  config.topology.storage_cache_bytes =
      scaled(config.topology.storage_cache_bytes, scale_of(d.variant));
  config.topology.qos = flo::storage::qos_config_from_env();
  switch (mask_of(d.variant)) {
    case service::Mask::kBoth: config.scheme = core::Scheme::kInterNode; break;
    case service::Mask::kIo: config.scheme = core::Scheme::kInterNodeIoOnly; break;
    case service::Mask::kStorage:
      config.scheme = core::Scheme::kInterNodeStorageOnly;
      break;
  }
  return config;
}

/// Replays a traced pass through the public layers the server calls: the
/// parser for every request, then Step I/II for every compile the server
/// reported as a cache miss, checking that the replayed plan is the one
/// served.
void replay_pass(const Universe& u, const std::vector<Draw>& draws,
                 const std::vector<Served>& served, Tracer& tracer,
                 LayerCounts& counts, Report& report) {
  std::vector<flo::ir::Program> programs;
  programs.reserve(draws.size());
  for (const Draw& d : draws) {
    const ScopedSpan span(tracer, "ir.parse");
    programs.push_back(flo::ir::parse_program(u.texts[d.program]));
  }
  for (std::size_t i = 0; i < draws.size(); ++i) {
    const service::Response& r = served[i].response;
    if (r.status != service::Status::kOk || r.cache != "miss") continue;
    core::ExperimentConfig config = server_config(draws[i]);
    const std::uint64_t fp = core::program_fingerprint(programs[i]);
    if (r.fingerprint != core::compile_fingerprint(fp, config)) {
      config.compile_topology = service::family_reference(config.topology);
      if (r.fingerprint != core::compile_fingerprint(fp, config)) {
        report.fail(request_key(u, draws[i]) + ": served key " +
                    r.fingerprint + " is neither the exact nor the template key");
        ++report.failed;
        continue;
      }
    }
    const core::CompiledExperiment compiled =
        traced_compile(programs[i], config, tracer, counts);
    if (digest(r.fingerprint + '\n' + compiled.plan.to_string()) !=
        response_digest(r)) {
      report.fail(request_key(u, draws[i]) +
                  ": replayed plan differs from the served one");
      ++report.failed;
    }
  }
}

void record_expected(const Universe& u, const Options& options,
                     Report& report) {
  // Auto requests always answer with the exact compile. A template request
  // answers with the exact compile when that one is already cached, and
  // with the template-family compile otherwise: both are recorded.
  std::vector<Draw> all;
  for (std::size_t p = 0; p < u.names.size(); ++p) {
    for (std::size_t v = 0; v < kVariants; ++v) all.push_back({p, v});
  }
  std::vector<std::vector<std::pair<std::string, std::string>>> rows(
      all.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < all.size(); i = next++) {
        Draw exact = all[i];
        Draw templ = exact;
        templ.tier = service::Tier::kTemplate;
        const auto ask = [&](service::Server& server, const Draw& d) {
          return service::parse_response(server.handle_payload(
              service::serialize_request(make_request(u, d, 1))));
        };
        service::ServerConfig config;
        config.workers = 1;
        service::Server cold(config);
        const service::Response t = ask(cold, templ);
        service::Server warm(config);
        const service::Response e = ask(warm, exact);
        const service::Response te = ask(warm, templ);
        for (const auto* r : {&t, &e, &te}) {
          if (r->status != service::Status::kOk) {
            rows[i].push_back({"!", request_key(u, exact) + ": " + r->error});
          }
        }
        rows[i].push_back({request_key(u, exact), response_digest(e)});
        rows[i].push_back({request_key(u, templ), response_digest(t)});
        rows[i].push_back({request_key(u, templ), response_digest(te)});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ExpectedTable table;
  for (const auto& row : rows) {
    for (const auto& [key, value] : row) {
      if (key == "!") {
        report.fail(value);
      } else {
        table.add(key, value);
      }
    }
  }
  if (report.failures.empty()) table.save(expected_path(options));
  report.facts.push_back("recorded " + std::to_string(table.size()) +
                         " digests, workload digest " +
                         table.workload_digest());
}

}  // namespace

int serve_self_test(const Options& options) {
  const ExpectedTable expected = ExpectedTable::load(expected_path(options));
  const Universe u = build_universe();
  Draw d;
  while (u.names[d.program] != "cc-ver-1") ++d.program;
  d.variant = 3;  // cache_scale 1, mask both
  service::ServerConfig config;
  config.workers = 1;
  service::Server server(config);
  const service::Response good = service::parse_response(server.handle_payload(
      service::serialize_request(make_request(u, d, 1))));
  struct Case {
    const char* name;
    service::Response response;
    bool expect_failure;
  };
  std::vector<Case> cases = {{"unmodified response passes", good, false}};
  cases.push_back({"a perturbed plan body is caught", good, true});
  cases.back().response.body += ' ';
  cases.push_back({"an unechoed body_hash is caught", good, true});
  cases.back().response.body_hash = "0000000000000000";
  cases.push_back({"a shed response is caught", good, true});
  cases.back().response.status = service::Status::kShed;
  int exit_code = 0;
  for (const Case& c : cases) {
    const std::string reason = check_response(u, d, c.response, expected);
    const bool ok = reason.empty() != c.expect_failure;
    std::printf("%s %s%s\n", ok ? "ok  " : "FAIL", c.name,
                reason.empty() ? "" : (" (" + reason + ")").c_str());
    if (!ok) exit_code = 1;
  }
  return exit_code;
}

Report run_serve_compile(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  struct SetUp {
    Universe universe;
    std::unique_ptr<Connection> conn;
  };
  SetUpTimer setup(report, [] {
    return SetUp{build_universe(), std::make_unique<Connection>()};
  });
  const Universe universe = std::move(setup.product().universe);
  std::unique_ptr<Connection> conn = std::move(setup.product().conn);
  if (options.record) {
    conn.reset();
    record_expected(universe, options, report);
    return report;
  }

  const ExpectedTable expected = ExpectedTable::load(expected_path(options));
  LayerCounts counts;
  double hits = 0, misses = 0, evictions = 0, call_s = 0, calls = 0;
  double cache_hit_responses = 0, ok_responses = 0;
  std::map<std::string, double> statuses;
  const Clock::time_point run_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    if (!conn) conn = std::make_unique<Connection>();
    const std::vector<Draw> draws = draw_pass(universe, options.seed, pass);
    const Clock::time_point start = Clock::now();
    std::vector<Served> served;
    std::uint64_t pass_span = 0;
    {
      const ScopedSpan span(tracer, "service.pass", 0, 0);
      pass_span = span.id();
      served = serve_pass(*conn, universe, draws, tracer);
    }
    const double pass_s = since(start);
    const core::CompileCacheStats stats = conn->server().cache().stats();
    conn.reset();

    for (std::size_t i = 0; i < draws.size(); ++i) {
      const service::Response& r = served[i].response;
      const std::string reason = check_response(universe, draws[i], r, expected);
      report.op(reason.empty() ? "" : request_key(universe, draws[i]) + ": " +
                                          reason);
      if (!traced) report.op_s.push_back(served[i].latency);
      if (r.status == service::Status::kOk) {
        ++ok_responses;
        if (r.cache == "hit") ++cache_hit_responses;
      }
      if (traced) {
        Span call;
        call.name = "service.call";
        call.start = served[i].sent;
        call.end = served[i].sent + served[i].latency;
        call.id = tracer.next_id();
        call.parent = pass_span;
        call.op = i + 1;
        tracer.record(call);
        call_s += served[i].latency;
        ++calls;
        ++statuses[service::status_name(r.status)];
        if (r.degraded) ++statuses["degraded"];
      }
    }
    if (traced) {
      report.traced_pass_s.push_back(pass_s);
      hits += static_cast<double>(stats.hits);
      misses += static_cast<double>(stats.misses);
      evictions += static_cast<double>(stats.evictions);
      replay_pass(universe, draws, served, tracer, counts, report);
    } else {
      report.pass_s.push_back(pass_s);
    }
    setup.window();
    const bool have_both = !options.trace || !report.traced_pass_s.empty();
    if (have_both &&
        !another_pass_fits(since(run_start), pass_s, options.seconds)) {
      break;
    }
  }
  setup.finish();
  char share[64];
  std::snprintf(share, sizeof share, "%.4f",
                ok_responses > 0 ? cache_hit_responses / ok_responses : 0.0);
  report.facts.push_back(std::string("responses served from the cache: ") +
                         share + " of ok responses");
  if (!options.trace) return report;

  const auto times = layer_times(tracer.spans());
  const double n = static_cast<double>(report.traced_pass_s.size());
  add_span_table(report, times, n);
  const auto per_pass = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? 0.0 : it->second.total_s / n;
  };
  Metrics& m = report.layers;
  m["ir.parse_s"] = {per_pass("ir.parse"), "s"};
  m["parallel.schedule_s"] = {per_pass("parallel.schedule"), "s"};
  m["core.optimize_s"] = {per_pass("core.optimize"), "s"};
  m["core.compile_s"] = {per_pass("core.compile"), "s"};
  m["core.optimize_calls"] = {
      static_cast<double>(counts.optimize_calls.load()) / n, "count"};
  m["layout.arrays_partitioned"] = {
      static_cast<double>(counts.arrays_partitioned.load()) / n, "count"};
  m["core.compile_cache.hits"] = {hits / n, "count"};
  m["core.compile_cache.misses"] = {misses / n, "count"};
  m["core.compile_cache.hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio"};
  m["core.compile_cache.evictions"] = {evictions / n, "count"};
  m["service.call_s"] = {calls > 0 ? call_s / calls : 0.0, "s"};
  for (const char* status : {"ok", "shed", "throttled", "error", "degraded"}) {
    m[std::string("service.") + status] = {statuses[status] / n, "count"};
  }
  add_overhead(report);
  tracer.write_chrome_trace(options.out_dir + "/" + options.workload +
                            ".trace.json");
  return report;
}

}  // namespace perfbench
