#include "service/server.hpp"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <system_error>
#include <utility>

#include "ir/parser.hpp"
#include "obs/metrics.hpp"
#include "storage/qos.hpp"
#include "util/framing.hpp"

namespace flo::service {

namespace {

void count(const char* name, std::uint64_t n = 1) {
  if (obs::enabled()) obs::registry().counter(name).add(n);
}

void count_tenant(const std::string& tenant, const char* suffix) {
  if (obs::enabled()) {
    obs::registry().counter("service.tenant." + tenant + suffix).add();
  }
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

core::Scheme scheme_of(Mask mask) {
  switch (mask) {
    case Mask::kBoth: return core::Scheme::kInterNode;
    case Mask::kIo: return core::Scheme::kInterNodeIoOnly;
    case Mask::kStorage: return core::Scheme::kInterNodeStorageOnly;
  }
  return core::Scheme::kInterNode;
}

std::uint64_t scaled_bytes(std::uint64_t bytes, double scale) {
  const double scaled = static_cast<double>(bytes) * scale;
  return scaled < 1 ? 1 : static_cast<std::uint64_t>(std::llround(scaled));
}

/// Largest divisor of `nodes` that is <= `upper` — StorageTopology needs
/// compute_nodes % io_nodes == 0 and io_nodes % storage_nodes == 0, so a
/// request's thread count dictates how far the default 64/16/4 nesting
/// can be kept.
std::size_t shrink_to_divisor(std::size_t nodes, std::size_t upper) {
  std::size_t n = std::min(upper, nodes);
  while (n > 1 && nodes % n != 0) --n;
  return std::max<std::size_t>(1, n);
}

}  // namespace

storage::TopologyConfig family_reference(storage::TopologyConfig topology) {
  const storage::TopologyConfig ref = storage::TopologyConfig::paper_default();
  if (topology.storage_cache_bytes > 0 && ref.storage_cache_bytes > 0) {
    const double scale = static_cast<double>(ref.storage_cache_bytes) /
                         static_cast<double>(topology.storage_cache_bytes);
    topology.io_cache_bytes = scaled_bytes(topology.io_cache_bytes, scale);
    topology.storage_cache_bytes = ref.storage_cache_bytes;
  }
  return topology;
}

Server::Conn::~Conn() {
  if (own_fds) {
    ::close(in_fd);
    if (out_fd != in_fd) ::close(out_fd);
  }
}

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      cache_(std::make_shared<core::CompileCache>(core::CompileCacheOptions{
          config_.cache_capacity, "service.compile_cache",
          config_.cache_journal})),
      admission_(AdmissionConfig{
          QuotaConfig{config_.tenant_rate, config_.tenant_burst},
          config_.queue_depth, /*service_estimate_ms=*/50}),
      queue_(config_.queue_depth) {
  if (!config_.clock) config_.clock = steady_seconds;
  if (config_.workers == 0) config_.workers = 1;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back(&Server::worker_loop, this);
  }
}

Server::~Server() { stop(); }

void Server::stop() {
  if (stopped_.exchange(true)) return;
  stop_.store(true, std::memory_order_relaxed);
  join_readers();
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::uint64_t Server::journal_replayed() const {
  return cache_->stats().journal_replayed;
}

void Server::set_queue_gauge() const {
  if (obs::enabled()) {
    obs::registry().gauge("service.queue_depth").set(
        static_cast<std::int64_t>(queue_.depth()));
  }
}

void Server::join_readers() {
  std::list<ReaderSlot> taken;
  {
    const std::lock_guard<std::mutex> lock(readers_mutex_);
    taken.swap(readers_);
  }
  for (ReaderSlot& slot : taken) {
    if (slot.thread.joinable()) slot.thread.join();
  }
}

void Server::reap_readers() {
  const std::lock_guard<std::mutex> lock(readers_mutex_);
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      if (it->thread.joinable()) it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::serve_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.empty() || socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::system_error(
        std::make_error_code(std::errc::filename_too_long),
        "socket path unusable: '" + socket_path + "'");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) {
    throw std::system_error(errno, std::generic_category(), "socket");
  }
  ::unlink(socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd);
    throw std::system_error(err, std::generic_category(),
                            "bind " + socket_path);
  }
  if (::listen(listen_fd, 128) != 0) {
    const int err = errno;
    ::close(listen_fd);
    throw std::system_error(err, std::generic_category(),
                            "listen " + socket_path);
  }

  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reap_readers();
    if (ready == 0) continue;
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) continue;
    auto conn = std::make_shared<Conn>(fd, fd, /*own=*/true);
    const std::lock_guard<std::mutex> lock(readers_mutex_);
    ReaderSlot& slot = readers_.emplace_back();
    slot.thread = std::thread([this, conn, &slot] {
      reader_loop(conn);
      slot.done.store(true, std::memory_order_release);
    });
  }
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  join_readers();
}

void Server::serve_fd(int in_fd, int out_fd) {
  reader_loop(std::make_shared<Conn>(in_fd, out_fd, /*own=*/false));
}

void Server::send(Conn& conn, const Response& response) {
  const std::string payload = serialize_response(response);
  const std::lock_guard<std::mutex> lock(conn.write_mutex);
  try {
    util::write_frame(conn.out_fd, payload, config_.io_timeout_ms);
  } catch (const util::FramingError&) {
    // The client went away before its response did; nothing to do but
    // note it — the job itself completed.
    count("service.responses_dropped");
  }
}

void Server::reader_loop(const std::shared_ptr<Conn>& conn) {
  std::string payload;
  while (!stop_.load(std::memory_order_relaxed)) {
    try {
      // Idle forever (a quiet client is fine; shutdown interrupts via the
      // cancel flag), but bound the time a started frame may dribble in.
      if (!util::read_frame(conn->in_fd, payload, config_.max_frame,
                            /*idle_timeout_ms=*/-1, config_.io_timeout_ms,
                            &stop_)) {
        break;  // clean EOF
      }
    } catch (const util::FrameTooLarge& e) {
      count("service.malformed_total");
      Response r;
      r.error = e.what();
      send(*conn, r);
      break;  // the oversized payload is unread; the stream cannot resync
    } catch (const util::FramingTimeout& e) {
      count("service.slow_client_total");
      Response r;
      r.error = e.what();
      send(*conn, r);
      break;  // mid-frame stall: remaining bytes are unsynced
    } catch (const util::FramingError&) {
      break;  // cancelled or truncated stream — nobody left to answer
    }

    count("service.requests_total");
    Request request;
    try {
      request = parse_request(payload);
    } catch (const ProtocolError& e) {
      count("service.malformed_total");
      Response r;
      r.error = e.what();
      send(*conn, r);
      continue;  // framing is intact; the connection can carry on
    }

    Job job;
    if (std::optional<Response> rejected =
            admit(std::move(request), conn, job)) {
      send(*conn, *rejected);
      continue;
    }
    // Terminal-response invariant: keep enough of the job to answer if the
    // push loses the race against the queue filling (or shutdown).
    Response shed;
    shed.status = Status::kShed;
    shed.id = job.request.id;
    shed.tenant = job.request.tenant;
    shed.body_hash = job.body_hash;
    if (queue_.try_push(std::move(job))) {
      set_queue_gauge();
    } else {
      count("service.shed_queue_total");
      shed.retry_after_ms = admission_.queue_retry_after_ms(config_.workers);
      send(*conn, shed);
    }
  }
}

std::optional<Response> Server::admit(Request request,
                                      std::shared_ptr<Conn> conn, Job& job) {
  const double t = now();
  count_tenant(request.tenant, ".requests");
  const AdmissionResult result =
      admission_.decide(request.tenant, t, queue_.depth());

  Response r;
  r.id = request.id;
  r.tenant = request.tenant;
  r.body_hash = core::hex16(core::fnv1a(request.program));
  if (result.decision == Decision::kThrottled) {
    count("service.throttled_total");
    count_tenant(request.tenant, ".throttled");
    r.status = Status::kThrottled;
    r.retry_after_ms = result.retry_after_ms;
    return r;
  }
  if (result.decision == Decision::kQueueFull) {
    count("service.shed_queue_total");
    r.status = Status::kShed;
    r.retry_after_ms = admission_.queue_retry_after_ms(config_.workers);
    return r;
  }

  job.body_hash = r.body_hash;
  job.received = t;
  const double deadline_ms = request.deadline_ms > 0
                                 ? request.deadline_ms
                                 : config_.default_deadline_ms;
  job.deadline_abs = deadline_ms > 0 ? t + deadline_ms / 1000.0 : 0;
  job.conn = std::move(conn);
  job.request = std::move(request);
  return std::nullopt;
}

void Server::worker_loop() {
  while (std::optional<Job> job = queue_.pop()) {
    set_queue_gauge();
    if (obs::enabled()) {
      obs::registry()
          .histogram("service.queue_wait_ms")
          .observe((now() - job->received) * 1000.0);
    }
    const Response response = handle(*job);
    if (job->conn) send(*job->conn, response);
  }
}

Response Server::handle(Job& job) {
  const double start = now();
  Response r;
  r.id = job.request.id;
  r.tenant = job.request.tenant;
  r.body_hash = job.body_hash;

  if (job.deadline_abs > 0 && start > job.deadline_abs) {
    count("service.shed_deadline_total");
    r.status = Status::kShed;
    r.retry_after_ms = std::max(1.0, admission_.service_estimate_ms());
    return r;
  }

  try {
    r = compile_response(job);
  } catch (const ir::ParseError& e) {
    r.status = Status::kError;
    r.error = std::string("program: ") + e.what();
  } catch (const std::exception& e) {
    r.status = Status::kError;
    r.error = std::string("compile failed: ") + e.what();
  }

  if (r.status == Status::kOk) {
    admission_.observe_service_ms((now() - start) * 1000.0);
    count("service.responses_ok");
    if (r.degraded) count("service.degraded_total");
  } else if (r.status == Status::kError) {
    count("service.responses_error");
  }
  return r;
}

Response Server::compile_response(Job& job) {
  const Request& request = job.request;
  Response r;
  r.id = request.id;
  r.tenant = request.tenant;
  r.body_hash = job.body_hash;

  const ir::Program program = ir::parse_program(request.program);

  core::ExperimentConfig config;
  config.threads = request.threads;
  config.topology.compute_nodes = request.threads;
  config.topology.io_nodes =
      shrink_to_divisor(request.threads, config.topology.io_nodes);
  config.topology.storage_nodes = shrink_to_divisor(
      config.topology.io_nodes, config.topology.storage_nodes);
  config.topology.io_cache_bytes =
      scaled_bytes(config.topology.io_cache_bytes, request.cache_scale);
  config.topology.storage_cache_bytes =
      scaled_bytes(config.topology.storage_cache_bytes, request.cache_scale);
  config.scheme = scheme_of(request.mask);
  // Daemon-wide tenant QoS (FLO_QOS/FLO_SCHED, validated at startup):
  // joins the topology, hence the compile fingerprint, so QoS'd and plain
  // compiles never alias a cache key. The response echoes the scheduler so
  // clients can see which discipline their plans were keyed under.
  config.topology.qos = storage::qos_config_from_env();
  if (config.topology.qos.enabled) {
    r.sched = storage::sched_policy_name(config.topology.qos.scheduler);
    count("service.qos.requests");
  }

  const std::uint64_t program_fp = core::program_fingerprint(program);
  const std::string exact_key = core::compile_fingerprint(program_fp, config);

  // Ladder step 1: an exact rendered result (possibly journal-replayed by
  // a restarted daemon) is always the best answer.
  if (std::optional<core::RenderedCompile> hit =
          cache_->lookup_rendered(exact_key)) {
    r.status = Status::kOk;
    r.tier = hit->tier;
    r.cache = "hit";
    r.fingerprint = exact_key;
    r.body = std::move(hit->body);
    return r;
  }

  bool degrade = request.tier == Tier::kTemplate;
  if (request.tier == Tier::kAuto) {
    const double watermark =
        config_.degrade_queue_fraction * static_cast<double>(queue_.capacity());
    const bool pressured =
        queue_.capacity() > 0 &&
        static_cast<double>(queue_.depth()) >= watermark;
    const double remaining_ms =
        job.deadline_abs > 0 ? (job.deadline_abs - now()) * 1000.0
                             : std::numeric_limits<double>::infinity();
    degrade =
        pressured || remaining_ms < 2 * admission_.service_estimate_ms();
  }

  core::ExperimentConfig chosen = config;
  std::string key = exact_key;
  const char* tier = "exact";
  if (degrade) {
    // Template-family tier: compile against the family's reference
    // topology so every member of the family shares this key.
    chosen.compile_topology = family_reference(config.topology);
    key = core::compile_fingerprint(program_fp, chosen);
    tier = "template";
    if (std::optional<core::RenderedCompile> hit =
            cache_->lookup_rendered(key)) {
      r.status = Status::kOk;
      r.tier = hit->tier;
      r.cache = "hit";
      r.degraded = request.tier != Tier::kTemplate;
      r.fingerprint = key;
      r.body = std::move(hit->body);
      return r;
    }
  }

  bool compiled_now = false;
  const core::CompiledPtr compiled = cache_->get_or_compile(key, [&] {
    compiled_now = true;
    return core::compile_experiment(program, chosen);
  });

  r.status = Status::kOk;
  r.tier = tier;
  r.cache = compiled_now ? "miss" : "hit";
  r.degraded = degrade && request.tier != Tier::kTemplate;
  r.fingerprint = key;
  r.body = compiled->plan.to_string();
  if (compiled_now) {
    // Persist the rendered payload so a restarted daemon serves this key
    // from the journal. The thread that ran the compile writes it; future
    // hits never touch the journal.
    cache_->store_rendered(key, core::RenderedCompile{tier, r.body});
  }
  return r;
}

std::string Server::handle_payload(const std::string& payload) {
  count("service.requests_total");
  Request request;
  try {
    request = parse_request(payload);
  } catch (const ProtocolError& e) {
    count("service.malformed_total");
    Response r;
    r.error = e.what();
    return serialize_response(r);
  }
  Job job;
  if (std::optional<Response> rejected =
          admit(std::move(request), nullptr, job)) {
    return serialize_response(*rejected);
  }
  Response response = handle(job);
  return serialize_response(response);
}

}  // namespace flo::service
