#include "core/compile_cache.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ir/printer.hpp"
#include "obs/metrics.hpp"
#include "util/atomic_file.hpp"

namespace flo::core {

namespace {

void append_bytes(std::string& key, const void* data, std::size_t size) {
  key.append(static_cast<const char*>(data), size);
}

template <typename T>
void append_value(std::string& key, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  append_bytes(key, &value, sizeof(value));
}

// --- journal line escaping -------------------------------------------------
// Rendered bodies are multi-line transform-plan text; journal lines are
// newline-delimited. Percent-encode the three bytes that would break the
// line discipline; everything else passes through.

std::string escape_body(const std::string& body) {
  std::string out;
  out.reserve(body.size());
  for (const char c : body) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\n': out += "%0A"; break;
      case '\r': out += "%0D"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Inverse of escape_body; std::nullopt on any malformed escape (a
/// corrupted journal line is skipped, never half-decoded).
std::optional<std::string> unescape_body(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '%') {
      out.push_back(text[i]);
      continue;
    }
    if (i + 2 >= text.size()) return std::nullopt;  // truncated escape
    const std::string hex = text.substr(i + 1, 2);
    if (hex == "25") out.push_back('%');
    else if (hex == "0A") out.push_back('\n');
    else if (hex == "0D") out.push_back('\r');
    else return std::nullopt;
    i += 2;
  }
  return out;
}

constexpr const char* kCacheJournalTag = "flo-cachejournal-v1";
constexpr const char* kCacheJournalPrefix = "flo-cachejournal-";

}  // namespace

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex16(std::uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(value));
  return std::string(hex);
}

void append_topology_key(std::string& key, const storage::TopologyConfig& t) {
  // TopologyConfig is trivially copyable but may contain padding; append
  // the fields individually so equal configs hash equally.
  append_value(key, t.compute_nodes);
  append_value(key, t.io_nodes);
  append_value(key, t.storage_nodes);
  append_value(key, t.block_size);
  append_value(key, t.io_cache_bytes);
  append_value(key, t.storage_cache_bytes);
  append_value(key, t.io_cache_enabled);
  append_value(key, t.storage_cache_enabled);
  append_value(key, t.prefetch_depth);
  append_value(key, t.model_writes);
  append_value(key, t.latency.cpu_per_element);
  append_value(key, t.latency.net_compute_io);
  append_value(key, t.latency.io_cache_hit);
  append_value(key, t.latency.net_io_storage);
  append_value(key, t.latency.storage_cache_hit);
  append_value(key, t.latency.demotion_cost);
  append_value(key, t.disk.min_seek);
  append_value(key, t.disk.max_seek);
  append_value(key, t.disk.rpm);
  append_value(key, t.disk.bandwidth);
  append_value(key, t.disk.capacity_blocks);
  append_value(key, t.disk.readahead_window);
  append_value(key, t.disk.cylinder_group_blocks);
  // Fault injection changes simulation results (and the dimension-
  // reindexing profiler), so it participates in both the compile-sharing
  // signature and the journal key.
  append_value(key, t.fault.enabled);
  append_value(key, t.fault.seed);
  append_value(key, t.fault.storage_transient_rate);
  append_value(key, t.fault.disk_transient_rate);
  append_value(key, t.fault.max_retries);
  append_value(key, t.fault.retry_backoff);
  append_value(key, t.fault.slow_disk_rate);
  append_value(key, t.fault.slow_disk_multiplier);
  append_value(key, t.fault.outages.size());
  for (const auto& outage : t.fault.outages) {
    append_value(key, outage.layer);
    append_value(key, outage.node);
    append_value(key, outage.start);
    append_value(key, outage.end);
  }
  // Tenant QoS changes simulation results (cache partitioning and the
  // disk scheduling policy), so it joins the keys the same way faults do.
  append_value(key, t.qos.enabled);
  append_value(key, t.qos.shares.size());
  for (const std::uint32_t share : t.qos.shares) append_value(key, share);
  append_value(key, t.qos.priorities.size());
  for (const std::uint32_t prio : t.qos.priorities) append_value(key, prio);
  append_value(key, t.qos.dynamic_shares);
  append_value(key, t.qos.epoch_accesses);
  append_value(key, t.qos.scheduler);
  append_value(key, t.qos.sched_window);
}

std::uint64_t program_fingerprint(const ir::Program& program) {
  return fnv1a(ir::to_pseudocode(program));
}

std::string compile_fingerprint(std::uint64_t program_fp,
                                const ExperimentConfig& config) {
  std::string key;
  key.reserve(256);
  append_value(key, program_fp);
  append_value(key, config.threads);
  append_value(key, config.mapping);
  append_value(key, config.scheme);
  switch (config.scheme) {
    case Scheme::kDefault:
      // Canonical layouts depend on the program alone.
      break;
    case Scheme::kInterNode:
    case Scheme::kInterNodeIoOnly:
    case Scheme::kInterNodeStorageOnly:
      append_value(key, config.unweighted_step1);
      // The Step I backend changes the plan, so cached cells must never
      // mix solvers (DESIGN.md §4i).
      append_value(key, config.solver);
      append_topology_key(key,
                          config.compile_topology.value_or(config.topology));
      break;
    case Scheme::kComputationMapping:
      append_topology_key(key, config.topology);
      break;
    case Scheme::kDimensionReindexing:
      // The profiling pass simulates candidates under the full config,
      // including which simulator core scores them.
      append_value(key, config.policy);
      // Always kStreaming now; still hashed so cached keys stay stable.
      append_value(key, config.trace);
      append_value(key, config.sim_core);
      append_topology_key(key, config.topology);
      break;
  }
  return hex16(fnv1a(key));
}

CompileCache::CompileCache(CompileCacheOptions options)
    : options_(std::move(options)) {
  if (!options_.journal_path.empty()) replay_journal();
}

void CompileCache::count(const char* suffix, std::uint64_t n) const {
  if (!obs::enabled()) return;
  obs::registry().counter(options_.metric_prefix + suffix).add(n);
}

CompileCache::Entry& CompileCache::touch(const std::string& key) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return it->second;
  }
  lru_.push_front(key);
  Entry& entry = entries_[key];
  entry.lru_it = lru_.begin();
  return entry;
}

void CompileCache::evict_over_capacity() {
  if (options_.capacity == 0 || entries_.size() <= options_.capacity) return;
  bool rendered_dropped = false;
  // Walk from the least-recent end, skipping in-flight compiles (their
  // owners still hold the key, and they are by construction recent); the
  // cache may transiently exceed capacity if everything resident is in
  // flight.
  auto it = lru_.end();
  while (it != lru_.begin() && entries_.size() > options_.capacity) {
    --it;
    const auto entry = entries_.find(*it);
    if (entry != entries_.end() && entry->second.inflight) continue;
    if (entry != entries_.end()) {
      rendered_dropped |= entry->second.has_rendered;
      entries_.erase(entry);
    }
    it = lru_.erase(it);
    ++stats_.evictions;
    count("_evictions");
  }
  if (rendered_dropped && !options_.journal_path.empty()) {
    rewrite_journal_locked();
  }
}

CompiledPtr CompileCache::get_or_compile(
    const std::string& key,
    const std::function<CompiledExperiment()>& compile) {
  std::shared_future<CompiledPtr> future;
  std::promise<CompiledPtr> promise;
  bool owner = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    Entry& entry = touch(key);
    if (entry.has_compiled) {
      future = entry.compiled;
      ++stats_.hits;
      count("_hits");
    } else {
      owner = true;
      future = promise.get_future().share();
      entry.compiled = future;
      entry.has_compiled = true;
      entry.inflight = true;
      ++stats_.misses;
      count("_misses");
      evict_over_capacity();
    }
  }
  if (owner) {
    try {
      auto value = std::make_shared<const CompiledExperiment>(compile());
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) it->second.inflight = false;
      }
      promise.set_value(std::move(value));
    } catch (...) {
      // Forget the poisoned entry before waking waiters: every current
      // waiter still sees the exception through its future copy, but a
      // later request retries the compile instead of replaying a stale
      // failure for the cache's lifetime.
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.inflight) {
          if (it->second.has_rendered) {
            it->second.has_compiled = false;
            it->second.inflight = false;
            it->second.compiled = {};
          } else {
            lru_.erase(it->second.lru_it);
            entries_.erase(it);
          }
        }
      }
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();
}

std::optional<RenderedCompile> CompileCache::lookup_rendered(
    const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.has_rendered) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  ++stats_.hits;
  count("_hits");
  return it->second.rendered;
}

void CompileCache::store_rendered(const std::string& key,
                                  RenderedCompile rendered) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& entry = touch(key);
  entry.rendered = std::move(rendered);
  entry.has_rendered = true;
  evict_over_capacity();
  if (!options_.journal_path.empty()) rewrite_journal_locked();
}

void CompileCache::rewrite_journal_locked() {
  std::string contents(kCacheJournalTag);
  contents.push_back('\n');
  // Most-recent-first, so replay (which appends oldest-last... see
  // replay_journal) reconstructs the same recency order and a capacity cap
  // keeps the hottest entries.
  for (const std::string& key : lru_) {
    const auto it = entries_.find(key);
    if (it == entries_.end() || !it->second.has_rendered) continue;
    contents.append(key);
    contents.push_back(' ');
    contents.append(it->second.rendered.tier);
    contents.push_back(' ');
    contents.append(escape_body(it->second.rendered.body));
    contents.push_back('\n');
  }
  util::atomic_write_file(options_.journal_path, contents);
}

void CompileCache::replay_journal() {
  std::ifstream in(options_.journal_path);
  if (!in) return;  // no journal yet: fresh cache
  std::string line;
  if (!std::getline(in, line) || line.empty()) return;  // empty file: fresh
  if (line != kCacheJournalTag) {
    // This is the daemon's own file; anything unexpected in it means a
    // version skew or a foreign file at the configured path — refuse
    // loudly rather than serve from (or clobber) something we do not
    // understand.
    const std::string detail =
        line.rfind(kCacheJournalPrefix, 0) == 0
            ? "unsupported format \"" + line + "\""
            : "not a compile-cache journal";
    throw std::runtime_error("compile-cache journal \"" +
                             options_.journal_path + "\": " + detail +
                             " (expected " + kCacheJournalTag +
                             "); delete the file or point the journal path "
                             "elsewhere to start fresh");
  }
  std::uint64_t replayed = 0;
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::string key;
    std::string tier;
    if (!(is >> key >> tier) || key.empty()) continue;  // corrupt: skip
    std::string rest;
    std::getline(is, rest);
    if (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
    const auto body = unescape_body(rest);
    if (!body) continue;  // corrupt escape: skip, never half-decode
    if (options_.capacity != 0 && entries_.size() >= options_.capacity) break;
    if (entries_.count(key) != 0) continue;  // first (most recent) wins
    // File order is most-recent-first; append to the back so the list
    // ends up front=most-recent again.
    lru_.push_back(key);
    Entry& entry = entries_[key];
    entry.lru_it = std::prev(lru_.end());
    entry.rendered.tier = std::move(tier);
    entry.rendered.body = std::move(*body);
    entry.has_rendered = true;
    ++replayed;
  }
  stats_.journal_replayed = replayed;
  count("_journal_replayed", replayed);
}

CompileCacheStats CompileCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  CompileCacheStats out = stats_;
  out.size = entries_.size();
  return out;
}

std::size_t CompileCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace flo::core
