#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"

namespace perfbench {

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- tracing ---------------------------------------------------------------

namespace {

thread_local std::uint64_t t_current_span = 0;
thread_local std::uint64_t t_current_op = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

double Tracer::now() const { return since(epoch_); }

std::uint64_t Tracer::next_id() {
  if (!on_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(Span span) {
  if (!on_) return;
  span.tid = thread_index();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    char times[96];
    std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                  s.start * 1e6, (s.end - s.start) * 1e6);
    out << "{\"name\":\"" << flo::util::json_escape(s.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ',' << times
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
                       std::uint64_t op)
    : tracer_(tracer) {
  if (!tracer_.on()) return;
  span_.name = name;
  span_.id = tracer_.next_id();
  span_.parent = parent == kInherit ? t_current_span : parent;
  span_.op = op == kInherit ? t_current_op : op;
  saved_parent_ = t_current_span;
  saved_op_ = t_current_op;
  t_current_span = span_.id;
  t_current_op = span_.op;
  span_.start = tracer_.now();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.on()) return;
  span_.end = tracer_.now();
  t_current_span = saved_parent_;
  t_current_op = saved_op_;
  tracer_.record(std::move(span_));
}

std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    LayerTime& t = out[s.name];
    const double duration = s.end - s.start;
    double covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      // Union of the child intervals clipped to this span: children on
      // other threads (engine cells under a pass) may overlap each other.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cursor = s.start;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, cursor);
        hi = std::min(hi, s.end);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    ++t.calls;
    t.total_s += duration;
    t.self_s += std::max(0.0, duration - covered);
  }
  return out;
}

void add_span_table(Report& report,
                    const std::map<std::string, LayerTime>& times,
                    double passes) {
  for (const auto& [name, t] : times) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "span %-30s calls %9.1f  total %10.4f s  self %10.4f s",
                  name.c_str(), static_cast<double>(t.calls) / passes,
                  t.total_s / passes, t.self_s / passes);
    report.facts.push_back(line);
  }
}

// --- metrics ---------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values, std::size_t beyond) {
  Tail out;
  const std::size_t n = values.size();
  if (n <= beyond) return out;
  std::sort(values.begin(), values.end());
  // Highest whole percentile p whose nearest-rank sample still has at
  // least `beyond` samples above it.
  for (int p = 99; p >= 1; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= beyond) {
      out.percentile = p;
      out.value = values[rank - 1];
      out.samples_beyond = n - rank;
      return out;
    }
  }
  return out;
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0;
  std::size_t n = 0;
  for (double v : values) {
    if (v > 0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Report::fail(const std::string& reason) {
  if (failures.size() < 8) failures.push_back(reason);
}

void Report::op(const std::string& reason) {
  ++attempted;
  if (!reason.empty()) {
    ++failed;
    fail(reason);
  }
}

bool another_pass_fits(double elapsed, double last_pass, double budget) {
  return elapsed + last_pass <= budget;
}

}  // namespace perfbench
