// Shared plumbing of flo_perfbench: wall clocks, the in-memory span
// recorder used by traced runs, metric tables, order statistics and the
// per-run report every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double since(Clock::time_point start);

// --- tracing ---------------------------------------------------------------

/// One recorded call into a layer: [start, end) in seconds from the
/// tracer's epoch, the span that caused it (0 = none) and the op it
/// belongs to (0 = set-up or bookkeeping outside any op).
struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::uint32_t tid = 0;
};

/// Thread-safe span sink. Disabled tracers record nothing and hand out
/// id 0, so the untraced run pays one branch per boundary.
class Tracer {
 public:
  explicit Tracer(bool on);

  bool on() const { return on_; }
  double now() const;
  std::uint64_t next_id();
  void record(Span span);
  std::vector<Span> spans() const;
  /// Writes the spans as Chrome-trace JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool on_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span. The parent defaults to the innermost open span of this
/// thread; cross-thread children (engine cells under a pass) pass theirs
/// explicitly. The op id is inherited the same way unless given.
class ScopedSpan {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  ScopedSpan(Tracer& tracer, const char* name,
             std::uint64_t parent = kInherit, std::uint64_t op = kInherit);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer& tracer_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
  std::uint64_t saved_op_ = 0;
};

/// Per span name: calls, summed duration, and summed self time (duration
/// minus the union of its children's intervals).
struct LayerTime {
  std::uint64_t calls = 0;
  double total_s = 0;
  double self_s = 0;
};
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

struct Report;
/// Adds one printed line per span name to the report's facts: calls,
/// total seconds and self seconds, each divided by `passes`.
void add_span_table(Report& report,
                    const std::map<std::string, LayerTime>& times,
                    double passes);

// --- metrics ---------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

double median(std::vector<double> values);
/// Highest percentile (in whole percent) that leaves at least `beyond`
/// samples above it; percentile 0 when there are too few samples.
struct Tail {
  int percentile = 0;
  double value = 0;
  std::size_t samples_beyond = 0;
};
Tail tail(std::vector<double> values, std::size_t beyond = 10);
/// Geometric mean of the positive values; 0 when there are none.
double geomean(const std::vector<double>& values);

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

// --- run description and result ---------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "perfbench/expected";
  std::string out_dir = ".bench_build/perfbench-out";
  /// Re-derive the expected digests instead of checking against them.
  bool record = false;
};

/// What one workload run measured. Times are host seconds; the `sim`
/// metrics are simulated outcomes that repeat exactly for a given input.
struct Report {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  std::vector<double> pass_s;   ///< measured (untraced) passes
  std::vector<double> traced_pass_s;
  std::vector<double> op_s;     ///< each op of the untraced passes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure reasons
  Metrics sim;     ///< simulated outcomes (exact)
  Metrics layers;  ///< per-layer host metrics (traced runs)
  std::vector<std::string> facts;  ///< printed context lines

  void fail(const std::string& reason);
  /// Counts one op, failed when `reason` is non-empty.
  void op(const std::string& reason);
};

/// Times the workload's set-up in short windows spread over the run:
/// one before the first pass (whose last product the run uses), one after
/// every pass, and more at the end, 250 ms apart, until there are
/// kSetUpWindows. A set-up takes microseconds, and on a shared host the
/// speed of so short a task changes over seconds by up to 2x, so one
/// window alone reads high or low, while the median over windows spread
/// across the run is steady.
inline constexpr int kSetUpWindows = 8;

template <typename Make>
class SetUpTimer {
 public:
  using Product = std::invoke_result_t<Make&>;

  SetUpTimer(Report& report, Make make) : report_(report), make_(make) {
    window(&product_);
  }

  /// What the first window's last repetition built; the run uses it.
  Product& product() { return product_; }

  /// Times set-up until 20 ms have passed or 51 repetitions ran (at least
  /// 3). Products are destroyed untimed, except a last one moved to `keep`.
  void window(Product* keep = nullptr) {
    const Clock::time_point first = Clock::now();
    for (int rep = 1;; ++rep) {
      const Clock::time_point start = Clock::now();
      Product made = make_();
      report_.setup_s.push_back(since(start));
      if (rep >= 3 && (since(first) >= 0.02 || rep >= 51)) {
        if (keep != nullptr) *keep = std::move(made);
        break;
      }
    }
    ++windows_;
  }

  void finish() {
    while (windows_ < kSetUpWindows) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      window();
    }
  }

 private:
  Report& report_;
  Make make_;
  Product product_{};
  int windows_ = 0;
};

/// Whether another pass of roughly `last_pass` seconds still fits in the
/// run's budget.
bool another_pass_fits(double elapsed, double last_pass, double budget);

}  // namespace perfbench
