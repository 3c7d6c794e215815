// flo_perfbench — runs one benchmark workload and prints its metrics.
//
//   flo_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--data-dir DIR] [--out-dir DIR] [--record]
//   flo_perfbench --self-test [--data-dir DIR]
//
// Human-readable lines come first; the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones. The exit
// code is non-zero when any output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "checks.hpp"
#include "core/experiment.hpp"
#include "harness.hpp"
#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

std::string expected_path(const Options& options) {
  return options.data_dir + "/" + options.workload + ".digests";
}

void add_overhead(Report& report) {
  const double untraced = median(report.pass_s);
  report.layers["tracing.overhead_pct"] = {
      untraced > 0 ? (median(report.traced_pass_s) / untraced - 1) * 100 : 0,
      "%"};
}

namespace {

/// Per-layer metrics every traced run prints, with their units. A
/// workload that does not exercise a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"trace.walk_s", "s"},
    {"trace.events", "count"},
    {"trace.blocks", "count"},
    {"trace.events_per_s", "1/s"},
    {"storage.clock.self_s", "s"},
    {"storage.clock.ns_per_access", "ns"},
    {"storage.event.self_s", "s"},
    {"storage.event.ns_per_access", "ns"},
    {"baselines.reindex_s", "s"},
    {"baselines.reindex_profiler_runs", "count"},
    {"baselines.reindex_s_per_run", "s"},
    {"baselines.compmap_s", "s"},
    {"core.engine.critical_cell_s", "s"},
    {"core.engine.work_s", "s"},
    {"core.engine.utilization", "ratio"},
    {"core.compile_s", "s"},
    {"core.simulate_s", "s"},
    {"core.io_bound_s", "s"},
    {"core.tenant.solo_s", "s"},
    {"core.tenant.shared_s", "s"},
    {"ir.parse_s", "s"},
    {"parallel.schedule_s", "s"},
    {"core.optimize_s", "s"},
    {"core.optimize_calls", "count"},
    {"layout.arrays_partitioned", "count"},
    {"core.compile_cache.hits", "count"},
    {"core.compile_cache.misses", "count"},
    {"core.compile_cache.hit_ratio", "ratio"},
    {"core.compile_cache.evictions", "count"},
    {"service.call_s", "s"},
    {"service.ok", "count"},
    {"service.shed", "count"},
    {"service.throttled", "count"},
    {"service.error", "count"},
    {"service.degraded", "count"},
    {"tracing.overhead_pct", "%"},
    {"sim_accesses_per_s", "1/s"},
    {"sim_norm_exec_geomean", "ratio"},
    {"sim_achieved_ratio_geomean", "ratio"},
    {"tenant_jain_fairness", "ratio"},
    {"tenant_max_slowdown", "ratio"},
    {"storage.accesses", "count"},
    {"storage.exec_s", "s"},
    {"storage.io.lookups", "count"},
    {"storage.io.hit_rate", "ratio"},
    {"storage.storage.lookups", "count"},
    {"storage.storage.hit_rate", "ratio"},
    {"storage.disk.reads", "count"},
    {"storage.disk.writes", "count"},
    {"storage.writebacks", "count"},
    {"storage.prefetches", "count"},
    {"storage.achieved_bytes", "bytes"},
    {"storage.bound_bytes", "bytes"},
    {"storage.queue.io.wait_s", "s"},
    {"storage.queue.storage.wait_s", "s"},
    {"storage.queue.disk.wait_s", "s"},
    {"storage.queue.disk.max_depth", "count"},
    {"storage.qos.occupancy_peak", "blocks"},
    {"storage.qos.io_evictions", "count"},
    {"storage.qos.storage_evictions", "count"},
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_metric(const std::string& name, const Metric& m) {
  std::cout << "metric " << name << " = " << number(m.value) << ' ' << m.unit
            << '\n';
}

Metrics end_to_end(const Report& r) {
  const double measured =
      std::accumulate(r.pass_s.begin(), r.pass_s.end(), 0.0);
  Metrics m;
  m["setup_s"] = {median(r.setup_s), "s"};
  m["pass_s"] = {median(r.pass_s), "s"};
  m["ops_per_s"] = {
      measured > 0 ? static_cast<double>(r.op_s.size()) / measured : 0, "1/s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
  return m;
}

int emit(const Options& options, Report& r) {
  for (const std::string& fact : r.facts) std::cout << "# " << fact << '\n';
  for (const std::string& f : r.failures) std::cout << "FAILED: " << f << '\n';
  if (options.record) return r.failures.empty() ? 0 : 1;

  const bool correct = r.failed == 0 && r.failures.empty();
  std::cout << "# passes: " << r.pass_s.size() << " untraced, "
            << r.traced_pass_s.size() << " traced; ops " << r.attempted
            << ", failed " << r.failed << '\n';
  const auto list = [](const char* name, const std::vector<double>& v) {
    std::cout << "# " << name << ':';
    for (double x : v) std::cout << ' ' << number(x);
    std::cout << '\n';
  };
  std::cout << "# setup_s: median of " << r.setup_s.size()
            << " repetitions, first " << number(r.setup_s.front()) << '\n';
  list("pass_s", r.pass_s);
  if (options.trace) list("traced pass_s", r.traced_pass_s);
  std::cout << "metric fail_ratio = "
            << number(r.attempted == 0 ? 1.0
                                       : static_cast<double>(r.failed) /
                                             static_cast<double>(r.attempted))
            << " ratio\n";
  // Op latencies are printed, not bounded: serve_compile's median op is a
  // cache hit whose ~0.2 ms round trip is three thread wake-ups, and it
  // switches between two levels with the host's scheduling state.
  std::cout << "metric op_s_p50 = " << number(median(r.op_s)) << " s (of "
            << r.op_s.size() << " ops)\n";
  const Tail t = tail(r.op_s);
  if (t.percentile > 0) {
    std::cout << "metric op_s_tail = " << number(t.value) << " s (p"
              << t.percentile << " of " << r.op_s.size() << " ops, "
              << t.samples_beyond << " beyond)\n";
  } else {
    std::cout << "# op_s_tail omitted: " << r.op_s.size()
              << " ops, at least 11 needed\n";
  }

  Metrics json;
  if (!options.trace) {
    json = end_to_end(r);
    for (const auto& [name, m] : r.sim) print_metric(name, m);
  } else {
    Metrics layers = r.layers;
    for (const auto& [name, m] : r.sim) layers[name] = m;
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = layers.find(name);
      json[name] = it == layers.end() ? Metric{0, unit} : it->second;
      if (json[name].unit != unit) {
        throw std::logic_error(std::string("unit mismatch for ") + name);
      }
      layers.erase(name);
    }
    if (!layers.empty()) {
      throw std::logic_error("unlisted layer metric " + layers.begin()->first);
    }
    std::cout << "# chrome trace: " << options.out_dir << '/'
              << options.workload << ".trace.json\n";
  }
  for (const auto& [name, m] : json) print_metric(name, m);

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted
            << ", \"failed\": " << r.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : json) {
    std::cout << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "flo_perfbench: " << why
            << "\nusage: flo_perfbench --workload "
               "<layout_grid|baseline_schemes|shared_tenants|serve_compile> "
               "--seed N --seconds S --trace 0|1 [--data-dir DIR] "
               "[--out-dir DIR] [--record]\n"
               "       flo_perfbench --self-test [--data-dir DIR]\n";
  std::exit(2);
}

}  // namespace

int self_test(const Options& base) {
  // A real cell whose digest is committed in the layout_grid table.
  Options options = base;
  options.workload = "layout_grid";
  const ExpectedTable table = ExpectedTable::load(expected_path(options));
  const flo::workloads::Workload app = flo::workloads::make_cc_ver_1();
  flo::core::ExperimentConfig config;
  config.sim_core = flo::storage::SimCoreKind::kClock;
  config.solver = flo::core::SolverKind::kUnimodular;
  const flo::storage::SimulationResult good =
      flo::core::run_experiment(app.program, config).sim;
  const auto cell_check = [&](const flo::storage::SimulationResult& r) {
    return join_reasons({table.check("cc-ver-1/default",
                                     digest(flo::storage::to_wire(r))),
                         check_bound(r)});
  };

  // Two tenant slices that split the result's counters exactly.
  flo::storage::SimulationResult shared = good;
  flo::storage::TenantStats a, b;
  a.accesses = good.accesses / 2;
  b.accesses = good.accesses - a.accesses;
  a.elements = good.elements;
  a.io_lookups = good.io.lookups;
  a.io_hits = good.io.hits;
  a.storage_lookups = good.storage.lookups;
  b.storage_hits = good.storage.hits;
  b.disk_reads = good.disk_reads;
  shared.tenants = {a, b};

  struct Case {
    const char* name;
    std::function<std::string()> check;
    bool expect_failure;
  };
  std::vector<Case> cases = {
      {"unmodified cell passes", [&] { return cell_check(good); }, false},
      {"one extra io hit is caught",
       [&] {
         auto r = good;
         r.io.hits += 1;
         return cell_check(r);
       },
       true},
      {"a shifted exec time is caught",
       [&] {
         auto r = good;
         r.exec_time = std::nextafter(r.exec_time, 1e300);
         return cell_check(r);
       },
       true},
      {"bytes below the lower bound are caught",
       [&] {
         auto r = good;
         r.io_bound_bytes = r.io.bytes_filled + 1;
         return check_bound(r);
       },
       true},
      {"conserving tenant slices pass",
       [&] { return check_tenant_slices(shared); }, false},
      {"a leaked tenant access is caught",
       [&] {
         auto r = shared;
         r.tenants[1].accesses += 1;
         return check_tenant_slices(r);
       },
       true},
  };
  int exit_code = 0;
  for (const Case& c : cases) {
    const std::string reason = c.check();
    const bool ok = reason.empty() != c.expect_failure;
    std::cout << (ok ? "ok   " : "FAIL ") << c.name
              << (reason.empty() ? "" : " (" + reason + ")") << '\n';
    if (!ok) exit_code = 1;
  }
  options.workload = "serve_compile";
  if (serve_self_test(options) != 0) exit_code = 1;
  return exit_code;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Options;
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) perfbench::usage("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") perfbench::usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--data-dir") {
        options.data_dir = value();
      } else if (arg == "--out-dir") {
        options.out_dir = value();
      } else if (arg == "--record") {
        options.record = true;
      } else if (arg == "--self-test") {
        self_test = true;
      } else {
        perfbench::usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      perfbench::usage("bad value for " + arg);
    }
  }
  try {
    if (self_test) return perfbench::self_test(options);
    if (!have_seed || !have_seconds || !have_trace || options.seconds <= 0) {
      perfbench::usage("--seed, --seconds (> 0) and --trace are required");
    }
    std::filesystem::create_directories(options.out_dir);
    perfbench::Report report;
    if (options.workload == "layout_grid") {
      report = perfbench::run_layout_grid(options);
    } else if (options.workload == "baseline_schemes") {
      report = perfbench::run_baseline_schemes(options);
    } else if (options.workload == "shared_tenants") {
      report = perfbench::run_shared_tenants(options);
    } else if (options.workload == "serve_compile") {
      report = perfbench::run_serve_compile(options);
    } else {
      perfbench::usage("unknown workload '" + options.workload + "'");
    }
    return perfbench::emit(options, report);
  } catch (const std::exception& e) {
    std::cerr << "flo_perfbench: " << e.what() << '\n';
    return 1;
  }
}
