// Registry determinism across engine worker counts: counters are
// commutative sums and the compile cache dedups by signature, so a grid
// run under 1 worker and under N workers must produce identical counter
// values (timing histograms and utilization metrics are exempt — they
// measure the schedule, not the work).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>

#include "core/engine.hpp"
#include "ir/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace flo::core {
namespace {

/// Engine options with `workers` threads and every other field at its
/// default (brace-initializing only the first member trips
/// -Wmissing-field-initializers).
EngineOptions with_workers(std::size_t workers) {
  EngineOptions options;
  options.workers = workers;
  return options;
}

ir::Program tiny_program(std::int64_t n = 32) {
  return ir::ProgramBuilder("tiny")
      .array("A", {n, n})
      .nest("scan", {{0, n - 1}, {0, n - 1}}, 0, /*repeat=*/2)
      .read("A", {{1, 0}, {0, 1}})
      .write("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

/// Counter values by name, excluding the scheduling-dependent ones.
std::map<std::string, double> deterministic_counters() {
  std::map<std::string, double> out;
  for (const auto& sample : obs::registry().snapshot()) {
    if (sample.kind != obs::MetricKind::kCounter) continue;
    if (sample.name == "engine.worker_busy_us") continue;
    out[sample.name] = sample.value;
  }
  return out;
}

std::map<std::string, double> run_grid_with_workers(std::size_t workers) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentConfig inter = base;
  inter.scheme = Scheme::kInterNode;

  obs::registry().reset();
  obs::recorder().clear();
  ExperimentEngine engine(with_workers(workers));
  // Duplicate configs exercise the compile cache; distinct ones exercise
  // the per-cell counters.
  engine.run({{"base", &p, base},
              {"inter", &p, inter},
              {"base2", &p, base},
              {"inter2", &p, inter}});
  return deterministic_counters();
}

TEST(ObsDeterminismTest, CountersIdenticalAcrossWorkerCounts) {
  obs::set_enabled(true);
  const auto serial = run_grid_with_workers(1);
  const auto parallel4 = run_grid_with_workers(4);
  obs::set_enabled(false);
  obs::registry().reset();
  obs::recorder().clear();

  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel4);
  // The headline counters exist and carry the expected exact values.
  ASSERT_TRUE(serial.count("engine.cells_total"));
  EXPECT_EQ(serial.at("engine.cells_total"), 4.0);
  ASSERT_TRUE(serial.count("engine.compile_cache_misses"));
  EXPECT_EQ(serial.at("engine.compile_cache_misses"), 2.0);
  ASSERT_TRUE(serial.count("engine.compile_cache_hits"));
  EXPECT_EQ(serial.at("engine.compile_cache_hits"), 2.0);
  ASSERT_TRUE(serial.count("sim.runs"));
  EXPECT_EQ(serial.at("sim.runs"), 4.0);
}

TEST(ObsDeterminismTest, SimulatorSpansIdenticalAcrossWorkerCounts) {
  const auto collect = [](std::size_t workers) {
    const auto p = tiny_program();
    ExperimentConfig base;
    ExperimentConfig inter = base;
    inter.scheme = Scheme::kInterNode;
    obs::registry().reset();
    obs::recorder().clear();
    ExperimentEngine engine(with_workers(workers));
    engine.run({{"base", &p, base}, {"inter", &p, inter}});
    // Virtual-time spans carry deterministic timestamps; the lane id
    // depends on thread scheduling, so compare (start, duration, args)
    // multisets only.
    std::multiset<std::tuple<double, double, std::string>> out;
    for (const auto& span : obs::recorder().snapshot()) {
      if (!span.virtual_time) continue;
      std::string args;
      for (const auto& [k, v] : span.args) args += k + "=" + v + ";";
      out.insert({span.start_us, span.duration_us, args});
    }
    return out;
  };

  obs::set_enabled(true);
  const auto serial = collect(1);
  const auto parallel4 = collect(4);
  obs::set_enabled(false);
  obs::registry().reset();
  obs::recorder().clear();

  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel4);
}

TEST(ObsDeterminismTest, DisabledRunTouchesNoMetrics) {
  const auto p = tiny_program();
  ExperimentConfig base;
  obs::registry().reset();
  obs::recorder().clear();
  ASSERT_FALSE(obs::enabled());
  ExperimentEngine engine(with_workers(2));
  engine.run({{"base", &p, base}});
  for (const auto& sample : obs::registry().snapshot()) {
    EXPECT_EQ(sample.value, 0.0) << sample.name;
    EXPECT_EQ(sample.count, 0u) << sample.name;
  }
  EXPECT_TRUE(obs::recorder().snapshot().empty());
}

}  // namespace
}  // namespace flo::core
