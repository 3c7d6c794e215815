// layout_grid and baseline_schemes: grids of experiment cells run by
// core::ExperimentEngine on kWorkers workers. One op is one cell.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "core/engine.hpp"
#include "layers.hpp"
#include "workloads.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

namespace core = flo::core;
namespace storage = flo::storage;

namespace {

const char* short_scheme(core::Scheme scheme) {
  switch (scheme) {
    case core::Scheme::kDefault: return "default";
    case core::Scheme::kInterNode: return "inter-node";
    case core::Scheme::kComputationMapping: return "computation-mapping";
    case core::Scheme::kDimensionReindexing: return "dimension-reindexing";
    default: return "other";
  }
}

struct GridSpec {
  std::vector<std::string> apps;  ///< empty = the whole Table 2 suite
  std::vector<core::Scheme> schemes;
};

/// What one pass leaves behind for the checks and the traced metrics.
struct PassState {
  std::vector<double> cell_s;
  /// Traced passes keep each cell's compile for the trace-walk phase.
  std::vector<std::shared_ptr<const core::CompiledExperiment>> compiled;
  std::uint64_t pass_span = 0;
  std::uint64_t op_base = 0;
};

/// Everything set-up builds: the programs, the job list and two engines
/// (untraced and traced) whose runners time each cell.
struct Grid {
  std::vector<flo::workloads::Workload> suite;
  std::vector<core::ExperimentJob> jobs;
  std::unordered_map<std::string, std::size_t> index;
  PassState state;
  Tracer* tracer = nullptr;
  LayerCounts counts;
  std::unique_ptr<core::ExperimentEngine> engine;
  std::unique_ptr<core::ExperimentEngine> traced_engine;
};

std::unique_ptr<Grid> set_up(const GridSpec& spec, Tracer& tracer) {
  auto grid = std::make_unique<Grid>();
  grid->tracer = &tracer;
  // Cells in the spec's app order, schemes innermost. The suite is built
  // once: workload_by_name would rebuild all 16 apps for every name.
  std::vector<flo::workloads::Workload> all = flo::workloads::workload_suite();
  for (const std::string& name : spec.apps.empty()
                                     ? flo::workloads::workload_names()
                                     : spec.apps) {
    for (flo::workloads::Workload& app : all) {
      if (app.name == name) grid->suite.push_back(std::move(app));
    }
  }
  for (const flo::workloads::Workload& app : grid->suite) {
    for (core::Scheme scheme : spec.schemes) {
      core::ExperimentJob job;
      job.label = app.name + "/" + short_scheme(scheme);
      job.program = &app.program;
      job.config.scheme = scheme;
      job.config.sim_core = storage::SimCoreKind::kClock;
      job.config.solver = core::SolverKind::kUnimodular;
      grid->index.emplace(job.label, grid->jobs.size());
      grid->jobs.push_back(std::move(job));
    }
  }

  Grid* g = grid.get();
  core::EngineOptions options;
  options.workers = kWorkers;
  options.share_compilations = false;  // every cell compiles distinct work
  options.runner = [g](const core::ExperimentJob& job) {
    const Clock::time_point start = Clock::now();
    const core::CompiledExperiment compiled =
        core::compile_experiment(*job.program, job.config);
    core::ExperimentResult result;
    result.sim = core::simulate_experiment(*job.program, compiled, job.config);
    result.plan = compiled.plan;
    result.profiler_runs = compiled.profiler_runs;
    g->state.cell_s[g->index.at(job.label)] = since(start);
    return result;
  };
  grid->engine = std::make_unique<core::ExperimentEngine>(options);

  options.runner = [g](const core::ExperimentJob& job) {
    const std::size_t i = g->index.at(job.label);
    const Clock::time_point start = Clock::now();
    const ScopedSpan cell(*g->tracer, "core.engine.cell", g->state.pass_span,
                          g->state.op_base + i + 1);
    auto compiled = std::make_shared<const core::CompiledExperiment>(
        traced_compile(*job.program, job.config, *g->tracer, g->counts));
    core::ExperimentResult result;
    result.sim =
        traced_simulate(*job.program, *compiled, job.config, *g->tracer);
    result.plan = compiled->plan;
    result.profiler_runs = compiled->profiler_runs;
    g->state.compiled[i] = std::move(compiled);
    g->state.cell_s[i] = since(start);
    return result;
  };
  grid->traced_engine = std::make_unique<core::ExperimentEngine>(options);
  return grid;
}

/// Simulated outcomes of one pass's results (exact for this grid).
void add_sim_metrics(Report& report, const Grid& grid,
                     const std::vector<core::JobResult>& results) {
  std::vector<const storage::SimulationResult*> sims;
  std::unordered_map<std::string, double> default_exec;
  std::vector<double> achieved_ratios;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const storage::SimulationResult& sim = results[i].result.sim;
    sims.push_back(&sim);
    if (sim.bound_bytes() != 0) achieved_ratios.push_back(sim.achieved_ratio());
    if (grid.jobs[i].config.scheme == core::Scheme::kDefault) {
      default_exec[grid.jobs[i].program->name()] = sim.exec_time;
    }
  }
  std::vector<double> norm_exec;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (grid.jobs[i].config.scheme == core::Scheme::kDefault) continue;
    const double base = default_exec.at(grid.jobs[i].program->name());
    if (base > 0) norm_exec.push_back(results[i].result.sim.exec_time / base);
  }
  add_sim_totals(report.sim, sims);
  report.sim["sim_norm_exec_geomean"] = {geomean(norm_exec), "ratio"};
  report.sim["sim_achieved_ratio_geomean"] = {geomean(achieved_ratios),
                                              "ratio"};
}

Report run_grid(const Options& options, const GridSpec& spec) {
  Report report;
  Tracer tracer(options.trace);
  SetUpTimer setup(report, [&] { return set_up(spec, tracer); });
  const std::unique_ptr<Grid> grid = std::move(setup.product());
  const std::size_t cells = grid->jobs.size();

  if (options.record) {
    grid->state.cell_s.assign(cells, 0);
    const std::vector<core::JobResult> results =
        grid->engine->run_guarded(grid->jobs);
    ExpectedTable table;
    for (std::size_t i = 0; i < cells; ++i) {
      if (results[i].failed) {
        report.fail(grid->jobs[i].label + ": " + results[i].reason);
        continue;
      }
      const std::string reason = check_bound(results[i].result.sim);
      if (!reason.empty()) report.fail(grid->jobs[i].label + ": " + reason);
      table.add(grid->jobs[i].label,
                digest(storage::to_wire(results[i].result.sim)));
    }
    if (report.failures.empty()) table.save(expected_path(options));
    report.facts.push_back("recorded " + std::to_string(table.size()) +
                           " digests, workload digest " +
                           table.workload_digest());
    return report;
  }

  const ExpectedTable expected = ExpectedTable::load(expected_path(options));
  std::vector<double> critical;  // per traced pass: slowest cell
  std::string critical_label;
  double critical_s = 0;
  std::size_t critical_candidates = 0;
  std::vector<std::shared_ptr<const core::CompiledExperiment>> walk_cells;
  const Clock::time_point run_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    PassState& state = grid->state;
    state.cell_s.assign(cells, 0);
    state.compiled.assign(cells, nullptr);
    state.op_base = pass * 1000;
    std::vector<core::JobResult> results;
    const Clock::time_point start = Clock::now();
    if (traced) {
      const ScopedSpan span(tracer, "core.engine.run", 0, 0);
      state.pass_span = span.id();
      results = grid->traced_engine->run_guarded(grid->jobs);
    } else {
      results = grid->engine->run_guarded(grid->jobs);
    }
    const double pass_s = since(start);
    (traced ? report.traced_pass_s : report.pass_s).push_back(pass_s);

    for (std::size_t i = 0; i < cells; ++i) {
      const std::string& label = grid->jobs[i].label;
      std::string reason;
      if (results[i].failed) {
        reason = "engine: " + results[i].reason;
      } else {
        const storage::SimulationResult& sim = results[i].result.sim;
        reason = join_reasons(
            {expected.check(label, digest(storage::to_wire(sim))),
             check_bound(sim)});
      }
      report.op(reason.empty() ? "" : label + ": " + reason);
      if (!traced) report.op_s.push_back(state.cell_s[i]);
      if (!traced && state.cell_s[i] > critical_s) {
        critical_s = state.cell_s[i];
        critical_label = label;
        critical_candidates = results[i].result.profiler_runs;
      }
    }
    if (traced) {
      critical.push_back(
          *std::max_element(state.cell_s.begin(), state.cell_s.end()));
      walk_cells = state.compiled;
    }
    if (report.sim.empty() && !traced) {
      add_sim_metrics(report, *grid, results);
    }
    setup.window();
    const bool have_both = !options.trace || !report.traced_pass_s.empty();
    if (have_both &&
        !another_pass_fits(since(run_start), pass_s, options.seconds)) {
      break;
    }
  }
  setup.finish();
  report.sim["sim_accesses_per_s"] = {
      report.sim["storage.accesses"].value / median(report.pass_s), "1/s"};
  report.facts.push_back("critical cell " + critical_label + " " +
                         std::to_string(critical_s) + " s with " +
                         std::to_string(critical_candidates) +
                         " candidate simulations");

  if (!options.trace) return report;
  if (std::find(walk_cells.begin(), walk_cells.end(), nullptr) !=
      walk_cells.end()) {
    report.fail("a traced cell failed; per-layer metrics are not computed");
    return report;
  }

  // Trace-walk phase: drain every cell's cursors once, on the same number
  // of threads as the engine, to split simulator time from trace time.
  std::vector<WalkStats> walks(cells);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < cells; i = next++) {
        walks[i] = walk_cell(*grid->jobs[i].program, *walk_cells[i],
                             grid->jobs[i].config);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  WalkStats total;
  for (const WalkStats& w : walks) total += w;
  const double accesses = report.sim["storage.accesses"].value;
  if (static_cast<double>(total.blocks) != accesses) {
    report.fail("trace walk yields " + std::to_string(total.blocks) +
                " block requests, the simulator counted " +
                std::to_string(accesses));
    ++report.failed;
  }

  const auto spans = tracer.spans();
  const auto times = layer_times(spans);
  const double n = static_cast<double>(report.traced_pass_s.size());
  add_span_table(report, times, n);
  const auto per_pass = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? 0.0 : it->second.total_s / n;
  };
  Metrics& m = report.layers;
  m["trace.walk_s"] = {total.seconds, "s"};
  m["trace.events"] = {static_cast<double>(total.events), "count"};
  m["trace.blocks"] = {static_cast<double>(total.blocks), "count"};
  m["trace.events_per_s"] = {
      total.seconds > 0 ? static_cast<double>(total.events) / total.seconds
                        : 0.0,
      "1/s"};
  const double clock_self = per_pass("storage.clock.run") - total.seconds;
  m["storage.clock.self_s"] = {clock_self, "s"};
  m["storage.clock.ns_per_access"] = {
      accesses > 0 ? clock_self * 1e9 / accesses : 0.0, "ns"};
  const double runs =
      static_cast<double>(grid->counts.profiler_runs.load()) / n;
  m["baselines.reindex_s"] = {per_pass("baselines.reindex"), "s"};
  m["baselines.reindex_profiler_runs"] = {runs, "count"};
  m["baselines.reindex_s_per_run"] = {
      runs > 0 ? per_pass("baselines.reindex") / runs : 0.0, "s"};
  m["baselines.compmap_s"] = {per_pass("baselines.compmap"), "s"};
  const double work = per_pass("core.engine.cell");
  m["core.engine.work_s"] = {work, "s"};
  m["core.engine.critical_cell_s"] = {median(critical), "s"};
  m["core.engine.utilization"] = {
      work / (static_cast<double>(kWorkers) * median(report.traced_pass_s)),
      "ratio"};
  m["core.compile_s"] = {per_pass("core.compile"), "s"};
  m["core.simulate_s"] = {per_pass("core.simulate"), "s"};
  m["core.io_bound_s"] = {per_pass("core.io_bound"), "s"};
  m["parallel.schedule_s"] = {per_pass("parallel.schedule"), "s"};
  m["core.optimize_s"] = {per_pass("core.optimize"), "s"};
  m["core.optimize_calls"] = {
      static_cast<double>(grid->counts.optimize_calls.load()) / n, "count"};
  m["layout.arrays_partitioned"] = {
      static_cast<double>(grid->counts.arrays_partitioned.load()) / n,
      "count"};
  add_overhead(report);
  tracer.write_chrome_trace(options.out_dir + "/" + options.workload +
                            ".trace.json");
  return report;
}

}  // namespace

Report run_layout_grid(const Options& options) {
  return run_grid(options, {{}, {core::Scheme::kDefault,
                                 core::Scheme::kInterNode}});
}

Report run_baseline_schemes(const Options& options) {
  // swim is left out only for run length: its reindexing compile alone
  // runs 6 candidate simulations of about 15 s each, against 0.5 s for its
  // default cell, so one swim cell would take several runs' time budget.
  return run_grid(options,
                  {{"twer", "cc-ver-1", "astro", "wupwise", "bt", "applu",
                    "sp", "hf"},
                   {core::Scheme::kDefault, core::Scheme::kComputationMapping,
                    core::Scheme::kDimensionReindexing}});
}

}  // namespace perfbench
