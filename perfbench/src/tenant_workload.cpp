// shared_tenants: core::run_multi_tenant over contour, astro and
// rmw_update on the event core, with write-back modelled, equal static
// cache shares and the priority-EDF disk scheduler. One op (and one pass)
// is one multi-tenant run: three solo simulations plus the shared one, on
// one thread.
#include <cstdio>
#include <memory>

#include "checks.hpp"
#include "core/tenant.hpp"
#include "layers.hpp"
#include "storage/simulator.hpp"
#include "trace/source.hpp"
#include "workloads.hpp"
#include "workloads/analytics.hpp"
#include "workloads/suite.hpp"

namespace perfbench {

namespace core = flo::core;
namespace storage = flo::storage;

namespace {

/// The seed picks one of this many interleave schedules, each with its own
/// committed digest.
constexpr std::uint64_t kInterleaves = 8;

std::string interleave_key(std::uint64_t variant) {
  return "interleave-" + std::to_string(variant);
}

struct Tenants {
  std::vector<flo::workloads::Workload> apps;
  std::vector<core::TenantJob> jobs;
};

std::unique_ptr<Tenants> set_up() {
  auto t = std::make_unique<Tenants>();
  t->apps.push_back(flo::workloads::make_contour());
  t->apps.push_back(flo::workloads::make_astro());
  t->apps.push_back(flo::workloads::make_rmw_update(/*n=*/1024, /*repeat=*/2));
  storage::QosConfig qos;
  qos.enabled = true;
  qos.shares = {1, 1, 1};
  qos.priorities = {3, 2, 1};
  qos.scheduler = storage::SchedPolicyKind::kPriority;
  for (const flo::workloads::Workload& app : t->apps) {
    core::TenantJob job;
    job.label = app.name;
    job.program = &app.program;
    job.config.sim_core = storage::SimCoreKind::kEvent;
    job.config.solver = core::SolverKind::kUnimodular;
    job.config.topology.model_writes = true;
    job.config.topology.qos = qos;
    t->jobs.push_back(job);
  }
  return t;
}

std::string hexfloat(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

std::string result_digest(const core::MultiTenantResult& r) {
  std::string bytes = storage::to_wire(r.shared) + '\n';
  for (const core::TenantOutcome& t : r.tenants) {
    bytes += t.label + ' ' + storage::to_wire(t.solo) + ' ' +
             hexfloat(t.slowdown) + '\n';
  }
  bytes += hexfloat(r.fairness) + ' ' + hexfloat(r.max_slowdown) + ' ' +
           hexfloat(r.p99_slowdown) + '\n';
  return digest(bytes);
}

/// One streaming source per tenant and their interleaving, built as
/// run_multi_tenant builds them. The interleaved source points into the
/// tenant sources, so the struct is neither copied nor moved.
struct TenantSources {
  TenantSources(const std::vector<core::TenantJob>& jobs,
                const std::vector<core::CompiledExperiment>& compiled,
                const storage::StorageTopology& topology,
                const core::MultiTenantOptions& options) {
    std::vector<const storage::TraceSource*> tenants;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      solo.push_back(std::make_unique<flo::trace::StreamingTraceSource>(
          *jobs[k].program, compiled[k].schedule, compiled[k].layouts,
          topology, trace_options()));
      tenants.push_back(solo.back().get());
    }
    shared = std::make_unique<flo::trace::InterleavedTraceSource>(
        tenants, options.policy, options.seed);
  }
  TenantSources(const TenantSources&) = delete;
  TenantSources& operator=(const TenantSources&) = delete;

  std::vector<std::unique_ptr<flo::trace::StreamingTraceSource>> solo;
  std::unique_ptr<flo::trace::InterleavedTraceSource> shared;
};

/// run_multi_tenant rebuilt from public calls, one span per layer. Keeps
/// each tenant's compile in `compiled` for the trace-walk phase.
core::MultiTenantResult traced_multi_tenant(
    const std::vector<core::TenantJob>& jobs,
    const core::MultiTenantOptions& options, Tracer& tracer,
    LayerCounts& counts, std::vector<core::CompiledExperiment>& compiled) {
  const core::ExperimentConfig& base = jobs[0].config;
  const storage::StorageTopology topology(base.topology);
  core::MultiTenantResult out;
  compiled.clear();
  for (const core::TenantJob& job : jobs) {
    compiled.push_back(traced_compile(*job.program, job.config, tracer, counts));
    core::TenantOutcome outcome;
    outcome.label = job.label;
    {
      const ScopedSpan span(tracer, "core.tenant.solo");
      outcome.solo =
          traced_simulate(*job.program, compiled.back(), job.config, tracer);
    }
    out.tenants.push_back(std::move(outcome));
  }
  {
    const ScopedSpan span(tracer, "core.tenant.shared");
    const TenantSources sources(jobs, compiled, topology, options);
    const flo::trace::InterleavedTraceSource& interleaved = *sources.shared;
    std::vector<storage::NodeId> io_of_slot(interleaved.thread_count());
    for (std::uint32_t s = 0; s < interleaved.thread_count(); ++s) {
      const std::uint32_t k = interleaved.tenant_of_slot(s);
      const std::uint32_t j = interleaved.origin_thread_of_slot(s);
      io_of_slot[s] =
          topology.io_node_of(compiled[k].schedule.mapping().node_of(j));
    }
    storage::HierarchySimulator simulator(topology, base.policy,
                                          std::move(io_of_slot));
    simulator.set_core(base.sim_core);
    simulator.set_tenants(interleaved.tenant_map(),
                          static_cast<std::uint32_t>(jobs.size()));
    const ScopedSpan run(tracer, "storage.event.run");
    out.shared = simulator.run(interleaved);
  }
  std::vector<double> slowdowns;
  double sum = 0;
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    core::TenantOutcome& t = out.tenants[k];
    for (double busy : t.solo.thread_time) t.solo_busy += busy;
    t.shared_busy = out.shared.tenants[k].busy_time;
    t.shared = out.shared.tenants[k];
    t.slowdown = core::tenant_slowdown(t.shared_busy, t.solo_busy);
    slowdowns.push_back(t.slowdown);
    sum += t.slowdown;
  }
  out.mean_slowdown = sum / static_cast<double>(slowdowns.size());
  out.fairness = core::jain_fairness(slowdowns);
  out.max_slowdown = core::slowdown_percentile(slowdowns, 100.0);
  out.p99_slowdown = core::slowdown_percentile(slowdowns, 99.0);
  return out;
}

/// Trace cost of the solo sources and the interleaved one.
WalkStats walk_tenants(const std::vector<core::TenantJob>& jobs,
                       const std::vector<core::CompiledExperiment>& compiled,
                       const core::MultiTenantOptions& options) {
  const storage::StorageTopology topology(jobs[0].config.topology);
  const TenantSources sources(jobs, compiled, topology, options);
  WalkStats total;
  for (const auto& solo : sources.solo) total += walk(*solo);
  total += walk(*sources.shared);
  return total;
}

std::string check_op(const core::MultiTenantResult& r,
                     const ExpectedTable& expected, const std::string& key) {
  std::vector<std::string> reasons{expected.check(key, result_digest(r)),
                                   check_tenant_slices(r.shared)};
  for (const core::TenantOutcome& t : r.tenants) {
    const std::string bound = check_bound(t.solo);
    if (!bound.empty()) reasons.push_back(t.label + " solo: " + bound);
  }
  return join_reasons(reasons);
}

core::MultiTenantOptions interleave(std::uint64_t variant) {
  core::MultiTenantOptions options;
  options.policy = flo::trace::InterleavePolicy::kSeededRandom;
  options.seed = 1000 + variant;
  return options;
}

}  // namespace

Report run_shared_tenants(const Options& options) {
  Report report;
  Tracer tracer(options.trace);
  SetUpTimer setup(report, [] { return set_up(); });
  const std::unique_ptr<Tenants> tenants = std::move(setup.product());

  if (options.record) {
    ExpectedTable table;
    for (std::uint64_t v = 0; v < kInterleaves; ++v) {
      const core::MultiTenantResult r =
          core::run_multi_tenant(tenants->jobs, interleave(v));
      const std::string reason = join_reasons({check_tenant_slices(r.shared)});
      if (!reason.empty()) report.fail(interleave_key(v) + ": " + reason);
      table.add(interleave_key(v), result_digest(r));
    }
    if (report.failures.empty()) table.save(expected_path(options));
    report.facts.push_back("recorded " + std::to_string(table.size()) +
                           " digests, workload digest " +
                           table.workload_digest());
    return report;
  }

  const ExpectedTable expected = ExpectedTable::load(expected_path(options));
  const std::uint64_t variant = options.seed % kInterleaves;
  const core::MultiTenantOptions mt = interleave(variant);
  const std::string key = interleave_key(variant);
  report.facts.push_back("seed " + std::to_string(options.seed) +
                         " selects interleave schedule " + key);
  LayerCounts counts;
  std::vector<core::CompiledExperiment> compiled;
  const Clock::time_point run_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    const Clock::time_point start = Clock::now();
    core::MultiTenantResult r;
    if (traced) {
      const ScopedSpan span(tracer, "core.tenant.run", 0, pass + 1);
      r = traced_multi_tenant(tenants->jobs, mt, tracer, counts, compiled);
    } else {
      r = core::run_multi_tenant(tenants->jobs, mt);
    }
    const double op_s = since(start);
    const std::string reason = check_op(r, expected, key);
    report.op(reason);
    if (traced) {
      report.traced_pass_s.push_back(op_s);
    } else {
      report.pass_s.push_back(op_s);
      report.op_s.push_back(op_s);
    }
    if (report.sim.empty()) {
      std::vector<const storage::SimulationResult*> sims{&r.shared};
      std::vector<double> ratios;
      for (const core::TenantOutcome& t : r.tenants) {
        sims.push_back(&t.solo);
        if (t.solo.bound_bytes() != 0) ratios.push_back(t.solo.achieved_ratio());
      }
      add_sim_totals(report.sim, sims);
      report.sim["sim_norm_exec_geomean"] = {0, "ratio"};  // no baseline
      report.sim["sim_achieved_ratio_geomean"] = {geomean(ratios), "ratio"};
      report.sim["tenant_jain_fairness"] = {r.fairness, "ratio"};
      report.sim["tenant_max_slowdown"] = {r.max_slowdown, "ratio"};
    }
    setup.window();
    const bool have_both = !options.trace || !report.traced_pass_s.empty();
    if (have_both &&
        !another_pass_fits(since(run_start), op_s, options.seconds)) {
      break;
    }
  }
  setup.finish();
  report.sim["sim_accesses_per_s"] = {
      report.sim["storage.accesses"].value / median(report.pass_s), "1/s"};
  if (!options.trace) return report;

  const WalkStats w = walk_tenants(tenants->jobs, compiled, mt);
  const double accesses = report.sim["storage.accesses"].value;
  if (static_cast<double>(w.blocks) != accesses) {
    report.fail("trace walk yields " + std::to_string(w.blocks) +
                " block requests, the simulator counted " +
                std::to_string(accesses));
    ++report.failed;
  }
  const auto times = layer_times(tracer.spans());
  const double n = static_cast<double>(report.traced_pass_s.size());
  add_span_table(report, times, n);
  const auto per_pass = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? 0.0 : it->second.total_s / n;
  };
  Metrics& m = report.layers;
  m["trace.walk_s"] = {w.seconds, "s"};
  m["trace.events"] = {static_cast<double>(w.events), "count"};
  m["trace.blocks"] = {static_cast<double>(w.blocks), "count"};
  m["trace.events_per_s"] = {
      w.seconds > 0 ? static_cast<double>(w.events) / w.seconds : 0.0, "1/s"};
  const double event_self = per_pass("storage.event.run") - w.seconds;
  m["storage.event.self_s"] = {event_self, "s"};
  m["storage.event.ns_per_access"] = {
      accesses > 0 ? event_self * 1e9 / accesses : 0.0, "ns"};
  m["core.tenant.solo_s"] = {per_pass("core.tenant.solo"), "s"};
  m["core.tenant.shared_s"] = {per_pass("core.tenant.shared"), "s"};
  m["core.compile_s"] = {per_pass("core.compile"), "s"};
  m["core.simulate_s"] = {per_pass("core.simulate"), "s"};
  m["core.io_bound_s"] = {per_pass("core.io_bound"), "s"};
  m["parallel.schedule_s"] = {per_pass("parallel.schedule"), "s"};
  add_overhead(report);
  tracer.write_chrome_trace(options.out_dir + "/" + options.workload +
                            ".trace.json");
  return report;
}

}  // namespace perfbench
