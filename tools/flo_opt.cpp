// flo_opt — the standalone layout-optimizer driver.
//
//   flo_opt <program.flo> [--check] [--threads N] [--mask both|io|storage]
//           [--simulate] [--pseudocode] [--faults SPEC] [--qos SPEC]
//           [--sched look|fcfs|priority] [--metrics off|text|json|chrome]
//
// `--check` parses and validates only (no optimization, no output beyond
// diagnostics) — the corpus tests and fuzzer repros use it as a fast
// accept/reject probe.
//
// Reads a program in the text format of src/ir/parser.hpp, runs the
// inter-node file layout optimizer against the (scaled) Table 1 topology,
// prints the per-array transform plans, and optionally simulates the
// default vs optimized executions. `--faults` (or the FLO_FAULTS
// environment variable) injects storage faults into the simulation — see
// src/storage/fault_model.hpp for the spec syntax. `--qos` / `--sched`
// (or FLO_QOS / FLO_SCHED) apply a tenant QoS configuration — cache
// partitioning shares and the disk scheduling policy, src/storage/qos.hpp
// syntax; a malformed spec is a configuration error (exit 2), never a
// silent fallback. `--metrics` (or
// FLO_METRICS) dumps compile/simulation counters and spans to
// flo_opt.metrics.* / flo_opt.trace.json next to the working directory;
// stdout is unaffected.
//
// Malformed programs produce a compiler-style `file:line: message`
// diagnostic and exit code 2; other failures exit 1.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "core/report.hpp"
#include "ir/parser.hpp"
#include "ir/printer.hpp"
#include "obs/sink.hpp"
#include "storage/fault_model.hpp"
#include "storage/qos.hpp"
#include "util/format.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <program.flo> [--check] [--threads N]"
               " [--mask both|io|storage]"
               " [--simulate] [--pseudocode] [--faults SPEC]"
               " [--qos SPEC] [--sched look|fcfs|priority]"
               " [--metrics off|text|json|chrome]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flo;
  if (argc < 2) return usage(argv[0]);

  std::string path;
  std::size_t threads = 64;
  layout::LayerMask mask = layout::LayerMask::kBoth;
  bool simulate = false;
  bool pseudocode = false;
  bool check_only = false;
  std::string fault_spec;
  std::string qos_spec;
  std::string sched_name;
  obs::SinkMode metrics = obs::sink_mode_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--faults" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (arg == "--qos" && i + 1 < argc) {
      qos_spec = argv[++i];
    } else if (arg == "--sched" && i + 1 < argc) {
      sched_name = argv[++i];
      if (!storage::parse_sched_policy(sched_name)) return usage(argv[0]);
    } else if (arg == "--metrics" && i + 1 < argc) {
      const std::string mode = argv[++i];
      metrics = obs::parse_sink_mode(mode);
      if (metrics == obs::SinkMode::kOff && mode != "off") {
        return usage(argv[0]);
      }
    } else if (arg == "--mask" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "both") {
        mask = layout::LayerMask::kBoth;
      } else if (m == "io") {
        mask = layout::LayerMask::kIoOnly;
      } else if (m == "storage") {
        mask = layout::LayerMask::kStorageOnly;
      } else {
        return usage(argv[0]);
      }
    } else if (arg == "--check") {
      check_only = true;
    } else if (arg == "--simulate") {
      simulate = true;
    } else if (arg == "--pseudocode") {
      pseudocode = true;
    } else if (path.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  // QoS is configuration, not input: a malformed spec (flag or FLO_QOS /
  // FLO_SCHED) is diagnosed up front and exits 2 like a parse error, so a
  // typo never silently simulates without the partitioning asked for.
  storage::QosConfig qos;
  try {
    qos = qos_spec.empty() ? storage::qos_config_from_env()
                           : storage::parse_qos_spec(qos_spec);
  } catch (const std::exception& err) {
    std::cerr << "flo_opt.cpp: " << (qos_spec.empty() ? "FLO_QOS" : "--qos")
              << ": " << err.what() << '\n';
    return 2;
  }
  if (!sched_name.empty()) {
    qos.scheduler = *storage::parse_sched_policy(sched_name);
    qos.enabled = true;
  }

  if (metrics != obs::SinkMode::kOff) obs::set_enabled(true);

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();

  try {
    const ir::Program program = ir::parse_program(buffer.str());
    if (pseudocode) std::cout << ir::to_pseudocode(program) << '\n';
    if (check_only) {
      std::cout << path << ": ok (" << program.arrays().size() << " arrays, "
                << program.nests().size() << " nests)\n";
      return 0;
    }

    core::ExperimentConfig config;
    config.topology.compute_nodes = threads;
    config.threads = threads;
    config.topology.fault = fault_spec.empty()
                                ? storage::fault_config_from_env()
                                : storage::parse_fault_spec(fault_spec);
    config.topology.qos = qos;
    const storage::StorageTopology topology(config.topology);
    const parallel::ParallelSchedule schedule(program, threads);
    const core::FileLayoutOptimizer optimizer(topology);
    core::OptimizerOptions options;
    options.mask = mask;
    const auto result = optimizer.optimize(program, schedule, options);
    std::cout << result.plan.to_string() << '\n';

    if (simulate) {
      core::ExperimentConfig inter = config;
      inter.scheme = core::Scheme::kInterNode;
      const auto results = core::ExperimentEngine().run(
          {{"default", &program, config}, {"inter-node", &program, inter}});
      const auto& base = results[0];
      const auto& opt = results[1];
      std::cout << "default:    " << base.sim.summary() << '\n';
      std::cout << "inter-node: " << opt.sim.summary() << '\n';
      std::cout << "normalized exec: "
                << util::format_fixed(
                       opt.sim.exec_time / base.sim.exec_time, 2)
                << '\n';
    }
  } catch (const ir::ParseError& err) {
    std::cerr << path << ':' << err.line() << ": " << err.message() << '\n';
    return 2;
  } catch (const std::exception& err) {
    std::cerr << "error: " << err.what() << '\n';
    return 1;
  }
  if (metrics != obs::SinkMode::kOff) {
    const std::string out =
        obs::flush_to_file(metrics, obs::default_sink_path(metrics, "flo_opt"));
    std::cerr << "metrics (" << obs::sink_mode_name(metrics) << "): " << out
              << '\n';
  }
  return 0;
}
