// Shared helpers for the bench binaries: submit suite-wide experiment
// grids to the ExperimentEngine and print paper-style comparison tables.
//
// Every figure is some grid of (application x scheme x policy x topology)
// cells; the helpers here expand those grids into one engine submission so
// cells sharing a compilation compute it once and independent cells run on
// the worker pool.
//
// Environment knobs (all optional; see README "Environment variables"):
//   FLO_WORKERS      worker threads (default: hardware concurrency)
//   FLO_JOURNAL      checkpoint journal path — completed cells stream to
//                    it and a rerun resumes, skipping journaled cells
//   FLO_JOB_TIMEOUT  wall-clock seconds per cell attempt (0 = unlimited)
//   FLO_JOB_RETRIES  extra attempts for cells failing with TransientError
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "workloads/suite.hpp"

namespace flo::bench {

/// Prints a bench/bench_common.hpp-anchored diagnostic for a bad
/// environment knob and exits 2 (the configuration-error code, distinct
/// from a failed run). A typo'd knob silently falling back to a default
/// would quietly benchmark the wrong thing.
[[noreturn]] inline void die_env(const char* var, const char* what,
                                 const char* value) {
  std::fprintf(stderr,
               "bench_common.hpp: %s: %s '%s' (fix or unset the variable)\n",
               var, what, value);
  std::exit(2);
}

/// Strict positive-integer env parse: the whole value must be a base-10
/// integer > 0. Malformed or out-of-range values are fatal, not defaulted.
inline std::size_t env_positive_u64(const char* var, const char* value) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || value[0] == '-') {
    die_env(var, "malformed integer", value);
  }
  if (errno == ERANGE) die_env(var, "integer out of range", value);
  if (v == 0) die_env(var, "must be positive, got", value);
  return static_cast<std::size_t>(v);
}

/// Strict positive-number env parse (seconds, fractions allowed).
inline double env_positive_double(const char* var, const char* value) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0') die_env(var, "malformed number", value);
  if (errno == ERANGE) die_env(var, "number out of range", value);
  if (!(v > 0)) die_env(var, "must be positive, got", value);
  return v;
}

inline std::size_t workers_from_env() {
  if (const char* env = std::getenv("FLO_WORKERS")) {
    if (*env != '\0') return env_positive_u64("FLO_WORKERS", env);
  }
  return 0;  // engine default: hardware concurrency
}

/// Engine options assembled from the environment (workers, checkpoint
/// journal, per-cell timeout/retry budgets). Malformed knobs exit 2.
inline core::EngineOptions engine_options_from_env() {
  core::EngineOptions options;
  options.workers = workers_from_env();
  options.share_compilations = true;
  if (const char* env = std::getenv("FLO_JOURNAL")) {
    options.journal_path = env;
  }
  if (const char* env = std::getenv("FLO_JOB_TIMEOUT")) {
    if (*env != '\0') {
      options.job_timeout = env_positive_double("FLO_JOB_TIMEOUT", env);
    }
  }
  if (const char* env = std::getenv("FLO_JOB_RETRIES")) {
    if (*env != '\0') {
      options.max_retries =
          static_cast<std::uint32_t>(env_positive_u64("FLO_JOB_RETRIES", env));
    }
  }
  return options;
}

/// The process-wide engine every bench binary submits to.
inline core::ExperimentEngine& engine() {
  static core::ExperimentEngine instance(engine_options_from_env());
  return instance;
}

/// Runs one configuration over every application; results in suite order.
inline std::vector<core::ExperimentResult> run_suite(
    const core::ExperimentConfig& config,
    const std::vector<workloads::Workload>& suite) {
  std::vector<core::ExperimentJob> jobs;
  jobs.reserve(suite.size());
  for (const auto& app : suite) {
    jobs.push_back({app.name, &app.program, config});
  }
  return engine().run(jobs);
}

/// One column of a figure: a (baseline, optimized) config pair. The
/// baseline differs per variant when the figure sweeps a topology knob
/// (cache size, block size, policy) and the bars normalize within it.
struct VariantSpec {
  std::string label;
  core::ExperimentConfig baseline;
  core::ExperimentConfig optimized;
};

/// Runs every variant's pair over the whole suite as one engine
/// submission (compilations dedup across variants — e.g. one default
/// compilation serves every column's baseline) and returns
/// rows[variant][app].
inline std::vector<std::vector<core::AppMeasurement>> run_variant_grid(
    const std::vector<VariantSpec>& variants,
    const std::vector<workloads::Workload>& suite) {
  std::vector<core::ExperimentJob> jobs;
  jobs.reserve(variants.size() * suite.size() * 2);
  for (const auto& variant : variants) {
    for (const auto& app : suite) {
      jobs.push_back({app.name + "/" + variant.label + "/base", &app.program,
                      variant.baseline});
      jobs.push_back({app.name + "/" + variant.label + "/opt", &app.program,
                      variant.optimized});
    }
  }
  const std::vector<core::ExperimentResult> results = engine().run(jobs);

  std::vector<std::vector<core::AppMeasurement>> rows(variants.size());
  std::size_t i = 0;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    rows[v].reserve(suite.size());
    for (const auto& app : suite) {
      core::AppMeasurement m;
      m.name = app.name;
      m.baseline = results[i++].sim;
      m.optimized = results[i++].sim;
      rows[v].push_back(std::move(m));
    }
  }
  return rows;
}

/// Runs every application under `baseline` and `optimized` configs (only
/// the scheme usually differs) and returns the per-app measurement pairs.
inline std::vector<core::AppMeasurement> run_suite_pair(
    const core::ExperimentConfig& baseline,
    const core::ExperimentConfig& optimized,
    const std::vector<workloads::Workload>& suite) {
  return run_variant_grid({{"pair", baseline, optimized}}, suite)[0];
}

}  // namespace flo::bench
