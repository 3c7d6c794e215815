// flo_bench — the one bench driver. Lists and runs registered scenarios
// (paper tables/figures, ablations, fault sweep, smoke) by glob filter:
//
//   flo_bench --list                 # what can run
//   flo_bench --filter fig7a         # the bench_fig7a block of
//                                    # results/bench_all.txt, byte for byte
//   flo_bench --filter 'fig7*'       # all eight figures
//   flo_bench --filter smoke --metrics=json
//
// A single scenario prints just its table; with multiple matches a banner
// separates the sections.
// Metrics (--metrics / FLO_METRICS) and --out exports always go to side
// files, never stdout.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/scenario.hpp"
#include "obs/sink.hpp"
#include "util/json.hpp"

namespace {

using flo::bench::MetricRow;
using flo::bench::ScenarioSpec;

int usage(std::ostream& os, int rc) {
  os << "usage: flo_bench [--list] [--filter GLOB]...\n"
        "                 [--out csv|jsonl] [--out-file PATH]\n"
        "                 [--metrics off|text|json|chrome] [--metrics-out "
        "PATH]\n"
        "\n"
        "  --list         print the scenario registry and exit\n"
        "  --filter GLOB  run scenarios whose name or tag matches (repeat "
        "to union)\n"
        "  --out FMT      export emitted headline numbers as csv or jsonl\n"
        "  --out-file     export path (default flo_bench.out.<fmt>)\n"
        "  --metrics MODE metrics/trace sink; overrides FLO_METRICS\n"
        "  --metrics-out  sink path (default flo_bench.metrics.* / "
        "flo_bench.trace.json)\n";
  return rc;
}

void list_scenarios(std::ostream& os) {
  std::size_t width = 0;
  for (const auto& spec : flo::bench::scenarios()) {
    width = std::max(width, spec.name.size());
  }
  for (const auto& spec : flo::bench::scenarios()) {
    os << "  " << spec.name << std::string(width - spec.name.size(), ' ')
       << "  " << spec.title << " [" << spec.paper << "]";
    os << " (";
    for (std::size_t i = 0; i < spec.tags.size(); ++i) {
      os << (i != 0 ? " " : "") << spec.tags[i];
    }
    os << ")\n";
  }
}

std::string format_value(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

void write_rows_csv(std::ostream& os, const std::vector<MetricRow>& rows) {
  os << "scenario,key,value\n";
  for (const auto& row : rows) {
    os << row.scenario << ',' << row.key << ',' << format_value(row.value)
       << '\n';
  }
}

void write_rows_jsonl(std::ostream& os, const std::vector<MetricRow>& rows) {
  for (const auto& row : rows) {
    os << "{\"scenario\":\"" << flo::util::json_escape(row.scenario)
       << "\",\"key\":\"" << flo::util::json_escape(row.key)
       << "\",\"value\":" << format_value(row.value) << "}\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false;
  std::vector<std::string> filters;
  std::string out_format, out_file, metrics_out;
  flo::obs::SinkMode metrics = flo::obs::sink_mode_from_env();

  const auto value_of = [&](int& i, const std::string& arg,
                            const std::string& name) -> std::string {
    // Accepts both --name=value and --name value.
    if (arg.size() > name.size() && arg[name.size()] == '=') {
      return arg.substr(name.size() + 1);
    }
    if (i + 1 >= argc) {
      std::cerr << "flo_bench: " << name << " needs a value\n";
      std::exit(usage(std::cerr, 2));
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (arg.rfind("--filter", 0) == 0) {
      filters.push_back(value_of(i, arg, "--filter"));
    } else if (arg.rfind("--out-file", 0) == 0) {
      out_file = value_of(i, arg, "--out-file");
    } else if (arg.rfind("--out", 0) == 0) {
      out_format = value_of(i, arg, "--out");
      if (out_format != "csv" && out_format != "jsonl") {
        std::cerr << "flo_bench: --out must be csv or jsonl\n";
        return 2;
      }
    } else if (arg.rfind("--metrics-out", 0) == 0) {
      metrics_out = value_of(i, arg, "--metrics-out");
    } else if (arg.rfind("--metrics", 0) == 0) {
      const std::string mode = value_of(i, arg, "--metrics");
      metrics = flo::obs::parse_sink_mode(mode);
      if (metrics == flo::obs::SinkMode::kOff && mode != "off") {
        std::cerr << "flo_bench: unknown --metrics mode '" << mode << "'\n";
        return 2;
      }
    } else {
      std::cerr << "flo_bench: unknown argument '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  // Fail fast (exit 2) on malformed environment knobs — before any
  // scenario spends minutes computing under a config the operator did
  // not ask for.
  (void)flo::bench::engine_options_from_env();

  if (list) {
    list_scenarios(std::cout);
    return 0;
  }
  if (filters.empty()) {
    std::cerr << "flo_bench: nothing to do — pass --filter or --list\n\n"
                 "registered scenarios:\n";
    list_scenarios(std::cerr);
    return 2;
  }

  // Union the filters in registry order, without duplicates.
  std::vector<const ScenarioSpec*> selected;
  for (const auto& spec : flo::bench::scenarios()) {
    bool matched = false;
    for (const auto& filter : filters) {
      matched = flo::bench::glob_match(filter, spec.name);
      for (std::size_t t = 0; !matched && t < spec.tags.size(); ++t) {
        matched = flo::bench::glob_match(filter, spec.tags[t]);
      }
      if (matched) break;
    }
    if (matched) selected.push_back(&spec);
  }
  if (selected.empty()) {
    std::cerr << "flo_bench: no scenario matches";
    for (const auto& filter : filters) std::cerr << " '" << filter << "'";
    std::cerr << " (see --list)\n";
    return 1;
  }

  if (metrics != flo::obs::SinkMode::kOff) flo::obs::set_enabled(true);

  flo::bench::ScenarioContext ctx(std::cout);
  int rc = 0;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const ScenarioSpec& spec = *selected[i];
    if (selected.size() > 1) {
      // Single-scenario output is the bare table (what results/bench_all.txt
      // records); banners appear only between sections of a multi-run.
      if (i != 0) std::cout << '\n';
      std::cout << "==== " << spec.name << " — " << spec.title << " ====\n\n";
    }
    ctx.set_scenario(spec.name);
    const int scenario_rc = spec.run(ctx);
    rc = std::max(rc, scenario_rc);
  }

  if (!out_format.empty()) {
    if (out_file.empty()) out_file = "flo_bench.out." + out_format;
    std::ofstream os(out_file, std::ios::trunc);
    if (!os) {
      std::cerr << "flo_bench: cannot write " << out_file << '\n';
      return 1;
    }
    if (out_format == "csv") {
      write_rows_csv(os, ctx.rows());
    } else {
      write_rows_jsonl(os, ctx.rows());
    }
    std::cerr << "rows (" << out_format << "): " << out_file << '\n';
  }

  if (metrics != flo::obs::SinkMode::kOff) {
    if (metrics_out.empty()) {
      metrics_out = flo::obs::default_sink_path(metrics, "flo_bench");
    }
    flo::obs::flush_to_file(metrics, metrics_out);
    std::cerr << "metrics (" << flo::obs::sink_mode_name(metrics)
              << "): " << metrics_out << '\n';
  }
  return rc;
}
