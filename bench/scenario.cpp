#include "bench/scenario.hpp"

#include <cstdio>
#include <sstream>

#include "util/csv.hpp"
#include "util/glob.hpp"
#include "util/json.hpp"

namespace flo::bench {

void register_paper_scenarios(std::vector<ScenarioSpec>& out);
void register_extra_scenarios(std::vector<ScenarioSpec>& out);
void register_tenant_scenarios(std::vector<ScenarioSpec>& out);

const std::vector<ScenarioSpec>& scenarios() {
  static const std::vector<ScenarioSpec> all = [] {
    std::vector<ScenarioSpec> out;
    register_paper_scenarios(out);
    register_extra_scenarios(out);
    register_tenant_scenarios(out);
    return out;
  }();
  return all;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const auto& spec : scenarios()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<const ScenarioSpec*> match_scenarios(
    const std::vector<std::string>& patterns) {
  const auto matches = [&](const ScenarioSpec& spec) {
    for (const auto& pattern : patterns) {
      if (util::glob_match(pattern, spec.name)) return true;
      for (const auto& tag : spec.tags) {
        if (util::glob_match(pattern, tag)) return true;
      }
    }
    return false;
  };
  std::vector<const ScenarioSpec*> out;
  for (const auto& spec : scenarios()) {
    if (matches(spec)) out.push_back(&spec);
  }
  return out;
}

namespace {

std::string format_value(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

}  // namespace

std::string rows_to_csv(const std::vector<MetricRow>& rows) {
  util::CsvWriter csv({"scenario", "key", "value"});
  for (const auto& row : rows) {
    csv.add_row({row.scenario, row.key, format_value(row.value)});
  }
  return csv.to_string();
}

std::string rows_to_jsonl(const std::vector<MetricRow>& rows) {
  std::ostringstream os;
  for (const auto& row : rows) {
    os << "{\"scenario\":\"" << util::json_escape(row.scenario)
       << "\",\"key\":\"" << util::json_escape(row.key)
       << "\",\"value\":" << format_value(row.value) << "}\n";
  }
  return os.str();
}

}  // namespace flo::bench
