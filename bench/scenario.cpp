#include "bench/scenario.hpp"

#include "util/glob.hpp"

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

bool glob_match(const std::string& pattern, const std::string& text) {
  return util::glob_match(pattern, text);
}

std::vector<const ScenarioSpec*> match_scenarios(const std::string& pattern) {
  std::vector<const ScenarioSpec*> out;
  for (const auto& spec : scenarios()) {
    bool matched = glob_match(pattern, spec.name);
    for (std::size_t i = 0; !matched && i < spec.tags.size(); ++i) {
      matched = glob_match(pattern, spec.tags[i]);
    }
    if (matched) out.push_back(&spec);
  }
  return out;
}

}  // namespace flo::bench
