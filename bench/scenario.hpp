// Data-driven scenario registry: every paper figure/table and every
// in-house ablation is a named ScenarioSpec instead of a standalone
// binary. One driver (flo_bench) lists, filters, and runs them.
//
// A scenario writes its human-readable table to ScenarioContext::out()
// (flo_bench's stdout) and may additionally
// emit() headline numbers — (scenario, key, value) rows — which flo_bench
// can export as CSV or JSON Lines via --out.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace flo::bench {

/// One machine-readable headline number emitted by a scenario (e.g.
/// fig7a's overall average improvement).
struct MetricRow {
  std::string scenario;
  std::string key;
  double value = 0.0;
};

class ScenarioContext {
 public:
  explicit ScenarioContext(std::ostream& out) : out_(out) {}

  /// Human-readable output stream — stdout in the driver, a capture
  /// buffer in tests.
  std::ostream& out() { return out_; }

  /// Records a headline number for --out export; never prints.
  void emit(std::string key, double value) {
    rows_.push_back({scenario_, std::move(key), value});
  }

  const std::vector<MetricRow>& rows() const { return rows_; }
  void set_scenario(std::string name) { scenario_ = std::move(name); }

 private:
  std::ostream& out_;
  std::string scenario_;
  std::vector<MetricRow> rows_;
};

struct ScenarioSpec {
  std::string name;   ///< stable id used by --filter
  std::string title;  ///< one-line description shown by --list
  std::string paper;  ///< the paper band/number this scenario reproduces
  std::vector<std::string> tags;  ///< e.g. {"paper", "figure"}, {"smoke"}
  int (*run)(ScenarioContext&) = nullptr;
};

/// Every registered scenario, in fixed registration order (paper tables,
/// figures, then ablations/extras) — the order --list prints and a
/// multi-scenario --filter executes.
const std::vector<ScenarioSpec>& scenarios();

/// nullptr when no scenario has that exact name.
const ScenarioSpec* find_scenario(const std::string& name);

/// Shell-style glob over `*` and `?` (no character classes); anchored at
/// both ends, so "fig7*" matches "fig7a" but not "xfig7a". Thin wrapper
/// over util::glob_match.
bool glob_match(const std::string& pattern, const std::string& text);

/// Scenarios whose name or any tag matches the glob, in registry order.
std::vector<const ScenarioSpec*> match_scenarios(const std::string& pattern);

}  // namespace flo::bench
