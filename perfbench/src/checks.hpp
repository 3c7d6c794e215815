// Output checks: committed expected digests and the invariants every
// returned result must satisfy. Each check returns an empty string when it
// holds and a one-line reason otherwise, so a workload can count the op as
// failed and keep going.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "storage/stats.hpp"

namespace perfbench {

/// hex16(fnv1a(bytes)) — the repository's own fingerprint primitive.
std::string digest(std::string_view bytes);

/// Expected per-op digests of one workload, committed as a text file:
/// a `workload-digest <hex>` header, then `<key>\t<digest>[\t<digest>...]`
/// lines sorted by key. An op may accept several digests where the program
/// legitimately serves either (a template-tier request answered from an
/// exact compile that happened to land first).
class ExpectedTable {
 public:
  /// Throws std::runtime_error when the file is missing, malformed, or its
  /// header does not match the entries (a hand-edited table).
  static ExpectedTable load(const std::string& path);

  void add(const std::string& key, const std::string& digest);
  void save(const std::string& path) const;
  std::string workload_digest() const;
  std::size_t size() const { return entries_.size(); }

  /// Empty when `digest` is one of the accepted digests of `key`.
  std::string check(const std::string& key, const std::string& digest) const;

 private:
  std::map<std::string, std::vector<std::string>> entries_;
};

/// achieved >= bound on every cache layer where the bound makes a claim.
std::string check_bound(const flo::storage::SimulationResult& result);

/// Per-tenant slices of a shared run sum to its aggregate counters.
std::string check_tenant_slices(const flo::storage::SimulationResult& result);

/// Joins non-empty reasons with "; ".
std::string join_reasons(const std::vector<std::string>& reasons);

}  // namespace perfbench
