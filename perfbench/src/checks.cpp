#include "checks.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/compile_cache.hpp"

namespace perfbench {

std::string digest(std::string_view bytes) {
  return flo::core::hex16(flo::core::fnv1a(bytes));
}

namespace {

constexpr const char* kHeader = "workload-digest ";

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, '\t')) out.push_back(field);
  return out;
}

}  // namespace

ExpectedTable ExpectedTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing expected digests: " + path);
  std::string header;
  std::getline(in, header);
  if (header.rfind(kHeader, 0) != 0) {
    throw std::runtime_error("malformed expected digests: " + path);
  }
  ExpectedTable table;
  std::string line;
  while (std::getline(in, line)) {
    const std::vector<std::string> fields = split_tabs(line);
    if (fields.size() < 2) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    for (std::size_t i = 1; i < fields.size(); ++i) {
      table.add(fields[0], fields[i]);
    }
  }
  if (header.substr(std::string(kHeader).size()) != table.workload_digest()) {
    throw std::runtime_error("expected digests in " + path +
                             " do not match their workload digest");
  }
  return table;
}

void ExpectedTable::add(const std::string& key, const std::string& digest) {
  std::vector<std::string>& accepted = entries_[key];
  for (const std::string& d : accepted) {
    if (d == digest) return;
  }
  accepted.push_back(digest);
}

std::string ExpectedTable::workload_digest() const {
  std::string bytes;
  for (const auto& [key, accepted] : entries_) {
    bytes += key;
    for (const std::string& d : accepted) bytes += '\t' + d;
    bytes += '\n';
  }
  return digest(bytes);
}

void ExpectedTable::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << kHeader << workload_digest() << '\n';
  for (const auto& [key, accepted] : entries_) {
    out << key;
    for (const std::string& d : accepted) out << '\t' << d;
    out << '\n';
  }
}

std::string ExpectedTable::check(const std::string& key,
                                 const std::string& digest) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return key + ": no expected digest";
  for (const std::string& d : it->second) {
    if (d == digest) return {};
  }
  return key + ": digest " + digest + " differs from the expected " +
         it->second.front();
}

std::string check_bound(const flo::storage::SimulationResult& r) {
  std::string out;
  if (r.io_bound_bytes != 0 && r.io.bytes_filled < r.io_bound_bytes) {
    out = "io bytes filled " + std::to_string(r.io.bytes_filled) +
          " below the lower bound " + std::to_string(r.io_bound_bytes);
  }
  if (r.storage_bound_bytes != 0 &&
      r.storage.bytes_filled < r.storage_bound_bytes) {
    if (!out.empty()) out += "; ";
    out += "storage bytes filled " + std::to_string(r.storage.bytes_filled) +
           " below the lower bound " + std::to_string(r.storage_bound_bytes);
  }
  return out;
}

std::string check_tenant_slices(const flo::storage::SimulationResult& r) {
  if (r.tenants.empty()) return "shared run has no per-tenant slices";
  flo::storage::TenantStats sum;
  for (const flo::storage::TenantStats& t : r.tenants) {
    sum.accesses += t.accesses;
    sum.elements += t.elements;
    sum.io_lookups += t.io_lookups;
    sum.io_hits += t.io_hits;
    sum.storage_lookups += t.storage_lookups;
    sum.storage_hits += t.storage_hits;
    sum.disk_reads += t.disk_reads;
  }
  std::vector<std::string> broken;
  const auto expect = [&](const char* field, std::uint64_t slices,
                          std::uint64_t aggregate) {
    if (slices != aggregate) {
      broken.push_back(std::string("tenant ") + field + " slices sum to " +
                       std::to_string(slices) + ", aggregate " +
                       std::to_string(aggregate));
    }
  };
  expect("accesses", sum.accesses, r.accesses);
  expect("elements", sum.elements, r.elements);
  expect("io_lookups", sum.io_lookups, r.io.lookups);
  expect("io_hits", sum.io_hits, r.io.hits);
  expect("storage_lookups", sum.storage_lookups, r.storage.lookups);
  expect("storage_hits", sum.storage_hits, r.storage.hits);
  expect("disk_reads", sum.disk_reads, r.disk_reads);
  return join_reasons(broken);
}

std::string join_reasons(const std::vector<std::string>& reasons) {
  std::string out;
  for (const std::string& r : reasons) {
    if (r.empty()) continue;
    if (!out.empty()) out += "; ";
    out += r;
  }
  return out;
}

}  // namespace perfbench
