#include "storage/qos.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

namespace flo::storage {

const char* sched_policy_name(SchedPolicyKind policy) {
  switch (policy) {
    case SchedPolicyKind::kLook:
      return "look";
    case SchedPolicyKind::kFcfs:
      return "fcfs";
    case SchedPolicyKind::kPriority:
      return "priority";
  }
  return "?";
}

std::optional<SchedPolicyKind> parse_sched_policy(const std::string& name) {
  if (name == "look") return SchedPolicyKind::kLook;
  if (name == "fcfs") return SchedPolicyKind::kFcfs;
  if (name == "priority") return SchedPolicyKind::kPriority;
  return std::nullopt;
}

void QosConfig::validate() const {
  for (std::uint32_t s : shares) {
    if (s == 0) {
      throw std::invalid_argument("QosConfig: shares must be >= 1");
    }
  }
  for (std::uint32_t p : priorities) {
    if (p == 0) {
      throw std::invalid_argument("QosConfig: priorities must be >= 1");
    }
  }
  if (epoch_accesses == 0) {
    throw std::invalid_argument("QosConfig: epoch_accesses must be >= 1");
  }
  if (dynamic_shares && shares.empty()) {
    throw std::invalid_argument(
        "QosConfig: dynamic_shares needs shares to rebalance");
  }
  if (!(sched_window > 0)) {
    throw std::invalid_argument("QosConfig: sched_window must be > 0");
  }
}

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::uint64_t spec_u64(const std::string& value, const std::string& key) {
  try {
    std::size_t pos = 0;
    const unsigned long long v = std::stoull(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("qos spec: bad integer '" + value + "' for '" +
                                key + "'");
  }
}

double spec_double(const std::string& value, const std::string& key) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("qos spec: bad number '" + value + "' for '" +
                                key + "'");
  }
}

std::vector<std::uint32_t> spec_weights(const std::string& value,
                                        const std::string& key) {
  std::vector<std::uint32_t> out;
  for (const std::string& part : split(value, ':')) {
    out.push_back(static_cast<std::uint32_t>(spec_u64(part, key)));
  }
  return out;
}

}  // namespace

QosConfig parse_qos_spec(const std::string& spec) {
  QosConfig config;
  if (spec.empty()) return config;
  config.enabled = true;
  for (const std::string& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("qos spec: expected key=value, got '" +
                                  entry + "'");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "shares") {
      config.shares = spec_weights(value, key);
    } else if (key == "prio") {
      config.priorities = spec_weights(value, key);
    } else if (key == "dynamic") {
      config.dynamic_shares = spec_u64(value, key) != 0;
    } else if (key == "epoch") {
      config.epoch_accesses = spec_u64(value, key);
    } else if (key == "sched") {
      const auto policy = parse_sched_policy(value);
      if (!policy) {
        throw std::invalid_argument(
            "qos spec: unknown scheduler '" + value +
            "' (expected look, fcfs or priority)");
      }
      config.scheduler = *policy;
    } else if (key == "window") {
      config.sched_window = spec_double(value, key);
    } else {
      throw std::invalid_argument("qos spec: unknown key '" + key + "'");
    }
  }
  config.validate();
  return config;
}

QosConfig qos_config_from_env() {
  const char* env = std::getenv("FLO_QOS");
  QosConfig config =
      (env == nullptr || *env == '\0') ? QosConfig{} : parse_qos_spec(env);
  const char* sched = std::getenv("FLO_SCHED");
  if (sched != nullptr && *sched != '\0') {
    // FLO_SCHED overrides whatever the spec chose; a bare
    // FLO_SCHED also enables QoS so the policy reaches the simulator.
    const auto policy = parse_sched_policy(sched);
    if (!policy) {
      throw std::invalid_argument(
          std::string("FLO_SCHED: unknown disk scheduling policy '") + sched +
          "' (expected look, fcfs or priority)");
    }
    config.scheduler = *policy;
    config.enabled = true;
  }
  return config;
}

std::vector<std::size_t> quota_partition(
    std::size_t capacity, std::size_t tenants,
    const std::vector<std::uint32_t>& shares) {
  if (tenants == 0) return {};
  if (!shares.empty() && shares.size() < tenants) {
    throw std::invalid_argument(
        "quota_partition: fewer shares than tenants");
  }
  if (capacity < tenants) {
    throw std::invalid_argument(
        "quota_partition: capacity smaller than tenant count");
  }
  std::vector<std::uint64_t> weight(tenants, 1);
  std::uint64_t total = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    if (!shares.empty()) weight[t] = shares[t];
    total += weight[t];
  }
  // Largest-remainder apportionment with a one-block floor: every tenant
  // is granted floor(capacity * weight / total) (at least 1), then the
  // leftover blocks go to the largest fractional remainders, ties broken
  // by lower tenant id — fully deterministic.
  std::vector<std::size_t> quota(tenants, 0);
  std::vector<std::pair<std::uint64_t, std::size_t>> remainder(tenants);
  std::size_t granted = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::uint64_t scaled =
        static_cast<std::uint64_t>(capacity) * weight[t];
    quota[t] = std::max<std::size_t>(
        1, static_cast<std::size_t>(scaled / total));
    remainder[t] = {scaled % total, t};
    granted += quota[t];
  }
  // The one-block floor can overshoot tiny capacities: shave the largest
  // quotas (lowest id first among equals) until the sum fits.
  while (granted > capacity) {
    std::size_t richest = 0;
    for (std::size_t t = 1; t < tenants; ++t) {
      if (quota[t] > quota[richest]) richest = t;
    }
    --quota[richest];
    --granted;
  }
  std::sort(remainder.begin(), remainder.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  for (std::size_t i = 0; granted < capacity; ++i) {
    ++quota[remainder[i % tenants].second];
    ++granted;
  }
  return quota;
}

}  // namespace flo::storage
