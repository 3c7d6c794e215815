#include "testing/oracles.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "ir/parser.hpp"
#include "layout/canonical.hpp"
#include "layout/constraint_network.hpp"
#include "layout/conversion.hpp"
#include "layout/internode.hpp"
#include "linalg/unimodular.hpp"
#include "util/log.hpp"
#include "storage/qos.hpp"
#include "storage/sim_core.hpp"
#include "storage/simulator.hpp"
#include "storage/stats.hpp"
#include "testing/emit.hpp"
#include "trace/analysis.hpp"
#include "trace/generator.hpp"
#include "trace/interleaver.hpp"
#include "trace/source.hpp"
#include "util/glob.hpp"

namespace flo::testing {

namespace {

using storage::AccessEvent;

core::ExperimentConfig config_for(const FuzzCase& fc, core::Scheme scheme) {
  core::ExperimentConfig config;
  config.topology = fc.system.config;
  config.threads = fc.system.threads;
  config.mapping = fc.system.mapping;
  config.policy = fc.system.policy;
  config.scheme = scheme;
  return config;
}

std::vector<storage::NodeId> io_nodes_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology) {
  std::vector<storage::NodeId> out(schedule.thread_count());
  for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    out[t] = topology.io_node_of(schedule.mapping().node_of(t));
  }
  return out;
}

std::vector<AccessEvent> collect(const storage::TraceSource& source,
                                 std::size_t phase, std::uint32_t thread) {
  std::vector<AccessEvent> out;
  const auto cursor = source.open(phase, thread);
  AccessEvent ev;
  while (cursor->next(ev)) out.push_back(ev);
  return out;
}

/// Expands extents into their defining per-block event sequence.
std::vector<AccessEvent> expand(const std::vector<AccessEvent>& events) {
  std::vector<AccessEvent> out;
  for (const AccessEvent& ev : events) {
    for (std::uint32_t i = 0; i < ev.run_blocks; ++i) {
      out.push_back({ev.file, ev.block + i, ev.element_count, ev.is_write, 1});
    }
  }
  return out;
}

std::string describe_event(const AccessEvent& ev) {
  std::ostringstream os;
  os << (ev.is_write ? "W" : "R") << " file=" << ev.file
     << " block=" << ev.block << " count=" << ev.element_count
     << " run=" << ev.run_blocks;
  return os.str();
}

/// First difference between two event streams, or empty.
std::string diff_streams(const std::vector<AccessEvent>& a,
                         const std::vector<AccessEvent>& b,
                         const std::string& where) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) {
      return where + " event #" + std::to_string(i) + ": " +
             describe_event(a[i]) + " vs " + describe_event(b[i]);
    }
  }
  if (a.size() != b.size()) {
    return where + " length: " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  return "";
}

// ---------------------------------------------------------------- oracles

std::optional<std::string> check_parse_roundtrip(const FuzzCase& fc) {
  const std::string text = emit_flo(fc.program);
  ir::Program reparsed;
  try {
    reparsed = ir::parse_program(text);
  } catch (const ir::ParseError& err) {
    return "emitted program failed to parse: " + std::string(err.what()) +
           "\n---\n" + text;
  }
  const std::string diff = first_difference(fc.program, reparsed);
  if (!diff.empty()) {
    return "parse(emit(p)) != p: " + diff + "\n---\n" + text;
  }
  return std::nullopt;
}

std::optional<std::string> check_parse_total(const FuzzCase& fc) {
  const std::string text = emit_flo(fc.program);
  // Deterministic mutation stream derived from the text itself.
  std::uint64_t fnv = 1469598103934665603ull;
  for (char c : text) fnv = (fnv ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  util::Rng rng(fnv);

  static const char* kNumbers[] = {"9223372036854775807",
                                   "-9223372036854775808", "4294967295",
                                   "2147483648", "-1", "0"};
  for (int round = 0; round < 16; ++round) {
    std::string mutant = text;
    const std::uint64_t op = rng.next_below(6);
    if (mutant.empty()) break;
    const std::size_t pos = rng.next_below(mutant.size());
    switch (op) {
      case 0:  // replace one byte with a printable character
        mutant[pos] = static_cast<char>(' ' + rng.next_below(95));
        break;
      case 1:  // delete one byte
        mutant.erase(pos, 1);
        break;
      case 2:  // insert one byte
        mutant.insert(pos, 1, static_cast<char>(' ' + rng.next_below(95)));
        break;
      case 3: {  // duplicate the line containing pos
        const std::size_t begin = mutant.rfind('\n', pos) + 1;
        std::size_t end = mutant.find('\n', pos);
        if (end == std::string::npos) end = mutant.size();
        mutant.insert(begin, mutant.substr(begin, end - begin + 1));
        break;
      }
      case 4: {  // delete the line containing pos
        const std::size_t begin = mutant.rfind('\n', pos) + 1;
        std::size_t end = mutant.find('\n', pos);
        end = end == std::string::npos ? mutant.size() : end + 1;
        mutant.erase(begin, end - begin);
        break;
      }
      default: {  // swap a digit run for an extreme integer
        const std::size_t digit = mutant.find_first_of("0123456789", pos);
        if (digit == std::string::npos) break;
        std::size_t end = digit;
        while (end < mutant.size() &&
               std::isdigit(static_cast<unsigned char>(mutant[end]))) {
          ++end;
        }
        mutant.replace(digit, end - digit,
                       kNumbers[rng.next_below(std::size(kNumbers))]);
        break;
      }
    }

    try {
      const ir::Program parsed = ir::parse_program(mutant);
      // A mutant that still parses must satisfy the IR's basic contracts:
      // positive repeats and overflow-free trip counts / byte sizes, so no
      // downstream consumer can wrap or hang on a parser-accepted program.
      for (const auto& nest : parsed.nests()) {
        if (nest.repeat() < 1) {
          return "parser accepted repeat=" + std::to_string(nest.repeat()) +
                 " (wraps to ~2^32 phase repeats downstream)\n---\n" + mutant;
        }
        try {
          (void)nest.reference_trip_count();
        } catch (const std::exception& err) {
          return std::string("parsed nest trip count overflows: ") +
                 err.what() + "\n---\n" + mutant;
        }
      }
      for (const auto& array : parsed.arrays()) {
        try {
          (void)array.byte_size();
        } catch (const std::exception& err) {
          return std::string("parsed array byte size overflows: ") +
                 err.what() + "\n---\n" + mutant;
        }
      }
    } catch (const ir::ParseError&) {
      // The one sanctioned failure mode.
    } catch (const std::exception& err) {
      return std::string("parser leaked a non-ParseError exception: ") +
             err.what() + "\n---\n" + mutant;
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_count_conservation(const FuzzCase& fc) {
  const storage::StorageTopology topology(fc.system.config);
  const parallel::ParallelSchedule schedule(fc.program, fc.system.threads,
                                            fc.system.mapping);
  const layout::LayoutMap layouts = layout::default_layouts(fc.program);

  trace::TraceOptions plain;
  plain.emit_extents = false;
  trace::TraceOptions extents;
  extents.emit_extents = true;
  const trace::StreamingTraceSource source_plain(fc.program, schedule, layouts,
                                                 topology, plain);
  const trace::StreamingTraceSource source_ext(fc.program, schedule, layouts,
                                               topology, extents);

  for (std::size_t phase = 0; phase < source_plain.phase_count(); ++phase) {
    const ir::LoopNest& nest = fc.program.nests()[phase];
    const auto& decomp = schedule.decomposition(phase);
    // Iterations per point of the parallel dimension.
    std::uint64_t inner = 1;
    for (std::size_t k = 0; k < nest.depth(); ++k) {
      if (k == nest.parallel_dim()) continue;
      inner *= static_cast<std::uint64_t>(nest.iterations().bound(k).trip_count());
    }
    for (std::uint32_t t = 0; t < schedule.thread_count(); ++t) {
      std::uint64_t parallel_trip = 0;
      for (const auto& block : decomp.blocks_of(t)) {
        parallel_trip += static_cast<std::uint64_t>(block.size());
      }
      const std::uint64_t expected =
          parallel_trip * inner * nest.references().size();

      const auto plain_events = collect(source_plain, phase, t);
      const auto ext_events = collect(source_ext, phase, t);
      std::uint64_t got = 0;
      for (const auto& ev : plain_events) {
        if (ev.run_blocks != 1) {
          return "plain stream emitted an extent (run_blocks=" +
                 std::to_string(ev.run_blocks) + ") with emit_extents off";
        }
        got += ev.element_count;
      }
      if (got != expected) {
        return "element count not conserved: phase " + std::to_string(phase) +
               " thread " + std::to_string(t) + " streamed " +
               std::to_string(got) + " elements, closed form says " +
               std::to_string(expected);
      }
      std::uint64_t got_ext = 0;
      for (const auto& ev : ext_events) {
        got_ext += ev.element_count * ev.run_blocks;
      }
      if (got_ext != expected) {
        return "extent stream dropped elements: phase " +
               std::to_string(phase) + " thread " + std::to_string(t) +
               " carries " + std::to_string(got_ext) + ", closed form says " +
               std::to_string(expected);
      }
      const std::string diff =
          diff_streams(expand(ext_events), plain_events,
                       "phase " + std::to_string(phase) + " thread " +
                           std::to_string(t) + " (extent expansion)");
      if (!diff.empty()) return diff;
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_stream_vs_eager(const FuzzCase& fc) {
  static constexpr core::Scheme kSchemes[] = {
      core::Scheme::kDefault, core::Scheme::kInterNode,
      core::Scheme::kComputationMapping};
  for (core::Scheme scheme : kSchemes) {
    const core::ExperimentConfig config = config_for(fc, scheme);
    const storage::StorageTopology topology(config.topology);
    const core::CompiledExperiment compiled =
        core::compile_experiment(fc.program, config);

    const storage::TraceProgram eager = trace::generate_trace(
        fc.program, compiled.schedule, compiled.layouts, topology);
    const storage::MaterializedTraceSource eager_source(eager);
    trace::TraceOptions options;
    options.emit_extents = false;
    const trace::StreamingTraceSource streaming(
        fc.program, compiled.schedule, compiled.layouts, topology, options);

    const std::string where =
        std::string("scheme ") + core::scheme_name(scheme);
    if (streaming.phase_count() != eager_source.phase_count()) {
      return where + ": phase count " +
             std::to_string(streaming.phase_count()) + " vs " +
             std::to_string(eager_source.phase_count());
    }
    if (streaming.file_blocks() != eager_source.file_blocks()) {
      return where + ": file_blocks differ between streaming and eager";
    }
    const std::size_t threads =
        std::max(streaming.thread_count(), eager_source.thread_count());
    for (std::size_t phase = 0; phase < streaming.phase_count(); ++phase) {
      if (streaming.phase_repeat(phase) != eager_source.phase_repeat(phase)) {
        return where + ": phase " + std::to_string(phase) +
               " repeat differs";
      }
      for (std::uint32_t t = 0; t < threads; ++t) {
        const auto s = t < streaming.thread_count()
                           ? collect(streaming, phase, t)
                           : std::vector<AccessEvent>{};
        const auto e = t < eager_source.thread_count()
                           ? collect(eager_source, phase, t)
                           : std::vector<AccessEvent>{};
        const std::string diff = diff_streams(
            s, e,
            where + " phase " + std::to_string(phase) + " thread " +
                std::to_string(t) + " (streaming vs eager)");
        if (!diff.empty()) return diff;
      }
    }
  }
  return std::nullopt;
}

storage::SimulationResult simulate_once(const FuzzCase& fc,
                                        const core::CompiledExperiment& compiled,
                                        const storage::StorageTopology& topology,
                                        bool extents) {
  trace::TraceOptions options;
  options.emit_extents = extents;
  const trace::StreamingTraceSource source(
      fc.program, compiled.schedule, compiled.layouts, topology, options);
  std::vector<storage::RangeHint> hints;
  if (fc.system.policy == storage::PolicyKind::kKarma) {
    const std::uint64_t segment =
        std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
    hints = trace::profile_range_hints(source, segment);
  }
  storage::HierarchySimulator simulator(
      topology, fc.system.policy,
      io_nodes_of_threads(compiled.schedule, topology), std::move(hints));
  // This helper exists for the clock core's extent-path contract; keep it
  // pinned there so the oracle means the same thing under FLO_SIM=event.
  simulator.set_core(storage::SimCoreKind::kClock);
  simulator.set_extent_batching(extents);
  return simulator.run(source);
}

std::optional<std::string> check_extent_equivalence(const FuzzCase& fc) {
  static constexpr core::Scheme kSchemes[] = {core::Scheme::kDefault,
                                              core::Scheme::kInterNode};
  for (core::Scheme scheme : kSchemes) {
    const core::ExperimentConfig config = config_for(fc, scheme);
    const storage::StorageTopology topology(config.topology);
    const core::CompiledExperiment compiled =
        core::compile_experiment(fc.program, config);
    const storage::SimulationResult batched =
        simulate_once(fc, compiled, topology, true);
    const storage::SimulationResult reference =
        simulate_once(fc, compiled, topology, false);
    if (!(batched == reference)) {
      return std::string("extent fast path diverges from per-block "
                         "reference under scheme ") +
             core::scheme_name(scheme) + ":\n  batched:   " +
             batched.summary() + "\n  reference: " + reference.summary();
    }
  }
  return std::nullopt;
}

/// "" when the two times agree up to FP re-association (the staged event
/// sums and the analytic tail associate differently from the clock core's
/// single running total).
std::string time_diff(double event, double clock, const std::string& what) {
  const double tol =
      1e-9 * std::max({std::abs(event), std::abs(clock), 1.0});
  if (std::abs(event - clock) <= tol) return {};
  std::ostringstream os;
  os << what << " diverges beyond envelope tolerance: event core "
     << event << " vs clock core " << clock;
  return os.str();
}

std::optional<std::string> check_event_vs_clock(const FuzzCase& fc) {
  // The event≡clock equivalence envelope (DESIGN.md §4g): one thread,
  // prefetch off, faults off — no queue can ever form, so the event core
  // must reproduce the clock core's integer stats bit-exactly. Policy,
  // cache configuration, striping, writes and the program fuzz freely.
  static constexpr core::Scheme kSchemes[] = {core::Scheme::kDefault,
                                              core::Scheme::kInterNode};
  for (core::Scheme scheme : kSchemes) {
    core::ExperimentConfig config = config_for(fc, scheme);
    // One thread per compute node is the engine invariant, and the node
    // counts must divide each other, so a single thread means the 1/1/1
    // topology chain. Policy, cache sizes/switches, block size, writes and
    // the program itself still fuzz freely; multi-spindle striping inside
    // the envelope is covered by EventClockEnvelopeTest.
    config.threads = 1;
    config.topology.compute_nodes = 1;
    config.topology.io_nodes = 1;
    config.topology.storage_nodes = 1;
    config.topology.prefetch_depth = 0;
    config.topology.fault = storage::FaultConfig{};
    const storage::StorageTopology topology(config.topology);
    const core::CompiledExperiment compiled =
        core::compile_experiment(fc.program, config);
    trace::TraceOptions options;
    options.emit_extents = true;
    const trace::StreamingTraceSource source(
        fc.program, compiled.schedule, compiled.layouts, topology, options);
    std::vector<storage::RangeHint> hints;
    if (fc.system.policy == storage::PolicyKind::kKarma) {
      const std::uint64_t segment =
          std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
      hints = trace::profile_range_hints(source, segment);
    }
    const auto run_core = [&](storage::SimCoreKind core) {
      storage::HierarchySimulator simulator(
          topology, fc.system.policy,
          io_nodes_of_threads(compiled.schedule, topology), hints);
      simulator.set_core(core);
      return simulator.run(source);
    };
    const storage::SimulationResult clock =
        run_core(storage::SimCoreKind::kClock);
    const storage::SimulationResult event =
        run_core(storage::SimCoreKind::kEvent);

    const auto where = std::string("scheme ") + core::scheme_name(scheme);
    const bool integers_equal =
        event.io == clock.io && event.storage == clock.storage &&
        event.disk_reads == clock.disk_reads &&
        event.demotions == clock.demotions &&
        event.prefetches == clock.prefetches &&
        event.disk_writes == clock.disk_writes &&
        event.writebacks == clock.writebacks &&
        event.accesses == clock.accesses &&
        event.elements == clock.elements && event.faults == clock.faults;
    if (!integers_equal) {
      return "event core diverges from clock core inside the envelope "
             "(" + where + "):\n  event: " + event.summary() +
             "\n  clock: " + clock.summary();
    }
    if (event.queue.any()) {
      return "event core reports queueing inside the no-contention "
             "envelope (" + where + ")";
    }
    std::string diff = time_diff(event.exec_time, clock.exec_time,
                                 where + " exec_time");
    if (!diff.empty()) return diff;
    if (event.thread_time.size() != clock.thread_time.size()) {
      return where + ": thread_time arity differs";
    }
    for (std::size_t t = 0; t < event.thread_time.size(); ++t) {
      diff = time_diff(event.thread_time[t], clock.thread_time[t],
                       where + " thread_time[" + std::to_string(t) + "]");
      if (!diff.empty()) return diff;
    }
  }
  return std::nullopt;
}

/// The layout-bijection walk, parameterized by optimizer options so both
/// the default-path oracle and the solver-agreement oracle (which runs it
/// once per Step I backend) share one implementation.
std::optional<std::string> check_bijection_with(
    const FuzzCase& fc, const core::OptimizerOptions& options) {
  const core::ExperimentConfig config =
      config_for(fc, core::Scheme::kInterNode);
  const storage::StorageTopology topology(config.topology);
  const parallel::ParallelSchedule schedule(fc.program, fc.system.threads,
                                            fc.system.mapping);
  const core::FileLayoutOptimizer optimizer(topology);
  const core::OptimizationResult result =
      optimizer.optimize(fc.program, schedule, options);

  for (std::size_t a = 0; a < fc.program.arrays().size(); ++a) {
    const ir::ArrayDecl& array = fc.program.arrays()[a];
    const layout::FileLayout& layout = *result.layouts[a];
    const std::string where =
        "array " + array.name() + " (" + layout.describe() + ")";
    const std::int64_t elements = array.space().element_count();
    const std::int64_t slots = layout.file_slots();
    if (slots < elements) {
      return where + ": file_slots " + std::to_string(slots) +
             " < element count " + std::to_string(elements);
    }

    std::vector<char> seen(static_cast<std::size_t>(slots), 0);
    std::vector<std::vector<std::int64_t>> thread_slots(
        schedule.thread_count());
    const auto* internode =
        dynamic_cast<const layout::InterNodeLayout*>(&layout);
    // Slots below this bound belong to Algorithm 1's patterned region;
    // untouched elements live in the canonical tail above it.
    const std::int64_t patterned_end = slots - elements;

    std::vector<std::int64_t> e(array.dims(), 0);
    bool more = true;
    while (more) {
      const std::int64_t slot = layout.slot(e);
      if (slot < 0 || slot >= slots) {
        return where + ": slot " + std::to_string(slot) +
               " outside [0, " + std::to_string(slots) + ")";
      }
      if (seen[static_cast<std::size_t>(slot)]) {
        return where + ": two elements share slot " + std::to_string(slot) +
               " (mapping not injective)";
      }
      seen[static_cast<std::size_t>(slot)] = 1;
      if (internode != nullptr && slot < patterned_end) {
        thread_slots[internode->owner(e)].push_back(slot);
      }
      // Row-major odometer over the data space.
      more = false;
      for (std::size_t k = array.dims(); k-- > 0;) {
        if (++e[k] < array.space().extent(k)) {
          more = true;
          break;
        }
        e[k] = 0;
      }
    }

    if (internode == nullptr) continue;
    // Per-thread chunk contiguity (the Step II pattern property): each
    // thread's touched slots split into full runs of chunk_elements, every
    // run starting at one of that thread's Algorithm 1 chunk addresses,
    // with only the final run allowed to be partial.
    const std::uint64_t chunk = internode->pattern().chunk_elements();
    for (parallel::ThreadId t = 0; t < thread_slots.size(); ++t) {
      auto& slots_of_t = thread_slots[t];
      std::sort(slots_of_t.begin(), slots_of_t.end());
      std::unordered_set<std::int64_t> starts;
      for (std::uint64_t x = 0;; ++x) {
        const std::int64_t start =
            static_cast<std::int64_t>(internode->pattern().chunk_start(t, x));
        if (start >= patterned_end ||
            x > static_cast<std::uint64_t>(patterned_end) + 16) {
          break;
        }
        starts.insert(start);
      }
      std::size_t i = 0;
      while (i < slots_of_t.size()) {
        const std::int64_t start = slots_of_t[i];
        if (starts.find(start) == starts.end()) {
          return where + ": thread " + std::to_string(t) + " run at slot " +
                 std::to_string(start) +
                 " does not begin at one of its chunk addresses";
        }
        std::size_t run = 1;
        while (i + run < slots_of_t.size() &&
               slots_of_t[i + run] ==
                   start + static_cast<std::int64_t>(run) &&
               run < chunk) {
          ++run;
        }
        if (run != chunk && i + run != slots_of_t.size()) {
          return where + ": thread " + std::to_string(t) +
                 " chunk at slot " + std::to_string(start) + " holds " +
                 std::to_string(run) + " elements, expected " +
                 std::to_string(chunk) + " (chunk not contiguous)";
        }
        i += run;
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_layout_bijection(const FuzzCase& fc) {
  // Default options (the unimodular backend); check_solver_agreement
  // walks the constraint-network layouts the same way.
  return check_bijection_with(fc, core::OptimizerOptions{});
}

std::optional<std::string> check_solver_agreement(const FuzzCase& fc) {
  const parallel::ParallelSchedule schedule(fc.program, fc.system.threads,
                                            fc.system.mapping);

  for (std::size_t a = 0; a < fc.program.arrays().size(); ++a) {
    const ir::ArrayDecl& array = fc.program.arrays()[a];
    const auto groups = layout::collect_access_groups(fc.program, a);
    const layout::ArrayPartitioning uni =
        layout::partition_array(fc.program, a, schedule);
    const layout::ArrayPartitioning con =
        layout::solve_constraint_network(fc.program, a, schedule);

    // Per-backend Step I validity.
    const auto check_one = [&](const layout::ArrayPartitioning& r,
                               const char* backend)
        -> std::optional<std::string> {
      const std::string where =
          "array " + array.name() + " [" + backend + "]";
      if (!r.partitioned) return std::nullopt;
      if (r.alpha <= 0) {
        return where + ": alpha " + std::to_string(r.alpha) +
               " not positive";
      }
      if (!linalg::is_unimodular(r.transform)) {
        return where + ": transform is not unimodular:\n" +
               r.transform.to_string();
      }
      if (r.hyperplane != r.transform.row(r.partition_dim)) {
        return where + ": hyperplane is not row " +
               std::to_string(r.partition_dim) + " of the transform";
      }
      if (r.s_min > r.s_max) {
        return where + ": s range [" + std::to_string(r.s_min) + ", " +
               std::to_string(r.s_max) + "] is empty";
      }
      const std::int64_t recomputed =
          layout::satisfied_weight_of(r.hyperplane, groups);
      if (r.satisfied_weight > recomputed) {
        return where + ": claims weight " +
               std::to_string(r.satisfied_weight) +
               " but the hyperplane only satisfies " +
               std::to_string(recomputed);
      }
      if (recomputed > r.total_weight) {
        return where + ": satisfied weight " + std::to_string(recomputed) +
               " exceeds total " + std::to_string(r.total_weight);
      }
      return std::nullopt;
    };
    if (auto fail = check_one(uni, "unimodular")) return fail;
    if (auto fail = check_one(con, "constraint")) return fail;

    // Dominance: the constraint network's domain contains the greedy's
    // hyperplane, so it must partition whenever the greedy does and its
    // chosen hyperplane must satisfy at least as much weight.
    if (uni.partitioned && !con.partitioned) {
      return "array " + array.name() +
             ": unimodular partitions but constraint network does not";
    }
    if (uni.partitioned && con.partitioned) {
      const std::int64_t uni_weight =
          layout::satisfied_weight_of(uni.hyperplane, groups);
      const std::int64_t con_weight =
          layout::satisfied_weight_of(con.hyperplane, groups);
      if (con_weight < uni_weight) {
        return "array " + array.name() + ": constraint network weight " +
               std::to_string(con_weight) + " < unimodular weight " +
               std::to_string(uni_weight) +
               " (the greedy anchor was lost)";
      }
      if (con_weight > uni_weight) {
        // A genuine improvement over the greedy — benign, worth logging.
        FLO_LOG_DEBUG << "solver-agreement: " << fc.program.name() << "/"
                      << array.name() << " constraint " << con_weight
                      << " > unimodular " << uni_weight << " (of "
                      << uni.total_weight << ")";
      }
    }
  }

  // Both backends must also produce valid end-to-end layouts.
  core::OptimizerOptions options;
  options.solver = core::SolverKind::kUnimodular;
  if (auto fail = check_bijection_with(fc, options)) {
    return "[unimodular] " + *fail;
  }
  options.solver = core::SolverKind::kConstraintNetwork;
  if (auto fail = check_bijection_with(fc, options)) {
    return "[constraint] " + *fail;
  }
  return std::nullopt;
}

std::optional<std::string> check_tenant_isolation(const FuzzCase& fc) {
  // The interleaver's N=1 contract (DESIGN.md §4j): wrapping a single
  // program in InterleavedTraceSource — under either policy — must leave
  // the simulation bit-identical to the plain run in BOTH cores, with the
  // one tenant's slice conserving the aggregate counters exactly. This is
  // what makes every multi-tenant number trustworthy: tenancy adds
  // attribution, never simulation drift.
  static constexpr core::Scheme kSchemes[] = {core::Scheme::kDefault,
                                              core::Scheme::kInterNode};
  static constexpr storage::SimCoreKind kCores[] = {
      storage::SimCoreKind::kClock, storage::SimCoreKind::kEvent};
  static constexpr trace::InterleavePolicy kPolicies[] = {
      trace::InterleavePolicy::kRoundRobin,
      trace::InterleavePolicy::kSeededRandom};
  for (core::Scheme scheme : kSchemes) {
    const core::ExperimentConfig config = config_for(fc, scheme);
    const storage::StorageTopology topology(config.topology);
    const core::CompiledExperiment compiled =
        core::compile_experiment(fc.program, config);
    trace::TraceOptions options;
    options.emit_extents = storage::extents_enabled();
    const trace::StreamingTraceSource source(
        fc.program, compiled.schedule, compiled.layouts, topology, options);
    std::vector<storage::RangeHint> hints;
    if (fc.system.policy == storage::PolicyKind::kKarma) {
      const std::uint64_t segment =
          std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
      hints = trace::profile_range_hints(source, segment);
    }
    const auto run_once = [&](storage::SimCoreKind core,
                              const storage::TraceSource& trace_source,
                              bool tenants) {
      storage::HierarchySimulator simulator(
          topology, fc.system.policy,
          io_nodes_of_threads(compiled.schedule, topology), hints);
      simulator.set_core(core);
      if (tenants) {
        simulator.set_tenants(
            std::vector<std::uint32_t>(trace_source.thread_count(), 0), 1);
      }
      return simulator.run(trace_source);
    };
    for (storage::SimCoreKind core : kCores) {
      const storage::SimulationResult plain = run_once(core, source, false);
      for (trace::InterleavePolicy policy : kPolicies) {
        // Any seed works: at N=1 the seeded-random slot shuffle must be a
        // no-op, which is exactly what this oracle pins.
        const trace::InterleavedTraceSource interleaved({&source}, policy,
                                                        2012);
        storage::SimulationResult shared =
            run_once(core, interleaved, true);

        const std::string where =
            std::string("scheme ") + core::scheme_name(scheme) + ", " +
            storage::sim_core_name(core) + " core, " +
            (policy == trace::InterleavePolicy::kRoundRobin ? "round-robin"
                                                            : "seeded-random");
        if (shared.tenants.size() != 1) {
          return where + ": expected one tenant slice, got " +
                 std::to_string(shared.tenants.size());
        }
        // Conservation: the single tenant's slice must account for every
        // attributed aggregate exactly.
        const storage::TenantStats& slice = shared.tenants[0];
        const auto conserve = [&](std::uint64_t got, std::uint64_t want,
                                  const char* what)
            -> std::optional<std::string> {
          if (got == want) return std::nullopt;
          return where + ": tenant slice " + what + " " +
                 std::to_string(got) + " != aggregate " +
                 std::to_string(want);
        };
        if (auto f = conserve(slice.accesses, shared.accesses, "accesses"))
          return f;
        if (auto f = conserve(slice.elements, shared.elements, "elements"))
          return f;
        if (auto f = conserve(slice.io_lookups, shared.io.lookups,
                              "io_lookups"))
          return f;
        if (auto f = conserve(slice.io_hits, shared.io.hits, "io_hits"))
          return f;
        if (auto f = conserve(slice.storage_lookups, shared.storage.lookups,
                              "storage_lookups"))
          return f;
        if (auto f = conserve(slice.storage_hits, shared.storage.hits,
                              "storage_hits"))
          return f;
        if (auto f = conserve(slice.disk_reads, shared.disk_reads,
                              "disk_reads"))
          return f;
        if (auto f = conserve(slice.bytes_filled,
                              shared.io.bytes_filled +
                                  shared.storage.bytes_filled,
                              "bytes_filled"))
          return f;
        double busy = 0;
        for (double t : shared.thread_time) busy += t;
        if (slice.busy_time != busy) {
          return where + ": tenant busy_time does not equal summed "
                 "thread_time";
        }

        // Bit-identity: with the tenant slices stripped the interleaved
        // run must equal the plain run exactly, doubles included.
        shared.tenants.clear();
        if (!(shared == plain)) {
          return where + ": N=1 interleaved run diverges from the plain "
                 "run:\n  interleaved: " + shared.summary() +
                 "\n  plain:       " + plain.summary();
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_qos_neutrality(const FuzzCase& fc) {
  // The QoS layer's neutrality contract (DESIGN.md §4k): the degenerate
  // QoS configurations must be exact no-ops. One tenant holding 100% of
  // the shares under the `look` scheduler and default priority is the
  // old simulator spelled differently — the single partition IS the
  // unpartitioned cache and the explicit LOOK scheduler IS the event
  // core's built-in elevator — so the run must be bit-identical to the
  // plain baseline in BOTH cores, static and dynamic modes alike. The
  // scheduler-only config (enabled, empty shares — what a bare FLO_SCHED
  // produces) must be neutral too. Everything the QoS scenarios measure
  // rests on this floor: a delta under real shares is only attributable
  // to policy if the do-nothing policy costs nothing.
  static constexpr storage::SimCoreKind kCores[] = {
      storage::SimCoreKind::kClock, storage::SimCoreKind::kEvent};
  const core::ExperimentConfig config =
      config_for(fc, core::Scheme::kDefault);
  const storage::StorageTopology topology(config.topology);
  const core::CompiledExperiment compiled =
      core::compile_experiment(fc.program, config);
  trace::TraceOptions options;
  options.emit_extents = storage::extents_enabled();
  const trace::StreamingTraceSource source(
      fc.program, compiled.schedule, compiled.layouts, topology, options);
  std::vector<storage::RangeHint> hints;
  if (fc.system.policy == storage::PolicyKind::kKarma) {
    const std::uint64_t segment =
        std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
    hints = trace::profile_range_hints(source, segment);
  }

  const auto run_once = [&](const storage::StorageTopology& topo,
                            storage::SimCoreKind core, bool tenants) {
    storage::HierarchySimulator simulator(
        topo, fc.system.policy,
        io_nodes_of_threads(compiled.schedule, topo), hints);
    simulator.set_core(core);
    if (tenants) {
      simulator.set_tenants(
          std::vector<std::uint32_t>(source.thread_count(), 0), 1);
    }
    return simulator.run(source);
  };

  struct Mode {
    const char* label;
    storage::QosConfig qos;
    bool tenants;
  };
  std::vector<Mode> modes(3);
  modes[0].label = "static 100% share";
  modes[0].qos.enabled = true;
  modes[0].qos.shares = {1};
  modes[0].tenants = true;
  modes[1].label = "dynamic 100% share";
  modes[1].qos.enabled = true;
  modes[1].qos.shares = {1};
  modes[1].qos.dynamic_shares = true;
  modes[1].qos.epoch_accesses = 64;  // small: epochs must actually fire
  modes[1].tenants = true;
  modes[2].label = "scheduler-only (bare FLO_SCHED)";
  modes[2].qos.enabled = true;
  modes[2].tenants = false;

  for (storage::SimCoreKind core : kCores) {
    const storage::SimulationResult plain = run_once(topology, core, false);
    for (const Mode& mode : modes) {
      storage::TopologyConfig qos_config = config.topology;
      qos_config.qos = mode.qos;
      const storage::StorageTopology qos_topology(qos_config);
      storage::SimulationResult shared =
          run_once(qos_topology, core, mode.tenants);

      const std::string where = std::string(storage::sim_core_name(core)) +
                                " core, " + mode.label;
      if (mode.tenants && shared.tenants.size() != 1) {
        return where + ": expected one tenant slice, got " +
               std::to_string(shared.tenants.size());
      }
      shared.tenants.clear();
      if (!(shared == plain)) {
        return where + ": degenerate QoS run diverges from the "
               "unpartitioned baseline:\n  qos:   " + shared.summary() +
               "\n  plain: " + plain.summary();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_sim_stop_time(const FuzzCase& fc) {
  // HierarchySimulator::run's stop-time contract (DESIGN.md §4l), which
  // the bounded reindexing profiler relies on for exactness: a stop time
  // above the full run's exec_time changes nothing, bit for bit, and one
  // at or below it comes back with an exec_time no smaller than itself.
  static constexpr storage::SimCoreKind kCores[] = {
      storage::SimCoreKind::kClock, storage::SimCoreKind::kEvent};
  static constexpr double kScales[] = {0.5, 0.999, 1.0, 1.001};
  const core::ExperimentConfig config =
      config_for(fc, core::Scheme::kDefault);
  const storage::StorageTopology topology(config.topology);
  const core::CompiledExperiment compiled =
      core::compile_experiment(fc.program, config);

  // "Extents off" means a per-block trace and the clock core's per-block
  // reference path; "on" means extent events, which the clock core
  // batches and the event core may fold in closed form.
  for (bool extents : {true, false}) {
    trace::TraceOptions options;
    options.emit_extents = extents;
    const trace::StreamingTraceSource source(
        fc.program, compiled.schedule, compiled.layouts, topology, options);
    std::vector<storage::RangeHint> hints;
    if (fc.system.policy == storage::PolicyKind::kKarma) {
      const std::uint64_t segment =
          std::max<std::uint64_t>(1, topology.io_cache_blocks() / 8);
      hints = trace::profile_range_hints(source, segment);
    }
    for (storage::SimCoreKind core : kCores) {
      storage::HierarchySimulator simulator(
          topology, fc.system.policy,
          io_nodes_of_threads(compiled.schedule, topology), hints);
      simulator.set_core(core);
      simulator.set_extent_batching(extents);
      const storage::SimulationResult full = simulator.run(source);
      const std::string where = std::string(storage::sim_core_name(core)) +
                                " core, extents " + (extents ? "on" : "off");
      for (double scale : kScales) {
        const double limit = full.exec_time * scale;
        const storage::SimulationResult bounded =
            simulator.run(source, limit);
        std::ostringstream os;
        os << where << ", stop at " << scale << " x exec_time (" << limit
           << ")";
        if (full.exec_time < limit) {
          if (simulator.stopped() || to_wire(bounded) != to_wire(full)) {
            return os.str() + ": a stop time above exec_time changed the "
                   "run:\n  bounded: " + bounded.summary() +
                   "\n  full:    " + full.summary();
          }
        } else if (!(bounded.exec_time >= limit)) {
          os << ": stopped run reports exec_time " << bounded.exec_time
             << " below its stop time (full run " << full.exec_time << ")";
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_engine_workers(const FuzzCase& fc) {
  std::vector<core::ExperimentJob> jobs;
  jobs.push_back({"default", &fc.program,
                  config_for(fc, core::Scheme::kDefault)});
  jobs.push_back({"inter-node", &fc.program,
                  config_for(fc, core::Scheme::kInterNode)});

  core::EngineOptions serial;
  serial.workers = 1;
  const auto base = core::ExperimentEngine(serial).run(jobs);
  core::EngineOptions parallel_opts;
  parallel_opts.workers = 3;
  const auto wide = core::ExperimentEngine(parallel_opts).run(jobs);
  core::EngineOptions no_share = parallel_opts;
  no_share.share_compilations = false;
  const auto unshared = core::ExperimentEngine(no_share).run(jobs);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!(base[i].sim == wide[i].sim)) {
      return "cell '" + jobs[i].label +
             "' differs between 1 and 3 engine workers:\n  1: " +
             base[i].sim.summary() + "\n  3: " + wide[i].sim.summary();
    }
    if (!(base[i].sim == unshared[i].sim)) {
      return "cell '" + jobs[i].label +
             "' differs with compile sharing disabled";
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_wire_roundtrip(const FuzzCase& fc) {
  const core::ExperimentConfig config = config_for(fc, core::Scheme::kDefault);
  const storage::SimulationResult result =
      core::run_experiment(fc.program, config).sim;
  const std::string wire = storage::to_wire(result);
  const auto back = storage::from_wire(wire);
  if (!back) {
    return "from_wire rejected a line produced by to_wire: " + wire;
  }
  if (!(*back == result)) {
    return "to_wire/from_wire round trip is not bit-exact:\n  " + wire +
           "\n  re-encoded: " + storage::to_wire(*back);
  }
  // Corrupted lines must be rejected (or reinterpreted), never crash.
  for (std::size_t cut = 0; cut < wire.size(); cut += 7) {
    std::string mangled = wire.substr(0, cut);
    try {
      (void)storage::from_wire(mangled);
    } catch (const std::exception& err) {
      return std::string("from_wire threw on a truncated line: ") +
             err.what();
    }
  }
  return std::nullopt;
}

std::optional<std::string> check_conversion_roundtrip(const FuzzCase& fc) {
  const core::ExperimentConfig config =
      config_for(fc, core::Scheme::kInterNode);
  const storage::StorageTopology topology(config.topology);
  const parallel::ParallelSchedule schedule(fc.program, fc.system.threads,
                                            fc.system.mapping);
  const core::FileLayoutOptimizer optimizer(topology);
  const core::OptimizationResult result =
      optimizer.optimize(fc.program, schedule);

  for (std::size_t a = 0; a < fc.program.arrays().size(); ++a) {
    const ir::ArrayDecl& array = fc.program.arrays()[a];
    const layout::RowMajorLayout canonical(array.space());
    const layout::FileLayout& optimized = *result.layouts[a];
    const std::string where = "array " + array.name();

    // Move every element canonical -> optimized -> canonical and require
    // the original file contents back (conversion is element-wise).
    std::vector<std::int64_t> file_canonical(
        static_cast<std::size_t>(canonical.file_slots()), -1);
    std::vector<std::int64_t> file_optimized(
        static_cast<std::size_t>(optimized.file_slots()), -1);
    std::vector<std::int64_t> file_back(file_canonical.size(), -1);
    std::vector<std::int64_t> e(array.dims(), 0);
    bool more = true;
    while (more) {
      const std::int64_t idx = array.space().linearize_row_major(e);
      const std::size_t cs = static_cast<std::size_t>(canonical.slot(e));
      const std::size_t os = static_cast<std::size_t>(optimized.slot(e));
      file_canonical[cs] = idx;
      file_optimized[os] = file_canonical[cs];
      more = false;
      for (std::size_t k = array.dims(); k-- > 0;) {
        if (++e[k] < array.space().extent(k)) {
          more = true;
          break;
        }
        e[k] = 0;
      }
    }
    std::fill(e.begin(), e.end(), 0);
    more = true;
    while (more) {
      const std::size_t cs = static_cast<std::size_t>(canonical.slot(e));
      const std::size_t os = static_cast<std::size_t>(optimized.slot(e));
      file_back[cs] = file_optimized[os];
      more = false;
      for (std::size_t k = array.dims(); k-- > 0;) {
        if (++e[k] < array.space().extent(k)) {
          more = true;
          break;
        }
        e[k] = 0;
      }
    }
    if (file_back != file_canonical) {
      return where + ": canonical -> optimized -> canonical is not identity";
    }

    const layout::ConversionPlan there = layout::plan_conversion(
        array, canonical, optimized, fc.system.config);
    const layout::ConversionPlan back = layout::plan_conversion(
        array, optimized, canonical, fc.system.config);
    if (there.total_elements != array.space().element_count()) {
      return where + ": conversion plan covers " +
             std::to_string(there.total_elements) + " of " +
             std::to_string(array.space().element_count()) + " elements";
    }
    if (there.moved_elements != back.moved_elements) {
      return where + ": moved-element count is not symmetric (" +
             std::to_string(there.moved_elements) + " vs " +
             std::to_string(back.moved_elements) + ")";
    }
    if (!layout::plan_conversion(array, optimized, optimized,
                                 fc.system.config)
             .is_identity()) {
      return where + ": layout -> itself is not an identity conversion";
    }
  }
  return std::nullopt;
}

}  // namespace

const std::vector<Oracle>& all_oracles() {
  static const std::vector<Oracle> oracles = {
      {"parse-roundtrip", "emit_flo -> parse_program reproduces the program",
       false, check_parse_roundtrip},
      {"parse-total",
       "mutated program text is rejected with ParseError, never a crash "
       "or a leaked exception",
       false, check_parse_total},
      {"count-conservation",
       "streaming events carry the closed-form element count; extent "
       "streams expand to the plain stream",
       false, check_count_conservation},
      {"stream-vs-eager",
       "streaming cursors replay the eager generator bit-for-bit", true,
       check_stream_vs_eager},
      {"extent-equivalence",
       "simulator extent fast path matches the per-block reference", true,
       check_extent_equivalence},
      {"event-vs-clock",
       "event core matches the clock core bit-exactly inside the "
       "no-contention envelope (one thread, prefetch off, faults off; "
       "model_writes traces and the end-of-run write-back flush included)",
       true, check_event_vs_clock},
      {"tenant-isolation",
       "an N=1 interleaved run is bit-identical to the plain run in both "
       "cores, with the tenant slice conserving the aggregates",
       true, check_tenant_isolation},
      {"qos-neutrality",
       "a single tenant with 100% share, default priority and the look "
       "scheduler — static, dynamic, and scheduler-only modes — is "
       "bit-identical to the unpartitioned baseline in both cores",
       true, check_qos_neutrality},
      {"sim-stop-time",
       "a simulator stop time above exec_time leaves the run bit-identical "
       "and one at or below it reports at least the stop time, in both "
       "cores with extents on and off",
       true, check_sim_stop_time},
      {"layout-bijection",
       "optimized layouts are injective slot maps with per-thread chunk "
       "contiguity",
       true, check_layout_bijection},
      {"solver-agreement",
       "both Step I backends emit valid partitionings; the constraint "
       "network never satisfies less weight than the unimodular greedy",
       true, check_solver_agreement},
      {"engine-workers",
       "experiment grids are worker-count and compile-cache independent",
       true, check_engine_workers},
      {"wire-roundtrip",
       "SimulationResult to_wire/from_wire round-trips bit-exactly", true,
       check_wire_roundtrip},
      {"conversion-roundtrip",
       "canonical -> optimized -> canonical file conversion is identity",
       true, check_conversion_roundtrip},
  };
  return oracles;
}

std::vector<const Oracle*> select_oracles(const std::string& glob) {
  std::vector<const Oracle*> out;
  for (const Oracle& oracle : all_oracles()) {
    if (util::glob_match(glob, oracle.name)) out.push_back(&oracle);
  }
  return out;
}

std::optional<std::string> run_oracle(const Oracle& oracle,
                                      const FuzzCase& fuzz_case) {
  try {
    return oracle.check(fuzz_case);
  } catch (const std::exception& err) {
    return std::string("oracle aborted with an exception: ") + err.what();
  }
}

}  // namespace flo::testing
