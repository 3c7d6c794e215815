// Fault-tolerant engine behaviour: per-cell exception isolation, wall-clock
// timeouts, bounded transient retries, and checkpoint/resume through the
// journal — plus grid-level determinism of injected storage faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>

#include "core/engine.hpp"
#include "ir/builder.hpp"

namespace flo::core {
namespace {

/// Engine options with `workers` threads and every other field at its
/// default (brace-initializing only the first member trips
/// -Wmissing-field-initializers).
EngineOptions with_workers(std::size_t workers) {
  EngineOptions options;
  options.workers = workers;
  return options;
}

ir::Program tiny_program(std::int64_t n = 32) {
  return ir::ProgramBuilder("tiny")
      .array("A", {n, n})
      .nest("scan", {{0, n - 1}, {0, n - 1}}, 0, /*repeat=*/2)
      .read("A", {{1, 0}, {0, 1}})
      .write("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

std::string temp_journal(const char* name) {
  return testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid()) + ".journal";
}

TEST(EngineFaultToleranceTest, CrashingAndHangingCellsDoNotKillTheGrid) {
  const auto p = tiny_program();
  ExperimentConfig base;
  std::vector<ExperimentJob> jobs;
  for (const char* label : {"ok-1", "crash", "ok-2", "hang", "ok-3"}) {
    jobs.push_back({label, &p, base});
  }
  EngineOptions options;
  options.workers = 2;
  options.job_timeout = 0.25;
  options.runner = [](const ExperimentJob& job) -> ExperimentResult {
    if (job.label == "crash") {
      throw std::runtime_error("deliberate crash in " + job.label);
    }
    if (job.label == "hang") {
      std::this_thread::sleep_for(std::chrono::seconds(2));
    }
    ExperimentResult r;
    r.sim.exec_time = 1.0;
    return r;
  };
  const auto results = ExperimentEngine(options).run_guarded(jobs);
  ASSERT_EQ(results.size(), 5u);
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[2].failed);
  EXPECT_FALSE(results[4].failed);
  EXPECT_TRUE(results[1].failed);
  EXPECT_NE(results[1].reason.find("deliberate crash"), std::string::npos);
  ASSERT_TRUE(results[1].error != nullptr);
  EXPECT_THROW(std::rethrow_exception(results[1].error), std::runtime_error);
  EXPECT_TRUE(results[3].failed);
  EXPECT_NE(results[3].reason.find("timeout"), std::string::npos);
  EXPECT_TRUE(results[3].error == nullptr);  // nothing thrown: it hung
}

TEST(EngineFaultToleranceTest, StrictRunRethrowsLowestIndexWithType) {
  const auto p = tiny_program();
  ExperimentConfig base;
  EngineOptions options;
  options.workers = 4;
  options.runner = [](const ExperimentJob& job) -> ExperimentResult {
    if (job.label == "bad") throw std::domain_error("boom");
    return {};
  };
  ExperimentEngine engine(options);
  EXPECT_THROW(engine.run({{"ok", &p, base}, {"bad", &p, base}}),
               std::domain_error);
}

TEST(EngineFaultToleranceTest, NullProgramStillThrowsInvalidArgument) {
  const auto p = tiny_program();
  ExperimentConfig base;
  ExperimentEngine engine(with_workers(4));
  EXPECT_THROW(engine.run({{"ok", &p, base}, {"bad", nullptr, base}}),
               std::invalid_argument);
}

TEST(EngineFaultToleranceTest, TransientErrorsRetryUpToBudget) {
  const auto p = tiny_program();
  ExperimentConfig base;
  std::atomic<int> calls{0};
  EngineOptions options;
  options.workers = 1;
  options.max_retries = 2;
  options.runner = [&](const ExperimentJob&) -> ExperimentResult {
    if (calls.fetch_add(1) < 2) throw TransientError("hiccup");
    ExperimentResult r;
    r.sim.exec_time = 42;
    return r;
  };
  const auto results =
      ExperimentEngine(options).run_guarded({{"flaky", &p, base}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].failed);
  EXPECT_EQ(results[0].attempts, 3u);
  EXPECT_DOUBLE_EQ(results[0].result.sim.exec_time, 42);
}

TEST(EngineFaultToleranceTest, TransientBudgetExhaustionFails) {
  const auto p = tiny_program();
  ExperimentConfig base;
  std::atomic<int> calls{0};
  EngineOptions options;
  options.workers = 1;
  options.max_retries = 1;
  options.runner = [&](const ExperimentJob&) -> ExperimentResult {
    ++calls;
    throw TransientError("still down");
  };
  const auto results =
      ExperimentEngine(options).run_guarded({{"dead", &p, base}});
  EXPECT_TRUE(results[0].failed);
  EXPECT_EQ(results[0].attempts, 2u);
  EXPECT_EQ(calls.load(), 2);
  // Non-transient failures must NOT be retried.
  calls = 0;
  options.runner = [&](const ExperimentJob&) -> ExperimentResult {
    ++calls;
    throw std::runtime_error("hard failure");
  };
  const auto hard = ExperimentEngine(options).run_guarded({{"bug", &p, base}});
  EXPECT_TRUE(hard[0].failed);
  EXPECT_EQ(calls.load(), 1);
}

TEST(EngineFaultToleranceTest, JournalResumeSkipsCompletedCells) {
  const auto p = tiny_program();
  const auto q = tiny_program(16);
  ExperimentConfig base;
  ExperimentConfig inter = base;
  inter.scheme = Scheme::kInterNode;
  const std::vector<ExperimentJob> jobs{
      {"p/default", &p, base}, {"p/inter", &p, inter}, {"q/default", &q, base}};
  const std::string journal = temp_journal("resume");
  std::remove(journal.c_str());

  EngineOptions options;
  options.workers = 2;
  options.journal_path = journal;
  const auto first = ExperimentEngine(options).run_guarded(jobs);
  ASSERT_EQ(first.size(), 3u);
  for (const auto& r : first) {
    EXPECT_FALSE(r.failed);
    EXPECT_FALSE(r.from_journal);
  }

  // Second run: every cell must come from the journal (the runner would
  // make any recomputed cell visibly different).
  EngineOptions resumed = options;
  resumed.runner = [](const ExperimentJob&) -> ExperimentResult {
    throw std::logic_error("cell recomputed despite journal");
  };
  const auto second = ExperimentEngine(resumed).run_guarded(jobs);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_FALSE(second[i].failed) << second[i].reason;
    EXPECT_TRUE(second[i].from_journal);
    EXPECT_EQ(second[i].attempts, 0u);
    EXPECT_EQ(second[i].result.sim, first[i].result.sim) << jobs[i].label;
    EXPECT_EQ(second[i].result.profiler_runs, first[i].result.profiler_runs);
  }

  // A new cell joins the grid: only it is computed.
  std::vector<ExperimentJob> extended = jobs;
  ExperimentConfig karma = base;
  karma.policy = storage::PolicyKind::kKarma;
  extended.push_back({"p/karma", &p, karma});
  std::atomic<int> computed{0};
  EngineOptions partial = options;
  partial.runner = [&](const ExperimentJob& job) -> ExperimentResult {
    ++computed;
    EXPECT_EQ(job.label, "p/karma");
    return {};
  };
  const auto third = ExperimentEngine(partial).run_guarded(extended);
  EXPECT_EQ(computed.load(), 1);
  EXPECT_TRUE(third[3].attempts == 1u && !third[3].from_journal);
  std::remove(journal.c_str());
}

TEST(EngineFaultToleranceTest, StaleJournalFromChangedProgramIsRefused) {
  // The seed bug this guards against: journal cells were keyed by label
  // alone, so editing a workload and resuming silently served results of
  // the OLD program. Keys now carry a program-content fingerprint and the
  // header a grid hash; a label whose program changed no longer matches
  // any current cell, and the resume is refused loudly.
  const auto before = tiny_program(32);
  const auto after = tiny_program(16);  // same label, different content
  ExperimentConfig base;
  const std::string journal = temp_journal("stale");
  std::remove(journal.c_str());
  EngineOptions options;
  options.workers = 1;
  options.journal_path = journal;
  const auto first =
      ExperimentEngine(options).run_guarded({{"cell", &before, base}});
  ASSERT_FALSE(first[0].failed);
  try {
    ExperimentEngine(options).run_guarded({{"cell", &after, base}});
    FAIL() << "stale journal was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find(journal), std::string::npos) << what;
  }
  std::remove(journal.c_str());
}

TEST(EngineFaultToleranceTest, JournalV1FormatRefusedWithDiagnostic) {
  const auto p = tiny_program();
  ExperimentConfig base;
  const std::string journal = temp_journal("v1");
  {
    std::ofstream out(journal);
    out << "flo-journal-v1\n";
  }
  EngineOptions options;
  options.workers = 1;
  options.journal_path = journal;
  try {
    ExperimentEngine(options).run_guarded({{"cell", &p, base}});
    FAIL() << "v1 journal was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported format"), std::string::npos) << what;
    EXPECT_NE(what.find(journal), std::string::npos) << what;
  }
  std::remove(journal.c_str());
}

TEST(EngineFaultToleranceTest, JournalSurvivesUnparseableFile) {
  const auto p = tiny_program();
  ExperimentConfig base;
  const std::string journal = temp_journal("garbage");
  {
    std::ofstream out(journal);
    out << "not a journal at all\nrandom noise\n";
  }
  EngineOptions options;
  options.workers = 1;
  options.journal_path = journal;
  const auto results =
      ExperimentEngine(options).run_guarded({{"cell", &p, base}});
  EXPECT_FALSE(results[0].failed);
  EXPECT_FALSE(results[0].from_journal);  // recomputed, not misparsed
  // The rewritten journal is now valid and resumable.
  const auto again = ExperimentEngine(options).run_guarded({{"cell", &p, base}});
  EXPECT_TRUE(again[0].from_journal);
  EXPECT_EQ(again[0].result.sim, results[0].result.sim);
  std::remove(journal.c_str());
}

TEST(EngineFaultToleranceTest, FailedCellsAreNotJournaled) {
  const auto p = tiny_program();
  ExperimentConfig base;
  const std::string journal = temp_journal("failures");
  std::remove(journal.c_str());
  std::atomic<int> calls{0};
  EngineOptions options;
  options.workers = 1;
  options.journal_path = journal;
  options.runner = [&](const ExperimentJob&) -> ExperimentResult {
    if (calls.fetch_add(1) == 0) throw std::runtime_error("first run dies");
    return {};
  };
  const auto first = ExperimentEngine(options).run_guarded({{"c", &p, base}});
  EXPECT_TRUE(first[0].failed);
  const auto second = ExperimentEngine(options).run_guarded({{"c", &p, base}});
  EXPECT_FALSE(second[0].failed);
  EXPECT_FALSE(second[0].from_journal);  // the failure was not checkpointed
  EXPECT_EQ(calls.load(), 2);
  std::remove(journal.c_str());
}

// Satellite acceptance: with a seeded FaultPlan in the topology, simulator
// stats are byte-identical across 1 and 4 engine workers.
TEST(EngineFaultToleranceTest, InjectedFaultsDeterministicAcrossWorkerCounts) {
  const auto p = tiny_program();
  const auto q = tiny_program(48);
  ExperimentConfig faulted;
  faulted.topology.fault.enabled = true;
  faulted.topology.fault.seed = 7;
  faulted.topology.fault.disk_transient_rate = 0.05;
  faulted.topology.fault.storage_transient_rate = 0.02;
  faulted.topology.fault.slow_disk_rate = 0.05;
  faulted.topology.fault.outages.push_back(
      {storage::FaultLayer::kStorage, 0, 0.0, 0.5});
  ExperimentConfig inter = faulted;
  inter.scheme = Scheme::kInterNode;
  const std::vector<ExperimentJob> jobs{{"p/default", &p, faulted},
                                        {"p/inter", &p, inter},
                                        {"q/default", &q, faulted},
                                        {"q/inter", &q, inter}};
  const auto serial = ExperimentEngine(with_workers(1)).run(jobs);
  const auto pooled = ExperimentEngine(with_workers(4)).run(jobs);
  ASSERT_EQ(serial.size(), pooled.size());
  bool any_faults = false;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(serial[i].sim, pooled[i].sim) << jobs[i].label;
    any_faults = any_faults || serial[i].sim.faults.any();
  }
  EXPECT_TRUE(any_faults);  // the injection actually fired
}

}  // namespace
}  // namespace flo::core
