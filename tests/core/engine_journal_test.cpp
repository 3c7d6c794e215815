// Checkpoint-journal robustness: resuming from damaged journals. A
// damaged line must be recomputed or the whole file refused loudly —
// never restored into the wrong cell and never a crash.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "ir/builder.hpp"

namespace flo::core {
namespace {

ir::Program tiny_program(std::int64_t n = 16) {
  return ir::ProgramBuilder("tiny")
      .array("A", {n, n})
      .nest("scan", {{0, n - 1}, {0, n - 1}}, 0)
      .read("A", {{1, 0}, {0, 1}})
      .done()
      .build();
}

std::string temp_journal(const char* name) {
  return testing::TempDir() + "/" + name + "." + std::to_string(::getpid()) +
         ".journal";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// Runs a 3-cell grid through a counting runner; returns runner calls.
int run_grid(const ir::Program& program, const std::string& journal,
             std::vector<JobResult>* results_out = nullptr) {
  ExperimentConfig base;
  std::vector<ExperimentJob> jobs;
  for (const char* label : {"cell-a", "cell-b", "cell-c"}) {
    ExperimentConfig config = base;
    // Distinct thread counts give each cell a distinct journal key.
    config.threads = 16 + 16 * (label[5] - 'a');
    jobs.push_back({label, &program, config});
  }
  std::atomic<int> runs{0};
  EngineOptions options;
  options.workers = 1;
  options.journal_path = journal;
  options.runner = [&runs](const ExperimentJob& job) -> ExperimentResult {
    runs.fetch_add(1);
    ExperimentResult r;
    r.sim.exec_time = static_cast<double>(job.config.threads);
    return r;
  };
  const auto results = ExperimentEngine(options).run_guarded(jobs);
  EXPECT_EQ(results.size(), 3u);
  for (const auto& r : results) EXPECT_FALSE(r.failed) << r.reason;
  if (results_out != nullptr) *results_out = results;
  return runs.load();
}

TEST(EngineJournalRobustnessTest, TruncatedFinalLineRecomputesOnlyThatCell) {
  const auto program = tiny_program();
  const std::string journal = temp_journal("truncated_tail");
  std::remove(journal.c_str());
  EXPECT_EQ(run_grid(program, journal), 3);

  // Simulate a crash mid-append: chop the tail of the last line.
  std::string contents = read_file(journal);
  ASSERT_GT(contents.size(), 20u);
  ASSERT_EQ(contents.back(), '\n');
  contents.resize(contents.size() - 15);
  write_file(journal, contents);

  std::vector<JobResult> results;
  EXPECT_EQ(run_grid(program, journal, &results), 1)
      << "exactly the damaged cell recomputes; intact cells restore";
  // Restored values must belong to the right cells (exec_time encodes the
  // cell's thread count — a mis-attribution would swap them).
  EXPECT_DOUBLE_EQ(results[0].result.sim.exec_time, 16.0);
  EXPECT_DOUBLE_EQ(results[1].result.sim.exec_time, 32.0);
  EXPECT_DOUBLE_EQ(results[2].result.sim.exec_time, 48.0);

  // A cell line written by an older wire version (sim-v4) no longer
  // parses: that cell recomputes like a damaged one.
  contents = read_file(journal);
  const std::size_t tag = contents.find(" sim-v5 ");
  ASSERT_NE(tag, std::string::npos);
  contents.replace(tag, 8, " sim-v4 ");
  write_file(journal, contents);
  EXPECT_EQ(run_grid(program, journal, &results), 1)
      << "the sim-v4 cell recomputes; the current-version cells restore";
  EXPECT_DOUBLE_EQ(results[0].result.sim.exec_time, 16.0);
  EXPECT_DOUBLE_EQ(results[1].result.sim.exec_time, 32.0);
  EXPECT_DOUBLE_EQ(results[2].result.sim.exec_time, 48.0);
  std::remove(journal.c_str());
}

TEST(EngineJournalRobustnessTest, InterleavedGarbageBytesAreSkipped) {
  const auto program = tiny_program();
  const std::string journal = temp_journal("garbage_lines");
  std::remove(journal.c_str());
  EXPECT_EQ(run_grid(program, journal), 3);

  // Sprinkle garbage between intact lines (torn writes, editor damage).
  std::istringstream in(read_file(journal));
  std::ostringstream out;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    out << line << '\n';
    if (first) {
      first = false;
      continue;  // keep the header line first and intact
    }
    out << "\x01\x02\xff torn write\n";
    out << "looks like-a-key but is not\n";
  }
  write_file(journal, out.str());

  EXPECT_EQ(run_grid(program, journal), 0)
      << "garbage lines must be skipped without poisoning intact cells";
  std::remove(journal.c_str());
}

TEST(EngineJournalRobustnessTest, CrashedMidRenameLeavesTmpThatIsIgnored) {
  const auto program = tiny_program();
  const std::string journal = temp_journal("mid_rename");
  std::remove(journal.c_str());
  EXPECT_EQ(run_grid(program, journal), 3);

  // atomic_write_file writes <path>.tmp.<pid> then renames. A SIGKILL in
  // between leaves the tmp file next to the committed journal; resume
  // must read only the committed file.
  const std::string tmp = journal + ".tmp." + std::to_string(::getpid());
  write_file(tmp, "flo-journal-v2 bogus-hash\ncell half-writ");

  EXPECT_EQ(run_grid(program, journal), 0);
  std::remove(journal.c_str());
  std::remove(tmp.c_str());
}

TEST(EngineJournalRobustnessTest, HeaderOnlyJournalRecomputesEverything) {
  const auto program = tiny_program();
  const std::string journal = temp_journal("header_only");
  std::remove(journal.c_str());
  EXPECT_EQ(run_grid(program, journal), 3);

  // Crash after the header made it out but before any cell line.
  const std::string contents = read_file(journal);
  write_file(journal, contents.substr(0, contents.find('\n') + 1));
  EXPECT_EQ(run_grid(program, journal), 3);
  std::remove(journal.c_str());
}

TEST(EngineJournalRobustnessTest, DamagedHeaderRefusesOrStartsFresh) {
  const auto program = tiny_program();
  const std::string journal = temp_journal("damaged_header");
  std::remove(journal.c_str());
  EXPECT_EQ(run_grid(program, journal), 3);

  // A header that no longer says flo-journal-* is not a journal: the
  // engine must start fresh (recompute), never guess at the stale lines.
  std::string contents = read_file(journal);
  write_file(journal, "garbage header\n" +
                          contents.substr(contents.find('\n') + 1));
  EXPECT_EQ(run_grid(program, journal), 3);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace flo::core
