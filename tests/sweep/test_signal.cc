/**
 * @file
 * Graceful-interrupt and retry-ladder tests: a SIGINT mid-sweep must
 * stop the global engine at a cell boundary, report "interrupted:
 * N/M", exit 128+sig, and leave a disk cache a rerun resumes from;
 * the escalation ladder must honor VPIR_CELL_RETRIES and retry
 * deadline overruns exactly when checkpoints persist progress.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sweep/stats_json.hh"
#include "sweep/sweep.hh"

using namespace vpir;
using namespace vpir::sweep;

namespace
{

constexpr uint64_t TEST_INSTS = 20000;

class EnvGuard
{
  public:
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        setenv(name, value.c_str(), 1);
    }
    ~EnvGuard() { unsetenv(name_); }

  private:
    const char *name_;
};

SweepCell
cell(const std::string &workload, const std::string &label,
     const CoreParams &params)
{
    WorkloadScale scale;
    scale.factor = 0.25;
    return SweepCell{workload, label, withLimits(params, TEST_INSTS),
                     scale};
}

/** A cell that simulates for seconds: no instruction limit, larger
 *  input. Only useful together with a deadline. */
SweepCell
longRunningCell()
{
    WorkloadScale scale;
    scale.factor = 5.0;
    return SweepCell{"compress", "runaway", baseConfig(), scale};
}

std::string
scratchDir(const char *tag)
{
    std::string d = std::string("signal_test_") + tag;
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::vector<SweepCell>
threeCells()
{
    return {
        cell("compress", "a", baseConfig()),
        cell("go", "b", baseConfig()),
        cell("m88ksim", "c", baseConfig()),
    };
}

// A self-delivered SIGINT between cells: the global engine must finish
// the current cell, skip the queued ones, print the partial summary
// with an "interrupted ... N/M cells done" line, and exit 130. The
// whole scenario runs in a forked child because the global engine's
// interrupt epilogue legitimately calls std::exit().
TEST(Signal, GracefulSigintExits130AndCacheResumes)
{
    std::string cache = scratchDir("sigint_cache");
    std::string errfile = cache + "/child.stderr";
    std::vector<SweepCell> cs = threeCells();

    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: its gtest state is discarded; it reports only via its
        // exit status and captured stderr.
        setenv("VPIR_JOBS", "1", 1);
        setenv("VPIR_RESULT_CACHE", cache.c_str(), 1);
        if (!std::freopen(errfile.c_str(), "w", stderr))
            _exit(97);
        SweepEngine &eng = SweepEngine::global();
        eng.get(cs[0]); // completes and is flushed to the disk cache
        raise(SIGINT);  // handler records the stop; no second signal
        for (const SweepCell &c : cs)
            eng.prefetch(c);
        eng.drain(); // must print the summary and std::exit(130)
        _exit(99);   // reached only if the stop was ignored
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child died abnormally instead of exiting gracefully";
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGINT);

    std::string err = slurp(errfile);
    EXPECT_NE(err.find("interrupted by SIGINT: 1/3 cells done"),
              std::string::npos)
        << "missing/incorrect partial-progress line; stderr was:\n"
        << err;

    // The rerun must resume: one cell from disk, the other two
    // computed, and every result identical to a clean sweep.
    SweepEngine rerun(1, cache);
    for (const SweepCell &c : cs)
        rerun.prefetch(c);
    rerun.drain();
    EXPECT_EQ(rerun.cellsFromDiskCache(), 1u);
    EXPECT_EQ(rerun.cellsComputed(), 2u);
    EXPECT_TRUE(rerun.failures().empty());

    SweepEngine clean(1, "");
    for (const SweepCell &c : cs)
        EXPECT_TRUE(statsEqual(rerun.get(c), clean.get(c)))
            << c.workload << " diverged after the interrupted sweep";

    std::filesystem::remove_all(cache);
}

// VPIR_CELL_RETRIES sizes the ladder: a cell that crashes on every
// rung is attempted 1 + retries times before being reported.
TEST(Ladder, RetriesKnobControlsAttempts)
{
    EnvGuard iso("VPIR_ISOLATE", "1");
    EnvGuard hook("VPIR_TEST_CRASH_CELL", "crashme");
    EnvGuard retries("VPIR_CELL_RETRIES", "3");

    SweepEngine eng(1, "");
    SweepCell bad = cell("compress", "crashme", baseConfig());
    eng.get(bad);

    std::vector<CellFailure> fails = eng.failures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_EQ(fails[0].attempts, 4)
        << "ladder must use 1 + VPIR_CELL_RETRIES rungs";
}

// A deadline overrun is useless to retry when the retry would start
// from scratch against the same deadline — but with persisted
// checkpoints each rung carries forward the previous rung's progress,
// so timeouts become retryable. (test_isolate.cc pins the converse:
// with checkpoints off, a timeout is never retried.)
TEST(Ladder, TimeoutRetriedWhenCheckpointsPersist)
{
    std::string dir = scratchDir("timeout_ck");
    EnvGuard timeout("VPIR_CELL_TIMEOUT_MS", "150");
    EnvGuard ckdir("VPIR_CKPT_DIR", dir);

    SweepCell runaway = longRunningCell();
    runaway.params.ckptInsts = 50000;

    SweepEngine eng(1, "");
    eng.get(runaway);

    std::vector<CellFailure> fails = eng.failures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(fails[0].timedOut);
    EXPECT_EQ(fails[0].attempts, 2)
        << "a timeout with persisted checkpoints must climb the ladder";

    std::filesystem::remove_all(dir);
}

// The bench_timing JSON carries the robustness provenance fields.
TEST(Ladder, TimingJsonCarriesAttemptProvenance)
{
    std::string dir = scratchDir("timing_json");
    std::string path = dir + "/timing.json";

    SweepEngine eng(1, "");
    eng.get(cell("compress", "a", baseConfig()));
    ASSERT_TRUE(eng.writeTimingJson(path));

    std::string json = slurp(path);
    EXPECT_NE(json.find("\"attempts\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"ckpt_resumed\": false"), std::string::npos);
    EXPECT_NE(json.find("\"ckpt_written\": 0"), std::string::npos);

    std::filesystem::remove_all(dir);
}

} // anonymous namespace
