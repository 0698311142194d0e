/**
 * @file
 * Crash-containment and resumption tests: a segfaulting cell under
 * VPIR_ISOLATE=1 must not cost the sweep, per-cell deadlines must
 * kill runaway cells in both execution modes, a graceful stop must
 * leave a resumable disk cache behind, and the isolated mode must be
 * bit-identical to the in-process mode on clean sweeps.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sweep/isolate.hh"
#include "sweep/stats_json.hh"
#include "sweep/sweep.hh"

using namespace vpir;
using namespace vpir::sweep;

namespace
{

constexpr uint64_t TEST_INSTS = 20000;

/** setenv/unsetenv for the test's scope (engines read the environment
 *  at construction, so ordering matters). */
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
    std::string d = std::string("isolate_test_cache_") + tag;
    std::filesystem::remove_all(d);
    std::filesystem::create_directories(d);
    return d;
}

size_t
fileCount(const std::string &dir)
{
    size_t n = 0;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        (void)ent;
        ++n;
    }
    return n;
}

TEST(Isolate, StatsBitIdenticalToInProcess)
{
    std::vector<SweepCell> cs = {
        cell("compress", "base", baseConfig()),
        cell("perl", "ir", irConfig()),
        cell("m88ksim", "vp",
             vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                      BranchResolution::Speculative, 0)),
    };

    SweepEngine inproc(2, "");
    for (const SweepCell &c : cs)
        inproc.prefetch(c);
    inproc.drain();

    EnvGuard iso("VPIR_ISOLATE", "1");
    SweepEngine isolated(2, "");
    for (const SweepCell &c : cs)
        isolated.prefetch(c);
    isolated.drain();

    for (const SweepCell &c : cs) {
        EXPECT_TRUE(statsEqual(inproc.get(c), isolated.get(c)))
            << c.workload << "/" << c.label
            << " differs between in-process and isolated execution";
        // Workload metadata must survive the pipe too (vpirsim prints
        // it, so stdout must stay byte-identical across the modes).
        EXPECT_EQ(cellWorkloadInput(inproc, c),
                  cellWorkloadInput(isolated, c));
    }
    EXPECT_TRUE(isolated.failures().empty());
    EXPECT_EQ(isolated.cellsComputed(), cs.size());
}

TEST(Isolate, CrashingCellIsContainedAndResumable)
{
    std::string dir = scratchDir("crash");
    std::vector<SweepCell> healthy = {
        cell("compress", "base", baseConfig()),
        cell("perl", "base", baseConfig()),
    };
    SweepCell bad = cell("go", "crashme", baseConfig());

    {
        EnvGuard iso("VPIR_ISOLATE", "1");
        EnvGuard hook("VPIR_TEST_CRASH_CELL", "crashme");
        SweepEngine eng(2, dir);
        eng.prefetch(healthy[0]);
        eng.prefetch(bad);
        eng.prefetch(healthy[1]);
        eng.drain();

        // The crash became a structured failure naming the signal...
        std::vector<CellFailure> fails = eng.failures();
        ASSERT_EQ(fails.size(), 1u);
        EXPECT_EQ(fails[0].workload, "go");
        EXPECT_EQ(fails[0].label, "crashme");
        EXPECT_FALSE(fails[0].timedOut);
        EXPECT_NE(fails[0].error.find("SIGSEGV"), std::string::npos)
            << fails[0].error;
        EXPECT_EQ(eng.get(bad).committedInsts, 0u);

        // ...and every other cell completed, bit-identical to a clean
        // engine.
        SweepEngine clean(1, "");
        for (const SweepCell &c : healthy)
            EXPECT_TRUE(statsEqual(eng.get(c), clean.get(c)))
                << c.workload << "/" << c.label;

        // Failed cells never reach the disk cache.
        EXPECT_EQ(fileCount(dir), healthy.size());
    }

    // Rerun without the crash hook: only the crashed cell is
    // recomputed; the completed ones resume from the cache.
    SweepEngine rerun(2, dir);
    for (const SweepCell &c : healthy)
        rerun.prefetch(c);
    rerun.prefetch(bad);
    rerun.drain();
    EXPECT_TRUE(rerun.failures().empty());
    EXPECT_EQ(rerun.cellsFromDiskCache(), healthy.size());
    EXPECT_EQ(rerun.cellsComputed(), 1u);
    EXPECT_GT(rerun.get(bad).committedInsts, 0u);

    std::filesystem::remove_all(dir);
}

TEST(Isolate, DeadlineKillsRunawayIsolatedCell)
{
    EnvGuard iso("VPIR_ISOLATE", "1");
    EnvGuard timeout("VPIR_CELL_TIMEOUT_MS", "150");
    SweepEngine eng(1, "");
    eng.prefetch(longRunningCell());
    eng.drain();

    std::vector<CellFailure> fails = eng.failures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(fails[0].timedOut);
    EXPECT_NE(fails[0].error.find("deadline exceeded"),
              std::string::npos)
        << fails[0].error;
}

TEST(Isolate, DeadlineStopsRunawayInProcessCell)
{
    // Same budget, no fork: the core's cycle loop polls the
    // cooperative deadline and panics into a structured failure.
    EnvGuard timeout("VPIR_CELL_TIMEOUT_MS", "150");
    SweepEngine eng(1, "");
    eng.prefetch(longRunningCell());
    eng.drain();

    std::vector<CellFailure> fails = eng.failures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_TRUE(fails[0].timedOut);
    EXPECT_NE(fails[0].error.find("deadline exceeded"),
              std::string::npos)
        << fails[0].error;
}

TEST(Isolate, RlimitTurnsOverconsumptionIntoFailure)
{
    EnvGuard iso("VPIR_ISOLATE", "1");
    EnvGuard rlimit("VPIR_CELL_RLIMIT_MB", "8");
    SweepEngine eng(1, "");
    SweepCell c = cell("compress", "hybrid", hybridConfig());
    eng.prefetch(c);
    eng.drain();

    // The workload is built before the fork, but a hybrid core builds
    // every predictor table, megabytes that 8MB of address space
    // cannot hold; the child dies on allocation failure (the exact
    // signal/exit depends on the allocator and sanitizers) and the
    // sweep survives.
    std::vector<CellFailure> fails = eng.failures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_FALSE(fails[0].error.empty());
    EXPECT_EQ(eng.get(c).committedInsts, 0u);
}

TEST(Sweep, GracefulStopSkipsQueuedCellsAndRerunResumes)
{
    std::string dir = scratchDir("resume");
    std::vector<SweepCell> cs = {
        cell("compress", "base", baseConfig()),
        cell("perl", "base", baseConfig()),
        cell("go", "base", baseConfig()),
        cell("m88ksim", "base", baseConfig()),
    };

    {
        SweepEngine eng(1, dir);
        // Complete the first two cells...
        eng.get(cs[0]);
        eng.get(cs[1]);
        // ...then a stop request (what the SIGINT handler issues on
        // the global engine) abandons the rest unrun. The stop lands
        // before the remaining cells are queued, so none of them can
        // slip into a worker first.
        eng.requestStop(SIGINT);
        for (const SweepCell &c : cs)
            eng.prefetch(c);
        eng.drain();

        EXPECT_EQ(eng.stopRequestedSignal(), SIGINT);
        EXPECT_EQ(eng.cellsComputed(), 2u);
        EXPECT_EQ(eng.cellsSkipped(), 2u);
        EXPECT_TRUE(eng.failures().empty());
        EXPECT_EQ(eng.timings().size(), 2u);
        // The completed cells were flushed to the cache as they
        // finished.
        EXPECT_EQ(fileCount(dir), 2u);
    }

    // Rerun: completed cells load from the cache, only the skipped
    // ones are recomputed, and results match a clean engine.
    SweepEngine rerun(2, dir);
    for (const SweepCell &c : cs)
        rerun.prefetch(c);
    rerun.drain();
    EXPECT_EQ(rerun.cellsFromDiskCache(), 2u);
    EXPECT_EQ(rerun.cellsComputed(), 2u);
    SweepEngine clean(1, "");
    for (const SweepCell &c : cs)
        EXPECT_TRUE(statsEqual(rerun.get(c), clean.get(c)))
            << c.workload << "/" << c.label;

    std::filesystem::remove_all(dir);
}

TEST(DiskCache, SchemaFingerprintMismatchRecomputes)
{
    std::string dir = scratchDir("schema");
    SweepCell c = cell("compress", "base", baseConfig());

    CoreStats fresh;
    {
        SweepEngine writer(1, dir);
        fresh = writer.get(c);
    }

    // Flip one digit of the stamped stats-schema fingerprint, as if
    // the file had been written by a binary with a different stat
    // field set (the per-field payload may even still parse — the
    // fingerprint must reject it first).
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(ent.path());
        std::stringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();
        size_t pos = text.find("\"stats_schema\": \"");
        ASSERT_NE(pos, std::string::npos);
        pos += std::strlen("\"stats_schema\": \"");
        text[pos] = text[pos] == '0' ? '1' : '0';
        std::ofstream out(ent.path());
        out << text;
    }

    SweepEngine reader(1, dir);
    EXPECT_TRUE(statsEqual(fresh, reader.get(c)));
    EXPECT_EQ(reader.cellsFromDiskCache(), 0u);
    EXPECT_EQ(reader.cellsComputed(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(DiskCache, StaleTmpFilesScrubbedAtStartup)
{
    std::string dir = scratchDir("tmpscrub");
    // What a SIGKILLed writer leaves behind: a published record and a
    // half-written tmp that never got renamed.
    { std::ofstream(dir + "/keep-0123456789abcdef.json") << "{}\n"; }
    { std::ofstream(dir + "/dead-fedcba9876543210.json.tmp.4242")
          << "{\"schema\":"; }

    SweepEngine eng(1, dir);
    EXPECT_FALSE(std::filesystem::exists(
        dir + "/dead-fedcba9876543210.json.tmp.4242"));
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/keep-0123456789abcdef.json"));

    std::filesystem::remove_all(dir);
}

// The fork wire protocol carries every field of the outcome bit for
// bit, and a child killed mid-write (any strict prefix of the payload)
// or trailing garbage is rejected rather than half-read.
TEST(Isolate, WireProtocolRoundTripsAndRejectsEveryPrefix)
{
    CellOutcome out;
    out.failed = true;
    out.timedOut = true;
    uint64_t next = 1;
    forEachStatField(out.stats, [&next](const char *, uint64_t &v) {
        v = next;
        next = next * 6364136223846793005ull + 1442695040888963407ull;
    });
    out.stats.haltedCleanly = true;
    out.workloadInput = "ref \"input\"\n";
    out.error = std::string("panic:\0\x01\xff tail", 14);
    out.setupSeconds = 0.1234567890123;
    out.runSeconds = 3.0e-9;
    out.asmBuilt = true;
    out.profile.enabled = true;
    forEachProfileField(out.profile, [&next](const char *, uint64_t &v) {
        v = next++;
    });

    std::string wire = encodeOutcome(out);
    CellOutcome back;
    ASSERT_TRUE(decodeOutcome(wire, back));
    EXPECT_TRUE(statsEqual(out.stats, back.stats));
    EXPECT_TRUE(back.stats.haltedCleanly);
    EXPECT_EQ(back.failed, out.failed);
    EXPECT_EQ(back.timedOut, out.timedOut);
    EXPECT_EQ(back.workloadInput, out.workloadInput);
    EXPECT_EQ(back.error, out.error);
    EXPECT_EQ(back.setupSeconds, out.setupSeconds);
    EXPECT_EQ(back.runSeconds, out.runSeconds);
    EXPECT_EQ(back.asmBuilt, out.asmBuilt);
    EXPECT_EQ(back.warmBuilt, out.warmBuilt);
    EXPECT_EQ(back.profile.enabled, out.profile.enabled);
    EXPECT_EQ(back.profile.fetchNs, out.profile.fetchNs);
    EXPECT_EQ(back.profile.idleSkippedCycles,
              out.profile.idleSkippedCycles);

    for (size_t n = 0; n < wire.size(); ++n) {
        CellOutcome junk;
        EXPECT_FALSE(decodeOutcome(wire.substr(0, n), junk))
            << "accepted a " << n << "-byte prefix of " << wire.size();
    }
    CellOutcome junk;
    EXPECT_FALSE(decodeOutcome(wire + '\0', junk));
}

TEST(Isolate, SignalNamesAreReadable)
{
    EXPECT_EQ(signalName(SIGSEGV), "SIGSEGV");
    EXPECT_EQ(signalName(SIGKILL), "SIGKILL");
    EXPECT_EQ(signalName(1000), "signal 1000");
}

} // anonymous namespace
