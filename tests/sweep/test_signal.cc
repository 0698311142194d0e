/**
 * @file
 * Interrupt and timing-JSON tests: a SIGINT mid-sweep must end the
 * process by the signal's default action, like a crash or a kill,
 * and leave a disk cache a rerun resumes from; a sweep's timing
 * JSON must carry every simulated cell's profile next to the keys the
 * benchmark reads.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fnv.hh"
#include "common/json.hh"
#include "sim/simulator.hh"
#include "sweep/stats_json.hh"
#include "sweep/sweep.hh"

using namespace vpir;
using namespace vpir::sweep;

namespace
{

constexpr uint64_t TEST_INSTS = 20000;

SweepCell
cell(const std::string &workload, const std::string &label,
     const CoreParams &params)
{
    WorkloadScale scale;
    scale.factor = 0.25;
    return SweepCell{workload, label, withLimits(params, TEST_INSTS),
                     scale};
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

// A self-delivered SIGINT between cells must end the process at once:
// the sweep engine installs no handler, so ^C is the same early end
// as a crash or a kill, and the disk cache is the one resume path. The
// scenario runs in a forked child so the signal ends only the child.
TEST(Signal, SigintEndsTheSweepAndTheCacheResumes)
{
    std::string cache = scratchDir("sigint_cache");
    std::vector<SweepCell> cs = threeCells();

    pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: reports only through how it ends. SIGINT starts at
        // its default action even where the parent shell ignores it,
        // so only a handler installed by the engine could catch it.
        std::signal(SIGINT, SIG_DFL);
        setenv("VPIR_JOBS", "1", 1);
        setenv("VPIR_RESULT_CACHE", cache.c_str(), 1);
        SweepEngine &eng = SweepEngine::global();
        eng.get(cs[0]); // finishes and is published to the disk cache
        raise(SIGINT);  // must end the process here
        for (const SweepCell &c : cs)
            eng.prefetch(c);
        eng.drain();
        _exit(0);
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited with status " << WEXITSTATUS(status)
        << " instead of dying by SIGINT";
    EXPECT_EQ(WTERMSIG(status), SIGINT);

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

/** The timing JSON's line for @p key ("  \"key\": {...},"), as a
 *  one-member object; the document itself holds an array, which the
 *  reader does not parse, but the writer puts each member on a line. */
JsonObject
timingMember(const std::string &json, const std::string &key)
{
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("  \"" + key + "\": ", 0) != 0)
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        return JsonObject("{" + line + "}");
    }
    return JsonObject("");
}

/** The per-cell objects of the timing JSON's "cells" array, one per
 *  line. */
std::vector<std::string>
timingCells(const std::string &json)
{
    std::vector<std::string> out;
    std::istringstream in(json);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("    {", 0) != 0)
            continue;
        if (line.back() == ',')
            line.pop_back();
        out.push_back(line);
    }
    return out;
}

// Tier-1 guard of the profiler plumbing that perfbench's traced passes
// read: sweep threeCells() and check that the timing JSON carries, for
// every simulated cell, the profile (whose run and skipped cycles must
// add up to the cell's simulated cycles, and whose emulator steps
// cover every committed instruction) and every key perfbench/suite.py
// reads.
TEST(TimingJson, ProfileRidesEverySimulatedCell)
{
    std::string dir = scratchDir("timing_json");
    std::string path = dir + "/timing.json";
    std::vector<SweepCell> cs = threeCells();

    SweepEngine eng(1, "");
    for (const SweepCell &c : cs)
        eng.prefetch(c);
    eng.drain();
    ASSERT_TRUE(eng.failures().empty());
    ASSERT_TRUE(eng.writeTimingJson(path));
    std::string json = slurp(path);

    std::string warm;
    ASSERT_TRUE(timingMember(json, "warm_cache").getObject("warm_cache",
                                                           warm))
        << json;
    JsonObject wc(warm);
    for (const char *key : {"program_builds", "program_hits",
                            "snapshot_builds", "snapshot_hits"}) {
        uint64_t v;
        EXPECT_TRUE(wc.getU64(key, v)) << "warm_cache." << key;
    }

    std::vector<std::string> lines = timingCells(json);
    ASSERT_EQ(lines.size(), cs.size()) << json;
    for (size_t i = 0; i < cs.size(); ++i) {
        JsonObject cell(lines[i]);
        ASSERT_TRUE(cell.ok()) << lines[i];
        std::string workload, params_hash, prof;
        uint64_t insts = 0;
        EXPECT_TRUE(cell.getString("workload", workload));
        EXPECT_EQ(workload, cs[i].workload);
        EXPECT_TRUE(cell.getString("params_hash", params_hash));
        EXPECT_EQ(params_hash, hex16(hashParams(cs[i].params)));
        for (const char *key : {"wall_s", "setup_s", "run_s"})
            EXPECT_NE(lines[i].find(std::string("\"") + key + "\": "),
                      std::string::npos)
                << key << " missing: " << lines[i];
        EXPECT_TRUE(cell.getU64("insts", insts));
        EXPECT_EQ(insts, eng.get(cs[i]).committedInsts);

        ASSERT_TRUE(cell.getObject("profile", prof)) << lines[i];
        JsonObject p(prof);
        uint64_t issue_ns, dispatch_ns, emu_steps, skipped, run;
        EXPECT_TRUE(p.getU64("issue_ns", issue_ns)) << prof;
        ASSERT_TRUE(p.getU64("dispatch_ns", dispatch_ns)) << prof;
        // Dispatch stepped every committed instruction, HALT
        // included, once; wrong-path steps come on top.
        ASSERT_TRUE(p.getU64("emu_steps", emu_steps)) << prof;
        EXPECT_GE(emu_steps, insts) << prof;
        ASSERT_TRUE(p.getU64("idle_skipped_cycles", skipped)) << prof;
        ASSERT_TRUE(p.getU64("cycles_run", run)) << prof;
        EXPECT_GT(run, 0u);
        EXPECT_EQ(run + skipped, eng.get(cs[i]).cycles)
            << cs[i].workload << ": profile is not this cell's";
    }

    std::filesystem::remove_all(dir);
}

} // anonymous namespace
