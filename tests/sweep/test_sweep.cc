/**
 * @file
 * SweepEngine tests: parallel execution must be bit-identical to
 * serial for every workload and technique, the cache key must depend
 * on the full parameter set (not display labels), the on-disk result
 * cache must round-trip CoreStats losslessly and never answer a
 * checked cell, and a damaged or half-written cache file must be
 * recomputed, never read.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/differential.hh"
#include "sim/simulator.hh"
#include "sweep/stats_json.hh"
#include "sweep/sweep.hh"

using namespace vpir;
using namespace vpir::sweep;

namespace
{

/** Small but non-trivial run: exercises squashes, reuse, prediction. */
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

std::vector<SweepCell>
allCells()
{
    std::vector<SweepCell> cs;
    for (const auto &name : workloadNames()) {
        cs.push_back(cell(name, "base", baseConfig()));
        cs.push_back(cell(name, "vp",
                          vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                                   BranchResolution::Speculative, 0)));
        cs.push_back(cell(name, "ir", irConfig()));
    }
    return cs;
}

/** Unique scratch directory under the test's working dir. */
std::string
scratchDir(const char *tag)
{
    std::string d = std::string("sweep_test_cache_") + tag;
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

TEST(SweepEngine, ParallelBitIdenticalToSerial)
{
    std::vector<SweepCell> cs = allCells();

    SweepEngine serial(1, "");
    SweepEngine parallel(4, "");
    for (const SweepCell &c : cs)
        parallel.prefetch(c);
    parallel.drain();

    for (const SweepCell &c : cs) {
        const CoreStats &s = serial.get(c);
        const CoreStats &p = parallel.get(c);
        EXPECT_TRUE(statsEqual(s, p))
            << c.workload << "/" << c.label
            << " differs between serial and parallel runs";
    }
    EXPECT_EQ(parallel.cellsComputed(), cs.size());
    EXPECT_EQ(parallel.cellsFromDiskCache(), 0u);
}

TEST(SweepEngine, MemoizesByParamsNotLabel)
{
    SweepEngine eng(1, "");

    // Same params under two labels: one simulation, same record.
    SweepCell a = cell("perl", "first", irConfig());
    SweepCell b = cell("perl", "second", irConfig());
    const CoreStats &ra = eng.get(a);
    const CoreStats &rb = eng.get(b);
    EXPECT_EQ(&ra, &rb);
    EXPECT_EQ(eng.cellsComputed(), 1u);

    // Same label, different params: distinct cells (the stale-cache
    // collision the string-keyed bench Runner used to have).
    CoreParams small = irConfig();
    small.rb.entries = 16; // tiny buffer: measurably less reuse
    SweepCell c = cell("perl", "first", small);
    const CoreStats &rc = eng.get(c);
    EXPECT_NE(&ra, &rc);
    EXPECT_FALSE(statsEqual(ra, rc));
    EXPECT_EQ(eng.cellsComputed(), 2u);
}

TEST(SweepEngine, HashCoversParamsWorkloadAndScale)
{
    CoreParams p = baseConfig();
    CoreParams q = p;
    q.rb.entries /= 2;
    EXPECT_NE(hashParams(p), hashParams(q));
    q = p;
    q.vpVerifyLatency += 1;
    EXPECT_NE(hashParams(p), hashParams(q));

    SweepCell c1{"go", "x", p, WorkloadScale{1.0}};
    SweepCell c2{"gcc", "x", p, WorkloadScale{1.0}};
    SweepCell c3{"go", "x", p, WorkloadScale{0.5}};
    SweepCell c4{"go", "other-label", p, WorkloadScale{1.0}};
    EXPECT_NE(cellHash(c1), cellHash(c2));
    EXPECT_NE(cellHash(c1), cellHash(c3));
    EXPECT_EQ(cellHash(c1), cellHash(c4)); // label is display-only
}

// Cell keys and schema fingerprints are stamped into result caches
// and repro bundles written by earlier builds. Adding or removing a
// field in forEachParamField() moves the params hashes, the cell keys
// and the params schema fingerprint by design: old cache files then
// miss and are recomputed, and old repro bundles are refused loudly.
// Such a change must re-pin these literals deliberately; anything
// else (reordering, a refactor of the hash) must not move them. The
// stats fingerprint moves only with forEachStatField().
TEST(SweepEngine, HashesMatchRecordedValues)
{
    EXPECT_EQ(hashParams(baseConfig()), 0x356cae50d813a2d7ull);
    CoreParams fz = fuzz::fuzzParamsForSeed(0xabc);
    EXPECT_EQ(hashParams(fz), 0xe84c9e739c73dee1ull);
    fz.faults.rbLinkRate = 0.01; // a double field, hashed as its bits
    EXPECT_EQ(hashParams(fz), 0x7489e2b71631a517ull);

    SweepCell c{"m88ksim", "vp",
                vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                         BranchResolution::Speculative, 1),
                WorkloadScale{0.25}};
    EXPECT_EQ(cellHash(c), 0x5f46ba5b8e8ad18full);
    EXPECT_EQ(statsSchemaFingerprint(), 0xb8c24bece0f32278ull);
    EXPECT_EQ(paramsSchemaFingerprint(), 0xea771adb80800299ull);
}

TEST(SweepEngine, DiskCacheRoundTripsStatsLosslessly)
{
    std::string dir = scratchDir("roundtrip");
    std::vector<SweepCell> cs = allCells();

    CoreStats fresh[64];
    size_t n = 0;
    {
        SweepEngine writer(2, dir);
        for (const SweepCell &c : cs)
            writer.prefetch(c);
        writer.drain();
        for (const SweepCell &c : cs)
            fresh[n++] = writer.get(c);
        EXPECT_EQ(writer.cellsFromDiskCache(), 0u);
    }

    SweepEngine reader(2, dir);
    for (size_t i = 0; i < cs.size(); ++i) {
        const CoreStats &cached = reader.get(cs[i]);
        EXPECT_TRUE(statsEqual(fresh[i], cached))
            << cs[i].workload << "/" << cs[i].label
            << " corrupted by the disk cache round trip";
    }
    EXPECT_EQ(reader.cellsFromDiskCache(), cs.size());
    EXPECT_EQ(reader.cellsComputed(), 0u);

    std::filesystem::remove_all(dir);
}

// A checked or audited cell must simulate even when the result cache
// holds its result: a cached answer would skip the check without a
// word. It still writes the cache, and an unchecked cell still reads
// it.
TEST(SweepEngine, CheckedCellNeverReadsResultCache)
{
    std::string dir = scratchDir("checked");
    CoreParams checked = baseConfig();
    checked.checkRetire = true;
    CoreParams audited = irConfig();
    audited.auditInvariants = true;
    std::vector<SweepCell> cs = {
        cell("compress", "checked", checked),
        cell("perl", "audited", audited),
        cell("go", "plain", baseConfig()),
    };

    {
        SweepEngine writer(1, dir);
        for (const SweepCell &c : cs)
            writer.prefetch(c);
        writer.drain();
        EXPECT_EQ(writer.cellsComputed(), cs.size());
        EXPECT_EQ(fileCount(dir), cs.size());
    }

    SweepEngine reader(1, dir);
    for (const SweepCell &c : cs)
        reader.prefetch(c);
    reader.drain();
    EXPECT_TRUE(reader.failures().empty());
    EXPECT_EQ(reader.cellsComputed(), 2u);
    EXPECT_EQ(reader.cellsFromDiskCache(), 1u);
    const CoreStats &st = reader.get(cs[0]);
    EXPECT_GT(st.checkedInsts, 0u);
    EXPECT_EQ(st.checkedInsts, st.committedInsts);
    for (const CellTiming &t : reader.timings())
        EXPECT_EQ(t.fromDiskCache, t.label == "plain") << t.label;

    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, CorruptCacheFileFallsBackToRecompute)
{
    std::string dir = scratchDir("corrupt");
    SweepCell c = cell("compress", "base", baseConfig());

    CoreStats fresh;
    {
        SweepEngine writer(1, dir);
        fresh = writer.get(c);
    }
    // Truncate every cache file in the directory.
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        std::FILE *f = std::fopen(ent.path().c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("{\"schema\":", f);
        std::fclose(f);
    }

    SweepEngine reader(1, dir);
    const CoreStats &recomputed = reader.get(c);
    EXPECT_TRUE(statsEqual(fresh, recomputed));
    EXPECT_EQ(reader.cellsFromDiskCache(), 0u);
    EXPECT_EQ(reader.cellsComputed(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, TruncatedMidWriteCacheFileFallsBackToRecompute)
{
    // A crash mid-write leaves a file whose prefix is perfectly valid
    // JSON — schema line, matching cell_hash — but which stops partway
    // through the stats object. The loader must reject it (a parser
    // that stops at the first complete-looking field would resurrect a
    // half-written record).
    std::string dir = scratchDir("midwrite");
    SweepCell c = cell("compress", "base", baseConfig());

    CoreStats fresh;
    {
        SweepEngine writer(1, dir);
        fresh = writer.get(c);
    }
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        std::FILE *f = std::fopen(ent.path().c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::string body;
        char buf[4096];
        size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            body.append(buf, got);
        std::fclose(f);
        // Keep a prefix that still contains the (valid) cell hash but
        // is cut inside the stats payload.
        ASSERT_GT(body.size(), 64u);
        body.resize(body.size() * 7 / 10);
        f = std::fopen(ent.path().c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
    }

    SweepEngine reader(1, dir);
    const CoreStats &recomputed = reader.get(c);
    EXPECT_TRUE(statsEqual(fresh, recomputed));
    EXPECT_EQ(reader.cellsFromDiskCache(), 0u);
    EXPECT_EQ(reader.cellsComputed(), 1u);

    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, PoisonedCellIsIsolatedFromHealthyNeighbors)
{
    // One cell that cannot make progress (watchdog trips on cycle 1)
    // must not take down the sweep: it runs once, is recorded as a
    // structured failure and kept out of the disk cache, and every
    // other cell completes bit-identical to a clean engine.
    std::string dir = scratchDir("poison");

    CoreParams poison = baseConfig();
    poison.watchdogCycles = 1;
    std::vector<SweepCell> healthy = {
        cell("compress", "base", baseConfig()),
        cell("perl", "base", baseConfig()),
        cell("m88ksim", "ir", irConfig()),
    };
    SweepCell bad = cell("compress", "poisoned", poison);

    SweepEngine eng(2, dir);
    eng.prefetch(healthy[0]);
    eng.prefetch(bad);
    eng.prefetch(healthy[1]);
    eng.prefetch(healthy[2]);
    eng.drain();

    std::vector<CellFailure> fails = eng.failures();
    ASSERT_EQ(fails.size(), 1u);
    EXPECT_EQ(fails[0].workload, "compress");
    EXPECT_EQ(fails[0].label, "poisoned");
    EXPECT_NE(fails[0].error.find("watchdog"), std::string::npos)
        << fails[0].error;
    // Context frames attribute the failure to its cell.
    EXPECT_NE(fails[0].error.find("poisoned"), std::string::npos)
        << fails[0].error;

    // The failed cell yields empty stats rather than garbage.
    EXPECT_EQ(eng.get(bad).committedInsts, 0u);

    // Healthy neighbors are untouched by the failure.
    SweepEngine clean(1, "");
    for (const SweepCell &c : healthy) {
        EXPECT_TRUE(statsEqual(eng.get(c), clean.get(c)))
            << c.workload << "/" << c.label;
    }

    // Only the healthy cells were persisted; failures are never cached.
    size_t cached_files = 0;
    for (const auto &ent : std::filesystem::directory_iterator(dir)) {
        (void)ent;
        ++cached_files;
    }
    EXPECT_EQ(cached_files, healthy.size());

    // Timing records only cover completed cells.
    EXPECT_EQ(eng.timings().size(), healthy.size());

    std::filesystem::remove_all(dir);
}

TEST(SweepEngine, TimingRecordsFollowSubmissionOrder)
{
    SweepEngine eng(4, "");
    std::vector<SweepCell> cs = allCells();
    for (const SweepCell &c : cs)
        eng.prefetch(c);
    eng.drain();

    std::vector<CellTiming> ts = eng.timings();
    ASSERT_EQ(ts.size(), cs.size());
    for (size_t i = 0; i < cs.size(); ++i) {
        EXPECT_EQ(ts[i].workload, cs[i].workload);
        EXPECT_EQ(ts[i].label, cs[i].label);
        EXPECT_EQ(ts[i].paramsHash, hashParams(cs[i].params));
        EXPECT_GT(ts[i].committedInsts, 0u);
    }

    std::string path = "sweep_test_timing.json";
    EXPECT_TRUE(eng.writeTimingJson(path));
    std::error_code ec;
    EXPECT_GT(std::filesystem::file_size(path, ec), 0u);
    std::filesystem::remove(path);
}

size_t
liveThreads()
{
    size_t n = 0;
    for (const auto &ent :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)ent;
        ++n;
    }
    return n;
}

// An engine owns no thread between calls: every thread a batch
// starts is joined before drain() returns, which also makes it safe
// to fork after a sweep.
TEST(SweepEngine, NoThreadOutlivesABatch)
{
    // A thread sanitizer starts a helper thread of its own once the
    // process starts its first thread; a throwaway batch first puts
    // that helper into both counts.
    parallelFor(2, [](size_t) {}, 2);
    size_t before = liveThreads();
    SweepEngine eng(4, "");
    eng.prefetch(cell("compress", "base", baseConfig()));
    eng.prefetch(cell("perl", "ir", irConfig()));
    eng.prefetch(cell("go", "base", baseConfig()));
    eng.drain();
    EXPECT_EQ(eng.cellsComputed(), 3u);
    EXPECT_EQ(liveThreads(), before);
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

TEST(StatsJson, RoundTripAndRejection)
{
    SweepEngine eng(1, "");
    CoreStats st = eng.get(cell("m88ksim", "vp",
                                vpConfig(VpScheme::Magic,
                                         ReexecPolicy::Multiple,
                                         BranchResolution::Speculative,
                                         1)));
    std::string j = statsToJson(st);
    CoreStats back;
    ASSERT_TRUE(statsFromJson(j, back));
    EXPECT_TRUE(statsEqual(st, back));

    // A truncated document must be rejected, not half-filled.
    CoreStats junk;
    EXPECT_FALSE(statsFromJson(j.substr(0, j.size() / 2), junk));
    EXPECT_FALSE(statsFromJson("{}", junk));
}

TEST(ParallelFor, CoversEveryIndexOnce)
{
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    parallelFor(hits.size(), [&](size_t i) { ++hits[i]; }, 4);
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

} // anonymous namespace
