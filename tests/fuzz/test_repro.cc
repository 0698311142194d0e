/**
 * @file
 * Repro bundle tests: lossless round trip, identical replay, loud
 * schema-fingerprint rejection, atomic writes, and stale-tmp
 * scrubbing. Also covers the params JSON round trip the bundles rely
 * on.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/file_io.hh"
#include "common/rng.hh"
#include "fuzz/generator.hh"
#include "fuzz/program_io.hh"
#include "fuzz/repro.hh"
#include "sweep/stats_json.hh"

using namespace vpir;
using namespace vpir::fuzz;

namespace
{

ReproBundle
sampleBundle()
{
    uint64_t seed = 0x1234;
    ReproBundle b;
    b.generatorRevision = GENERATOR_REVISION;
    b.seed = seed;
    b.workload = fuzzWorkloadName(seed);
    b.kind = "checker";
    b.detail = "lockstep divergence at cycle 5, seq 3, pc 0x1000";
    b.env = "VPIR_FAULT_RB_DROPINV=1.0";
    b.params = fuzzParamsForSeed(seed);
    b.program = generateProgram(seed);
    return b;
}

} // namespace

TEST(ParamsJson, RoundTripIsLossless)
{
    CoreParams p = fuzzParamsForSeed(0xabc);
    p.faults.rbDropInvRate = 0.015625; // exercise double bit-exactness
    std::string json = sweep::paramsToJson(p);
    CoreParams q;
    ASSERT_TRUE(sweep::paramsFromJson(json, q));
    EXPECT_TRUE(sweep::paramsEqual(p, q));
    EXPECT_EQ(q.faults.rbDropInvRate, 0.015625);
}

TEST(ParamsJson, MissingFieldFails)
{
    CoreParams p;
    std::string json = sweep::paramsToJson(p);
    size_t pos = json.find("\"robEntries\"");
    ASSERT_NE(pos, std::string::npos);
    json.replace(pos, 12, "\"robEntriez\"");
    CoreParams q = fuzzParamsForSeed(7);
    std::string before = sweep::paramsToJson(q);
    EXPECT_FALSE(sweep::paramsFromJson(json, q));
    EXPECT_EQ(sweep::paramsToJson(q), before); // untouched on failure
}

TEST(ReproBundle, JsonRoundTrip)
{
    ReproBundle b = sampleBundle();
    std::string json = bundleToJson(b);
    ReproBundle c;
    std::string err;
    ASSERT_TRUE(bundleFromJson(json, c, err)) << err;
    EXPECT_EQ(c.generatorRevision, b.generatorRevision);
    EXPECT_EQ(c.seed, b.seed);
    EXPECT_EQ(c.workload, b.workload);
    EXPECT_EQ(c.kind, b.kind);
    EXPECT_EQ(c.detail, b.detail);
    EXPECT_EQ(c.env, b.env);
    EXPECT_TRUE(sweep::paramsEqual(c.params, b.params));
    EXPECT_EQ(programToText(c.program), programToText(b.program));
}

TEST(ReproBundle, RejectsSchemaFingerprintMismatchLoudly)
{
    ReproBundle b = sampleBundle();
    std::string json = bundleToJson(b);

    // Corrupt one hex digit of the stats-schema stamp.
    size_t pos = json.find("\"stats_schema\": \"");
    ASSERT_NE(pos, std::string::npos);
    pos += 17;
    json[pos] = json[pos] == '0' ? '1' : '0';

    ReproBundle c;
    std::string err;
    EXPECT_FALSE(bundleFromJson(json, c, err));
    EXPECT_NE(err.find("fingerprint mismatch"), std::string::npos)
        << err;
    EXPECT_NE(err.find("refusing to replay"), std::string::npos)
        << err;
}

TEST(ReproBundle, WriteLoadReplay)
{
    std::string dir = ::testing::TempDir();
    std::string path = dir + "/sample.repro.json";
    ReproBundle b = sampleBundle();
    std::string err;
    ASSERT_TRUE(writeReproBundle(b, path, err)) << err;

    ReproBundle c;
    ASSERT_TRUE(loadReproBundle(path, c, err)) << err;

    // The sample bundle's run is clean (no fault rates armed in the
    // params), so replay must come back non-diverged; what matters is
    // the bundle drives the exact same differential machinery.
    DiffOutcome d = replayBundle(c);
    DiffOutcome ref = runDifferential(b.program, b.params);
    EXPECT_EQ(d.diverged, ref.diverged);
    EXPECT_EQ(divergenceSignature(d), divergenceSignature(ref));

    std::filesystem::remove(path);
}

TEST(ReproBundle, ScrubsOnlyStaleTmpFiles)
{
    std::string dir =
        ::testing::TempDir() + "/scrub_test";
    std::filesystem::create_directories(dir);
    auto touch = [&](const std::string &name) {
        std::ofstream f(dir + "/" + name);
        f << "x";
    };
    touch("a.repro.json.tmp.12345");
    touch("b.repro.json.tmp.99");
    touch("keep.repro.json");
    touch("unrelated.txt");

    EXPECT_EQ(scrubStaleTmpFiles(dir), 2u);
    EXPECT_TRUE(std::filesystem::exists(dir + "/keep.repro.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/unrelated.txt"));
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/a.repro.json.tmp.12345"));

    std::filesystem::remove_all(dir);
}
