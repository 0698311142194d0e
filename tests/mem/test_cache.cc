/** @file Unit tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/cache.hh"

using namespace vpir;

namespace
{

CacheParams
smallCache()
{
    // 4 sets x 2 ways x 32B lines = 256 bytes, easy to reason about.
    return CacheParams{256, 2, 32, 1, 6};
}

} // anonymous namespace

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_EQ(c.access(0x1000), 7u); // 1 + 6 miss
    EXPECT_EQ(c.access(0x1000), 1u); // hit
    EXPECT_EQ(c.access(0x101f), 1u); // same 32B line
    EXPECT_EQ(c.access(0x1020), 7u); // next line
    EXPECT_EQ(c.accesses(), 4u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, TwoWaysHoldConflictingLines)
{
    Cache c(smallCache());
    // Same set: addresses 4 sets * 32B = 128 bytes apart.
    c.access(0x0000);
    c.access(0x0080);
    EXPECT_EQ(c.access(0x0000), 1u);
    EXPECT_EQ(c.access(0x0080), 1u);
}

TEST(Cache, LruEviction)
{
    Cache c(smallCache());
    c.access(0x0000); // way A
    c.access(0x0080); // way B
    c.access(0x0000); // touch A
    c.access(0x0100); // evicts B (LRU)
    EXPECT_EQ(c.access(0x0000), 1u);
    EXPECT_EQ(c.access(0x0080), 7u); // was evicted
}

TEST(Cache, ProbeDoesNotAllocate)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.probe(0x40));
    c.access(0x40);
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_FALSE(c.probe(0x40 + 256));
}

TEST(Cache, SameLine)
{
    Cache c(smallCache());
    EXPECT_TRUE(c.sameLine(0x1000, 0x101f));
    EXPECT_FALSE(c.sameLine(0x101f, 0x1020));
}

TEST(Cache, Table1Geometry)
{
    // The paper's 64KB 2-way 32B cache: lines 64KB/32 = 2048, sets
    // 1024. Two addresses 32KB apart share a set; three conflict.
    Cache c(CacheParams{64 * 1024, 2, 32, 1, 6});
    c.access(0x00000);
    c.access(0x08000);
    c.access(0x10000);
    EXPECT_EQ(c.misses(), 3u);
    c.access(0x08000);
    c.access(0x10000);
    EXPECT_EQ(c.misses(), 3u); // both still resident
    c.access(0x00000);         // evicted by the two above
    EXPECT_EQ(c.misses(), 4u);
}

/** Property: a direct-mapped cache modelled against a reference map. */
TEST(Cache, DirectMappedMatchesReference)
{
    Cache c(CacheParams{1024, 1, 32, 1, 6});
    std::vector<int64_t> ref(1024 / 32, -1);
    Rng rng(77);
    for (int i = 0; i < 5000; ++i) {
        Addr a = static_cast<Addr>(rng.below(1 << 14)) & ~3u;
        uint32_t line = a / 32;
        uint32_t set = line % ref.size();
        bool hit = ref[set] == static_cast<int64_t>(line);
        unsigned lat = c.access(a);
        ASSERT_EQ(lat == 1, hit) << "addr " << a;
        ref[set] = line;
    }
}

/** Property: hit rate of a big cache on a small working set is ~1. */
TEST(Cache, SmallWorkingSetHits)
{
    Cache c(CacheParams{64 * 1024, 2, 32, 1, 6});
    Rng rng(3);
    for (int i = 0; i < 4096; ++i)
        c.access(static_cast<Addr>(rng.below(8 * 1024)));
    uint64_t warm_misses = c.misses();
    for (int i = 0; i < 100000; ++i)
        c.access(static_cast<Addr>(rng.below(8 * 1024)));
    EXPECT_EQ(c.misses(), warm_misses); // 8KB fits entirely
}

/** Property: an 8-way, one-set cache keeps exactly the lines a
 *  per-way stamp LRU reference keeps (untouched ways tie at stamp 0
 *  and the lowest one is the victim). */
TEST(Cache, EightWayMatchesLruReferenceModel)
{
    Cache c(CacheParams{8 * 32, 8, 32, 1, 6});
    struct Way
    {
        uint64_t stamp = 0;
        int64_t line = -1;
    };
    std::vector<Way> ref(8);
    uint64_t t = 0;
    uint64_t s = 99;
    for (int i = 0; i < 2000; ++i) {
        s = s * 6364136223846793005ull + 1;
        int64_t line = static_cast<int64_t>(s >> 60); // 16 lines
        unsigned w = 0;
        while (w < 8 && ref[w].line != line)
            ++w;
        bool hit = w < 8;
        if (!hit) {
            w = 0;
            for (unsigned k = 1; k < 8; ++k) {
                if (ref[k].stamp < ref[w].stamp)
                    w = k;
            }
            ref[w].line = line;
        }
        ref[w].stamp = ++t;
        ASSERT_EQ(c.access(static_cast<Addr>(line * 32)) == 1, hit)
            << "access " << i;
        for (int64_t l = 0; l < 16; ++l) {
            bool resident = false;
            for (const Way &r : ref)
                resident = resident || r.line == l;
            ASSERT_EQ(c.probe(static_cast<Addr>(l * 32)), resident)
                << "access " << i << " line " << l;
        }
    }
}
