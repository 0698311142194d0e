/**
 * @file
 * Zero-page table storage: a freshly built Table 1 VPT, RB (entries,
 * load-index node pool and bucket heads) and cache have no resident
 * page, an update faults in only the pages of the set it touches, and
 * an entry type whose fresh value is not all-zero bytes is refused.
 */

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/set_assoc.hh"
#include "common/zero_pages.hh"
#include "mem/cache.hh"
#include "reuse/reuse_buffer.hh"
#include "vp/vpt.hh"

using namespace vpir;

namespace
{

size_t
pageBytes()
{
    return static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

/** Page-aligned start of the page holding @p p. */
const char *
pageOf(const void *p)
{
    auto a = reinterpret_cast<uintptr_t>(p);
    return reinterpret_cast<const char *>(a - a % pageBytes());
}

/** Address of element @p i of @p t's storage. */
template <typename Table>
const char *
addrOf(const Table &t, size_t i)
{
    return reinterpret_cast<const char *>(&t[i]);
}

/** Bytes from one element of @p t's storage to the next. */
template <typename Table>
size_t
stride(const Table &t)
{
    return static_cast<size_t>(addrOf(t, 1) - addrOf(t, 0));
}

/** Resident flag of each page @p t's storage spans. */
template <typename Table>
std::vector<bool>
residency(const Table &t)
{
    const char *first = pageOf(addrOf(t, 0));
    const size_t bytes = addrOf(t, 0) + stride(t) * t.size() - first;
    std::vector<unsigned char> vec((bytes + pageBytes() - 1) / pageBytes());
    EXPECT_EQ(mincore(const_cast<char *>(first), bytes, vec.data()), 0);
    std::vector<bool> out;
    for (unsigned char v : vec)
        out.push_back(v & 1);
    return out;
}

size_t
residentPages(const std::vector<bool> &r)
{
    size_t n = 0;
    for (bool b : r)
        n += b;
    return n;
}

/** The residency @p t should show when only set @p s was touched. */
template <typename Table>
std::vector<bool>
onlySetResident(const Table &t, uint32_t s)
{
    const char *first = pageOf(addrOf(t, 0));
    const char *lo = addrOf(t, t.index(s, 0));
    const char *hi = addrOf(t, t.index(s, t.ways() - 1)) + stride(t) - 1;
    std::vector<bool> want(residency(t).size(), false);
    for (const char *p = pageOf(lo); p <= hi; p += pageBytes())
        want[(p - first) / pageBytes()] = true;
    return want;
}

TEST(ZeroPages, FreshTablesHaveNoResidentPages)
{
    Vpt vpt;
    ASSERT_EQ(vpt.storage().size(), 16u * 1024);
    EXPECT_EQ(residentPages(residency(vpt.storage())), 0u);

    ReuseBuffer rb;
    ASSERT_EQ(rb.storage().size(), 4u * 1024);
    EXPECT_EQ(residentPages(residency(rb.storage())), 0u);
    EXPECT_EQ(residentPages(residency(rb.loadIndexNodes())), 0u);
    EXPECT_EQ(residentPages(residency(rb.loadIndexBuckets())), 0u);

    Cache cache;
    EXPECT_EQ(residentPages(residency(cache.storage())), 0u);
}

TEST(ZeroPages, UpdatesFaultInOnlyTheTouchedPages)
{
    const Addr pc = 0x4321 * 4;

    Vpt vpt;
    for (uint64_t v : {1, 2, 1, 3, 1, 4, 5})
        vpt.update(pc, v, vpt.predict(pc, v));
    EXPECT_EQ(residency(vpt.storage()),
              onlySetResident(vpt.storage(), vpt.storage().pcSet(pc)));

    // A non-load fills one set and leaves the load index alone; a
    // load also registers one word: one node and one bucket head,
    // each on at most two pages.
    ReuseBuffer rb;
    RbInsertInfo add;
    add.pc = pc;
    add.inst.op = Op::ADD;
    add.srcReg[0] = 1;
    add.srcReg[1] = 2;
    rb.insert(add);
    EXPECT_EQ(residency(rb.storage()),
              onlySetResident(rb.storage(), rb.storage().pcSet(pc)));
    EXPECT_EQ(residentPages(residency(rb.loadIndexNodes())), 0u);
    EXPECT_EQ(residentPages(residency(rb.loadIndexBuckets())), 0u);
    RbInsertInfo load;
    load.pc = pc;
    load.inst.op = Op::LW;
    load.srcReg[0] = 1;
    load.memAddr = 0x10000;
    rb.insert(load);
    EXPECT_EQ(residency(rb.storage()),
              onlySetResident(rb.storage(), rb.storage().pcSet(pc)));
    size_t nodes = residentPages(residency(rb.loadIndexNodes()));
    EXPECT_GE(nodes, 1u);
    EXPECT_LE(nodes, 2u);
    EXPECT_EQ(residentPages(residency(rb.loadIndexBuckets())), 1u);
    EXPECT_EQ(rb.audit(), "");

    // A 32-byte cache set never straddles a page.
    Cache cache;
    cache.access(0x12340);
    cache.access(0x12340);
    EXPECT_EQ(residentPages(residency(cache.storage())), 1u);
}

/** Fresh value not zero: the zero page would hold a different entry
 *  than a value-initialized one. */
struct MinusOneFresh
{
    bool valid = false;
    int64_t line = -1;
};

struct ZeroFresh
{
    bool valid = false;
    int64_t line = 0;
};

TEST(ZeroPages, EntryWhoseFreshValueIsNotZeroPanics)
{
    EXPECT_TRUE(freshIsZero<ZeroFresh>());
    EXPECT_FALSE(freshIsZero<MinusOneFresh>());
    PanicThrowScope scope;
    EXPECT_THROW(SetAssoc<MinusOneFresh>(8, 2), SimError);
    EXPECT_THROW(ZeroPageVector<MinusOneFresh>(4), SimError);
    EXPECT_NO_THROW(SetAssoc<ZeroFresh>(8, 2));
}

} // anonymous namespace
