/**
 * @file
 * The core's steady state and the redundancy limit study make no heap
 * allocations per instruction. This binary replaces the global
 * operator new and delete with counting versions, which is why it is
 * a test executable of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/core.hh"
#include "redundancy/redundancy.hh"
#include "sim/configs.hh"
#include "workload/workload.hh"

namespace
{

std::atomic<uint64_t> heapAllocs{0};

} // anonymous namespace

// The library's array and nothrow forms forward to these two.
void *
operator new(std::size_t n)
{
    heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace vpir;

namespace
{

/**
 * Heap allocations per 1,000 committed instructions while a Table 1
 * core runs gcc from committed instruction 50 K to 150 K. One-off
 * growth (first touches of a page, copy-on-write clones, scratch
 * vectors reaching their high-water mark) stays well inside the
 * bound; anything done per instruction does not.
 */
double
steadyAllocsPerKiloInst(const CoreParams &params)
{
    Workload w = makeWorkload("gcc");
    Core core(params, w.program);
    auto runTo = [&core](uint64_t n) {
        while (core.stats().committedInsts < n && core.cycle()) {
        }
        return core.stats().committedInsts;
    };
    uint64_t from = runTo(50000);
    uint64_t allocs0 = heapAllocs.load(std::memory_order_relaxed);
    uint64_t to = runTo(150000);
    uint64_t allocs = heapAllocs.load(std::memory_order_relaxed) - allocs0;
    EXPECT_GE(to, 150000u) << "gcc ended before the measured window";
    double per_kilo = 1000.0 * static_cast<double>(allocs) /
                      static_cast<double>(to - from);
    std::printf("%" PRIu64 " allocations over %" PRIu64
                " committed instructions (%.4f per 1,000)\n",
                allocs, to - from, per_kilo);
    return per_kilo;
}

} // anonymous namespace

TEST(CoreAllocs, BaseSteadyStateIsAllocationFree)
{
    EXPECT_LT(steadyAllocsPerKiloInst(baseConfig()), 1.0);
}

TEST(CoreAllocs, VpMagicSteadyStateIsAllocationFree)
{
    EXPECT_LT(steadyAllocsPerKiloInst(vpConfig(VpScheme::Magic,
                                               ReexecPolicy::Multiple,
                                               BranchResolution::Speculative,
                                               0)),
              1.0);
}

TEST(CoreAllocs, IrSteadyStateIsAllocationFree)
{
    EXPECT_LT(steadyAllocsPerKiloInst(irConfig()), 1.0);
}

TEST(CoreAllocs, HybridSteadyStateIsAllocationFree)
{
    EXPECT_LT(steadyAllocsPerKiloInst(hybridConfig()), 1.0);
}

TEST(RedundancyAllocs, AnalysisIsAllocationFreePerInstruction)
{
    // The history buffers grow by doubling and the emulator's pages
    // are allocated on first touch, so the whole 2 M-instruction
    // analysis allocates about 800 times, not per instruction.
    Workload w = makeWorkload("gcc");
    RedundancyParams params;
    params.maxInsts = 2000000;
    uint64_t allocs0 = heapAllocs.load(std::memory_order_relaxed);
    RedundancyStats st = analyzeRedundancy(w.program, params);
    uint64_t allocs = heapAllocs.load(std::memory_order_relaxed) - allocs0;
    ASSERT_EQ(st.totalDynamic, params.maxInsts);
    double per_kilo = 1000.0 * static_cast<double>(allocs) /
                      static_cast<double>(st.totalDynamic);
    std::printf("%" PRIu64 " allocations over %" PRIu64
                " analysed instructions (%.4f per 1,000)\n",
                allocs, st.totalDynamic, per_kilo);
    EXPECT_LT(per_kilo, 1.0);
}
