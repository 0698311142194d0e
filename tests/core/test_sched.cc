/**
 * @file
 * Scheduler regression tests. The core has one scheduler: ready,
 * control and finalize-candidate sets, a completion wheel, and
 * idle-cycle skipping. Every run here arms the per-cycle audit
 * (auditInvariants), the scheduler's only oracle: each cycle it
 * re-derives the issue, finalize and resolve obligations from a
 * full-window walk, checks the waiter links, counters and store
 * watermark, and requires that no in-flight entry has outlived its
 * completion cycle, panicking at the first divergence. The final
 * stats must also hash to the digest recorded for the same cell from
 * the original brute-force full-window scheduler, which the
 * event-driven one matched on all of these cells before it was
 * deleted. The cells cover every technique mix, stall-heavy machines
 * where idle skipping dominates, the watchdog interacting with the
 * skipper, and the squash/fault storms and tiny windows that stress
 * structure restoration.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/fnv.hh"
#include "sim/simulator.hh"

using namespace vpir;

namespace
{

constexpr uint64_t TEST_INSTS = 25000;

WorkloadScale
smallScale()
{
    WorkloadScale sc;
    sc.factor = 0.25;
    return sc;
}

/** FNV-64 over every CoreStats field, in forEachStatField() order. */
uint64_t
statsDigest(const CoreStats &st)
{
    Fnv64 f;
    forEachStatField(st,
                     [&f](const char *, const uint64_t &v) { f.u64(v); });
    return f.h;
}

struct AuditedRun
{
    CoreStats st;
    SchedProfile prof;
};

/** Run @p workload with the per-cycle audit armed (any broken
 *  scheduler obligation panics inside the core); its stats must hash
 *  to @p want, the digest the brute-force scheduler produced for the
 *  same cell. */
AuditedRun
expectDigest(const std::string &workload, CoreParams cfg, uint64_t want)
{
    cfg.auditInvariants = true;
    Simulator sim(withLimits(cfg, TEST_INSTS),
                  makeWorkload(workload, smallScale()).program);
    AuditedRun r{sim.run(), sim.core().schedProfile()};
    EXPECT_GT(r.st.committedInsts, 0u) << workload;
    EXPECT_EQ(hex16(statsDigest(r.st)), hex16(want)) << workload;
    return r;
}

/** Share of the run's cycles the idle skipper jumped over. */
double
skipShare(const AuditedRun &r)
{
    return static_cast<double>(r.prof.idleSkippedCycles) /
           static_cast<double>(r.st.cycles);
}

CoreParams
noCaches(CoreParams p, unsigned miss_latency)
{
    // Single line, direct mapped: every new line pays the miss. Long
    // misses drain the window and manufacture the idle cycles the
    // skipper exists for.
    p.icache = CacheParams{32, 1, 32, 1, miss_latency};
    p.dcache = CacheParams{32, 1, 32, 1, miss_latency};
    return p;
}

TEST(SchedEquivalence, AllTechniqueMixes)
{
    expectDigest("compress", baseConfig(), 0xfb830d9adf52aefbull);
    expectDigest("perl", irConfig(IrValidation::Early),
                 0x5400842cf64bb3ffull);
    expectDigest("gcc", irConfig(IrValidation::Late),
                 0x26944aef23313affull);
    expectDigest("gcc",
                 vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                          BranchResolution::Speculative, 0),
                 0x6eb4def748c6f821ull);
    expectDigest("compress",
                 vpConfig(VpScheme::Magic, ReexecPolicy::Single,
                          BranchResolution::NonSpeculative, 3),
                 0x2cb87da1ca487e97ull);
    expectDigest("m88ksim",
                 vpConfig(VpScheme::Lvp, ReexecPolicy::Multiple,
                          BranchResolution::NonSpeculative, 1),
                 0x0d29f6f1ef39d420ull);
    expectDigest("perl",
                 hybridConfig(VpScheme::Magic,
                              BranchResolution::Speculative, 0),
                 0x3c4b6caad686c53eull);
    expectDigest("compress",
                 hybridConfig(VpScheme::Lvp,
                              BranchResolution::NonSpeculative, 2),
                 0x1f85d2ee9d53fb0aull);
}

TEST(SchedEquivalence, IdleHeavyRegime)
{
    // Disabled caches + long miss latency: most cycles are idle and
    // the skipper jumps over them wholesale. Skipped cycles still
    // count, so the digests hold. The skipped share is deterministic;
    // it must not fall below what the scheduler skipped when the
    // digests were recorded (skipped/total cycles below).
    AuditedRun r = expectDigest("compress", noCaches(baseConfig(), 40),
                                0xf097d67bf7e95f55ull);
    EXPECT_GE(skipShare(r), 250073.0 / 291851.0);
    r = expectDigest("gcc",
                     noCaches(vpConfig(VpScheme::Magic,
                                       ReexecPolicy::Multiple,
                                       BranchResolution::Speculative, 0),
                              40),
                     0x8dad8ab58ef7632aull);
    EXPECT_GE(skipShare(r), 236857.0 / 277403.0);
}

TEST(SchedEquivalence, LargeWindowStallMachine)
{
    // perfbench's stall machine: one-line caches with 50-cycle misses
    // and a 256-entry ROB and LSQ. Every other cell here and every
    // harness runs a window of at most 32 entries; this one lets up
    // to 256 instructions queue behind each miss, so slot-indexed
    // state, waiter lists and the wheel run at a scale nothing else
    // reaches. The digests were recorded under the audit before the
    // ROB entry was split into hot and cold parts.
    auto stall = [](CoreParams p) {
        p = noCaches(p, 50);
        p.robEntries = 256;
        p.lsqEntries = 256;
        return p;
    };
    expectDigest("gcc", stall(baseConfig()), 0x2b46c4b3169aa648ull);
    expectDigest("gcc", stall(irConfig(IrValidation::Early)),
                 0x58b199b6df0a1691ull);
    expectDigest("gcc", stall(irConfig(IrValidation::Late)),
                 0x2f2ba8b61b75a2bbull);
    expectDigest("vortex", stall(baseConfig()), 0xcf907a848a2a69eeull);
    expectDigest("vortex", stall(irConfig(IrValidation::Early)),
                 0xd749e33fa4b92085ull);
    expectDigest("vortex", stall(irConfig(IrValidation::Late)),
                 0x1fadcc70905e7cfcull);
}

TEST(SchedEquivalence, IdleSkipRespectsWatchdog)
{
    // The skipper must never jump past a watchdog trip cycle, and
    // arming the watchdog must not change the run: both digests are
    // also what the same cells give with the watchdog off. The
    // m88ksim digest was recorded under the audit alone, after the
    // brute-force scheduler was deleted.
    CoreParams cfg = noCaches(irConfig(), 40);
    cfg.watchdogCycles = 50000;
    expectDigest("compress", cfg, 0x4ad209c76f0ff438ull);
    cfg = noCaches(baseConfig(), 60);
    cfg.watchdogCycles = 20000;
    expectDigest("m88ksim", cfg, 0xb5c7ef7644f749c1ull);
}

TEST(SchedXcheck, SquashStormRestoresReadySet)
{
    // Speculative branch resolution on wrong value predictions causes
    // spurious squashes: every one must evict dying slots from the
    // ready/ctrl/finalize sets and unlink their operand waiters. The
    // per-cycle audit fails fast on any leftover.
    expectDigest("gcc",
                 vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                          BranchResolution::Speculative, 0),
                 0x6eb4def748c6f821ull);
    expectDigest("compress",
                 hybridConfig(VpScheme::Magic,
                              BranchResolution::Speculative, 0),
                 0x04e8d3e82f2cd0a0ull);
}

TEST(SchedXcheck, FaultStormUnderVerifyLatency)
{
    // Injected VPT corruption drives misprediction storms while a
    // nonzero verify latency keeps finalization pending long enough
    // for Refinal wheel events and finalize-waiter parking to matter.
    CoreParams cfg = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                              BranchResolution::Speculative, 2);
    cfg.faults.seed = 12345;
    cfg.faults.vptValueRate = 0.05;
    cfg.faults.vptConfRate = 0.02;
    expectDigest("m88ksim", cfg, 0xe71718b8636d18fcull);
}

TEST(SchedXcheck, TinyWindowOccupancyCorners)
{
    // A 16-entry ROB wraps the slot-indexed structures constantly and
    // keeps the window full, hitting the ring-order iteration and the
    // head-pop unlink paths far more often than a Table 1 machine.
    CoreParams cfg = vpConfig(VpScheme::Magic, ReexecPolicy::Single,
                              BranchResolution::NonSpeculative, 1);
    cfg.robEntries = 16;
    cfg.lsqEntries = 16;
    expectDigest("compress", cfg, 0x17250d768a017b27ull);
    cfg = irConfig(IrValidation::Late);
    cfg.robEntries = 16;
    cfg.lsqEntries = 16;
    expectDigest("perl", cfg, 0x39e203d3845c4265ull);
}

} // anonymous namespace
