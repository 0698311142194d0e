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
    uint64_t auditSweeps = 0;
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
    AuditedRun r{sim.run(), sim.core().schedProfile(),
                 sim.core().auditSweeps()};
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

TEST(SchedXcheck, AuditSweepRunsOncePerPeriodUnderIdleSkipping)
{
    // The audit's RB/VPT structure sweep is due once per 4,096 cycles
    // of simulated time. On this idle-heavy cell the skipper jumps
    // over the first cycle of most periods (a sweep only on cycles
    // that are multiples of 4,096 would run 11 times), so the sweep
    // runs at the first simulated cycle of each period: once per
    // period the audit reaches. The audit covers every cycle but the
    // last, which ends the run, so cycles 0 to 277,401 of this
    // 277,403-cycle run (pinned by the digest): 68 periods.
    AuditedRun r = expectDigest(
        "gcc",
        noCaches(vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                          BranchResolution::Speculative, 0),
                 40),
        0x8dad8ab58ef7632aull);
    EXPECT_EQ(r.auditSweeps, 68u);
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

TEST(SchedEquivalence, LongMissesFitTheWheel)
{
    // Table 1 caches with 300- and 1,000-cycle misses, checked as
    // well as audited. The core sizes its wheel from the machine, so
    // a miss's completion, however long, lands inside the span; these
    // are the cells whose completions once waited in a far heap (the
    // wheel's span was a fixed 256 cycles). The digests were recorded
    // from that wheel.
    struct Cell
    {
        unsigned miss;
        CoreParams cfg;
        uint64_t digest;
    };
    const CoreParams vp = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                                   BranchResolution::Speculative, 1);
    const Cell cells[] = {
        {300, baseConfig(), 0xd653ca20b47a4933ull},
        {300, irConfig(), 0x61fae6bbfa81a60dull},
        {300, vp, 0xba91d85d33e394a6ull},
        {1000, baseConfig(), 0xa77d8d57dfb11090ull},
        {1000, irConfig(), 0x79fe9aea3b25817cull},
        {1000, vp, 0x7d115e3079dea6ebull},
    };
    for (const Cell &c : cells) {
        CoreParams cfg = c.cfg;
        cfg.icache.missLatency = c.miss;
        cfg.dcache.missLatency = c.miss;
        cfg.checkRetire = true;
        AuditedRun r = expectDigest("compress", cfg, c.digest);
        EXPECT_EQ(r.st.checkedInsts, r.st.committedInsts) << c.miss;
    }
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
    // for both finalize waits to matter: on a producer that has not
    // finalized (woken by its finalization through the waiter link)
    // and on one whose verification delay is still running (checked
    // again each cycle).
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
