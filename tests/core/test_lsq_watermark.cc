/**
 * @file
 * Store-address watermark validation: with auditInvariants armed the
 * core checks, at the end of every cycle, that the O(1) watermark
 * behind oldestUnknownStoreSeq() names the same store as a full ROB
 * scan, and panics on the first divergence. The tests drive that
 * audit through squash-heavy configurations — speculative branch
 * resolution with value prediction produces spurious squashes, and
 * injected VPT faults add misprediction storms — so the watermark's
 * commit/squash/ready bookkeeping is exercised under fire, not just
 * on the happy path.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hh"
#include "sweep/stats_json.hh"

using namespace vpir;

namespace
{

constexpr uint64_t TEST_INSTS = 30000;

WorkloadScale
smallScale()
{
    WorkloadScale sc;
    sc.factor = 0.25;
    return sc;
}

void
runChecked(const std::string &workload, CoreParams cfg)
{
    cfg.auditInvariants = true;
    CoreStats st = runWorkload(workload, withLimits(cfg, TEST_INSTS),
                               smallScale());
    // The real assertion runs inside the core at the end of every
    // cycle; reaching here with commits means it never diverged.
    EXPECT_GT(st.committedInsts, 0u) << workload;
}

TEST(LsqWatermark, MatchesScanOnBaseline)
{
    runChecked("compress", baseConfig());
    runChecked("m88ksim", baseConfig());
}

TEST(LsqWatermark, MatchesScanUnderReuse)
{
    // IR exercises the second gate (addr-reuse marks storeAddrReady at
    // dispatch, out of issue order).
    runChecked("compress", irConfig());
    runChecked("perl", irConfig());
}

TEST(LsqWatermark, MatchesScanUnderSpeculativeSquashes)
{
    // Speculative branch resolution on wrongly predicted values causes
    // spurious squashes: storeQ is truncated and the prefix clamped
    // mid-flight, over and over.
    CoreParams cfg = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                              BranchResolution::Speculative, 0);
    runChecked("compress", cfg);
    runChecked("gcc", cfg);
}

TEST(LsqWatermark, MatchesScanUnderFaultStorm)
{
    // Injected VPT value corruption makes predictions wrong at a high
    // rate; every late validation failure squashes younger stores.
    CoreParams cfg = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                              BranchResolution::Speculative, 0);
    cfg.faults.seed = 12345;
    cfg.faults.vptValueRate = 0.05;
    cfg.faults.vptConfRate = 0.02;
    runChecked("m88ksim", cfg);
}

TEST(LsqWatermark, XcheckKnobIsReadAtConstruction)
{
    // The ROB scan lives only in the audit, and the audit is pure
    // observation: an unaudited run must produce the audited run's
    // stats exactly.
    CoreParams cfg = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                              BranchResolution::Speculative, 0);
    CoreStats plain = runWorkload("compress",
                                  withLimits(cfg, TEST_INSTS),
                                  smallScale());
    cfg.auditInvariants = true;
    CoreStats audited = runWorkload("compress",
                                    withLimits(cfg, TEST_INSTS),
                                    smallScale());
    EXPECT_GT(plain.committedInsts, 0u);
    EXPECT_TRUE(sweep::statsEqual(plain, audited));
}

} // anonymous namespace
