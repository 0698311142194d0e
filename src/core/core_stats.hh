/**
 * @file
 * Raw event counters collected by the core, covering every quantity
 * the paper's tables and figures report. Benches derive percentages
 * and normalised series from these.
 */

#ifndef VPIR_CORE_CORE_STATS_HH
#define VPIR_CORE_CORE_STATS_HH

#include <cstdint>
#include <type_traits>

namespace vpir
{

/** Everything a single simulation run counts. */
struct CoreStats
{
    uint64_t cycles = 0;
    uint64_t committedInsts = 0;
    uint64_t committedMemOps = 0;
    uint64_t committedLoads = 0;
    uint64_t committedStores = 0;

    /** Distinct dynamic instructions that occupied an FU at least
     *  once, wrong path included (Table 5 "Inst Executed"). */
    uint64_t executedInsts = 0;
    /** Executed instructions later squashed by a control squash. */
    uint64_t squashedExecuted = 0;
    /** Squashed-then-reused work recovered through the RB (Table 5). */
    uint64_t squashedRecovered = 0;

    /** Control squash events and their classification (Table 4). */
    uint64_t branchSquashes = 0;
    uint64_t spuriousSquashes = 0; //!< due to value-speculative operands

    /** Conditional branch direction accuracy (Table 2). */
    uint64_t condBranches = 0;
    uint64_t condMispredicted = 0;
    /** Return target accuracy (Table 2). */
    uint64_t returns = 0;
    uint64_t returnMispredicted = 0;

    /** Branch resolution latency, decode -> final action (Figure 4),
     *  accumulated over committed resolvable control instructions. */
    uint64_t branchResLatSum = 0;
    uint64_t branchResCount = 0;

    /** Resource contention (Figure 5): execution resources denied to
     *  ready instructions over total requests. */
    uint64_t resourceRequests = 0;
    uint64_t resourceDenied = 0;

    /** Committed instructions by number of executions, buckets
     *  1,2,3,>=4 (Table 6); non-executing (reused) insts excluded. */
    uint64_t execCountHist[4] = {0, 0, 0, 0};

    /** IR rates (Table 3), counted at commit. */
    uint64_t reusedResults = 0;
    uint64_t reusedAddrs = 0;
    /** Reused control instructions (resolve at decode). */
    uint64_t reusedControl = 0;
    /** Committed resolvable control instructions. */
    uint64_t resolvableControl = 0;

    /** VP rates (Table 3), counted at commit. */
    uint64_t vpResultPredicted = 0;
    uint64_t vpResultCorrect = 0;
    uint64_t vpResultWrong = 0;
    uint64_t vpAddrPredicted = 0;
    uint64_t vpAddrCorrect = 0;
    uint64_t vpAddrWrong = 0;

    /** Value misprediction recovery events (any re-execution cause). */
    uint64_t valueMispredictEvents = 0;

    /** Cache behaviour. */
    uint64_t icacheAccesses = 0;
    uint64_t icacheMisses = 0;
    uint64_t dcacheAccesses = 0;
    uint64_t dcacheMisses = 0;

    /** Hardening: retired instructions cross-validated by the
     *  lockstep checker (0 when the checker is off). */
    uint64_t checkedInsts = 0;

    /** Hardening: injected faults by site (see FaultPlan). */
    uint64_t faultsVptValue = 0;
    uint64_t faultsVptConf = 0;
    uint64_t faultsRbOperand = 0;
    uint64_t faultsRbResult = 0;
    uint64_t faultsRbLink = 0;
    uint64_t faultsRbDropInv = 0;

    bool haltedCleanly = false;

    double ipc() const
    {
        return cycles ? static_cast<double>(committedInsts) /
                        static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Visit every field of a CoreStats by name: fn(const char *name,
 * uint64_t &value), const-qualified when @p st is. The execCountHist
 * buckets are visited as execCountHist0..3 and haltedCleanly, last, as
 * 0/1 through a proxy. The result cache, statsEqual(), the stats
 * schema fingerprint and vpirsim --stats all share this single field
 * list so they cannot drift apart.
 */
template <typename Stats, typename Fn>
void
forEachStatField(Stats &st, Fn &&fn)
{
    static_assert(sizeof(CoreStats) == 45 * sizeof(uint64_t),
                  "CoreStats changed: update forEachStatField()");
#define VPIR_STAT_FIELD(name) fn(#name, st.name)
    VPIR_STAT_FIELD(cycles);
    VPIR_STAT_FIELD(committedInsts);
    VPIR_STAT_FIELD(committedMemOps);
    VPIR_STAT_FIELD(committedLoads);
    VPIR_STAT_FIELD(committedStores);
    VPIR_STAT_FIELD(executedInsts);
    VPIR_STAT_FIELD(squashedExecuted);
    VPIR_STAT_FIELD(squashedRecovered);
    VPIR_STAT_FIELD(branchSquashes);
    VPIR_STAT_FIELD(spuriousSquashes);
    VPIR_STAT_FIELD(condBranches);
    VPIR_STAT_FIELD(condMispredicted);
    VPIR_STAT_FIELD(returns);
    VPIR_STAT_FIELD(returnMispredicted);
    VPIR_STAT_FIELD(branchResLatSum);
    VPIR_STAT_FIELD(branchResCount);
    VPIR_STAT_FIELD(resourceRequests);
    VPIR_STAT_FIELD(resourceDenied);
    fn("execCountHist0", st.execCountHist[0]);
    fn("execCountHist1", st.execCountHist[1]);
    fn("execCountHist2", st.execCountHist[2]);
    fn("execCountHist3", st.execCountHist[3]);
    VPIR_STAT_FIELD(reusedResults);
    VPIR_STAT_FIELD(reusedAddrs);
    VPIR_STAT_FIELD(reusedControl);
    VPIR_STAT_FIELD(resolvableControl);
    VPIR_STAT_FIELD(vpResultPredicted);
    VPIR_STAT_FIELD(vpResultCorrect);
    VPIR_STAT_FIELD(vpResultWrong);
    VPIR_STAT_FIELD(vpAddrPredicted);
    VPIR_STAT_FIELD(vpAddrCorrect);
    VPIR_STAT_FIELD(vpAddrWrong);
    VPIR_STAT_FIELD(valueMispredictEvents);
    VPIR_STAT_FIELD(icacheAccesses);
    VPIR_STAT_FIELD(icacheMisses);
    VPIR_STAT_FIELD(dcacheAccesses);
    VPIR_STAT_FIELD(dcacheMisses);
    VPIR_STAT_FIELD(checkedInsts);
    VPIR_STAT_FIELD(faultsVptValue);
    VPIR_STAT_FIELD(faultsVptConf);
    VPIR_STAT_FIELD(faultsRbOperand);
    VPIR_STAT_FIELD(faultsRbResult);
    VPIR_STAT_FIELD(faultsRbLink);
    VPIR_STAT_FIELD(faultsRbDropInv);
#undef VPIR_STAT_FIELD
    uint64_t halted = st.haltedCleanly ? 1 : 0;
    fn("haltedCleanly", halted);
    if constexpr (!std::is_const_v<Stats>)
        st.haltedCleanly = halted != 0;
}

/**
 * FNV-1a fingerprint of the stat schema: every field name visited by
 * forEachStatField(), in order. Two binaries agree on this value iff
 * their serialized stats are field-compatible, so the result cache
 * and repro bundles stamp it and reject mismatches loudly instead of
 * failing a silent field-by-field parse.
 */
uint64_t statsSchemaFingerprint();

} // namespace vpir

#endif // VPIR_CORE_CORE_STATS_HH
