/**
 * @file
 * Core configuration: machine widths and sizes (paper Table 1) and the
 * technique knobs studied in the evaluation (§4.1.4): VP vs IR,
 * speculative vs non-speculative branch resolution (SB/NSB), multiple
 * vs single re-execution (ME/NME), 0/1-cycle VP-verification latency,
 * and IR early vs late validation (Figure 3).
 */

#ifndef VPIR_CORE_PARAMS_HH
#define VPIR_CORE_PARAMS_HH

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "bpred/bpred.hh"
#include "check/fault.hh"
#include "mem/cache.hh"
#include "reuse/reuse_buffer.hh"
#include "vp/vpt.hh"

namespace vpir
{

/** Redundancy-exploiting technique plugged into the pipeline. */
enum class Technique : uint8_t
{
    None,   //!< base superscalar
    VP,     //!< value prediction
    IR,     //!< instruction reuse
    Hybrid, //!< IR first, VP as the fallback (the paper's §1/§5
            //!< "possibly hybrid of VP and IR" future direction)
};

/** How branches with value-speculative operands are resolved (§3.2). */
enum class BranchResolution : uint8_t
{
    Speculative,    //!< SB: act as soon as the branch executes
    NonSpeculative, //!< NSB: act only once operands are non-speculative
};

/** Re-execution policy under value misprediction (§4.1.4). */
enum class ReexecPolicy : uint8_t
{
    Multiple, //!< ME: re-execute on every new input value
    Single,   //!< NME: re-execute once, after correct operands known
};

/** When IR validates results (Figure 3). */
enum class IrValidation : uint8_t
{
    Early, //!< at decode (real IR)
    Late,  //!< at execute (reuse hits act as correct value predictions)
};

/** Full machine + technique configuration. */
struct CoreParams
{
    // Table 1 machine.
    unsigned fetchWidth = 4;
    unsigned fetchQueueSize = 8;
    unsigned dispatchWidth = 4;
    unsigned issueWidth = 4;
    unsigned commitWidth = 4;
    unsigned robEntries = 32;
    unsigned lsqEntries = 32;
    unsigned maxUnresolvedBranches = 8;
    unsigned dcachePorts = 2;

    CacheParams icache;
    CacheParams dcache;
    BpredParams bpred;

    // Technique under study.
    Technique technique = Technique::None;
    VptParams vpt;                 //!< scheme field selects Magic/LVP
    RbParams rb;
    BranchResolution branchRes = BranchResolution::Speculative;
    ReexecPolicy reexec = ReexecPolicy::Multiple;
    unsigned vpVerifyLatency = 0;  //!< 0 or 1 cycles (§4.1.4)
    IrValidation irValidation = IrValidation::Early;

    // Ablation knobs (not part of the paper's configurations).
    bool vpPredictResults = true;   //!< VP: predict register results
    bool vpPredictAddresses = true; //!< VP: predict load addresses

    // Run limits.
    uint64_t maxCycles = UINT64_MAX;
    uint64_t maxInsts = UINT64_MAX;

    /** Functional fast-forward before timing starts (the paper skips
     *  1-2.5B instructions this way, §4.1.5). */
    uint64_t warmupInsts = 0;

    // Hardening / self-verification knobs.

    /** Replay every retired instruction on an independent functional
     *  machine and panic on any architectural divergence. */
    bool checkRetire = false;

    /** Cross-check reuse-buffer hits against the oracle execution at
     *  dispatch (a simulator self-test, not hardware). Turned off to
     *  model hardware that trusts its RB, e.g. under fault injection
     *  where escapes must instead be caught by the retire checker. */
    bool irOracleCheck = true;

    /** Audit pipeline invariants every cycle (instruction
     *  conservation, ROB/LSQ occupancy bounds, no commit with an
     *  unvalidated prediction, periodic RB/VPT entry sanity) and
     *  panic at the cycle of first corruption. */
    bool auditInvariants = false;

    /** Panic with a pipeline dump if no instruction commits for this
     *  many cycles (0 disables the watchdog). */
    uint64_t watchdogCycles = 0;

    /** Deterministic fault injection into VPT / reuse buffer. */
    FaultPlan faults;
};

/**
 * Visit every scalar field of a CoreParams by name, flattened with
 * dotted names for the nested structs. Each field is proxied through
 * a uint64_t (doubles as raw bit patterns) and written back after the
 * visit, so one visitor serves both directions. This is the only
 * CoreParams field list: the cell hash (sweep::hashParams), the params
 * schema fingerprint and the repro-bundle serializer all walk it.
 */
template <typename Fn>
void
forEachParamField(CoreParams &p, Fn &&fn)
{
    static_assert(sizeof(CoreParams) == 232,
                  "CoreParams changed: update forEachParamField()");

    auto u64f = [&fn](const char *name, auto &v) {
        uint64_t u = static_cast<uint64_t>(v);
        fn(name, u);
        v = static_cast<std::decay_t<decltype(v)>>(u);
    };
    auto dblf = [&fn](const char *name, double &v) {
        uint64_t u;
        std::memcpy(&u, &v, sizeof(u));
        fn(name, u);
        std::memcpy(&v, &u, sizeof(u));
    };
#define VPIR_PARAM_FIELD(name) u64f(#name, p.name)
    VPIR_PARAM_FIELD(fetchWidth);
    VPIR_PARAM_FIELD(fetchQueueSize);
    VPIR_PARAM_FIELD(dispatchWidth);
    VPIR_PARAM_FIELD(issueWidth);
    VPIR_PARAM_FIELD(commitWidth);
    VPIR_PARAM_FIELD(robEntries);
    VPIR_PARAM_FIELD(lsqEntries);
    VPIR_PARAM_FIELD(maxUnresolvedBranches);
    VPIR_PARAM_FIELD(dcachePorts);
    VPIR_PARAM_FIELD(icache.sizeBytes);
    VPIR_PARAM_FIELD(icache.ways);
    VPIR_PARAM_FIELD(icache.lineBytes);
    VPIR_PARAM_FIELD(icache.hitLatency);
    VPIR_PARAM_FIELD(icache.missLatency);
    VPIR_PARAM_FIELD(dcache.sizeBytes);
    VPIR_PARAM_FIELD(dcache.ways);
    VPIR_PARAM_FIELD(dcache.lineBytes);
    VPIR_PARAM_FIELD(dcache.hitLatency);
    VPIR_PARAM_FIELD(dcache.missLatency);
    VPIR_PARAM_FIELD(bpred.historyBits);
    VPIR_PARAM_FIELD(bpred.tableEntries);
    VPIR_PARAM_FIELD(bpred.btbEntries);
    VPIR_PARAM_FIELD(bpred.rasEntries);
    VPIR_PARAM_FIELD(technique);
    VPIR_PARAM_FIELD(vpt.entries);
    VPIR_PARAM_FIELD(vpt.ways);
    VPIR_PARAM_FIELD(vpt.scheme);
    VPIR_PARAM_FIELD(vpt.confidenceBits);
    VPIR_PARAM_FIELD(vpt.confidenceThreshold);
    VPIR_PARAM_FIELD(rb.entries);
    VPIR_PARAM_FIELD(rb.ways);
    VPIR_PARAM_FIELD(branchRes);
    VPIR_PARAM_FIELD(reexec);
    VPIR_PARAM_FIELD(vpVerifyLatency);
    VPIR_PARAM_FIELD(irValidation);
    VPIR_PARAM_FIELD(vpPredictResults);
    VPIR_PARAM_FIELD(vpPredictAddresses);
    VPIR_PARAM_FIELD(maxCycles);
    VPIR_PARAM_FIELD(maxInsts);
    VPIR_PARAM_FIELD(warmupInsts);
    VPIR_PARAM_FIELD(checkRetire);
    VPIR_PARAM_FIELD(irOracleCheck);
    VPIR_PARAM_FIELD(auditInvariants);
    VPIR_PARAM_FIELD(watchdogCycles);
    VPIR_PARAM_FIELD(faults.seed);
#undef VPIR_PARAM_FIELD
    dblf("faults.vptValueRate", p.faults.vptValueRate);
    dblf("faults.vptConfRate", p.faults.vptConfRate);
    dblf("faults.rbOperandRate", p.faults.rbOperandRate);
    dblf("faults.rbResultRate", p.faults.rbResultRate);
    dblf("faults.rbLinkRate", p.faults.rbLinkRate);
    dblf("faults.rbDropInvRate", p.faults.rbDropInvRate);
}

} // namespace vpir

#endif // VPIR_CORE_PARAMS_HH
