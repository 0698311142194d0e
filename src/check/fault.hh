/**
 * @file
 * Deterministic fault injection for the redundancy structures.
 *
 * The paper's central contrast is validation: VP is speculative with
 * *late* validation (a wrong predicted value must be squashed before
 * it reaches architectural state), IR is non-speculative with *early*
 * validation (a reused result must never be wrong). The fault plan
 * stresses both sides:
 *
 *  - VPT faults (corrupt a predicted value, flip the confidence gate)
 *    must ALWAYS be absorbed by the existing late-validation machinery
 *    — the lockstep checker stays green while squash/re-execution
 *    counters move.
 *
 *  - RB faults (corrupt stored operand values or results, corrupt
 *    dependence pointers, drop store invalidations) stress the reuse
 *    test itself. Any corruption that escapes to retirement is a real
 *    early-validation bug, which the lockstep checker now reports.
 *
 * All draws come from one seeded xorshift generator owned by the
 * injector, so a given (plan, workload, config) run is bit-for-bit
 * reproducible.
 */

#ifndef VPIR_CHECK_FAULT_HH
#define VPIR_CHECK_FAULT_HH

#include <cstdint>
#include <string>

#include "common/rng.hh"

namespace vpir
{

/** Per-structure fault rates (probability per opportunity, in [0,1])
 *  plus the seed. All-zero rates = no injection. Part of CoreParams,
 *  so every rate participates in the sweep cache key. */
struct FaultPlan
{
    uint64_t seed = 0x5eed;
    double vptValueRate = 0.0;  //!< corrupt a made prediction's value
    double vptConfRate = 0.0;   //!< flip the confidence-gate decision
    double rbOperandRate = 0.0; //!< corrupt a stored operand value
    double rbResultRate = 0.0;  //!< corrupt a stored result/load value
    double rbLinkRate = 0.0;    //!< corrupt a dependence pointer
    double rbDropInvRate = 0.0; //!< drop a store invalidation

    bool
    anyVpt() const
    {
        return vptValueRate > 0.0 || vptConfRate > 0.0;
    }

    bool
    anyRb() const
    {
        return rbOperandRate > 0.0 || rbResultRate > 0.0 ||
               rbLinkRate > 0.0 || rbDropInvRate > 0.0;
    }

    bool any() const { return anyVpt() || anyRb(); }
};

/** How many faults of each kind were actually injected in a run. */
struct FaultCounts
{
    uint64_t vptValue = 0;
    uint64_t vptConf = 0;
    uint64_t rbOperand = 0;
    uint64_t rbResult = 0;
    uint64_t rbLink = 0;
    uint64_t rbDropInv = 0;
};

/**
 * Draws fault decisions against a FaultPlan. One injector per core,
 * shared by its VPT instances and reuse buffer; single-threaded like
 * the core itself.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    // One predicate per fault site; each counts when it fires. A
    // zero rate (every cell that injects nothing) answers inline and
    // draws nothing.
    bool fireVptValue() { return fire(plan.vptValueRate, n.vptValue); }
    bool fireVptConf() { return fire(plan.vptConfRate, n.vptConf); }
    bool fireRbOperand() { return fire(plan.rbOperandRate, n.rbOperand); }
    bool fireRbResult() { return fire(plan.rbResultRate, n.rbResult); }
    bool fireRbLink() { return fire(plan.rbLinkRate, n.rbLink); }
    bool
    fireRbDropInv()
    {
        return fire(plan.rbDropInvRate, n.rbDropInv);
    }

    /** Corrupt a value: flips one pseudo-random low bit, so the
     *  result is guaranteed to differ from the input. */
    uint64_t corrupt(uint64_t v);

    /** Uniform draw in [0, bound); for picking an operand slot. */
    uint64_t pick(uint64_t bound) { return rng.below(bound); }

    const FaultCounts &counts() const { return n; }

  private:
    bool
    fire(double rate, uint64_t &counter)
    {
        if (rate <= 0.0)
            return false;
        return draw(rate, counter);
    }
    /** Draw against a positive @p rate; counts a hit. */
    bool draw(double rate, uint64_t &counter);

    FaultPlan plan;
    Rng rng;
    FaultCounts n;
};

/** Build a FaultPlan from the VPIR_FAULT_* environment knobs
 *  (SEED, VPT_VALUE, VPT_CONF, RB_OPERAND, RB_RESULT, RB_LINK,
 *  RB_DROPINV); unset knobs keep the given defaults. */
FaultPlan faultPlanFromEnv(const FaultPlan &defaults = FaultPlan());

} // namespace vpir

#endif // VPIR_CHECK_FAULT_HH
