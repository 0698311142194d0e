/**
 * @file
 * The differential driver: run one program through the timing Core
 * under a randomized configuration with the lockstep checker and
 * cycle-level audits armed, and classify every way the run can
 * disagree with the functional reference — a checker divergence, an
 * audit panic, a watchdog fire, a stats conservation-law violation,
 * or an end-of-run architectural state mismatch against a fresh
 * Emulator execution.
 */

#ifndef VPIR_FUZZ_DIFFERENTIAL_HH
#define VPIR_FUZZ_DIFFERENTIAL_HH

#include <cstdint>
#include <string>

#include "asm/assembler.hh"
#include "core/core_stats.hh"
#include "core/params.hh"

namespace vpir
{
namespace fuzz
{

/** What a differential run produced. */
struct DiffOutcome
{
    bool diverged = false;
    /** Failure class: "checker", "audit", "watchdog", "panic",
     *  "conservation", "end-state", "no-halt"; "" on a clean run.
     *  Stable across shrinking (details may move, the kind must
     *  not). */
    std::string kind;
    /** First line of the failure message / description. */
    std::string detail;
    CoreStats stats;
};

/** Signature used to compare two divergences: "kind|detail". */
std::string divergenceSignature(const DiffOutcome &d);

/**
 * Run @p program on a Core built from @p params, under a panic-throw
 * scope, and cross-check everything (see file header). Deterministic
 * for fixed inputs.
 */
DiffOutcome runDifferential(const Program &program,
                            const CoreParams &params);

/**
 * Stats conservation laws: identities and bounds any correct run
 * satisfies (predicted == correct + wrong, memOps == loads + stores,
 * checker coverage under checkRetire, hist sums, ...).
 * @return "" when all hold, else the first violated law.
 */
std::string checkStatsConservation(const CoreStats &st,
                                   const CoreParams &params);

/**
 * Derive the randomized machine configuration for a fuzz cell:
 * technique, branch-resolution/re-execution policy, verify latency,
 * occasional geometry jitter, and (for VP configs) an absorbable VPT
 * fault cocktail. Always enables checkRetire + auditInvariants + a
 * watchdog. Pure function of the seed.
 */
CoreParams fuzzParamsForSeed(uint64_t seed);

} // namespace fuzz
} // namespace vpir

#endif // VPIR_FUZZ_DIFFERENTIAL_HH
