/**
 * @file
 * Seeded random program generator for the differential fuzzing
 * harness.
 *
 * Emits valid, terminating programs in the repo's ISA, biased toward
 * the paper's hard cases: predictable-value chains (VP fodder),
 * reusable dependence chains with loop-invariant operands (IR
 * fodder), store/load aliasing including sub-word partial overlaps,
 * tight counted loops with data-dependent branches (squash storms),
 * branch-heavy straight-line blocks, and direct/indirect calls.
 *
 * Every random draw comes from one Rng(seed) stream, so a given
 * (seed, options, GENERATOR_REVISION) triple always produces the
 * bit-identical program. Termination is by construction: the only
 * backward edges are counted loops whose counters no body gadget can
 * write.
 */

#ifndef VPIR_FUZZ_GENERATOR_HH
#define VPIR_FUZZ_GENERATOR_HH

#include <cstdint>
#include <string>

#include "asm/assembler.hh"

namespace vpir
{
namespace fuzz
{

/**
 * Bump whenever generateProgram()'s output for a given seed can
 * change (new gadgets, reweighting, skeleton edits). Repro bundles
 * and crash reports carry this so a stored seed is only trusted to
 * regenerate the same program against the matching revision.
 */
constexpr int GENERATOR_REVISION = 1;

/** Generate the program for @p seed: a few-thousand-instruction run.
 *  Deterministic. */
Program generateProgram(uint64_t seed);

/** Display name of the campaign cell for a seed: "fuzz:%016x". */
std::string fuzzWorkloadName(uint64_t seed);

} // namespace fuzz
} // namespace vpir

#endif // VPIR_FUZZ_GENERATOR_HH
