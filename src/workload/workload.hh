/**
 * @file
 * Synthetic SPECint95-like workloads.
 *
 * The paper evaluates on seven SPECint95 programs; those binaries and
 * inputs are not redistributable, so each is replaced by a synthetic
 * kernel (written in this repo's ISA via the embedded assembler) that
 * mimics the computational character the study depends on: branch
 * predictability, value/reuse locality, call behaviour, and load/store
 * mix. See DESIGN.md §2 for the substitution rationale and
 * EXPERIMENTS.md for the measured-vs-paper characteristics.
 */

#ifndef VPIR_WORKLOAD_WORKLOAD_HH
#define VPIR_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "asm/assembler.hh"

namespace vpir
{

/** A named, assembled workload. */
struct Workload
{
    std::string name;       //!< paper benchmark it stands in for
    std::string input;      //!< paper's input set (documentation)
    Program program;
};

/**
 * Scale factor for all workloads: 1.0 gives roughly 1-2M committed
 * instructions per benchmark. Benches use the default; tests use
 * smaller scales.
 */
struct WorkloadScale
{
    double factor = 1.0;

    /** @p base × factor, at least 1 and at most INT32_MAX: the
     *  workloads load their counts with `li` as an int32, and a double
     *  outside unsigned's range has no defined conversion. */
    unsigned
    scaled(unsigned base) const
    {
        double v = base * factor;
        if (v >= INT32_MAX)
            return INT32_MAX;
        return v >= 2 ? static_cast<unsigned>(v) : 1;
    }
};

/** go: game tree search / board evaluation; branchy, ~76% bpred. */
Workload makeGo(const WorkloadScale &scale = WorkloadScale());
/** m88ksim: CPU simulator dispatch loop; highly redundant. */
Workload makeM88ksim(const WorkloadScale &scale = WorkloadScale());
/** ijpeg: blocked DCT-like image codec; little redundancy. */
Workload makeIjpeg(const WorkloadScale &scale = WorkloadScale());
/** perl: bytecode interpreter with hashing; moderate redundancy. */
Workload makePerl(const WorkloadScale &scale = WorkloadScale());
/** vortex: object database; call heavy, ~98% bpred. */
Workload makeVortex(const WorkloadScale &scale = WorkloadScale());
/** gcc: compiler-pass-like IR walks; mixed behaviour. */
Workload makeGcc(const WorkloadScale &scale = WorkloadScale());
/** compress: LZW with hash probing; high *address* reuse. */
Workload makeCompress(const WorkloadScale &scale = WorkloadScale());

/** All seven benchmark names in the paper's order. */
const std::vector<std::string> &workloadNames();

/** Build a workload by name (fatal on unknown names). */
Workload makeWorkload(const std::string &name,
                      const WorkloadScale &scale = WorkloadScale());

} // namespace vpir

#endif // VPIR_WORKLOAD_WORKLOAD_HH
