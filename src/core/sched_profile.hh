/**
 * @file
 * Per-stage cycle profiler, always on.
 *
 * Host time spent inside each pipeline stage of Core::cycle, plus how
 * many cycles ran versus were skipped by the idle-cycle fast-forward.
 * The stage times are sampled: Core::cycle times one run cycle in
 * every samplePeriod and counts each lap samplePeriod times, so the
 * profile costs about one clock read per stage every samplePeriod
 * cycles. Lives outside CoreStats on purpose: the nanosecond fields
 * are host-dependent, and the run/skip split describes the simulator
 * rather than the simulated machine (a better skipper changes it
 * without changing any stat), so folding either into the
 * deterministic stats block would break stats byte-identity and the
 * result-cache fingerprint. The cycle and emulator-step counts are
 * exact and deterministic for a given build and cell. The sweep
 * engine emits every simulated cell's profile into
 * bench_timing.*.json.
 */

#ifndef VPIR_CORE_SCHED_PROFILE_HH
#define VPIR_CORE_SCHED_PROFILE_HH

#include <cstdint>

namespace vpir
{

struct SchedProfile
{
    /** One run cycle in this many is timed. A prime, so no
     *  power-of-two loop period in a workload can alias with it. */
    static constexpr uint64_t samplePeriod = 61;

    uint64_t fetchNs = 0;
    uint64_t dispatchNs = 0;
    /** Emulator steps dispatch made (Emulator::stepAt), on every
     *  cycle, wrong paths included: exact and clock-free. Priced at
     *  a step's measured cost (perfbench's emu.step_ns), they give
     *  the emulator's part of dispatchNs. */
    uint64_t emuSteps = 0;
    uint64_t issueNs = 0;
    /** Completion + finalize + control-resolution walks. */
    uint64_t executeNs = 0;
    uint64_t commitNs = 0;
    /** Cycles the simulator actually stepped through. */
    uint64_t cyclesRun = 0;
    /** Cycles fast-forwarded by the idle skipper. */
    uint64_t idleSkippedCycles = 0;
};

/** Visit every integer field with its JSON name; keeps the timing-JSON
 *  emitter and the [profile] stderr lines on one field list. */
template <typename P, typename F>
void
forEachProfileField(P &p, F f)
{
    f("fetch_ns", p.fetchNs);
    f("dispatch_ns", p.dispatchNs);
    f("emu_steps", p.emuSteps);
    f("issue_ns", p.issueNs);
    f("execute_ns", p.executeNs);
    f("commit_ns", p.commitNs);
    f("cycles_run", p.cyclesRun);
    f("idle_skipped_cycles", p.idleSkippedCycles);
}

} // namespace vpir

#endif // VPIR_CORE_SCHED_PROFILE_HH
