/**
 * @file
 * Quickstart: assemble a tiny program, run it on the base machine,
 * then with Value Prediction and Instruction Reuse, and print the
 * headline statistics. Start here to learn the public API.
 */

#include <cstdio>

#include "asm/assembler.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/**
 * A small redundant kernel: every iteration recomputes the same
 * dependent chain (multiply included) from a loop-invariant load —
 * ideal prey for both VP and IR, which collapse the chain that
 * serialises the base machine.
 */
Program
buildDemo()
{
    Assembler a;

    a.dataLabel("c");
    a.word(12345);
    a.dataLabel("sink");
    a.space(8);

    a.la(S0, "c");
    a.li(S1, 40000); // iterations

    a.label("loop");
    a.lw(T2, S0, 0);    // invariant load
    a.sll(T3, T2, 1);   // dependent chain on the loaded value
    a.xor_(T4, T3, T2);
    a.addi(T5, T4, 7);
    a.mult(T5, T3);     // 3-cycle multiply inside the chain
    a.mflo(T6);
    a.add(T6, T6, T5);
    a.la(T7, "sink");
    a.sw(T6, T7, 0);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();

    return a.finish();
}

void
report(const char *label, const CoreStats &st)
{
    std::printf("%-22s cycles=%-10llu insts=%-10llu IPC=%.3f\n", label,
                static_cast<unsigned long long>(st.cycles),
                static_cast<unsigned long long>(st.committedInsts),
                st.ipc());
}

} // anonymous namespace

int
main()
{
    const uint64_t limit = 300000;

    std::printf("vpir quickstart: one kernel, three machines\n\n");

    Program prog = buildDemo();

    Simulator base(withLimits(baseConfig(), limit), prog);
    report("base superscalar", base.run());

    Simulator vp(withLimits(vpConfig(VpScheme::Magic,
                                     ReexecPolicy::Multiple,
                                     BranchResolution::Speculative, 0),
                            limit),
                 prog);
    const CoreStats &vps = vp.run();
    report("VP_Magic (ME-SB)", vps);
    std::printf("  value predictions: %llu correct, %llu wrong\n",
                static_cast<unsigned long long>(vps.vpResultCorrect),
                static_cast<unsigned long long>(vps.vpResultWrong));

    Simulator ir(withLimits(irConfig(), limit), prog);
    const CoreStats &irs = ir.run();
    report("IR (S_n+d)", irs);
    std::printf("  reused results: %llu of %llu committed (%.1f%%)\n",
                static_cast<unsigned long long>(irs.reusedResults),
                static_cast<unsigned long long>(irs.committedInsts),
                pct(static_cast<double>(irs.reusedResults),
                    static_cast<double>(irs.committedInsts)));

    std::printf("\nspeedup over base: VP %.3fx, IR %.3fx\n",
                vps.ipc() / base.stats().ipc(),
                irs.ipc() / base.stats().ipc());
    return 0;
}
