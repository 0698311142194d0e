/**
 * @file
 * Authoring a custom workload with the embedded assembler and
 * studying it end to end: run it on the three machines (base, VP,
 * IR), then put it through the §4.3 redundancy limit study.
 *
 * The kernel is a small string-interning loop — hash a name, probe a
 * table, intern on miss — a classic mix of reusable hashing and
 * unreusable table state.
 */

#include <cstdio>

#include "asm/assembler.hh"
#include "redundancy/redundancy.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

Program
buildInterner()
{
    Assembler a;

    // Eight names, 8 bytes each, cycled repeatedly.
    const char *names[8] = {"alpha", "beta", "gamma", "delta",
                            "epsilon", "zeta", "eta", "theta"};
    a.dataLabel("names");
    for (const char *n : names) {
        std::vector<uint8_t> slot(8, 0);
        for (unsigned i = 0; n[i] && i < 8; ++i)
            slot[i] = static_cast<uint8_t>(n[i]);
        a.bytes(slot);
    }
    a.dataLabel("table"); // 64 open-addressed slots
    a.space(64 * 4);
    a.dataLabel("interned");
    a.space(4);

    a.la(S0, "names");
    a.la(S1, "table");
    a.li(S2, 12000); // iterations
    a.li(S3, 0);     // name index

    a.label("loop");
    // name pointer = names + (idx & 7) * 8
    a.andi(T0, S3, 7);
    a.sll(T0, T0, 3);
    a.add(T0, S0, T0);
    // hash the name (reusable chain: same 8 names repeat)
    a.li(T1, 0);
    a.move(T2, T0);
    a.label("hash");
    a.lbu(T3, T2, 0);
    a.beq(T3, ZERO, "hashed");
    a.sll(T4, T1, 5);
    a.sub(T4, T4, T1);
    a.add(T1, T4, T3);
    a.addi(T2, T2, 1);
    a.j("hash");
    a.label("hashed");
    // probe table[hash & 63]
    a.andi(T5, T1, 63);
    a.sll(T5, T5, 2);
    a.add(T5, S1, T5);
    a.lw(T6, T5, 0);
    a.bne(T6, ZERO, "hit");
    a.sw(T1, T5, 0); // intern
    a.la(T7, "interned");
    a.lw(T8, T7, 0);
    a.addi(T8, T8, 1);
    a.sw(T8, T7, 0);
    a.label("hit");
    a.addi(S3, S3, 1);
    a.addi(S2, S2, -1);
    a.bgtz(S2, "loop");
    a.halt();

    return a.finish();
}

void
report(const char *label, const CoreStats &st, const CoreStats &base)
{
    std::printf("  %-16s IPC %.3f  speedup %.3fx", label, st.ipc(),
                st.ipc() / base.ipc());
    if (st.reusedResults)
        std::printf("  (%.1f%% reused)",
                    pct(static_cast<double>(st.reusedResults),
                        static_cast<double>(st.committedInsts)));
    if (st.vpResultCorrect)
        std::printf("  (%.1f%% predicted right, %.1f%% wrong)",
                    pct(static_cast<double>(st.vpResultCorrect),
                        static_cast<double>(st.committedInsts)),
                    pct(static_cast<double>(st.vpResultWrong),
                        static_cast<double>(st.committedInsts)));
    std::printf("\n");
}

} // anonymous namespace

int
main()
{
    std::printf("custom workload example: string interner\n\n");
    Program prog = buildInterner();
    std::printf("assembled %zu instructions\n\n", prog.text.size());

    Simulator base(baseConfig(), prog);
    const CoreStats &b = base.run();
    report("base", b, b);

    Simulator vp(vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                          BranchResolution::Speculative, 0),
                 prog);
    report("VP_Magic ME-SB", vp.run(), b);

    Simulator ir(irConfig(), prog);
    report("IR S_n+d", ir.run(), b);

    std::printf("\nredundancy limit study (paper section 4.3):\n");
    RedundancyStats rs = analyzeRedundancy(prog);
    double rp = static_cast<double>(rs.resultProducing);
    std::printf("  unique %.1f%%  repeated %.1f%%  derivable %.1f%%\n",
                pct(static_cast<double>(rs.unique), rp),
                pct(static_cast<double>(rs.repeated), rp),
                pct(static_cast<double>(rs.derivable), rp));
    std::printf("  reusable fraction of redundancy: %.1f%%\n",
                100.0 * rs.reusableFraction());
    return 0;
}
