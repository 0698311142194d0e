/**
 * @file
 * Table 6: percent of committed instructions executed once, twice,
 * and three times under VP_Magic ME-SB with 1-cycle verification
 * latency.
 */

#include "bench/bench_util.hh"
#include "bench/paper_ref.hh"

using namespace vpir;
using namespace vpir::bench;

void
runTable6(Runner &runner)
{
    banner("Table 6", "instructions executed 1 / 2 / 3 times "
                      "(VP_Magic, ME-SB, 1-cycle)");
    const Grid g = runner.grid(
        {{"magic-me-sb-1", vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                                    BranchResolution::Speculative, 1)}});

    TextTable t({"bench", "1x", "(p)", "2x", "(p)", "3x", "(p)",
                 ">=4x"});
    for (const auto &name : workloadNames()) {
        const CoreStats &st = g.at(name, 0);
        uint64_t total = st.execCountHist[0] + st.execCountHist[1] +
                         st.execCountHist[2] + st.execCountHist[3];
        auto share = [&](int i) {
            return TextTable::num(
                pct(static_cast<double>(st.execCountHist[i]),
                    static_cast<double>(total)),
                1);
        };
        const paper::Table6Row &ref = paper::table6.at(name);
        t.addRow({name, share(0), TextTable::num(ref.once, 1),
                  share(1), TextTable::num(ref.twice, 1), share(2),
                  TextTable::num(ref.thrice, 1), share(3)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape check: very few instructions execute more "
                "than twice, which is\nwhy restricting re-execution "
                "(NME) barely changes performance.\n");
}
