/**
 * @file
 * Figure 8: classification of instruction results into unique,
 * repeated, derivable, and unaccounted (limit study, §4.3), over
 * result-producing dynamic instructions.
 */

#include "bench/bench_util.hh"
#include "redundancy/redundancy.hh"

using namespace vpir;
using namespace vpir::bench;

void
runFig8(Runner &)
{
    banner("Figure 8",
           "classification of results: unique / repeated / "
           "derivable / unaccounted");
    const std::vector<RedundancyStats> &all = analyzeAllWorkloads();

    TextTable t({"bench", "unique %", "repeated %", "derivable %",
                 "unaccounted %"});
    for (size_t i = 0; i < workloadNames().size(); ++i) {
        const std::string &name = workloadNames()[i];
        const RedundancyStats &st = all[i];
        double rp = static_cast<double>(st.resultProducing);
        t.addRow({name, TextTable::num(pct(st.unique, rp), 1),
                  TextTable::num(pct(st.repeated, rp), 1),
                  TextTable::num(pct(st.derivable, rp), 1),
                  TextTable::num(pct(st.unaccounted, rp), 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper's shape: few (<5%%) unique results, most "
                "(80-90%%) repeated, few\n(<5%%) derivable; the "
                "buffering cap (10K instances/static instruction)\n"
                "leaves a small unaccounted remainder.\n");
}
