/**
 * @file
 * Figure 10: the fraction of redundant instructions (repeated +
 * derivable) that IR's non-speculative, operand-based test can
 * capture. The paper's headline: 84-97%.
 */

#include "bench/bench_util.hh"
#include "redundancy/redundancy.hh"

using namespace vpir;
using namespace vpir::bench;

void
runFig10(Runner &)
{
    banner("Figure 10", "amount of redundancy that can be reused");
    const std::vector<RedundancyStats> &all = analyzeAllWorkloads();

    TextTable t({"bench", "redundant %", "reusable %",
                 "reusable/redundant %"});
    for (size_t i = 0; i < workloadNames().size(); ++i) {
        const std::string &name = workloadNames()[i];
        const RedundancyStats &st = all[i];
        double rp = static_cast<double>(st.resultProducing);
        t.addRow({name,
                  TextTable::num(pct(st.redundant(), rp), 1),
                  TextTable::num(pct(st.reusable, rp), 1),
                  TextTable::num(100.0 * st.reusableFraction(), 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("paper's claim: \"most (84-97%%) of the redundant "
                "instructions in programs\nare amenable to reuse\" — "
                "detecting redundancy non-speculatively from\n"
                "operands does not significantly restrict IR.\n");
}
