/**
 * @file
 * Table 5: executed instructions squashed by branch mispredictions,
 * and the fraction of that squashed work IR recovers from the reuse
 * buffer.
 */

#include "bench/bench_util.hh"
#include "bench/paper_ref.hh"

using namespace vpir;
using namespace vpir::bench;

void
runTable5(Runner &runner)
{
    banner("Table 5",
           "executed instructions squashed, and squashed work "
           "recovered by IR");
    const Grid g = runner.grid({{"ir", irConfig()}});

    TextTable t({"bench", "insts exec(K)", "squashed %", "(p)",
                 "recovered %", "(p)"});
    for (const auto &name : workloadNames()) {
        const CoreStats &ir = g.at(name, 0);
        const paper::Table5Row &ref = paper::table5.at(name);
        double squashed_pct =
            pct(static_cast<double>(ir.squashedExecuted),
                static_cast<double>(ir.executedInsts));
        double recovered_pct =
            pct(static_cast<double>(ir.squashedRecovered),
                static_cast<double>(ir.squashedExecuted));
        t.addRow({name,
                  TextTable::num(ir.executedInsts / 1000.0, 0),
                  TextTable::num(squashed_pct, 1),
                  TextTable::num(ref.execSquashedPct, 1),
                  TextTable::num(recovered_pct, 1),
                  TextTable::num(ref.squashRecoveredPct, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape check: a significant share of squashed "
                "executed work (paper: ~28-54%%)\nis recovered "
                "through the reuse buffer.\n");
}
