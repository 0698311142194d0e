/**
 * @file
 * Table 2: benchmark programs, dynamic instruction counts, and
 * branch / return prediction rates on the base machine.
 *
 * Substitution note: absolute instruction counts are scaled down
 * (DESIGN.md §2); the reproduction targets are the per-benchmark
 * prediction-rate ordering and levels.
 */

#include "bench/bench_util.hh"
#include "bench/paper_ref.hh"

using namespace vpir;
using namespace vpir::bench;

void
runTable2(Runner &runner)
{
    banner("Table 2", "benchmarks, branch and return prediction rates");
    const Grid g = runner.grid({{"base", baseConfig()}});

    TextTable t({"bench", "insts(K)", "br pred %", "(paper)",
                 "ret pred %", "(paper)"});
    for (const auto &name : workloadNames()) {
        const CoreStats &st = g.at(name, 0);
        const paper::Table2Row &ref = paper::table2.at(name);
        t.addRow({name,
                  TextTable::num(st.committedInsts / 1000.0, 0),
                  TextTable::num(brPredRate(st), 1),
                  TextTable::num(ref.brPredRate, 1),
                  TextTable::num(retPredRate(st), 1),
                  TextTable::num(ref.retPredRate, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("note: paper instruction counts are 354-508M after "
                "fast-forward; this\nreproduction runs scaled-down "
                "synthetic workloads (VPIR_BENCH_INSTS=%llu).\n",
                static_cast<unsigned long long>(runner.instLimit()));
}
