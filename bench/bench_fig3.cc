/**
 * @file
 * Figure 3: performance benefit of early validation. Two IR runs per
 * benchmark — "early" validates reuse at decode (real IR), "late"
 * validates at execute (hits behave as correct value predictions) —
 * reported as % speedup over base, plus the harmonic-mean bars.
 *
 * Paper's shape: more than half of IR's improvement disappears when
 * validation is deferred to execute.
 */

#include "bench/bench_util.hh"

using namespace vpir;
using namespace vpir::bench;

void
runFig3(Runner &runner)
{
    banner("Figure 3", "performance benefits of early validation");
    const Grid g =
        runner.grid({{"base", baseConfig()},
                     {"ir-early", irConfig(IrValidation::Early)},
                     {"ir-late", irConfig(IrValidation::Late)}});

    TextTable t({"bench", "early speedup %", "late speedup %",
                 "late/early"});
    std::vector<double> early_s, late_s;
    for (const auto &name : workloadNames()) {
        const CoreStats &base = g.at(name, 0);
        double es = speedup(g.at(name, 1), base);
        double ls = speedup(g.at(name, 2), base);
        early_s.push_back(es);
        late_s.push_back(ls);
        t.addRow({name, TextTable::num(100.0 * (es - 1.0), 2),
                  TextTable::num(100.0 * (ls - 1.0), 2),
                  TextTable::num(
                      es > 1.0 ? (ls - 1.0) / (es - 1.0) : 0.0, 2)});
    }
    double hm_e = harmonicMean(early_s);
    double hm_l = harmonicMean(late_s);
    t.addRow({"HM", TextTable::num(100.0 * (hm_e - 1.0), 2),
              TextTable::num(100.0 * (hm_l - 1.0), 2),
              TextTable::num(
                  hm_e > 1.0 ? (hm_l - 1.0) / (hm_e - 1.0) : 0.0, 2)});
    std::printf("%s\n", t.render().c_str());
    std::printf("paper's claim: \"more than half of the performance "
                "improvement is lost\nif the validation is deferred "
                "to the execution stage\" (late/early < 0.5\nfor the "
                "harmonic mean).\n");
}
