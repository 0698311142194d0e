/**
 * @file
 * Extension experiment (not a paper figure): the hybrid VP+IR
 * machine the paper's introduction and conclusion call for. The
 * reuse buffer is probed first (non-speculative, early-validating);
 * a value prediction fills in whenever the operand-based test fails.
 *
 * Expected shape: the hybrid captures at least as much redundancy as
 * either technique alone and its speedup is at or above
 * max(VP, IR) on most benchmarks, because reuse converts would-be
 * predictions into non-speculative results (no verification, no
 * re-execution) while prediction covers reuse's not-ready and
 * different-operand misses.
 */

#include "bench/bench_util.hh"

using namespace vpir;
using namespace vpir::bench;

void
runHybrid(Runner &runner)
{
    banner("Hybrid (extension)",
           "speedups: VP alone, IR alone, IR-first hybrid");
    const Grid g = runner.grid(
        {{"base", baseConfig()},
         {"vp", vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                         BranchResolution::Speculative, 0)},
         {"ir", irConfig()},
         {"hybrid", hybridConfig()}});

    TextTable t({"bench", "VP(Magic,SB)", "IR", "hybrid",
                 "hyb reuse %", "hyb pred %"});
    std::vector<double> vp_s, ir_s, hy_s;
    for (const auto &name : workloadNames()) {
        const CoreStats &base = g.at(name, 0);
        const CoreStats &hy = g.at(name, 3);
        double sv = speedup(g.at(name, 1), base);
        double si = speedup(g.at(name, 2), base);
        double sh = speedup(hy, base);
        vp_s.push_back(sv);
        ir_s.push_back(si);
        hy_s.push_back(sh);
        t.addRow({name, TextTable::num(sv, 3), TextTable::num(si, 3),
                  TextTable::num(sh, 3),
                  TextTable::num(
                      pct(static_cast<double>(hy.reusedResults),
                          static_cast<double>(hy.committedInsts)),
                      1),
                  TextTable::num(
                      pct(static_cast<double>(hy.vpResultCorrect),
                          static_cast<double>(hy.committedInsts)),
                      1)});
    }
    t.addRow({"HM", TextTable::num(harmonicMean(vp_s), 3),
              TextTable::num(harmonicMean(ir_s), 3),
              TextTable::num(harmonicMean(hy_s), 3), "", ""});
    std::printf("%s\n", t.render().c_str());
    std::printf("reused instructions never re-execute or verify; "
                "predictions cover the\noperand-test misses — the "
                "combination the paper's section 5 anticipates.\n");
}
