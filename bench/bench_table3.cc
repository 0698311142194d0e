/**
 * @file
 * Table 3: IR reuse rates and VP_Magic / VP_LVP prediction and
 * misprediction rates. Result percentages are over committed
 * instructions; address percentages are over committed memory
 * operations, as in the paper.
 */

#include "bench/bench_util.hh"
#include "bench/paper_ref.hh"

using namespace vpir;
using namespace vpir::bench;

namespace
{

double
overInsts(uint64_t n, const CoreStats &st)
{
    return pct(static_cast<double>(n),
               static_cast<double>(st.committedInsts));
}

double
overMem(uint64_t n, const CoreStats &st)
{
    return pct(static_cast<double>(n),
               static_cast<double>(st.committedMemOps));
}

} // anonymous namespace

void
runTable3(Runner &runner)
{
    banner("Table 3", "percentage IR and VP rates");
    const Grid g = runner.grid(
        {{"ir", irConfig()},
         {"magic", vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                            BranchResolution::Speculative, 0)},
         {"lvp", vpConfig(VpScheme::Lvp, ReexecPolicy::Multiple,
                          BranchResolution::Speculative, 0)}});

    TextTable t({"bench", "ir-res", "(p)", "ir-adr", "(p)", "mag-res",
                 "(p)", "mag-mis", "(p)", "mag-adr", "(p)", "lvp-res",
                 "(p)", "lvp-mis", "(p)"});
    for (const auto &name : workloadNames()) {
        const CoreStats &ir = g.at(name, 0);
        const CoreStats &m = g.at(name, 1);
        const CoreStats &l = g.at(name, 2);
        const paper::Table3Row &ref = paper::table3.at(name);
        t.addRow({name,
                  TextTable::num(overInsts(ir.reusedResults, ir), 1),
                  TextTable::num(ref.irResult, 1),
                  TextTable::num(overMem(ir.reusedAddrs, ir), 1),
                  TextTable::num(ref.irAddr, 1),
                  TextTable::num(overInsts(m.vpResultCorrect, m), 1),
                  TextTable::num(ref.magicPred, 1),
                  TextTable::num(overInsts(m.vpResultWrong, m), 1),
                  TextTable::num(ref.magicMispred, 1),
                  TextTable::num(overMem(m.vpAddrCorrect, m), 1),
                  TextTable::num(ref.magicAddrPred, 1),
                  TextTable::num(overInsts(l.vpResultCorrect, l), 1),
                  TextTable::num(ref.lvpPred, 1),
                  TextTable::num(overInsts(l.vpResultWrong, l), 1),
                  TextTable::num(ref.lvpMispred, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("address columns for VP_LVP (paper: pred 18.1-41.7%%, "
                "mispred 0.1-4.0%%):\n");
    TextTable t2({"bench", "lvp-adr", "(p)", "lvp-adr-mis", "(p)"});
    for (const auto &name : workloadNames()) {
        const CoreStats &l = g.at(name, 2);
        const paper::Table3Row &ref = paper::table3.at(name);
        t2.addRow({name, TextTable::num(overMem(l.vpAddrCorrect, l), 1),
                   TextTable::num(ref.lvpAddrPred, 1),
                   TextTable::num(overMem(l.vpAddrWrong, l), 1),
                   TextTable::num(ref.lvpAddrMispred, 1)});
    }
    std::printf("%s\n", t2.render().c_str());
    std::printf("shape checks: VP_Magic result rate >= IR result rate "
                "(all but compress\nin the paper); compress address "
                "reuse is the outlier high value; VP_LVP\nrates sit "
                "below VP_Magic with higher mispredictions.\n");
}
