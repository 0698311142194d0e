/**
 * @file
 * Table 4: % increase in the number of control squashes due to
 * spurious branch mispredictions (speculative branch resolution
 * only; NSB configurations do not change the squash count).
 */

#include "bench/bench_util.hh"
#include "bench/paper_ref.hh"

using namespace vpir;
using namespace vpir::bench;

namespace
{

/** % increase of squashes over the non-spurious squashes. */
double
increasePct(const CoreStats &vp)
{
    uint64_t legit = vp.branchSquashes - vp.spuriousSquashes;
    return legit ? 100.0 * static_cast<double>(vp.spuriousSquashes) /
                       static_cast<double>(legit)
                 : 0.0;
}

} // anonymous namespace

void
runTable4(Runner &runner)
{
    banner("Table 4",
           "percent increase in control squashes (spurious "
           "mispredictions)");
    const Grid g = runner.grid(
        {{"magic-me-sb", vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                                  BranchResolution::Speculative, 0)},
         {"magic-nme-sb", vpConfig(VpScheme::Magic, ReexecPolicy::Single,
                                   BranchResolution::Speculative, 0)},
         {"lvp-me-sb", vpConfig(VpScheme::Lvp, ReexecPolicy::Multiple,
                                BranchResolution::Speculative, 0)},
         {"lvp-nme-sb", vpConfig(VpScheme::Lvp, ReexecPolicy::Single,
                                 BranchResolution::Speculative, 0)}});

    TextTable t({"bench", "Magic ME-SB", "(p)", "Magic NME-SB", "(p)",
                 "LVP ME-SB", "(p)", "LVP NME-SB", "(p)"});
    for (const auto &name : workloadNames()) {
        const paper::Table4Row &ref = paper::table4.at(name);
        t.addRow({name, TextTable::num(increasePct(g.at(name, 0)), 1),
                  TextTable::num(ref.magicMeSb, 1),
                  TextTable::num(increasePct(g.at(name, 1)), 1),
                  TextTable::num(ref.magicNmeSb, 1),
                  TextTable::num(increasePct(g.at(name, 2)), 1),
                  TextTable::num(ref.lvpMeSb, 1),
                  TextTable::num(increasePct(g.at(name, 3)), 1),
                  TextTable::num(ref.lvpNmeSb, 1)});
    }
    std::printf("%s\n", t.render().c_str());
    std::printf("shape checks: VP_LVP causes a much larger increase "
                "than VP_Magic (its\nvalue misprediction rate is "
                "higher); NME trims the ME numbers slightly.\n");
}
