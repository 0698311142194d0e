/**
 * @file
 * Figure 7: speedups over base for VP_LVP {ME,NME} x {SB,NSB} at 0-
 * and 1-cycle VP-verification latency, with harmonic-mean bars.
 * (Not comparable with the IR bars: LVP stores one instance per
 * instruction.)
 */

#include "bench/bench_util.hh"

using namespace vpir;
using namespace vpir::bench;

namespace
{

/** Base and the four VP_LVP machines at @p lat-cycle verification. */
Grid
makeHalf(Runner &runner, unsigned lat)
{
    std::vector<Config> configs = vpConfigs(
        VpScheme::Lvp, lat, "lvp-", "-" + std::to_string(lat));
    configs.insert(configs.begin(), {"base", baseConfig()});
    return runner.grid(configs);
}

void
half(const Grid &g, unsigned lat)
{
    std::printf("--- %u-cycle VP-verification latency ---\n", lat);
    TextTable t({"bench", "ME-SB", "NME-SB", "ME-NSB", "NME-NSB"});
    std::vector<std::vector<double>> cols(4);
    for (const auto &name : workloadNames()) {
        const CoreStats &base = g.at(name, 0);
        std::vector<std::string> row = {name};
        for (int c = 0; c < 4; ++c) {
            double s = speedup(g.at(name, c + 1), base);
            cols[c].push_back(s);
            row.push_back(TextTable::num(s, 3));
        }
        t.addRow(row);
    }
    std::vector<std::string> hm = {"HM"};
    for (int c = 0; c < 4; ++c)
        hm.push_back(TextTable::num(harmonicMean(cols[c]), 3));
    t.addRow(hm);
    std::printf("%s\n", t.render().c_str());
}

} // anonymous namespace

void
runFig7(Runner &runner)
{
    banner("Figure 7", "speedups with VP_LVP");
    const Grid g0 = makeHalf(runner, 0);
    const Grid g1 = makeHalf(runner, 1);
    half(g0, 0);
    half(g1, 1);
    std::printf(
        "shape checks (paper §4.2.4):\n"
        "  1. With LVP's accuracy, SB configurations degrade "
        "performance (< 1.0)\n     on most benchmarks.\n"
        "  2. Unlike VP_Magic, NSB beats SB: with high value "
        "misprediction rates\n     it pays to delay branch "
        "resolution.\n"
        "  3. 1-cycle verification lowers everything further.\n");
}
