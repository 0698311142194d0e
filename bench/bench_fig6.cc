/**
 * @file
 * Figure 6: speedups over base for VP_Magic {ME,NME} x {SB,NSB} and
 * IR (scheme S_{n+d}), at 0- and 1-cycle VP-verification latency,
 * with harmonic-mean bars.
 */

#include "bench/bench_util.hh"

using namespace vpir;
using namespace vpir::bench;

namespace
{

/** Base, the four VP_Magic machines at @p lat-cycle verification, IR. */
Grid
makeHalf(Runner &runner, unsigned lat)
{
    std::vector<Config> configs = vpConfigs(
        VpScheme::Magic, lat, "magic-", "-" + std::to_string(lat));
    configs.insert(configs.begin(), {"base", baseConfig()});
    configs.push_back({"ir", irConfig()});
    return runner.grid(configs);
}

void
half(const Grid &g, unsigned lat)
{
    std::printf("--- %u-cycle VP-verification latency ---\n", lat);
    TextTable t({"bench", "ME-SB", "NME-SB", "ME-NSB", "NME-NSB",
                 "reuse-n+d"});
    std::vector<std::vector<double>> cols(5);
    for (const auto &name : workloadNames()) {
        const CoreStats &base = g.at(name, 0);
        std::vector<std::string> row = {name};
        for (int c = 0; c < 5; ++c) {
            double s = speedup(g.at(name, c + 1), base);
            cols[c].push_back(s);
            row.push_back(TextTable::num(s, 3));
        }
        t.addRow(row);
    }
    std::vector<std::string> hm = {"HM"};
    for (int c = 0; c < 5; ++c)
        hm.push_back(TextTable::num(harmonicMean(cols[c]), 3));
    t.addRow(hm);
    std::printf("%s\n", t.render().c_str());
}

} // anonymous namespace

void
runFig6(Runner &runner)
{
    banner("Figure 6", "speedups with VP_Magic and IR (S_n+d)");
    const Grid g0 = makeHalf(runner, 0);
    const Grid g1 = makeHalf(runner, 1);
    half(g0, 0);
    half(g1, 1);
    std::printf(
        "shape checks (paper §4.2.4):\n"
        "  1. SB outperforms NSB for VP_Magic (spurious squashes are "
        "outweighed by\n     earlier resolution).\n"
        "  2. ME vs NME is negligible.\n"
        "  3. 1-cycle verification hurts, and hurts NSB more than "
        "SB.\n"
        "  4. IR can match or beat VP on some benchmarks despite "
        "capturing less\n     redundancy.\n");
}
