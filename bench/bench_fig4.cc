/**
 * @file
 * Figure 4: branch resolution latency (decode -> final resolution),
 * normalised to the base machine, for VP {ME,NME} x {SB,NSB} at 0-
 * and 1-cycle verification latency, and for IR (same bars in both
 * halves).
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
    for (const auto &name : workloadNames()) {
        double b = branchResLat(g.at(name, 0));
        std::vector<std::string> row = {name};
        for (size_t c = 1; c <= 5; ++c)
            row.push_back(TextTable::num(
                b > 0 ? branchResLat(g.at(name, c)) / b : 0.0, 3));
        t.addRow(row);
    }
    std::printf("%s\n", t.render().c_str());
}

} // anonymous namespace

void
runFig4(Runner &runner)
{
    banner("Figure 4",
           "branch resolution latency, normalised to base (< 1.0 "
           "is better)");
    const Grid g0 = makeHalf(runner, 0);
    const Grid g1 = makeHalf(runner, 1);
    half(g0, 0);
    half(g1, 1);
    std::printf("shape checks: all configurations reduce the latency; "
                "SB reduces it more\nthan NSB; with 1-cycle "
                "verification the NSB reduction shrinks toward the\n"
                "base; the reuse bars are identical in both halves "
                "and among the lowest.\n");
}
