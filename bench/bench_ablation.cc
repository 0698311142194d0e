/**
 * @file
 * Ablations of the design choices DESIGN.md calls out (not paper
 * experiments):
 *   1. VP with result-only / address-only prediction — where the VP
 *      speedup comes from per benchmark.
 *   2. Structure capacity at fixed associativity — how sensitive the
 *      Table 3 capture rates are to the paper's 16K/4K sizing.
 */

#include "bench/bench_util.hh"

using namespace vpir;
using namespace vpir::bench;

void
runAblation(Runner &runner)
{
    banner("Ablations", "VP prediction kinds and structure capacity");
    CoreParams full = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                               BranchResolution::Speculative, 0);
    CoreParams res_only = full;
    res_only.vpPredictAddresses = false;
    CoreParams addr_only = full;
    addr_only.vpPredictResults = false;
    const Grid kinds = runner.grid({{"base", baseConfig()},
                                    {"vp-full", full},
                                    {"vp-res", res_only},
                                    {"vp-addr", addr_only}});

    // Capacity steps: column 2i is the IR run and 2i+1 the VP run of
    // step i.
    const unsigned rb_sizes[] = {512u, 2048u, 4096u, 8192u};
    std::vector<Config> steps;
    for (unsigned rb_entries : rb_sizes) {
        CoreParams ir = irConfig();
        ir.rb.entries = rb_entries;
        CoreParams vp = full;
        vp.vpt.entries = rb_entries * 4;
        std::string tag = std::to_string(rb_entries);
        steps.push_back({"ir-" + tag, ir});
        steps.push_back({"vp-" + tag, vp});
    }
    const Grid capacity = runner.grid(steps, {"m88ksim", "perl"});

    std::printf("--- 1. VP_Magic ME-SB: which predictions matter "
                "---\n");
    TextTable t1({"bench", "full", "results only", "addresses only"});
    for (const auto &name : workloadNames()) {
        const CoreStats &base = kinds.at(name, 0);
        std::vector<std::string> row = {name};
        for (size_t c = 1; c <= 3; ++c)
            row.push_back(TextTable::num(speedup(kinds.at(name, c), base), 3));
        t1.addRow(row);
    }
    std::printf("%s\n", t1.render().c_str());

    std::printf("--- 2. capture rate vs capacity (m88ksim, perl) "
                "---\n");
    TextTable t2({"entries (RB / VPT)", "m88k reuse %", "m88k pred %",
                  "perl reuse %", "perl pred %"});
    for (size_t i = 0; i < std::size(rb_sizes); ++i) {
        auto reuse_rate = [&](const std::string &wname) {
            const CoreStats &s = capacity.at(wname, 2 * i);
            return pct(static_cast<double>(s.reusedResults),
                       static_cast<double>(s.committedInsts));
        };
        auto pred_rate = [&](const std::string &wname) {
            const CoreStats &s = capacity.at(wname, 2 * i + 1);
            return pct(static_cast<double>(s.vpResultCorrect),
                       static_cast<double>(s.committedInsts));
        };
        t2.addRow({std::to_string(rb_sizes[i]) + " / " +
                       std::to_string(rb_sizes[i] * 4),
                   TextTable::num(reuse_rate("m88ksim"), 1),
                   TextTable::num(pred_rate("m88ksim"), 1),
                   TextTable::num(reuse_rate("perl"), 1),
                   TextTable::num(pred_rate("perl"), 1)});
    }
    std::printf("%s\n", t2.render().c_str());
    std::printf("observation: once the hot static instructions fit, "
                "capture is bounded\nby the 4 instances per "
                "instruction, not capacity — supporting the paper's\n"
                "equal-hardware sizing of the two structures.\n");
}
