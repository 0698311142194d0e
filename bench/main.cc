/**
 * @file
 * The one main() of every experiment harness. Each bench_<x> target
 * compiles this file with VPIR_HARNESS="bench_<x>" and runs only that
 * harness. bench_all runs the whole table in order on one Runner and
 * the one global SweepEngine, so a cell two harnesses share is
 * simulated once and each program is built and warmed once.
 *
 * Every harness prints its tables to stdout. The process exits 1 if
 * any cell failed (the failures are in the Runner's stderr summary),
 * 0 otherwise.
 */

#include <cstdio>
#include <string_view>

#include "bench/bench_util.hh"

using vpir::bench::Runner;

// One per bench/bench_<x>.cc.
void runTable1(Runner &);
void runTable2(Runner &);
void runTable3(Runner &);
void runTable4(Runner &);
void runTable5(Runner &);
void runTable6(Runner &);
void runFig3(Runner &);
void runFig4(Runner &);
void runFig5(Runner &);
void runFig6(Runner &);
void runFig7(Runner &);
void runFig8(Runner &);
void runFig9(Runner &);
void runFig10(Runner &);
void runAblation(Runner &);
void runHybrid(Runner &);

namespace
{

struct Harness
{
    const char *name; //!< its target, and bench_all's "====" line
    void (*run)(Runner &);
};

/** Every harness, in the order bench_all runs them. */
constexpr Harness harnesses[] = {
    {"bench_table1", runTable1},     {"bench_table2", runTable2},
    {"bench_table3", runTable3},     {"bench_table4", runTable4},
    {"bench_table5", runTable5},     {"bench_table6", runTable6},
    {"bench_fig3", runFig3},         {"bench_fig4", runFig4},
    {"bench_fig5", runFig5},         {"bench_fig6", runFig6},
    {"bench_fig7", runFig7},         {"bench_fig8", runFig8},
    {"bench_fig9", runFig9},         {"bench_fig10", runFig10},
    {"bench_ablation", runAblation}, {"bench_hybrid", runHybrid},
};

} // anonymous namespace

int
main()
{
    Runner runner;
    for (const Harness &h : harnesses) {
#ifdef VPIR_HARNESS
        if (std::string_view(VPIR_HARNESS) != h.name)
            continue;
#else
        std::printf("==== %s ====\n", h.name);
#endif
        h.run(runner);
    }
    return vpir::sweep::SweepEngine::global().failures().empty() ? 0 : 1;
}
