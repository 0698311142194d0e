/**
 * @file
 * vpirfuzz — differential fuzzing campaign driver.
 *
 * Usage:
 *   vpirfuzz [options]
 *     --seed N              campaign base seed (default 0x5eedf00d)
 *     --cells N             number of fuzz cells (default 20)
 *     --dir PATH            where repro bundles are published (default .)
 *     --jobs N              worker threads (default VPIR_JOBS)
 *     --no-shrink           bundle failures unshrunk
 *     --max-evals N         shrinker budget per failure
 *     --require-shrunk-max N  proof mode: exit non-zero only when
 *                           divergences were found AND every one
 *                           shrank to <= N instructions. A shrink
 *                           over budget demotes the exit to 0 with a
 *                           loud message, so a WILL_FAIL ctest on
 *                           this command passes exactly when "a
 *                           planted fault is caught and shrinks
 *                           small".
 *
 * Exit status: 0 = no divergences, 1 = divergences found (bundles
 * written). Every cell is an independent split stream of the base
 * seed and results print in cell-index order, so output is identical
 * for any --jobs.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fuzz/campaign.hh"

using namespace vpir;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: vpirfuzz [--seed N] [--cells N] [--dir PATH]\n"
                 "                [--jobs N] [--no-shrink]\n"
                 "                [--max-evals N]\n"
                 "                [--require-shrunk-max N]\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    fuzz::FuzzCampaignOptions opt;
    uint64_t require_shrunk_max = 0;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--seed") {
            opt.baseSeed = std::strtoull(next(), nullptr, 0);
        } else if (arg == "--cells") {
            opt.cells = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--dir") {
            opt.reproDir = next();
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--no-shrink") {
            opt.shrink = false;
        } else if (arg == "--max-evals") {
            opt.shrinkMaxEvals = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--require-shrunk-max") {
            require_shrunk_max = std::strtoull(next(), nullptr, 10);
        } else {
            usage();
        }
    }

    std::fprintf(stderr,
                 "vpirfuzz: %u cell(s), base seed 0x%016llx, repro "
                 "dir '%s'\n",
                 opt.cells,
                 static_cast<unsigned long long>(opt.baseSeed),
                 opt.reproDir.c_str());

    fuzz::FuzzCampaignResult res = fuzz::runFuzzCampaign(opt, stdout);

    std::fprintf(stderr, "vpirfuzz: %u/%zu cell(s) diverged\n",
                 res.failures, res.cells.size());

    if (require_shrunk_max > 0) {
        if (res.failures == 0) {
            std::fprintf(stderr,
                         "vpirfuzz: proof FAILED — no divergence "
                         "found to shrink\n");
            return 0;
        }
        for (const fuzz::FuzzCellResult &c : res.cells) {
            if (!c.outcome.diverged)
                continue;
            if (c.shrunk.instrsAfter > require_shrunk_max) {
                std::fprintf(stderr,
                             "vpirfuzz: proof FAILED — %s shrank to "
                             "%zu insts, budget %llu\n",
                             c.workload.c_str(), c.shrunk.instrsAfter,
                             static_cast<unsigned long long>(
                                 require_shrunk_max));
                return 0;
            }
        }
        std::fprintf(stderr,
                     "vpirfuzz: proof ok — every divergence shrank "
                     "to <= %llu insts\n",
                     static_cast<unsigned long long>(
                         require_shrunk_max));
        return 1;
    }

    return res.failures ? 1 : 0;
}
