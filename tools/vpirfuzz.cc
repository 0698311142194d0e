/**
 * @file
 * vpirfuzz — differential fuzzing campaign driver.
 *
 * Usage:
 *   vpirfuzz [options]
 *     --seed N              campaign base seed (default 0x5eedf00d;
 *                           0x hex and 0 octal prefixes accepted)
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
 * written), 2 = bad usage, including a malformed number. Every cell
 * is an independent split stream of the base seed and results print
 * in cell-index order, so output is identical for any --jobs.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hh"
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

/** The value of numeric flag @p flag: all of @p text, in @p base, at
 *  most @p max. Anything else exits 2 instead of running a campaign
 *  on a number nobody asked for. */
uint64_t
numberFlag(const char *flag, const char *text, int base = 10,
           uint64_t max = UINT64_MAX)
{
    uint64_t v = 0;
    if (!parseU64(text, base, &v) || v > max) {
        std::fprintf(stderr,
                     "vpirfuzz: %s: '%s' is not a valid unsigned "
                     "integer%s\n",
                     flag, text, max < UINT64_MAX ? " below 2^32" : "");
        std::exit(2);
    }
    return v;
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
            opt.baseSeed = numberFlag("--seed", next(), 0);
        } else if (arg == "--cells") {
            opt.cells = static_cast<unsigned>(
                numberFlag("--cells", next(), 10, UINT_MAX));
        } else if (arg == "--dir") {
            opt.reproDir = next();
        } else if (arg == "--jobs") {
            opt.jobs = static_cast<unsigned>(
                numberFlag("--jobs", next(), 10, UINT_MAX));
        } else if (arg == "--no-shrink") {
            opt.shrink = false;
        } else if (arg == "--max-evals") {
            opt.shrinkMaxEvals = numberFlag("--max-evals", next());
        } else if (arg == "--require-shrunk-max") {
            require_shrunk_max =
                numberFlag("--require-shrunk-max", next());
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
