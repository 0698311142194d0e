#include "fuzz/campaign.hh"

#include <cinttypes>
#include <filesystem>

#include "check/fault.hh"
#include "common/file_io.hh"
#include "common/rng.hh"
#include "fuzz/generator.hh"
#include "fuzz/repro.hh"
#include "sweep/sweep.hh"

namespace vpir
{
namespace fuzz
{

FuzzCampaignResult
runFuzzCampaign(const FuzzCampaignOptions &opt, std::FILE *log)
{
    FuzzCampaignResult res;
    res.cells.resize(opt.cells);

    std::error_code dir_ec;
    std::filesystem::create_directories(opt.reproDir, dir_ec);
    if (unsigned n = scrubStaleTmpFiles(opt.reproDir)) {
        if (log) {
            std::fprintf(log,
                         "fuzz: scrubbed %u stale repro tmp file(s) in "
                         "'%s'\n",
                         n, opt.reproDir.c_str());
        }
    }

    const std::string env_echo = captureHardeningEnv();
    const FaultPlan env_faults = faultPlanFromEnv(FaultPlan{});

    // Phase 1 — generate + differentiate, in parallel. Each cell's
    // seed is an independent split stream of the base seed, and every
    // result lands in its own index slot: the outcome vector (and
    // hence everything printed below) is identical for any job count.
    sweep::parallelFor(
        opt.cells,
        [&](size_t i) {
            FuzzCellResult &cell = res.cells[i];
            cell.seed = Rng::split(opt.baseSeed, i);
            cell.workload = fuzzWorkloadName(cell.seed);

            Program program = generateProgram(cell.seed, GenOptions{});
            CoreParams params = fuzzParamsForSeed(cell.seed);
            // Merge the environment's fault cocktail (a planted
            // VPIR_FAULT_* knob fuzzes the whole campaign). RB faults
            // model hardware that trusts its reuse buffer, so the
            // dispatch-time oracle self-check must step aside and let
            // the retire checker catch the escapes.
            params.faults = faultPlanFromEnv(params.faults);
            if (env_faults.any())
                params.faults.seed = Rng::split(params.faults.seed, i);
            if (params.faults.anyRb())
                params.irOracleCheck = false;

            cell.outcome = runDifferential(program, params);

            if (cell.outcome.diverged && opt.shrink) {
                ShrinkOptions sopt;
                sopt.maxEvals = opt.shrinkMaxEvals;
                cell.shrunk = shrinkFailure(program, params,
                                            cell.outcome, sopt);
            } else if (cell.outcome.diverged) {
                cell.shrunk.program = program;
                cell.shrunk.params = params;
                cell.shrunk.outcome = cell.outcome;
                cell.shrunk.instrsBefore = countActiveInstrs(program);
                cell.shrunk.instrsAfter = cell.shrunk.instrsBefore;
            }
        },
        opt.jobs);

    // Phase 2 — report + publish bundles, strictly in index order.
    for (size_t i = 0; i < res.cells.size(); ++i) {
        FuzzCellResult &cell = res.cells[i];
        if (!cell.outcome.diverged) {
            if (log) {
                std::fprintf(log,
                             "fuzz: cell %zu %s ok (%" PRIu64
                             " insts, %" PRIu64 " cycles)\n",
                             i, cell.workload.c_str(),
                             cell.outcome.stats.committedInsts,
                             cell.outcome.stats.cycles);
            }
            continue;
        }
        ++res.failures;

        ReproBundle b;
        b.generatorRevision = GENERATOR_REVISION;
        b.seed = cell.seed;
        b.workload = cell.workload;
        b.kind = cell.shrunk.outcome.kind;
        b.detail = cell.shrunk.outcome.detail;
        b.env = env_echo;
        b.params = cell.shrunk.params;
        b.program = cell.shrunk.program;

        std::string fname = cell.workload;
        for (char &c : fname) {
            if (c == ':')
                c = '-';
        }
        std::string path = opt.reproDir + "/" + fname + ".repro.json";
        std::string err;
        if (writeReproBundle(b, path, err)) {
            cell.bundlePath = path;
        } else if (log) {
            std::fprintf(log, "fuzz: cannot write repro bundle: %s\n",
                         err.c_str());
        }

        if (log) {
            std::fprintf(log,
                         "fuzz: cell %zu %s FAILED [%s] %s\n"
                         "fuzz:   shrunk %zu -> %zu insts in %" PRIu64
                         " evals%s%s\n",
                         i, cell.workload.c_str(),
                         cell.shrunk.outcome.kind.c_str(),
                         cell.shrunk.outcome.detail.c_str(),
                         cell.shrunk.instrsBefore,
                         cell.shrunk.instrsAfter, cell.shrunk.evals,
                         cell.bundlePath.empty() ? "" : ", bundle ",
                         cell.bundlePath.c_str());
        }
    }
    return res;
}

} // namespace fuzz
} // namespace vpir
