/**
 * @file
 * Fuzz campaigns: N differential cells, each a generated program run
 * under a seed-derived configuration, executed on the sweep engine's
 * worker pool. Per-cell seeds come from splittable RNG streams
 * (Rng::split(baseSeed, i)), and results are reported strictly in
 * cell-index order, so a campaign's output is byte-identical for any
 * VPIR_JOBS. Failing cells are delta-debugged to a minimal program
 * and published as self-contained repro bundles.
 */

#ifndef VPIR_FUZZ_CAMPAIGN_HH
#define VPIR_FUZZ_CAMPAIGN_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fuzz/differential.hh"
#include "fuzz/shrink.hh"

namespace vpir
{
namespace fuzz
{

struct FuzzCampaignOptions
{
    uint64_t baseSeed = 0x5eedf00d; //!< vpirfuzz --seed
    unsigned cells = 20;            //!< vpirfuzz --cells
    std::string reproDir = ".";     //!< where bundles are published
    uint64_t shrinkMaxEvals = 4000;
    bool shrink = true;             //!< minimize failures before bundling
    unsigned jobs = 0;              //!< 0 = VPIR_JOBS default
};

/** One cell's outcome, in campaign index order. */
struct FuzzCellResult
{
    uint64_t seed = 0;
    std::string workload;     //!< "fuzz:<16-hex-seed>"
    DiffOutcome outcome;      //!< of the original (unshrunk) run
    ShrinkResult shrunk;      //!< populated when diverged
    std::string bundlePath;   //!< written bundle ("" if none)
};

struct FuzzCampaignResult
{
    std::vector<FuzzCellResult> cells;
    unsigned failures = 0;
};

/**
 * Run the campaign: generate, differentiate, shrink, bundle. Progress
 * and failure reports go to @p log (nullptr silences them) strictly
 * in index order. Environment fault knobs (VPIR_FAULT_*) are merged
 * into every cell's configuration, so a planted fault cocktail fuzzes
 * the whole campaign.
 */
FuzzCampaignResult runFuzzCampaign(const FuzzCampaignOptions &opt,
                                   std::FILE *log);

} // namespace fuzz
} // namespace vpir

#endif // VPIR_FUZZ_CAMPAIGN_HH
