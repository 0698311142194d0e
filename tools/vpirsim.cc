/**
 * @file
 * vpirsim — command-line front end for the simulator: pick a
 * workload and a configuration, run it, dump statistics.
 *
 * Usage:
 *   vpirsim [options] <workload>
 *     <workload>            go|m88ksim|ijpeg|perl|vortex|gcc|compress
 *     --config NAME         base (default) | ir | ir-late | vp | lvp
 *                           | hybrid
 *     --branch sb|nsb       VP branch resolution (default sb; vp,
 *                           lvp and hybrid)
 *     --reexec me|nme       VP re-execution policy (default me; vp
 *                           and lvp)
 *     --verify N            VP verification latency (default 0; vp,
 *                           lvp and hybrid)
 *     --max-insts N         committed-instruction limit
 *     --max-cycles N        cycle limit
 *     --warmup N            functional fast-forward instructions
 *     --scale F             workload scale factor (default 1.0)
 *     --stats               dump every CoreStats counter, exactly,
 *                           one "name value" line per field
 *     --repro BUNDLE.json   replay a fuzz repro bundle instead of a
 *                           workload: re-run its program under its
 *                           exact configuration and verify the bundled
 *                           divergence reproduces (exit 0 iff it does)
 *
 * A numeric flag must be one whole number (no minus sign, no suffix,
 * no overflow; --verify below 2^32, --scale positive and finite), and
 * --branch and --reexec exactly one of their two words; anything else
 * exits 2 naming the flag. So does a VP flag the chosen --config does
 * not use (base, ir and ir-late use none of them).
 *
 * Runs go through the sweep engine, so VPIR_RESULT_CACHE=<dir> makes
 * repeated invocations with identical parameters instant. The sweep
 * summary (host wall time, simulated MIPS, any failure) and the
 * simulated cell's stage profile are reported on stderr.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/env.hh"
#include "fuzz/repro.hh"
#include "sim/simulator.hh"
#include "sim/warm_cache.hh"
#include "stats/stats.hh"
#include "sweep/sweep.hh"

using namespace vpir;

namespace
{

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: vpirsim [--config base|ir|ir-late|vp|lvp|hybrid]\n"
        "               [--branch sb|nsb] [--reexec me|nme]\n"
        "               [--verify N] [--max-insts N] [--max-cycles N]\n"
        "               [--warmup N] [--scale F] [--stats]\n"
        "               <workload>\n"
        "       vpirsim --repro <bundle.json>\n");
    std::exit(1);
}

/** Exit 2 naming the flag whose value is malformed. */
[[noreturn]] void
badNumber(const char *flag, const char *text, const char *what)
{
    std::fprintf(stderr, "vpirsim: %s: '%s' is not a valid %s\n", flag,
                 text, what);
    std::exit(2);
}

/** The value of unsigned flag @p flag: all of @p text, at most
 *  @p max. */
uint64_t
countFlag(const char *flag, const char *text, uint64_t max = UINT64_MAX)
{
    uint64_t v = 0;
    if (!parseU64(text, 10, &v) || v > max)
        badNumber(flag, text,
                  max < UINT64_MAX ? "unsigned integer below 2^32"
                                   : "unsigned integer");
    return v;
}

/** The value of two-word flag @p flag: exactly @p a or @p b, else
 *  exit 2 naming the flag. */
std::string
wordFlag(const char *flag, const std::string &text, const char *a,
         const char *b)
{
    if (text != a && text != b) {
        std::fprintf(stderr, "vpirsim: %s: '%s' is not %s or %s\n", flag,
                     text.c_str(), a, b);
        std::exit(2);
    }
    return text;
}

/** Exit 2 if @p flag was given but @p config does not use it. */
void
requireUsed(const char *flag, bool given, bool used,
            const std::string &config)
{
    if (given && !used) {
        std::fprintf(stderr, "vpirsim: %s: --config %s does not use it\n",
                     flag, config.c_str());
        std::exit(2);
    }
}

/** Replay a fuzz repro bundle: exit 0 iff the bundled divergence
 *  reproduces identically. */
int
replayRepro(const std::string &path)
{
    fuzz::ReproBundle b;
    std::string err;
    if (!fuzz::loadReproBundle(path, b, err)) {
        std::fprintf(stderr, "vpirsim: %s\n", err.c_str());
        return 1;
    }
    std::printf("bundle      %s\n", path.c_str());
    std::printf("workload    %s (generator rev %llu, seed "
                "0x%016llx)\n",
                b.workload.c_str(),
                static_cast<unsigned long long>(b.generatorRevision),
                static_cast<unsigned long long>(b.seed));
    if (!b.env.empty())
        std::printf("env         %s\n", b.env.c_str());
    std::printf("expected    [%s] %s\n", b.kind.c_str(),
                b.detail.c_str());

    fuzz::DiffOutcome got = fuzz::replayBundle(b);
    if (!got.diverged) {
        std::printf("replay      CLEAN — divergence did not "
                    "reproduce\n");
        return 1;
    }
    std::printf("replayed    [%s] %s\n", got.kind.c_str(),
                got.detail.c_str());
    if (got.kind != b.kind || got.detail != b.detail) {
        std::printf("verdict     DIFFERENT divergence (expected "
                    "[%s] %s)\n",
                    b.kind.c_str(), b.detail.c_str());
        return 1;
    }
    std::printf("verdict     reproduced identically\n");
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string config = "base";
    BranchResolution branch = BranchResolution::Speculative;
    ReexecPolicy reexec = ReexecPolicy::Multiple;
    unsigned verify = 0;
    uint64_t max_insts = 1000000;
    uint64_t max_cycles = UINT64_MAX;
    uint64_t warmup = 0;
    WorkloadScale scale;
    bool dump_stats = false;
    bool branch_given = false, reexec_given = false, verify_given = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--config") {
            config = next();
        } else if (arg == "--branch") {
            std::string v = wordFlag("--branch", next(), "sb", "nsb");
            branch = v == "nsb" ? BranchResolution::NonSpeculative
                                : BranchResolution::Speculative;
            branch_given = true;
        } else if (arg == "--reexec") {
            std::string v = wordFlag("--reexec", next(), "me", "nme");
            reexec = v == "nme" ? ReexecPolicy::Single
                                : ReexecPolicy::Multiple;
            reexec_given = true;
        } else if (arg == "--verify") {
            verify = static_cast<unsigned>(
                countFlag("--verify", next(), UINT_MAX));
            verify_given = true;
        } else if (arg == "--max-insts") {
            max_insts = countFlag("--max-insts", next());
        } else if (arg == "--max-cycles") {
            max_cycles = countFlag("--max-cycles", next());
        } else if (arg == "--warmup") {
            warmup = countFlag("--warmup", next());
        } else if (arg == "--scale") {
            const char *text = next();
            if (!parseF64(text, &scale.factor) || scale.factor <= 0)
                badNumber("--scale", text, "positive number");
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--repro") {
            return replayRepro(next());
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            workload = arg;
        }
    }
    if (workload.empty())
        usage();

    CoreParams params;
    if (config == "base") {
        params = baseConfig();
    } else if (config == "ir") {
        params = irConfig();
    } else if (config == "ir-late") {
        params = irConfig(IrValidation::Late);
    } else if (config == "vp") {
        params = vpConfig(VpScheme::Magic, reexec, branch, verify);
    } else if (config == "lvp") {
        params = vpConfig(VpScheme::Lvp, reexec, branch, verify);
    } else if (config == "hybrid") {
        params = hybridConfig(VpScheme::Magic, branch, verify);
    } else {
        usage();
    }
    // A flag the machine does not read is an error, not a no-op:
    // hybridConfig takes no re-execution policy.
    bool vp = config == "vp" || config == "lvp";
    requireUsed("--branch", branch_given, vp || config == "hybrid", config);
    requireUsed("--reexec", reexec_given, vp, config);
    requireUsed("--verify", verify_given, vp || config == "hybrid", config);
    params = withLimits(params, max_insts, max_cycles);
    params.warmupInsts = warmup;
    applyHardeningEnv(params);

    sweep::SweepCell cell{workload, config, params, scale};
    sweep::SweepEngine &eng = sweep::SweepEngine::global();
    const CoreStats &st = eng.get(cell);
    eng.printSummary(stderr);
    if (!eng.failures().empty())
        return 1;

    std::printf(
        "workload    %s (%s)\n", workload.c_str(),
        WarmStartCache::global().workload(workload, scale)->input.c_str());
    std::printf("config      %s\n", config.c_str());
    std::printf("cycles      %llu\n",
                static_cast<unsigned long long>(st.cycles));
    std::printf("insts       %llu\n",
                static_cast<unsigned long long>(st.committedInsts));
    std::printf("IPC         %.4f\n", st.ipc());
    std::printf("br pred     %.2f%%\n",
                st.condBranches
                    ? 100.0 * (1.0 -
                               static_cast<double>(
                                   st.condMispredicted) /
                                   static_cast<double>(
                                       st.condBranches))
                    : 0.0);
    std::printf("squashes    %llu (%llu spurious)\n",
                static_cast<unsigned long long>(st.branchSquashes),
                static_cast<unsigned long long>(st.spuriousSquashes));
    if (st.reusedResults) {
        std::printf("reused      %.2f%% results, %.2f%% addresses\n",
                    pct(static_cast<double>(st.reusedResults),
                        static_cast<double>(st.committedInsts)),
                    pct(static_cast<double>(st.reusedAddrs),
                        static_cast<double>(st.committedMemOps)));
    }
    if (st.vpResultPredicted) {
        std::printf("predicted   %.2f%% correct, %.2f%% wrong\n",
                    pct(static_cast<double>(st.vpResultCorrect),
                        static_cast<double>(st.committedInsts)),
                    pct(static_cast<double>(st.vpResultWrong),
                        static_cast<double>(st.committedInsts)));
    }

    if (dump_stats) {
        std::printf("\n");
        forEachStatField(st, [](const char *name, const uint64_t &v) {
            std::printf("%-24s %llu\n", name,
                        static_cast<unsigned long long>(v));
        });
    }

    // Per-stage cycle profile of the simulated cell (a result-cache hit
    // has none), stderr like all other host-dependent timing.
    for (const sweep::CellTiming &t : eng.timings()) {
        if (t.fromDiskCache)
            continue;
        std::fprintf(stderr, "[profile] %s/%s:", t.workload.c_str(),
                     t.label.c_str());
        forEachProfileField(t.profile,
                            [](const char *name, const uint64_t &v) {
                                std::fprintf(
                                    stderr, " %s=%llu", name,
                                    static_cast<unsigned long long>(v));
                            });
        std::fprintf(stderr, "\n");
    }
    return 0;
}
