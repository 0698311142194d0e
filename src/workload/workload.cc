#include "workload/workload.hh"

#include "common/logging.hh"
#include "fuzz/generator.hh"

namespace vpir
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "go", "m88ksim", "ijpeg", "perl", "vortex", "gcc", "compress",
    };
    return names;
}

Workload
makeWorkload(const std::string &name, const WorkloadScale &scale)
{
    if (name == "go")
        return makeGo(scale);
    if (name == "m88ksim")
        return makeM88ksim(scale);
    if (name == "ijpeg")
        return makeIjpeg(scale);
    if (name == "perl")
        return makePerl(scale);
    if (name == "vortex")
        return makeVortex(scale);
    if (name == "gcc")
        return makeGcc(scale);
    if (name == "compress")
        return makeCompress(scale);
    if (fuzz::isFuzzWorkloadName(name)) {
        // Generated fuzz programs ride the whole sweep stack (warm
        // cache, failure reports, result cache) as ordinary workload
        // names; the seed in the name fully determines the program.
        uint64_t seed = fuzz::fuzzSeedFromName(name);
        fuzz::GenOptions opt;
        opt.outerIters = scale.scaled(opt.outerIters);
        Workload w;
        w.name = name;
        w.input = "generated (rev " +
                  std::to_string(fuzz::GENERATOR_REVISION) + ")";
        w.program = fuzz::generateProgram(seed, opt);
        return w;
    }
    fatal("unknown workload: " + name);
}

} // namespace vpir
