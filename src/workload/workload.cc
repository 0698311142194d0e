#include "workload/workload.hh"

#include "common/logging.hh"

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
    fatal("unknown workload: " + name);
}

} // namespace vpir
