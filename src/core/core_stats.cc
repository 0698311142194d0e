#include "core/core_stats.hh"

#include "common/fnv.hh"

namespace vpir
{

uint64_t
statsSchemaFingerprint()
{
    static const uint64_t fp = [] {
        Fnv64 f;
        CoreStats tmp;
        forEachStatField(tmp,
                         [&f](const char *name, uint64_t &) { f.name(name); });
        return f.h;
    }();
    return fp;
}

} // namespace vpir
