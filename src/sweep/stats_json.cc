#include "sweep/stats_json.hh"

#include <cinttypes>
#include <cstdio>

#include "common/fnv.hh"
#include "common/json.hh"

namespace vpir
{
namespace sweep
{

namespace
{

template <typename Fn>
void
visitFields(CoreStats &st, Fn &&fn)
{
    forEachStatField(st, fn);
}

template <typename Fn>
void
visitFields(CoreParams &p, Fn &&fn)
{
    forEachParamField(p, fn);
}

/** By value: the params visitor writes its proxies back. */
template <typename T>
std::string
toJson(T obj)
{
    std::string out = "{";
    visitFields(obj, [&out](const char *name, uint64_t &v) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64,
                      out.size() > 1 ? ", " : "", name, v);
        out += buf;
    });
    return out + "}";
}

template <typename T>
bool
fromJson(const std::string &json, T &out)
{
    JsonObject obj(json);
    T tmp;
    bool ok = obj.ok();
    visitFields(tmp, [&](const char *name, uint64_t &v) {
        ok = ok && obj.getU64(name, v);
    });
    if (ok)
        out = tmp;
    return ok;
}

} // anonymous namespace

std::string
statsToJson(const CoreStats &st)
{
    return toJson(st);
}

bool
statsFromJson(const std::string &json, CoreStats &out)
{
    return fromJson(json, out);
}

bool
statsEqual(const CoreStats &a, const CoreStats &b)
{
    // The serialization covers every counter, so textual equality is
    // exact equality (and mismatches are easy to diff in test logs).
    return toJson(a) == toJson(b);
}

uint64_t
paramsSchemaFingerprint()
{
    static const uint64_t fp = [] {
        Fnv64 f;
        CoreParams tmp;
        forEachParamField(tmp,
                          [&f](const char *name, uint64_t &) { f.name(name); });
        return f.h;
    }();
    return fp;
}

std::string
paramsToJson(const CoreParams &p)
{
    return toJson(p);
}

bool
paramsFromJson(const std::string &json, CoreParams &out)
{
    return fromJson(json, out);
}

bool
paramsEqual(const CoreParams &a, const CoreParams &b)
{
    return toJson(a) == toJson(b);
}

} // namespace sweep
} // namespace vpir
