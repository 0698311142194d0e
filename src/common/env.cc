#include "common/env.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace vpir
{

namespace
{

/** strtoull and strtod skip leading space and then accept a '-'
 *  (strtoull by wrapping); the rule has no minus sign. */
bool
negative(const char *text)
{
    while (std::isspace(static_cast<unsigned char>(*text)))
        ++text;
    return *text == '-';
}

} // anonymous namespace

bool
parseU64(const char *text, int base, uint64_t *out)
{
    if (negative(text))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, base);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    *out = static_cast<uint64_t>(v);
    return true;
}

bool
parseF64(const char *text, double *out)
{
    if (negative(text))
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE ||
        !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

bool
envSet(const char *name)
{
    return std::getenv(name) != nullptr;
}

uint64_t
parseEnvU64(const char *name, uint64_t def)
{
    const char *s = std::getenv(name);
    if (!s)
        return def;
    uint64_t v = def;
    if (!parseU64(s, 10, &v)) {
        warn(std::string(name) + "='" + s +
             "' is not a valid unsigned integer; using default " +
             std::to_string(def));
        return def;
    }
    return v;
}

double
parseEnvF64(const char *name, double def)
{
    const char *s = std::getenv(name);
    if (!s)
        return def;
    double v = def;
    if (!parseF64(s, &v)) {
        warn(std::string(name) + "='" + s +
             "' is not a valid number; using default " +
             std::to_string(def));
        return def;
    }
    return v;
}

} // namespace vpir
