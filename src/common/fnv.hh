/**
 * @file
 * 64-bit FNV-1a: the one hash behind every stable key and fingerprint
 * (cell keys, params hashes, stat/param schema fingerprints, fuzz
 * architectural checksums). Values are stamped into on-disk caches and
 * repro bundles, so the construction must never change.
 */

#ifndef VPIR_COMMON_FNV_HH
#define VPIR_COMMON_FNV_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace vpir
{

/** Incremental FNV-1a; read the digest from @c h. */
struct Fnv64
{
    uint64_t h = 0xcbf29ce484222325ull;

    void
    byte(uint8_t b)
    {
        h ^= b;
        h *= 0x100000001b3ull;
    }

    /** A 64-bit value, least-significant byte first. */
    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    str(std::string_view s)
    {
        for (char c : s)
            byte(static_cast<uint8_t>(c));
    }

    /** A schema field name plus a separator, so "ab","c" != "a","bc". */
    void
    name(std::string_view s)
    {
        str(s);
        byte('\n');
    }
};

/** A hash as it is printed and stamped into files: 16 hex digits. */
inline std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

} // namespace vpir

#endif // VPIR_COMMON_FNV_HH
