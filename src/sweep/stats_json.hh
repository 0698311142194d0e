/**
 * @file
 * Lossless JSON (de)serialization of CoreStats (the on-disk result
 * cache) and CoreParams (fuzz repro bundles), plus exact comparison of
 * either. Both are flat objects of the u64 fields their struct visitor
 * reports — forEachStatField() in core/core_stats.hh and
 * forEachParamField() in core/params.hh — so doubles travel as their
 * raw bit patterns and every round trip is bit-exact.
 */

#ifndef VPIR_SWEEP_STATS_JSON_HH
#define VPIR_SWEEP_STATS_JSON_HH

#include <cstdint>
#include <string>

#include "core/core_stats.hh"
#include "core/params.hh"

namespace vpir
{
namespace sweep
{

/** Render the counters as a flat JSON object (uint64 as decimal). */
std::string statsToJson(const CoreStats &st);

/**
 * Parse a JSON object produced by statsToJson() back into @p out.
 * @return false (leaving @p out untouched) on any malformed input or
 * missing field — callers fall back to recomputation.
 */
bool statsFromJson(const std::string &json, CoreStats &out);

/** Exact equality over every counter. */
bool statsEqual(const CoreStats &a, const CoreStats &b);

/** FNV-1a fingerprint of the param schema (field names in order). */
uint64_t paramsSchemaFingerprint();

/** Render the configuration as a flat JSON object. */
std::string paramsToJson(const CoreParams &p);

/** Parse a paramsToJson() object. @return false (leaving @p out
 *  untouched) on malformed input or any missing field. */
bool paramsFromJson(const std::string &json, CoreParams &out);

/** Exact equality over every field. */
bool paramsEqual(const CoreParams &a, const CoreParams &b);

} // namespace sweep
} // namespace vpir

#endif // VPIR_SWEEP_STATS_JSON_HH
