/**
 * @file
 * The one JSON escaper and reader, shared by every text format the
 * simulator writes: the sweep result cache, stats and params objects,
 * and fuzz repro bundles.
 *
 * The writers emit objects of strings, integers and nested objects by
 * hand (no arrays); this reader only has to find their members again.
 * It tokenizes the top-level object properly — strings with escapes
 * and nested objects are skipped as whole values — so key text inside
 * a string value or a nested object is never mistaken for a member,
 * and truncated input is rejected rather than half-read.
 */

#ifndef VPIR_COMMON_JSON_HH
#define VPIR_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vpir
{

/** Escape @p s for a JSON string literal: quote, backslash, \n, \t and
 *  \r by name, other bytes below 0x20 as \u00XX, everything else
 *  verbatim. */
std::string jsonEscape(const std::string &s);

/** The members of one JSON object, parsed once up front. */
class JsonObject
{
  public:
    /** Parse @p text, which must hold exactly one object (whitespace
     *  around it allowed). On malformed or truncated input ok() is
     *  false and every lookup fails. */
    explicit JsonObject(const std::string &text);

    bool ok() const { return valid; }

    /** Unescaped value of string member @p key. */
    bool getString(const char *key, std::string &out) const;

    /** Value of non-negative integer member @p key. */
    bool getU64(const char *key, uint64_t &out) const;

    /** Raw text of object member @p key, for a nested JsonObject. */
    bool getObject(const char *key, std::string &out) const;

  private:
    /** Raw value text of @p key, or null. The first duplicate wins. */
    const std::string *find(const char *key) const;

    std::vector<std::pair<std::string, std::string>> members;
    bool valid = false;
};

} // namespace vpir

#endif // VPIR_COMMON_JSON_HH
