/**
 * @file
 * Strict number parsing for environment variables and command-line
 * flags.
 *
 * The bench knobs used to be read with strtoull/strtod and a null
 * endptr, so a typo like VPIR_BENCH_INSTS=10m silently ran zero
 * instructions. parseU64 and parseF64 accept only a complete,
 * well-formed number: the whole string is consumed, there is no
 * leading '-', the value does not overflow, and a float is finite.
 * The env readers warn and fall back to the caller's default on
 * anything else; the command-line tools reject it.
 */

#ifndef VPIR_COMMON_ENV_HH
#define VPIR_COMMON_ENV_HH

#include <cstdint>

namespace vpir
{

/** Parse all of @p text as an unsigned integer in @p base (as for
 *  strtoull: 0 accepts the 0x and 0 prefixes). Writes @p out and
 *  returns true only for a well-formed value. */
bool parseU64(const char *text, int base, uint64_t *out);

/** Parse all of @p text as a finite floating-point number with no
 *  minus sign. Writes @p out and returns true only for a well-formed
 *  value. */
bool parseF64(const char *text, double *out);

/** Read an unsigned integer env var; warn and return @p def when the
 *  variable is set but not a complete non-negative decimal number. */
uint64_t parseEnvU64(const char *name, uint64_t def);

/** Read a floating-point env var; warn and return @p def when the
 *  variable is set but not a complete finite non-negative number. */
double parseEnvF64(const char *name, double def);

/** Whether the env var is set (any value, including empty). */
bool envSet(const char *name);

} // namespace vpir

#endif // VPIR_COMMON_ENV_HH
