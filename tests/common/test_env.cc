/**
 * @file
 * Strict environment-variable parsing: malformed values must fall back
 * to the documented default (with a warning), never be silently
 * half-parsed ("10m" -> 10) or wrapped ("-1" -> 2^64-1).
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"

using namespace vpir;

namespace
{

/** setenv/unsetenv wrapper that restores the old state on scope exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv() { ::unsetenv(name); }

  private:
    const char *name;
};

constexpr const char *VAR = "VPIR_TEST_ENV_VAR";

TEST(ParseEnvU64, UnsetUsesDefault)
{
    ScopedEnv e(VAR, nullptr);
    EXPECT_EQ(parseEnvU64(VAR, 400000u), 400000u);
    EXPECT_FALSE(envSet(VAR));
}

TEST(ParseEnvU64, ValidValueParses)
{
    ScopedEnv e(VAR, "123456");
    EXPECT_EQ(parseEnvU64(VAR, 7u), 123456u);
    EXPECT_TRUE(envSet(VAR));
}

TEST(ParseEnvU64, TrailingGarbageRejected)
{
    ScopedEnv e(VAR, "10m");
    EXPECT_EQ(parseEnvU64(VAR, 400000u), 400000u);
}

TEST(ParseEnvU64, NegativeRejectedInsteadOfWrapping)
{
    ScopedEnv e(VAR, "-1");
    EXPECT_EQ(parseEnvU64(VAR, 5u), 5u);
}

TEST(ParseEnvU64, EmptyStringRejected)
{
    ScopedEnv e(VAR, "");
    EXPECT_EQ(parseEnvU64(VAR, 5u), 5u);
}

TEST(ParseEnvU64, OverflowRejected)
{
    ScopedEnv e(VAR, "18446744073709551616"); // 2^64
    EXPECT_EQ(parseEnvU64(VAR, 5u), 5u);
}

TEST(ParseEnvF64, ValidValueParses)
{
    ScopedEnv e(VAR, "0.25");
    EXPECT_DOUBLE_EQ(parseEnvF64(VAR, 1.0), 0.25);
}

TEST(ParseEnvF64, ScientificNotationParses)
{
    ScopedEnv e(VAR, "1e-2");
    EXPECT_DOUBLE_EQ(parseEnvF64(VAR, 1.0), 0.01);
}

TEST(ParseEnvF64, GarbageRejected)
{
    ScopedEnv e(VAR, "fast");
    EXPECT_DOUBLE_EQ(parseEnvF64(VAR, 1.0), 1.0);
}

TEST(ParseEnvF64, NonFiniteRejected)
{
    ScopedEnv e(VAR, "inf");
    EXPECT_DOUBLE_EQ(parseEnvF64(VAR, 1.0), 1.0);
}

// The rule the env parsers share with the command-line flags: the
// whole string is one number, with no minus sign, no overflow, and (for
// floats) a finite value. A rejected string leaves the output alone.
TEST(Env, ParseU64RejectsMalformed)
{
    uint64_t v = 7;
    for (const char *bad :
         {"", "10k", "-1", " -1", "18446744073709551616", "0x10"}) {
        EXPECT_FALSE(parseU64(bad, 10, &v)) << "'" << bad << "'";
        EXPECT_EQ(v, 7u) << "'" << bad << "'";
    }
    EXPECT_TRUE(parseU64("0x10", 0, &v));
    EXPECT_EQ(v, 16u);
    EXPECT_TRUE(parseU64("18446744073709551615", 10, &v));
    EXPECT_EQ(v, UINT64_MAX);

    double d = 0.5;
    for (const char *bad : {"", "nan", "inf", "-inf", "-1", "1.5x", "1e999"}) {
        EXPECT_FALSE(parseF64(bad, &d)) << "'" << bad << "'";
        EXPECT_EQ(d, 0.5) << "'" << bad << "'";
    }
    EXPECT_TRUE(parseF64("0.25", &d));
    EXPECT_EQ(d, 0.25);
}

} // anonymous namespace
