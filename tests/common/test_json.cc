/**
 * @file
 * The shared JSON escaper and reader: every byte survives an escape
 * and read round trip, missing keys and truncated documents are
 * rejected, and key text inside a string value or a nested object is
 * never mistaken for a top-level member.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/json.hh"

using namespace vpir;

namespace
{

std::string
doc(const std::string &key, const std::string &value)
{
    return "{\"" + key + "\": \"" + jsonEscape(value) + "\"}";
}

TEST(Json, EscapeRoundTripsEveryByte)
{
    std::string all;
    for (int b = 0; b < 256; ++b) {
        std::string one = std::string("<") + static_cast<char>(b) + ">";
        std::string esc = jsonEscape(one);
        for (unsigned char c : esc)
            EXPECT_GE(c, 0x20u) << "raw control byte for " << b;
        std::string back;
        ASSERT_TRUE(JsonObject(doc("v", one)).getString("v", back))
            << "byte " << b << " escaped as " << esc;
        EXPECT_EQ(back, one) << "byte " << b;
        all += static_cast<char>(b);
    }
    std::string back;
    ASSERT_TRUE(JsonObject(doc("v", all)).getString("v", back));
    EXPECT_EQ(back, all);
}

TEST(Json, ReadsWhitespaceNumbersAndUnicodeEscapes)
{
    JsonObject o(" {\n  \"n\" :\t42 ,\"s\":\"\\u0041\\u00e9\\/\",\n"
                 "  \"o\": {\"x\": \"}\"}, \"f\": 0.5 }\n");
    ASSERT_TRUE(o.ok());
    uint64_t n = 0;
    EXPECT_TRUE(o.getU64("n", n));
    EXPECT_EQ(n, 42u);
    std::string s;
    EXPECT_TRUE(o.getString("s", s));
    EXPECT_EQ(s, "A\xe9/");
    EXPECT_TRUE(o.getObject("o", s));
    EXPECT_EQ(s, "{\"x\": \"}\"}");
    EXPECT_FALSE(o.getU64("f", n)); // not an integer
}

TEST(Json, MissingKeyOrWrongTypeIsRejected)
{
    JsonObject o("{\"a\": 1, \"b\": \"two\"}");
    ASSERT_TRUE(o.ok());
    uint64_t n = 99;
    std::string s = "untouched";
    EXPECT_FALSE(o.getU64("c", n));
    EXPECT_FALSE(o.getString("c", s));
    EXPECT_FALSE(o.getObject("c", s));
    EXPECT_FALSE(o.getString("a", s));
    EXPECT_FALSE(o.getU64("b", n));
    EXPECT_EQ(n, 99u);
    EXPECT_EQ(s, "untouched");
    EXPECT_FALSE(JsonObject("{\"a\": 18446744073709551616}").getU64("a", n))
        << "2^64 must not wrap";
}

TEST(Json, TruncatedDocumentsAreRejected)
{
    const std::string full =
        "{\"s\": \"a\\\"b\\u0001\", \"o\": {\"x\": 1}, \"n\": 7}";
    ASSERT_TRUE(JsonObject(full).ok());
    for (size_t n = 0; n < full.size(); ++n) {
        JsonObject o(full.substr(0, n));
        EXPECT_FALSE(o.ok()) << "accepted prefix: " << full.substr(0, n);
        uint64_t v;
        EXPECT_FALSE(o.getU64("n", v));
    }
    EXPECT_FALSE(JsonObject(full + "}").ok()) << "trailing garbage";
    EXPECT_FALSE(JsonObject("{\"s\": \"bad \\q escape\"}").ok());
}

TEST(Json, KeyTextInsideValuesIsNotMatched)
{
    // The "kind" inside the escaped detail string and inside the
    // nested object must not shadow the real top-level member.
    JsonObject o("{\"detail\": \"say \\\"kind\", \"nested\": "
                 "{\"kind\": \"inner\"}, \"kind\": \"outer\"}");
    std::string kind;
    ASSERT_TRUE(o.getString("kind", kind));
    EXPECT_EQ(kind, "outer");

    JsonObject only("{\"detail\": \"\\\"kind\\\": \\\"fake\\\"\"}");
    ASSERT_TRUE(only.ok());
    EXPECT_FALSE(only.getString("kind", kind));
}

} // anonymous namespace
