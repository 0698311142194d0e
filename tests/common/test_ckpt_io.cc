/**
 * @file
 * The binary encoding behind the isolated mode's fork wire protocol:
 * every field type round-trips exactly, and a truncated payload fails
 * the reader stickily instead of being half-read.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/ckpt_io.hh"

using namespace vpir;

namespace
{

TEST(CkptIo, WriterReaderRoundTrip)
{
    CkptWriter w;
    w.u8(0xab);
    w.u64(0x0123456789abcdefull);
    w.b(true);
    w.b(false);
    w.f64(-0.1); // not exactly representable: bits must survive
    w.str(std::string("hello\0world", 11)); // embedded NUL survives
    w.str("");

    CkptReader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    EXPECT_EQ(r.f64(), -0.1);
    EXPECT_EQ(r.str(), std::string("hello\0world", 11));
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(CkptIo, ReaderFailsStickyOnTruncation)
{
    CkptWriter w;
    w.u64(42);
    std::string half = w.data().substr(0, 4); // half a u64
    CkptReader r(half);
    r.u64(); // runs off the end
    EXPECT_FALSE(r.ok());
    // Sticky: the failure persists for the caller's single end check.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_FALSE(r.atEnd() && r.ok());

    // A corrupt length prefix far beyond the payload (one that would
    // wrap an offset + length sum) fails the same way.
    CkptWriter big;
    big.u64(~0ull - 2);
    big.u8('x');
    CkptReader rb(big.data());
    EXPECT_EQ(rb.str(), "");
    EXPECT_FALSE(rb.ok());
}

} // anonymous namespace
