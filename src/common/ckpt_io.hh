/**
 * @file
 * Bounds-checked binary serialization primitives for mid-run
 * checkpoints (sim/checkpoint.hh).
 *
 * Every integer travels little-endian at a fixed width, regardless of
 * host endianness, so a checkpoint bundle is a stable byte sequence:
 * the CRC32 guard and the FNV fingerprints stamped into the header
 * stay meaningful across processes. The reader carries a sticky
 * failure flag instead of throwing — a truncated or corrupt payload
 * turns every subsequent read into a zero and ok() into false, and
 * the caller checks once at the end. That keeps the per-subsystem
 * deserializers simple while guaranteeing that no torn read is ever
 * silently accepted.
 */

#ifndef VPIR_COMMON_CKPT_IO_HH
#define VPIR_COMMON_CKPT_IO_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace vpir
{

/** CRC-32 (IEEE 802.3 polynomial, reflected) over a byte range.
 *  Chain blocks by passing the previous return as @p seed. */
uint32_t crc32(const void *data, size_t len, uint32_t seed = 0);

/** Append-only little-endian binary encoder. */
class CkptWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            u8(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    b(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** A double as its raw 64-bit pattern (bit-exact round trip). */
    void
    f64(double v)
    {
        uint64_t u;
        std::memcpy(&u, &v, sizeof(u));
        u64(u);
    }

    void
    bytes(const void *data, size_t len)
    {
        buf.append(static_cast<const char *>(data), len);
    }

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    const std::string &data() const { return buf; }
    size_t size() const { return buf.size(); }

  private:
    std::string buf;
};

/** Bounds-checked decoder over a borrowed byte range. */
class CkptReader
{
  public:
    CkptReader(const void *data, size_t size)
        : p(static_cast<const uint8_t *>(data)), len(size)
    {
    }

    explicit CkptReader(const std::string &s) : CkptReader(s.data(), s.size())
    {
    }

    uint8_t
    u8()
    {
        if (off + 1 > len) {
            failed = true;
            return 0;
        }
        return p[off++];
    }

    uint32_t
    u32()
    {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(u8()) << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(u8()) << (8 * i);
        return v;
    }

    bool b() { return u8() != 0; }

    double
    f64()
    {
        uint64_t u = u64();
        double v;
        std::memcpy(&v, &u, sizeof(v));
        return v;
    }

    bool
    bytes(void *out, size_t n)
    {
        if (off + n > len) {
            failed = true;
            std::memset(out, 0, n);
            return false;
        }
        std::memcpy(out, p + off, n);
        off += n;
        return true;
    }

    std::string
    str()
    {
        uint64_t n = u64();
        if (failed || off + n > len) {
            failed = true;
            return "";
        }
        std::string s(reinterpret_cast<const char *>(p + off),
                      static_cast<size_t>(n));
        off += static_cast<size_t>(n);
        return s;
    }

    /** Mark externally-detected corruption (e.g. a failed geometry or
     *  invariant check inside a deserializer). */
    void fail() { failed = true; }

    bool ok() const { return !failed; }
    bool atEnd() const { return off == len; }
    size_t offset() const { return off; }
    size_t remaining() const { return len - off; }

  private:
    const uint8_t *p;
    size_t len;
    size_t off = 0;
    bool failed = false;
};

} // namespace vpir

#endif // VPIR_COMMON_CKPT_IO_HH
