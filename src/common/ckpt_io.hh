/**
 * @file
 * Bounds-checked binary encoding for the isolated mode's fork wire
 * protocol (sweep/isolate.hh): a forked cell worker hands its whole
 * CellOutcome back to the parent over a pipe in this format.
 *
 * Every integer travels little-endian at a fixed width and every
 * double as its raw bit pattern, so the parent reads back exactly the
 * stats the child computed. The reader carries a sticky failure flag
 * instead of throwing — a payload truncated by a dying child turns
 * every subsequent read into a zero and ok() into false, and the
 * caller checks once at the end. That keeps the decoder simple while
 * guaranteeing that no torn read is ever silently accepted.
 */

#ifndef VPIR_COMMON_CKPT_IO_HH
#define VPIR_COMMON_CKPT_IO_HH

#include <cstdint>
#include <cstring>
#include <string>

namespace vpir
{

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

    /** Length-prefixed byte string. */
    void
    str(const std::string &s)
    {
        u64(s.size());
        buf.append(s);
    }

    const std::string &data() const { return buf; }

  private:
    std::string buf;
};

/** Bounds-checked decoder over a borrowed byte string. */
class CkptReader
{
  public:
    explicit CkptReader(const std::string &s)
        : p(reinterpret_cast<const uint8_t *>(s.data())), len(s.size())
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

    std::string
    str()
    {
        uint64_t n = u64();
        if (failed || n > len - off) {
            failed = true;
            return "";
        }
        std::string s(reinterpret_cast<const char *>(p + off),
                      static_cast<size_t>(n));
        off += static_cast<size_t>(n);
        return s;
    }

    bool ok() const { return !failed; }
    bool atEnd() const { return off == len; }

  private:
    const uint8_t *p;
    size_t len;
    size_t off = 0;
    bool failed = false;
};

} // namespace vpir

#endif // VPIR_COMMON_CKPT_IO_HH
