#include "common/json.hh"

#include <cstdio>
#include <cstring>

namespace vpir
{

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (unsigned char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

namespace
{

bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

/** Cursor over the input; every step is bounds-checked. */
struct Scanner
{
    const std::string &s;
    size_t pos = 0;

    bool atEnd() const { return pos >= s.size(); }
    char peek() const { return atEnd() ? '\0' : s[pos]; }

    void
    skipSpace()
    {
        while (!atEnd() && isSpace(s[pos]))
            ++pos;
    }

    bool
    expect(char c)
    {
        skipSpace();
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    /** Decode the string literal at the cursor into @p out. */
    bool
    string(std::string &out)
    {
        if (peek() != '"')
            return false;
        ++pos;
        out.clear();
        while (!atEnd()) {
            char c = s[pos++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (atEnd())
                return false;
            switch (s[pos++]) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos + 4 > s.size())
                    return false;
                unsigned v = 0;
                for (int k = 0; k < 4; ++k) {
                    char h = s[pos++];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        return false;
                }
                // jsonEscape() only emits single bytes this way.
                if (v > 0xff)
                    return false;
                out += static_cast<char>(v);
                break;
              }
              default:
                return false;
            }
        }
        return false; // unterminated
    }

    /** Parse the object at the cursor, collecting each member's key
     *  and raw value text into @p out when it is non-null. */
    bool
    object(std::vector<std::pair<std::string, std::string>> *out)
    {
        if (!expect('{'))
            return false;
        if (expect('}'))
            return true;
        do {
            std::string key;
            skipSpace();
            if (!string(key) || !expect(':'))
                return false;
            skipSpace();
            size_t start = pos;
            if (!value())
                return false;
            if (out)
                out->emplace_back(std::move(key),
                                  s.substr(start, pos - start));
        } while (expect(','));
        return expect('}');
    }

    /** Step over one string, object, number or literal. */
    bool
    value()
    {
        if (peek() == '"') {
            std::string ignored;
            return string(ignored);
        }
        if (peek() == '{')
            return object(nullptr);
        size_t start = pos;
        while (!atEnd() && !isSpace(s[pos]) &&
               std::strchr(",:{}[]\"", s[pos]) == nullptr)
            ++pos;
        return pos > start;
    }
};

} // anonymous namespace

JsonObject::JsonObject(const std::string &text)
{
    Scanner sc{text};
    valid = sc.object(&members);
    sc.skipSpace();
    valid = valid && sc.atEnd();
    if (!valid)
        members.clear();
}

const std::string *
JsonObject::find(const char *key) const
{
    if (!valid)
        return nullptr;
    for (const auto &m : members)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

bool
JsonObject::getString(const char *key, std::string &out) const
{
    const std::string *raw = find(key);
    if (!raw)
        return false;
    Scanner sc{*raw};
    std::string v;
    if (!sc.string(v) || !sc.atEnd())
        return false;
    out = std::move(v);
    return true;
}

bool
JsonObject::getU64(const char *key, uint64_t &out) const
{
    const std::string *raw = find(key);
    if (!raw || raw->empty())
        return false;
    uint64_t v = 0;
    for (char c : *raw) {
        if (c < '0' || c > '9')
            return false;
        uint64_t d = static_cast<uint64_t>(c - '0');
        if (v > (UINT64_MAX - d) / 10)
            return false; // overflow
        v = v * 10 + d;
    }
    out = v;
    return true;
}

bool
JsonObject::getObject(const char *key, std::string &out) const
{
    const std::string *raw = find(key);
    if (!raw || raw->empty() || raw->front() != '{')
        return false;
    out = *raw;
    return true;
}

} // namespace vpir
