#include "common/file_io.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

namespace vpir
{

namespace
{

/** Whether @p name is "<anything>.tmp.<pid>", a publishFile() tmp. */
bool
isTmpName(const std::string &name)
{
    size_t at = name.rfind(".tmp.");
    if (at == std::string::npos || at + 5 == name.size())
        return false;
    return std::all_of(name.begin() + at + 5, name.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c));
    });
}

} // anonymous namespace

bool
publishFile(const std::string &path, const std::string &text,
            std::string &err)
{
    std::string tmp = path + ".tmp." + std::to_string(::getpid());
    std::error_code ec;
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f) {
            err = "cannot open " + tmp + " for writing";
            return false;
        }
        f.write(text.data(), static_cast<std::streamsize>(text.size()));
        // close() flushes: a full disk shows up here, not at rename.
        f.close();
        if (!f) {
            err = "short write to " + tmp;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        err = "cannot publish " + path + ": " + ec.message();
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

unsigned
scrubStaleTmpFiles(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::directory_iterator it(dir, ec), end;
    unsigned scrubbed = 0;
    for (; !ec && it != end; it.increment(ec)) {
        if (!isTmpName(it->path().filename().string()))
            continue;
        std::error_code rm_ec;
        if (std::filesystem::remove(it->path(), rm_ec))
            ++scrubbed;
    }
    return scrubbed;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    if (in.bad())
        return false;
    out = ss.str();
    return true;
}

} // namespace vpir
