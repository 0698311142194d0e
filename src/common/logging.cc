#include "common/logging.hh"

#include <cstdio>
#include <vector>

namespace vpir
{

namespace
{

thread_local bool panicThrows = false;
thread_local PanicContext *contextTop = nullptr;

/** Message plus every active context frame, ready to print or throw. */
std::string
compose(const char *kind, const std::string &msg)
{
    std::string full = std::string(kind) + ": " + msg;
    std::string ctx = PanicContext::gather();
    if (!ctx.empty())
        full += "\n  context: " + ctx;
    return full;
}

} // anonymous namespace

PanicThrowScope::PanicThrowScope() : prev(panicThrows)
{
    panicThrows = true;
}

PanicThrowScope::~PanicThrowScope()
{
    panicThrows = prev;
}

PanicContext::PanicContext(std::function<std::string()> provider)
    : fn(std::move(provider)), prev(contextTop)
{
    contextTop = this;
}

PanicContext::~PanicContext()
{
    contextTop = prev;
}

std::string
PanicContext::gather()
{
    // Collect innermost-first, print outermost-first.
    std::vector<const PanicContext *> frames;
    for (const PanicContext *f = contextTop; f; f = f->prev)
        frames.push_back(f);
    std::string out;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
        if (!out.empty())
            out += "; ";
        out += (*it)->fn();
    }
    return out;
}

void
panic(const std::string &msg)
{
    std::string full = compose("panic", msg);
    if (panicThrows)
        throw SimError(full);
    std::fprintf(stderr, "%s\n", full.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    std::string full = compose("fatal", msg);
    if (panicThrows)
        throw SimError(full);
    std::fprintf(stderr, "%s\n", full.c_str());
    std::exit(1);
}

void
assertFailed(const char *file, int line, std::string_view msg)
{
    panic(std::string("assertion failed at ") + file + ":" +
          std::to_string(line) + ": " + std::string(msg));
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace vpir
