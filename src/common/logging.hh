/**
 * @file
 * Error and status reporting, in the gem5 sense: panic() for internal
 * simulator bugs, fatal() for user/configuration errors, warn() and
 * inform() for advisory output.
 *
 * Two hardening hooks augment the basic report-and-abort model:
 *
 *  - PanicThrowScope converts panic()/fatal() on the current thread
 *    into a thrown SimError, so a sweep worker (or a test) can catch
 *    a failing simulation instead of taking the whole process down.
 *
 *  - PanicContext installs a thread-local context provider; panic()
 *    and fatal() append every active frame (workload, params hash,
 *    cycle, sequence number, ...) to the message, so an abort inside
 *    a 16-way sweep is attributable to its cell.
 */

#ifndef VPIR_COMMON_LOGGING_HH
#define VPIR_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace vpir
{

/**
 * A recoverable simulation failure: raised by panic()/fatal() (and
 * therefore the watchdog and the lockstep checker) when a
 * PanicThrowScope is active on the current thread. Carries the full
 * composed message, context frames included.
 */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * While alive, panic()/fatal() on this thread throw SimError instead
 * of aborting/exiting. Scopes nest; the mode is restored on
 * destruction.
 */
class PanicThrowScope
{
  public:
    PanicThrowScope();
    ~PanicThrowScope();

    PanicThrowScope(const PanicThrowScope &) = delete;
    PanicThrowScope &operator=(const PanicThrowScope &) = delete;

  private:
    bool prev;
};

/**
 * Thread-local stack of context providers consulted by panic() and
 * fatal(). Each frame contributes one string (evaluated lazily, only
 * on failure); frames print outermost first.
 */
class PanicContext
{
  public:
    explicit PanicContext(std::function<std::string()> provider);
    ~PanicContext();

    PanicContext(const PanicContext &) = delete;
    PanicContext &operator=(const PanicContext &) = delete;

    /** All active frames on this thread, joined with "; ". */
    static std::string gather();

  private:
    std::function<std::string()> fn;
    PanicContext *prev;
};

/** Print a message and abort; use for conditions that indicate a bug.
 *  Throws SimError instead under an active PanicThrowScope. */
[[noreturn]] void panic(const std::string &msg);

/** Print a message and exit(1); use for user/configuration errors.
 *  Throws SimError instead under an active PanicThrowScope. */
[[noreturn]] void fatal(const std::string &msg);

/** Print a warning; simulation continues. */
void warn(const std::string &msg);

/** Print an informational message. */
void inform(const std::string &msg);

/**
 * VPIR_ASSERT's failure path: builds "assertion failed at FILE:LINE:
 * MSG" and panics. Out of line and cold, so a helper that asserts
 * keeps only a compare and a call and stays small enough to inline.
 */
[[noreturn, gnu::cold, gnu::noinline]] void
assertFailed(const char *file, int line, std::string_view msg);

/**
 * Assert a simulator invariant; calls panic() with location info on
 * failure. Active in all build types (unlike assert()).
 */
#define VPIR_ASSERT(cond, msg)                                              \
    do {                                                                    \
        if (!(cond)) [[unlikely]]                                           \
            ::vpir::assertFailed(__FILE__, __LINE__, (msg));                \
    } while (0)

} // namespace vpir

#endif // VPIR_COMMON_LOGGING_HH
