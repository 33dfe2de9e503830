/**
 * @file
 * Logging and error-exit helpers, following the gem5 fatal/panic split.
 *
 * fatal()  — the condition is the *user's* fault (bad configuration,
 *            invalid arguments); flushes stdio and exits with code 1
 *            without running static destructors, so it is safe on
 *            any thread, pool workers included.
 * panic()  — the condition is a library bug (violated invariant);
 *            calls std::abort() so a core dump / debugger is useful.
 * warn()   — something is off but execution can continue.
 * inform() — status messages with no negative connotation.
 *
 * Diagnostics are leveled: the MODM_LOG environment knob
 * (debug|info|warn|error, default info) sets the stderr threshold,
 * warn()/inform() filter through it, and the MODM_LOG_* macros add
 * virtual-clock-stamped lines ("[t=...] level: ...") that skip
 * argument formatting entirely when filtered. fatal/panic/assert
 * always print — errors are not a verbosity choice.
 */

#ifndef MODM_COMMON_LOG_HH
#define MODM_COMMON_LOG_HH

#include <cstdarg>
#include <string>

namespace modm {

/** Stderr diagnostic levels, in decreasing verbosity. */
enum class LogLevel : int
{
    Debug = 0,
    Info,
    Warn,
    Error,
};

/** Printable level name ("debug" / "info" / "warn" / "error"). */
const char *logLevelName(LogLevel level);

/**
 * Parse a MODM_LOG value; fatal() on anything but
 * debug|info|warn|error.
 */
LogLevel parseLogLevel(const char *text);

/** Active threshold: MODM_LOG at first use, default Info. */
LogLevel logLevel();

/** Override the threshold programmatically (wins over MODM_LOG). */
void setLogLevel(LogLevel level);

/** True when messages at `level` pass the active threshold. */
bool logEnabled(LogLevel level);

/**
 * Print one leveled, virtual-clock-stamped line to stderr:
 * "[t=<clock>] <level>: <message>". A negative clock drops the stamp
 * (for tools with no virtual clock). Filtered by logEnabled(); prefer
 * the MODM_LOG_* macros, which skip argument evaluation when off.
 */
void logAt(LogLevel level, double clock, const char *fmt, ...);

/** Clock-stamped leveled log lines; arguments only evaluate when on. */
#define MODM_LOG_AT(level, clock, ...)                                       \
    do {                                                                     \
        if (::modm::logEnabled(level))                                       \
            ::modm::logAt(level, clock, __VA_ARGS__);                        \
    } while (0)
#define MODM_LOG_DEBUG(clock, ...)                                           \
    MODM_LOG_AT(::modm::LogLevel::Debug, clock, __VA_ARGS__)
#define MODM_LOG_INFO(clock, ...)                                            \
    MODM_LOG_AT(::modm::LogLevel::Info, clock, __VA_ARGS__)
#define MODM_LOG_WARN(clock, ...)                                            \
    MODM_LOG_AT(::modm::LogLevel::Warn, clock, __VA_ARGS__)
#define MODM_LOG_ERROR(clock, ...)                                           \
    MODM_LOG_AT(::modm::LogLevel::Error, clock, __VA_ARGS__)

/** Print a formatted fatal error (user error) and _Exit(1). */
[[noreturn]] void fatal(const char *fmt, ...);

/** Print a formatted panic (library bug) and abort(). */
[[noreturn]] void panic(const char *fmt, ...);

/** Print a formatted warning to stderr (filtered at LogLevel::Warn). */
void warn(const char *fmt, ...);

/** Print a formatted status message (filtered at LogLevel::Info). */
void inform(const char *fmt, ...);

/**
 * Print "assertion failed (<cond>): <formatted message>" and abort().
 * A separate entry point (rather than folding #cond into the panic
 * varargs) so the condition text cannot shift the caller's format
 * arguments: the old macro passed #cond *after* the user args, which
 * made every assert that fired with format arguments print garbage —
 * or crash inside vfprintf — instead of its message.
 */
[[noreturn]] void assertFail(const char *cond, const char *fmt, ...);

/**
 * Assert a library invariant; panics with the given message on failure.
 * Unlike assert(3) this is active in release builds — simulators must not
 * silently continue past corrupted state.
 */
#define MODM_ASSERT(cond, ...)                                               \
    do {                                                                     \
        if (!(cond))                                                         \
            ::modm::assertFail(#cond, __VA_ARGS__);                          \
    } while (0)

} // namespace modm

#endif // MODM_COMMON_LOG_HH
