#include "src/common/log.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace modm {

namespace {

void
vreport(const char *tag, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s: ", tag);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

/** Threshold resolved once from MODM_LOG; Info when unset. */
LogLevel
envLogLevel()
{
    const char *env = std::getenv("MODM_LOG");
    if (env == nullptr || env[0] == '\0')
        return LogLevel::Info;
    return parseLogLevel(env);
}

LogLevel &
activeLogLevel()
{
    static LogLevel level = envLogLevel();
    return level;
}

} // namespace

const char *
logLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug: return "debug";
      case LogLevel::Info: return "info";
      case LogLevel::Warn: return "warn";
      case LogLevel::Error: return "error";
    }
    return "?";
}

LogLevel
parseLogLevel(const char *text)
{
    if (std::strcmp(text, "debug") == 0)
        return LogLevel::Debug;
    if (std::strcmp(text, "info") == 0)
        return LogLevel::Info;
    if (std::strcmp(text, "warn") == 0)
        return LogLevel::Warn;
    if (std::strcmp(text, "error") == 0)
        return LogLevel::Error;
    fatal("MODM_LOG must be debug|info|warn|error, not \"%s\"", text);
}

LogLevel
logLevel()
{
    return activeLogLevel();
}

void
setLogLevel(LogLevel level)
{
    activeLogLevel() = level;
}

bool
logEnabled(LogLevel level)
{
    return static_cast<int>(level) >=
        static_cast<int>(activeLogLevel());
}

void
logAt(LogLevel level, double clock, const char *fmt, ...)
{
    if (!logEnabled(level))
        return;
    if (clock >= 0.0)
        std::fprintf(stderr, "[t=%.6f] %s: ", clock,
                     logLevelName(level));
    else
        std::fprintf(stderr, "%s: ", logLevelName(level));
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("fatal", fmt, ap);
    va_end(ap);
    // _Exit, not exit: fatal() may run on a pool worker while other
    // tasks are mid-flight, and exit()'s static destructors would tear
    // down ThreadPool::global() under them (its destructor joins every
    // worker, the calling one included). Flush what was printed first.
    std::fflush(nullptr);
    std::_Exit(1);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vreport("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
assertFail(const char *cond, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: assertion failed (%s): ", cond);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "\n");
    std::abort();
}

void
warn(const char *fmt, ...)
{
    if (!logEnabled(LogLevel::Warn))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (!logEnabled(LogLevel::Info))
        return;
    va_list ap;
    va_start(ap, fmt);
    vreport("info", fmt, ap);
    va_end(ap);
}

} // namespace modm
