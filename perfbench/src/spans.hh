/**
 * @file
 * In-memory span log for the benchmark's own calls into the serving
 * stack. Every public call the benchmark makes (workload build, system
 * construction, warm-up, run, and each probe call) is wrapped in a
 * span: name, start, end, parent span, and the number of calls it
 * covers. Spans stay in memory while the benchmark runs and are written
 * out once at the end, so recording costs two clock reads per span and
 * no I/O. Self time is a span's duration minus the time its direct
 * children cover (the benchmark is single-threaded, so children never
 * overlap).
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded span; times are microseconds since the log opened. */
struct Span
{
    std::string name;
    /** Index of the enclosing span, -1 at top level. */
    int parent = -1;
    double startUs = 0.0;
    double endUs = 0.0;
    /** Calls of the layer function the span covers (1 for one call). */
    std::uint64_t calls = 1;

    double us() const { return endUs - startUs; }
};

/** Append-only span log with an open-span stack for parenting. */
class SpanLog
{
  public:
    SpanLog() : origin_(std::chrono::steady_clock::now()) {}

    /** Open a span under the innermost open span; returns its id. */
    int begin(const char *name);

    /** Close the innermost open span, which must be `id`. */
    void end(int id, std::uint64_t calls = 1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Seconds of a closed span. */
    double seconds(int id) const { return spans_[id].us() * 1e-6; }

    /** Self time of every span (duration minus direct children). */
    std::vector<double> selfUs() const;

    /**
     * Write the log as tab-separated lines with a header:
     * id parent name workload start_us end_us self_us calls.
     * Returns false when the file cannot be written.
     */
    bool write(const std::string &path,
               const std::string &workload) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;

    double nowUs() const;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name)
        : log_(log), id_(log.begin(name))
    {
    }
    ~ScopedSpan() { log_.end(id_, calls_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Record how many layer calls the span covers (batch probes). */
    void setCalls(std::uint64_t calls) { calls_ = calls; }

    int id() const { return id_; }

  private:
    SpanLog &log_;
    int id_;
    std::uint64_t calls_ = 1;
};

/** Run `fn` inside a span named `name` and return its result. */
template <class F>
auto
timed(SpanLog &log, const char *name, F &&fn)
{
    ScopedSpan span(log, name);
    return fn();
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
