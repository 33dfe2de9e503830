#include "spans.hh"

#include <cstdio>

#include "src/common/log.hh"

namespace perfbench {

double
SpanLog::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

int
SpanLog::begin(const char *name)
{
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
    open_.push_back(id);
    // Read the clock last so the span excludes its own bookkeeping.
    spans_[id].startUs = nowUs();
    return id;
}

void
SpanLog::end(int id, std::uint64_t calls)
{
    const double now = nowUs();
    MODM_ASSERT(!open_.empty() && open_.back() == id,
                "span %d closed out of order", id);
    open_.pop_back();
    spans_[id].endUs = now;
    spans_[id].calls = calls;
}

std::vector<double>
SpanLog::selfUs() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].us();
    for (const auto &span : spans_) {
        if (span.parent >= 0)
            self[span.parent] -= span.us();
    }
    return self;
}

bool
SpanLog::write(const std::string &path, const std::string &workload) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    const auto self = selfUs();
    std::fprintf(out,
                 "id\tparent\tname\tworkload\tstart_us\tend_us\tself_us\t"
                 "calls\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const auto &s = spans_[i];
        std::fprintf(out, "%zu\t%d\t%s\t%s\t%.3f\t%.3f\t%.3f\t%llu\n", i,
                     s.parent, s.name.c_str(), workload.c_str(), s.startUs,
                     s.endUs, self[i],
                     static_cast<unsigned long long>(s.calls));
    }
    return std::fclose(out) == 0;
}

} // namespace perfbench
