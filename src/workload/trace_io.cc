#include "src/workload/trace_io.hh"

#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>

#include "src/common/log.hh"
#include "src/common/parse.hh"

namespace modm::workload {

namespace {

constexpr char kHeader[] =
    "arrival,prompt_id,topic_id,user_id,session_id,text,visual,lexical";

std::string
encodeVec(const Vec &v)
{
    std::ostringstream out;
    out.precision(9);
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out << ';';
        out << v[i];
    }
    return out.str();
}

/** Column names, in row order; diagnostics name fields by them. */
constexpr const char *kFields[] = {"arrival", "prompt_id",  "topic_id",
                                   "user_id", "session_id", "text",
                                   "visual",  "lexical"};

[[noreturn]] void
badField(std::size_t line, std::size_t field, const char *expected,
         const std::string &token)
{
    fatal("trace line %zu: field %s: expected %s, got \"%s\"", line,
          kFields[field], expected, token.c_str());
}

double
fieldDouble(const std::string &token, std::size_t line, std::size_t field)
{
    double value = 0.0;
    if (!parseDouble(token, value))
        badField(line, field, "a finite number", token);
    return value;
}

std::uint64_t
fieldU64(const std::string &token, std::size_t line, std::size_t field)
{
    std::uint64_t value = 0;
    if (!parseU64(token, value))
        badField(line, field, "an unsigned 64-bit integer", token);
    return value;
}

std::uint32_t
fieldU32(const std::string &token, std::size_t line, std::size_t field)
{
    std::uint64_t value = 0;
    if (!parseU64(token, value) ||
        value > std::numeric_limits<std::uint32_t>::max())
        badField(line, field, "an unsigned 32-bit integer", token);
    return static_cast<std::uint32_t>(value);
}

Vec
decodeVec(const std::string &text, std::size_t line, std::size_t field)
{
    Vec out;
    std::istringstream in(text);
    std::string token;
    while (std::getline(in, token, ';')) {
        if (token.empty())
            continue;
        float value = 0.0f;
        if (!parseFloat(token, value))
            badField(line, field, "finite floats separated by ';'", token);
        out.push_back(value);
    }
    return out;
}

std::string
quote(const std::string &text)
{
    std::string out = "\"";
    for (char ch : text) {
        if (ch == '"')
            out += "\"\"";
        else
            out += ch;
    }
    out += '"';
    return out;
}

/** Split one CSV row respecting quoted fields. */
std::vector<std::string>
splitRow(const std::string &line)
{
    std::vector<std::string> fields;
    std::string current;
    bool inQuotes = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char ch = line[i];
        if (inQuotes) {
            if (ch == '"' && i + 1 < line.size() && line[i + 1] == '"') {
                current += '"';
                ++i;
            } else if (ch == '"') {
                inQuotes = false;
            } else {
                current += ch;
            }
        } else if (ch == '"') {
            inQuotes = true;
        } else if (ch == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else {
            current += ch;
        }
    }
    fields.push_back(std::move(current));
    return fields;
}

/** Annotation marker: event lines between the header and the rows. */
constexpr char kEventPrefix[] = "#@ ";

void
writeRows(const Trace &trace, std::ostream &out)
{
    for (const auto &request : trace) {
        const auto &p = request.prompt;
        out.precision(9);
        out << request.arrival << ',' << p.id << ',' << p.topicId << ','
            << p.userId << ',' << p.sessionId << ',' << quote(p.text)
            << ',' << encodeVec(p.visualConcept) << ','
            << encodeVec(p.lexicalStyle) << '\n';
    }
}

/** Parse row `line` (1-based, the header is line 1). */
Request
parseRow(const std::string &text, std::size_t line)
{
    const auto fields = splitRow(text);
    if (fields.size() != 8) {
        fatal("trace line %zu: malformed trace row with %zu fields", line,
              fields.size());
    }
    Request request;
    request.arrival = fieldDouble(fields[0], line, 0);
    request.prompt.id = fieldU64(fields[1], line, 1);
    request.prompt.topicId = fieldU32(fields[2], line, 2);
    request.prompt.userId = fieldU32(fields[3], line, 3);
    request.prompt.sessionId = fieldU64(fields[4], line, 4);
    request.prompt.text = fields[5];
    request.prompt.visualConcept = decodeVec(fields[6], line, 6);
    request.prompt.lexicalStyle = decodeVec(fields[7], line, 7);
    return request;
}

bool
isEventLine(const std::string &line)
{
    return line.compare(0, 3, kEventPrefix) == 0;
}

} // namespace

void
saveTrace(const Trace &trace, std::ostream &out)
{
    out << kHeader << '\n';
    writeRows(trace, out);
}

void
saveTraceFile(const Trace &trace, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file for writing: %s", path.c_str());
    saveTrace(trace, out);
    if (!out)
        fatal("error while writing trace file: %s", path.c_str());
}

Trace
loadTrace(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line) || line != kHeader)
        fatal("not a MoDM trace CSV (bad header)");

    Trace trace;
    for (std::size_t lineNo = 2; std::getline(in, line); ++lineNo) {
        if (line.empty() || isEventLine(line))
            continue;
        trace.push_back(parseRow(line, lineNo));
    }
    return trace;
}

Trace
loadTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: %s", path.c_str());
    return loadTrace(in);
}

void
saveAnnotatedTrace(const AnnotatedTrace &annotated, std::ostream &out)
{
    out << kHeader << '\n';
    for (const auto &event : annotated.events) {
        MODM_ASSERT(event.find('\n') == std::string::npos,
                    "trace event annotations must be single lines");
        out << kEventPrefix << event << '\n';
    }
    writeRows(annotated.trace, out);
}

void
saveAnnotatedTraceFile(const AnnotatedTrace &annotated,
                       const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open trace file for writing: %s", path.c_str());
    saveAnnotatedTrace(annotated, out);
    if (!out)
        fatal("error while writing trace file: %s", path.c_str());
}

AnnotatedTrace
loadAnnotatedTrace(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line) || line != kHeader)
        fatal("not a MoDM trace CSV (bad header)");

    AnnotatedTrace annotated;
    for (std::size_t lineNo = 2; std::getline(in, line); ++lineNo) {
        if (line.empty())
            continue;
        if (isEventLine(line)) {
            if (!annotated.trace.empty())
                fatal("trace event annotation after the first row");
            annotated.events.push_back(line.substr(3));
            continue;
        }
        annotated.trace.push_back(parseRow(line, lineNo));
    }
    return annotated;
}

AnnotatedTrace
loadAnnotatedTraceFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file: %s", path.c_str());
    return loadAnnotatedTrace(in);
}

} // namespace modm::workload
