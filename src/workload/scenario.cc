#include "src/workload/scenario.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>

#include "src/common/log.hh"
#include "src/common/parse.hh"

namespace modm::workload {
namespace {

/** Regional generator indices live in [1, kMaxRegions]. */
constexpr std::size_t kMaxRegions = 8;

// ---------------------------------------------------------------------
// Enum <-> token tables. The token is the canonical spelling; parsing
// accepts exactly these spellings (strictness keeps the digest
// well-defined).
// ---------------------------------------------------------------------

template <typename E>
struct EnumTok
{
    E value;
    const char *token;
};

const EnumTok<ScenarioMode> kModes[] = {
    {ScenarioMode::Serving, "serving"},
    {ScenarioMode::CacheStream, "cache-stream"},
};

const EnumTok<ScenarioDataset> kDatasets[] = {
    {ScenarioDataset::DiffusionDB, "diffusiondb"},
    {ScenarioDataset::MJHQ, "mjhq"},
};

const EnumTok<ScenarioSystem> kSystems[] = {
    {ScenarioSystem::MoDM, "modm"},
    {ScenarioSystem::Vanilla, "vanilla"},
    {ScenarioSystem::Nirvana, "nirvana"},
    {ScenarioSystem::Pinecone, "pinecone"},
    {ScenarioSystem::StandaloneSmall, "standalone-small"},
};

const EnumTok<ScenarioModel> kModels[] = {
    {ScenarioModel::Sd35Large, "sd35-large"},
    {ScenarioModel::Flux1Dev, "flux1-dev"},
    {ScenarioModel::Sdxl, "sdxl"},
    {ScenarioModel::Sana, "sana"},
    {ScenarioModel::Sd35Turbo, "sd35-turbo"},
};

const EnumTok<ScenarioGpu> kGpus[] = {
    {ScenarioGpu::A40, "a40"},
    {ScenarioGpu::MI210, "mi210"},
};

const EnumTok<ScenarioEviction> kEvictions[] = {
    {ScenarioEviction::Fifo, "fifo"},
    {ScenarioEviction::Lru, "lru"},
    {ScenarioEviction::Utility, "utility"},
};

const EnumTok<ScenarioRouting> kRoutings[] = {
    {ScenarioRouting::RoundRobin, "round-robin"},
    {ScenarioRouting::ConsistentHash, "consistent-hash"},
    {ScenarioRouting::LeastOutstanding, "least-outstanding"},
    {ScenarioRouting::BoundedLoad, "bounded-load"},
};

const EnumTok<ScenarioPartitioning> kPartitionings[] = {
    {ScenarioPartitioning::Sharded, "sharded"},
    {ScenarioPartitioning::Replicated, "replicated"},
};

const EnumTok<ScenarioRetrieval> kRetrievals[] = {
    {ScenarioRetrieval::Flat, "flat"},
    {ScenarioRetrieval::Ivf, "ivf"},
    {ScenarioRetrieval::Hnsw, "hnsw"},
    {ScenarioRetrieval::IvfPq, "ivf-pq"},
};

const EnumTok<ScenarioReport> kReports[] = {
    {ScenarioReport::Table, "table"},
    {ScenarioReport::HitCurve, "hit-curve"},
    {ScenarioReport::Energy, "energy"},
    {ScenarioReport::Throughput, "throughput"},
    {ScenarioReport::P99ByRate, "p99-by-rate"},
    {ScenarioReport::SloByRate, "slo-by-rate"},
    {ScenarioReport::Quality, "quality"},
    {ScenarioReport::Reuse, "reuse"},
    {ScenarioReport::Cluster, "cluster"},
    {ScenarioReport::Timeline, "timeline"},
    {ScenarioReport::Allocation, "allocation"},
    {ScenarioReport::Scaling, "scaling"},
    {ScenarioReport::HitAge, "hit-age"},
    {ScenarioReport::Controller, "controller"},
};

const EnumTok<ScenarioFault> kFaultVerbs[] = {
    {ScenarioFault::Kill, "kill"},
    {ScenarioFault::Drain, "drain"},
    {ScenarioFault::Rejoin, "rejoin"},
};

/** Monitor-mode knob values (ScenarioOp::knobValue 0 / 1). */
const char *const kKnobModeTokens[] = {"throughput", "quality"};

template <typename E, std::size_t N>
bool
lookupEnum(const EnumTok<E> (&table)[N], const std::string &tok, E &out)
{
    for (const auto &entry : table) {
        if (tok == entry.token) {
            out = entry.value;
            return true;
        }
    }
    return false;
}

template <typename E, std::size_t N>
const char *
enumToken(const EnumTok<E> (&table)[N], E value)
{
    for (const auto &entry : table)
        if (entry.value == value)
            return entry.token;
    panic("unmapped scenario enum value");
}

template <typename E, std::size_t N>
std::string
enumChoices(const EnumTok<E> (&table)[N])
{
    std::string out;
    for (const auto &entry : table) {
        if (!out.empty())
            out += "|";
        out += entry.token;
    }
    return out;
}

// ---------------------------------------------------------------------
// Scalar formatting / parsing.
// ---------------------------------------------------------------------

} // namespace

/** Shortest %g form that parses back to the exact same double. */
std::string
scenarioNumber(double value)
{
    char buf[64];
    // Integral values print as plain integers ("2500", never
    // "2.5e+03") — op times and rates are usually whole numbers and
    // the canonical text should read like the hand-written source.
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        std::snprintf(buf, sizeof buf, "%.0f", value);
        return buf;
    }
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof buf, "%.*g", prec, value);
        if (std::strtod(buf, nullptr) == value)
            break;
    }
    return buf;
}

namespace {

std::string
fmtU64(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%llu",
                  static_cast<unsigned long long>(value));
    return buf;
}

bool
parseSize(const std::string &tok, std::size_t &out)
{
    std::uint64_t v = 0;
    if (!parseU64(tok, v))
        return false;
    out = static_cast<std::size_t>(v);
    return static_cast<std::uint64_t>(out) == v;
}

/** The items of a comma list; empty items are kept ("a,,b" has 3). */
std::vector<std::string>
splitCommas(const std::string &value)
{
    std::vector<std::string> items;
    std::size_t start = 0;
    for (std::size_t comma = value.find(','); comma != std::string::npos;
         comma = value.find(',', start)) {
        items.push_back(value.substr(start, comma - start));
        start = comma + 1;
    }
    items.push_back(value.substr(start));
    return items;
}

// ---------------------------------------------------------------------
// Tokenizer: whitespace-separated, double quotes group one token,
// '#' starts a comment outside quotes.
// ---------------------------------------------------------------------

struct Tok
{
    std::string text;
    bool quoted = false;
};

bool
tokenizeLine(const std::string &line, std::vector<Tok> &out,
             std::string &err)
{
    out.clear();
    std::size_t i = 0;
    const std::size_t n = line.size();
    while (i < n) {
        while (i < n && std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i >= n || line[i] == '#')
            break;
        if (line[i] == '"') {
            const std::size_t close = line.find('"', i + 1);
            if (close == std::string::npos) {
                err = "unterminated quote";
                return false;
            }
            out.push_back({line.substr(i + 1, close - i - 1), true});
            i = close + 1;
        } else {
            std::size_t end = i;
            while (end < n &&
                   !std::isspace(static_cast<unsigned char>(line[end])))
                ++end;
            out.push_back({line.substr(i, end - i), false});
            i = end;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// Param fields (shared between header directives and cell overrides).
// ---------------------------------------------------------------------

/** Canonical order of the overridable param keys. */
const char *const kParamKeys[] = {
    "system", "large",        "small",    "workers",
    "gpu",    "cache",        "eviction", "nodes",
    "routing", "partitioning", "replicas", "retrieval",
};

std::string
smallListToken(const std::vector<ScenarioModel> &small)
{
    if (small.empty())
        return "none";
    std::string out;
    for (const auto model : small) {
        if (!out.empty())
            out += ",";
        out += enumToken(kModels, model);
    }
    return out;
}

bool
parseSmallList(const std::string &value, std::vector<ScenarioModel> &out,
               std::string &err)
{
    out.clear();
    if (value == "none")
        return true;
    for (const auto &item : splitCommas(value)) {
        ScenarioModel model;
        if (!lookupEnum(kModels, item, model)) {
            err = "unknown model '" + item + "' (expected " +
                  enumChoices(kModels) + " or none)";
            return false;
        }
        out.push_back(model);
    }
    return true;
}

/**
 * Parse a retrieval value: a backend token optionally followed by
 * comma-separated search-knob suffixes (`hnsw,ef=64`,
 * `ivf-pq,nprobe=16`). Selecting a backend resets both knobs to 0
 * (backend defaults) before applying suffixes, so a cell override
 * fully specifies its retrieval configuration.
 */
bool
parseRetrievalValue(ScenarioParams &params, const std::string &value,
                    std::string &err)
{
    std::size_t comma = value.find(',');
    const std::string backend = value.substr(0, comma);
    if (!lookupEnum(kRetrievals, backend, params.retrieval)) {
        err = "unknown retrieval backend '" + backend + "' (expected " +
              enumChoices(kRetrievals) + ")";
        return false;
    }
    params.retrievalEf = 0;
    params.retrievalNprobe = 0;
    while (comma != std::string::npos) {
        const std::size_t start = comma + 1;
        comma = value.find(',', start);
        const std::string knob = value.substr(
            start, comma == std::string::npos ? comma : comma - start);
        const std::size_t eq = knob.find('=');
        const std::string name = knob.substr(0, eq);
        std::size_t parsed = 0;
        if (eq == std::string::npos ||
            !parseSize(knob.substr(eq + 1), parsed) || parsed == 0) {
            err = "retrieval knob must look like ef=<n> or "
                  "nprobe=<n> with n >= 1, got '" +
                  knob + "'";
            return false;
        }
        if (name == "ef") {
            if (params.retrieval != ScenarioRetrieval::Hnsw) {
                err = "retrieval knob ef requires the hnsw backend "
                      "(got " +
                      std::string(enumToken(kRetrievals,
                                            params.retrieval)) +
                      ")";
                return false;
            }
            params.retrievalEf = parsed;
        } else if (name == "nprobe") {
            if (params.retrieval != ScenarioRetrieval::Ivf &&
                params.retrieval != ScenarioRetrieval::IvfPq) {
                err = "retrieval knob nprobe requires an ivf backend "
                      "(got " +
                      std::string(enumToken(kRetrievals,
                                            params.retrieval)) +
                      ")";
                return false;
            }
            params.retrievalNprobe = parsed;
        } else {
            err = "unknown retrieval knob '" + name +
                  "' (expected ef|nprobe)";
            return false;
        }
    }
    return true;
}

/** Parse `pid=<kp>,<ki>,<kd>`: three finite gains, each >= 0. */
bool
parsePidValue(const std::string &value, std::vector<double> &out,
              std::string &err)
{
    const auto items = splitCommas(value);
    out.clear();
    for (const auto &item : items) {
        double gain = 0.0;
        if (items.size() != 3 || !parseDouble(item, gain) || gain < 0.0) {
            err = "pid must look like <kp>,<ki>,<kd> with three finite "
                  "gains >= 0, got '" +
                  value + "'";
            return false;
        }
        out.push_back(gain);
    }
    return true;
}

/**
 * Apply one `key value` pair to a param block. `known` reports whether
 * the key was a param key at all; the return value is false (with a
 * message in `err`) when the key was known but the value is bad.
 */
bool
applyParamField(ScenarioParams &params, const std::string &key,
                const std::string &value, bool &known, std::string &err)
{
    const auto badEnum = [&](const char *what,
                             const std::string &choices) {
        err = std::string("unknown ") + what + " '" + value +
              "' (expected " + choices + ")";
        return false;
    };
    const auto positive = [&](std::size_t &out) {
        if (!parseSize(value, out) || out == 0) {
            err = key + " must be a positive integer, got '" + value +
                  "'";
            return false;
        }
        return true;
    };

    known = true;
    if (key == "system")
        return lookupEnum(kSystems, value, params.system) ||
               badEnum("system", enumChoices(kSystems));
    if (key == "large")
        return lookupEnum(kModels, value, params.large) ||
               badEnum("model", enumChoices(kModels));
    if (key == "small")
        return parseSmallList(value, params.small, err);
    if (key == "workers")
        return positive(params.workers);
    if (key == "gpu")
        return lookupEnum(kGpus, value, params.gpu) ||
               badEnum("gpu", enumChoices(kGpus));
    if (key == "cache")
        return positive(params.cache);
    if (key == "eviction")
        return lookupEnum(kEvictions, value, params.eviction) ||
               badEnum("eviction policy", enumChoices(kEvictions));
    if (key == "nodes")
        return positive(params.nodes);
    if (key == "routing")
        return lookupEnum(kRoutings, value, params.routing) ||
               badEnum("routing policy", enumChoices(kRoutings));
    if (key == "partitioning")
        return lookupEnum(kPartitionings, value, params.partitioning) ||
               badEnum("partitioning", enumChoices(kPartitionings));
    if (key == "replicas")
        return positive(params.replicas);
    if (key == "retrieval")
        return parseRetrievalValue(params, value, err);
    known = false;
    return true;
}

std::string
paramValueToken(const ScenarioParams &params, const std::string &key)
{
    if (key == "system")
        return enumToken(kSystems, params.system);
    if (key == "large")
        return enumToken(kModels, params.large);
    if (key == "small")
        return smallListToken(params.small);
    if (key == "workers")
        return fmtU64(params.workers);
    if (key == "gpu")
        return enumToken(kGpus, params.gpu);
    if (key == "cache")
        return fmtU64(params.cache);
    if (key == "eviction")
        return enumToken(kEvictions, params.eviction);
    if (key == "nodes")
        return fmtU64(params.nodes);
    if (key == "routing")
        return enumToken(kRoutings, params.routing);
    if (key == "partitioning")
        return enumToken(kPartitionings, params.partitioning);
    if (key == "replicas")
        return fmtU64(params.replicas);
    if (key == "retrieval") {
        std::string out = enumToken(kRetrievals, params.retrieval);
        // Nonzero knobs only: defaults keep the bare backend token, so
        // scenarios written before the knobs existed digest unchanged.
        if (params.retrievalEf > 0)
            out += ",ef=" + fmtU64(params.retrievalEf);
        if (params.retrievalNprobe > 0)
            out += ",nprobe=" + fmtU64(params.retrievalNprobe);
        return out;
    }
    if (key == "pid")
        return scenarioNumber(params.pid[0]) + "," +
               scenarioNumber(params.pid[1]) + "," +
               scenarioNumber(params.pid[2]);
    panic("unknown param key '%s'", key.c_str());
}

/** Canonical text of one op (no trailing newline). */
std::string
opLine(const ScenarioOp &op)
{
    std::string out = "at " + scenarioNumber(op.time) + " ";
    switch (op.kind) {
      case ScenarioOp::Kind::Rate:
        return out + "rate " + scenarioNumber(op.rate);
      case ScenarioOp::Kind::Ramp:
        return out + "ramp to " + scenarioNumber(op.rate) + " over " +
               scenarioNumber(op.duration) + " steps " + fmtU64(op.steps);
      case ScenarioOp::Kind::Flash:
        return out + "flash x" + scenarioNumber(op.factor) + " for " +
               scenarioNumber(op.duration);
      case ScenarioOp::Kind::Diurnal:
        return out + "diurnal base " + scenarioNumber(op.base) + " amp " +
               scenarioNumber(op.amplitude) + " period " +
               scenarioNumber(op.period) + " for " +
               scenarioNumber(op.duration) + " steps " + fmtU64(op.steps);
      case ScenarioOp::Kind::Drift:
        return out + "drift to seed " + fmtU64(op.driftSeed) + " over " +
               scenarioNumber(op.duration);
      case ScenarioOp::Kind::Region:
        return out + "region " + fmtU64(op.region) + " weight " +
               scenarioNumber(op.weight);
      case ScenarioOp::Kind::Fault:
        return out + enumToken(kFaultVerbs, op.fault) + " " +
               fmtU64(op.node);
      case ScenarioOp::Kind::Knob:
        switch (op.knob) {
          case ScenarioKnob::MonitorMode:
            return out + "set mode " +
                   kKnobModeTokens[op.knobValue != 0.0 ? 1 : 0];
          case ScenarioKnob::Cache:
            return out + "set cache " +
                   fmtU64(static_cast<std::uint64_t>(op.knobValue));
          case ScenarioKnob::Replicas:
            return out + "set replicas " +
                   fmtU64(static_cast<std::uint64_t>(op.knobValue));
          case ScenarioKnob::Ef:
            return out + "set ef " +
                   fmtU64(static_cast<std::uint64_t>(op.knobValue));
          case ScenarioKnob::Nprobe:
            return out + "set nprobe " +
                   fmtU64(static_cast<std::uint64_t>(op.knobValue));
        }
        panic("unmapped knob");
    }
    panic("unmapped op kind");
}

// ---------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------

class Parser
{
  public:
    Parser(std::istream &in, const std::string &filename, Scenario &out)
        : in_(in), filename_(filename), out_(out)
    {
    }

    /** Empty string on success, "<file>:<line>: message" on failure. */
    std::string run();

  private:
    enum class Section
    {
        Header,
        Ops,
        Cells,
    };

    bool fail(const std::string &message)
    {
        return failAt(lineNo_, message);
    }

    bool failAt(int line, const std::string &message)
    {
        error_ =
            filename_ + ":" + std::to_string(line) + ": " + message;
        return false;
    }

    /** Line of header directive `key`, else the scenario line. */
    int lineOf(const std::string &key) const
    {
        const auto it = keyLines_.find(key);
        return it == keyLines_.end() ? scenarioLine_ : it->second;
    }

    bool handleLine(const std::vector<Tok> &toks);
    bool handleHeader(const std::vector<Tok> &toks);
    bool handleOp(const std::vector<Tok> &toks);
    bool handleCell(const std::vector<Tok> &toks);
    bool validate();
    bool validateArrivalOps();
    bool validateMixOps();
    bool validateFaultOps();
    bool validateKnobOps();

    std::istream &in_;
    std::string filename_;
    Scenario &out_;
    int lineNo_ = 0;
    int scenarioLine_ = 1;
    Section section_ = Section::Header;
    /** Source line of each header directive seen so far. */
    std::map<std::string, int> keyLines_;
    /** Source line of each declared cell. */
    std::vector<int> cellLines_;
    bool sawRequests_ = false;
    bool sawDuration_ = false;
    std::string error_;
};

std::string
Parser::run()
{
    out_ = Scenario{};
    std::string line;
    while (std::getline(in_, line)) {
        ++lineNo_;
        std::vector<Tok> toks;
        std::string tokErr;
        if (!tokenizeLine(line, toks, tokErr)) {
            fail(tokErr);
            return error_;
        }
        if (toks.empty())
            continue;
        if (!handleLine(toks))
            return error_;
    }
    if (out_.name.empty()) {
        failAt(1, "missing 'scenario <name>' directive");
        return error_;
    }
    if (!validate())
        return error_;
    return std::string();
}

bool
Parser::handleLine(const std::vector<Tok> &toks)
{
    const std::string &key = toks[0].text;
    if (out_.name.empty() && key != "scenario")
        return fail("first directive must be 'scenario <name>', got '" +
                    key + "'");
    if (key == "at") {
        if (section_ == Section::Cells)
            return fail("ops must precede cells");
        section_ = Section::Ops;
        return handleOp(toks);
    }
    if (key == "cell") {
        section_ = Section::Cells;
        return handleCell(toks);
    }
    if (section_ != Section::Header)
        return fail("header directive '" + key +
                    "' must precede ops and cells");
    return handleHeader(toks);
}

bool
Parser::handleHeader(const std::vector<Tok> &toks)
{
    const std::string &key = toks[0].text;
    if (!keyLines_.emplace(key, lineNo_).second)
        return fail("duplicate directive '" + key + "'");
    if (toks.size() != 2 && (key != "retrieval" || toks.size() < 2))
        return fail("directive '" + key + "' expects exactly one value");
    // `retrieval hnsw ef=64` is sugar for `retrieval hnsw,ef=64`; the
    // comma form is canonical (and the only form a cell override takes).
    std::string joined = toks[1].text;
    for (std::size_t i = 2; i < toks.size(); ++i) {
        if (toks[i].quoted)
            return fail("retrieval knobs must be bare key=value pairs");
        joined += "," + toks[i].text;
    }
    const std::string &value = joined;

    if (key == "scenario") {
        if (toks[1].quoted || value.empty())
            return fail("scenario name must be a bare identifier");
        for (const char c : value)
            if (!std::isalnum(static_cast<unsigned char>(c)) &&
                c != '_' && c != '-')
                return fail("scenario name may use [A-Za-z0-9_-] only, "
                            "got '" +
                            value + "'");
        out_.name = value;
        scenarioLine_ = lineNo_;
        return true;
    }
    if (key == "title") {
        if (!toks[1].quoted)
            return fail("title must be a quoted string");
        out_.title = value;
        return true;
    }
    if (key == "seed") {
        if (!parseU64(value, out_.seed))
            return fail("seed must be an unsigned integer, got '" +
                        value + "'");
        return true;
    }
    if (key == "arrival-seed") {
        std::uint64_t seed = 0;
        if (!parseU64(value, seed))
            return fail("arrival-seed must be an unsigned 64-bit "
                        "integer, got '" +
                        value + "'");
        out_.arrivalSeed = seed;
        return true;
    }
    if (key == "mode") {
        if (!lookupEnum(kModes, value, out_.mode))
            return fail("unknown mode '" + value + "' (expected " +
                        enumChoices(kModes) + ")");
        return true;
    }
    if (key == "dataset") {
        if (!lookupEnum(kDatasets, value, out_.dataset))
            return fail("unknown dataset '" + value + "' (expected " +
                        enumChoices(kDatasets) + ")");
        return true;
    }
    if (key == "warm") {
        if (!parseSize(value, out_.warm))
            return fail("warm must be an unsigned integer, got '" +
                        value + "'");
        return true;
    }
    if (key == "requests") {
        if (!parseSize(value, out_.requests) || out_.requests == 0)
            return fail("requests must be a positive integer, got '" +
                        value + "'");
        if (sawDuration_)
            return fail("specify exactly one of requests/duration");
        sawRequests_ = true;
        return true;
    }
    if (key == "duration") {
        if (!parseDouble(value, out_.duration) || out_.duration <= 0.0)
            return fail("duration must be a positive number of "
                        "seconds, got '" +
                        value + "'");
        if (sawRequests_)
            return fail("specify exactly one of requests/duration");
        sawDuration_ = true;
        return true;
    }
    if (key == "rate") {
        if (value.find(',') == std::string::npos) {
            if (!parseDouble(value, out_.rate) || out_.rate < 0.0)
                return fail("rate must be >= 0 requests/minute, got '" +
                            value + "'");
            return true;
        }
        for (const auto &item : splitCommas(value)) {
            double rate = 0.0;
            if (!parseDouble(item, rate) || rate <= 0.0)
                return fail("rate list entries must be > 0 "
                            "requests/minute, got '" +
                            item + "'");
            if (!out_.rates.empty() && rate <= out_.rates.back())
                return fail("rate list must be strictly increasing, "
                            "got '" +
                            value + "'");
            out_.rates.push_back(rate);
        }
        out_.rate = out_.rates.front();
        return true;
    }
    if (key == "window") {
        if (!parseSize(value, out_.window) || out_.window == 0)
            return fail("window must be a positive request count, "
                        "got '" +
                        value + "'");
        return true;
    }
    if (key == "sampler-seed") {
        if (!parseU64(value, out_.samplerSeed))
            return fail("sampler-seed must be an unsigned integer, "
                        "got '" +
                        value + "'");
        return true;
    }
    if (key == "recovery-window") {
        if (!parseSize(value, out_.recoveryWindow) ||
            out_.recoveryWindow == 0)
            return fail("recovery-window must be a positive count, "
                        "got '" +
                        value + "'");
        return true;
    }
    if (key == "report") {
        if (!lookupEnum(kReports, value, out_.report))
            return fail("unknown report '" + value + "' (expected " +
                        enumChoices(kReports) + ")");
        return true;
    }

    bool known = false;
    std::string err;
    if (!applyParamField(out_.params, key, value, known, err))
        return fail(err);
    if (!known)
        return fail("unknown directive '" + key + "'");
    return true;
}

bool
Parser::handleOp(const std::vector<Tok> &toks)
{
    ScenarioOp op;
    op.line = lineNo_;
    if (toks.size() < 4)
        return fail("op needs at least 'at <time> <op> <arg>'");
    if (!parseDouble(toks[1].text, op.time) || op.time < 0.0)
        return fail("op time must be >= 0 seconds, got '" +
                    toks[1].text + "'");
    if (!out_.ops.empty() && op.time < out_.ops.back().time)
        return fail("op at t=" + scenarioNumber(op.time) +
                    " precedes the previous op at t=" +
                    scenarioNumber(out_.ops.back().time) +
                    " (ops must be time-ordered)");

    const std::string &verb = toks[2].text;
    const auto want = [&](std::size_t n, const char *usage) {
        if (toks.size() == n)
            return true;
        return fail(std::string("usage: at <time> ") + usage);
    };
    const auto keyword = [&](std::size_t i, const char *word) {
        if (toks[i].text == word)
            return true;
        return fail("expected '" + std::string(word) + "', got '" +
                    toks[i].text + "'");
    };
    const auto positiveDouble = [&](std::size_t i, const char *what,
                                    double &slot) {
        if (!parseDouble(toks[i].text, slot) || slot <= 0.0)
            return fail(std::string(what) + " must be > 0, got '" +
                        toks[i].text + "'");
        return true;
    };
    const auto positiveSize = [&](std::size_t i, const char *what,
                                  std::size_t &slot) {
        if (!parseSize(toks[i].text, slot) || slot == 0)
            return fail(std::string(what) +
                        " must be a positive integer, got '" +
                        toks[i].text + "'");
        return true;
    };

    if (verb == "rate") {
        op.kind = ScenarioOp::Kind::Rate;
        if (!want(4, "rate <requests/min>") ||
            !positiveDouble(3, "rate", op.rate))
            return false;
    } else if (verb == "ramp") {
        op.kind = ScenarioOp::Kind::Ramp;
        if (!want(9, "ramp to <rate> over <seconds> steps <n>") ||
            !keyword(3, "to") || !positiveDouble(4, "ramp rate", op.rate) ||
            !keyword(5, "over") ||
            !positiveDouble(6, "ramp window", op.duration) ||
            !keyword(7, "steps") || !positiveSize(8, "steps", op.steps))
            return false;
    } else if (verb == "flash") {
        op.kind = ScenarioOp::Kind::Flash;
        if (!want(6, "flash x<factor> for <seconds>"))
            return false;
        const std::string &xtok = toks[3].text;
        if (xtok.size() < 2 || xtok[0] != 'x' ||
            !parseDouble(xtok.substr(1), op.factor) || op.factor <= 0.0)
            return fail("flash factor must look like x<positive>, "
                        "got '" +
                        xtok + "'");
        if (!keyword(4, "for") ||
            !positiveDouble(5, "flash window", op.duration))
            return false;
    } else if (verb == "diurnal") {
        op.kind = ScenarioOp::Kind::Diurnal;
        if (!want(13, "diurnal base <rate> amp <rate> period <seconds> "
                      "for <seconds> steps <n>") ||
            !keyword(3, "base") ||
            !positiveDouble(4, "diurnal base", op.base) ||
            !keyword(5, "amp"))
            return false;
        if (!parseDouble(toks[6].text, op.amplitude) ||
            op.amplitude < 0.0)
            return fail("diurnal amp must be >= 0, got '" +
                        toks[6].text + "'");
        if (op.amplitude >= op.base)
            return fail("diurnal amp must stay below base (the rate "
                        "would reach zero)");
        if (!keyword(7, "period") ||
            !positiveDouble(8, "diurnal period", op.period) ||
            !keyword(9, "for") ||
            !positiveDouble(10, "diurnal window", op.duration) ||
            !keyword(11, "steps") ||
            !positiveSize(12, "steps", op.steps))
            return false;
    } else if (verb == "drift") {
        op.kind = ScenarioOp::Kind::Drift;
        if (!want(8, "drift to seed <seed> over <seconds>") ||
            !keyword(3, "to") || !keyword(4, "seed"))
            return false;
        if (!parseU64(toks[5].text, op.driftSeed))
            return fail("drift seed must be an unsigned integer, "
                        "got '" +
                        toks[5].text + "'");
        if (!keyword(6, "over") ||
            !positiveDouble(7, "drift window", op.duration))
            return false;
    } else if (verb == "region") {
        op.kind = ScenarioOp::Kind::Region;
        if (!want(6, "region <index> weight <w>") ||
            !positiveSize(3, "region index", op.region))
            return false;
        if (op.region > kMaxRegions)
            return fail("region index must be in [1, " +
                        fmtU64(kMaxRegions) + "], got " +
                        fmtU64(op.region));
        if (!keyword(4, "weight"))
            return false;
        if (!parseDouble(toks[5].text, op.weight) || op.weight < 0.0 ||
            op.weight > 1.0)
            return fail("region weight must be in [0, 1], got '" +
                        toks[5].text + "'");
    } else if (verb == "set") {
        op.kind = ScenarioOp::Kind::Knob;
        if (!want(5, "set mode|cache|replicas|ef|nprobe <value>"))
            return false;
        const std::string &target = toks[3].text;
        const std::string &value = toks[4].text;
        if (target == "mode") {
            op.knob = ScenarioKnob::MonitorMode;
            if (value == kKnobModeTokens[0])
                op.knobValue = 0.0;
            else if (value == kKnobModeTokens[1])
                op.knobValue = 1.0;
            else
                return fail("unknown monitor mode '" + value +
                            "' (expected throughput|quality)");
        } else if (target == "cache") {
            op.knob = ScenarioKnob::Cache;
            std::size_t capacity = 0;
            if (!positiveSize(4, "cache capacity", capacity))
                return false;
            op.knobValue = static_cast<double>(capacity);
        } else if (target == "replicas") {
            op.knob = ScenarioKnob::Replicas;
            std::size_t replicas = 0;
            if (!positiveSize(4, "replicas", replicas))
                return false;
            op.knobValue = static_cast<double>(replicas);
        } else if (target == "ef") {
            op.knob = ScenarioKnob::Ef;
            std::size_t ef = 0;
            if (!positiveSize(4, "ef", ef))
                return false;
            op.knobValue = static_cast<double>(ef);
        } else if (target == "nprobe") {
            op.knob = ScenarioKnob::Nprobe;
            std::size_t nprobe = 0;
            if (!positiveSize(4, "nprobe", nprobe))
                return false;
            op.knobValue = static_cast<double>(nprobe);
        } else {
            return fail("unknown knob '" + target +
                        "' (expected mode|cache|replicas|ef|nprobe)");
        }
    } else if (lookupEnum(kFaultVerbs, verb, op.fault)) {
        op.kind = ScenarioOp::Kind::Fault;
        if (!want(4, "kill|drain|rejoin <node>"))
            return false;
        if (!parseSize(toks[3].text, op.node))
            return fail("fault node must be an unsigned integer, "
                        "got '" +
                        toks[3].text + "'");
    } else {
        return fail("unknown op '" + verb + "'");
    }

    out_.ops.push_back(op);
    return true;
}

bool
Parser::handleCell(const std::vector<Tok> &toks)
{
    if (toks.size() < 2 || !toks[1].quoted)
        return fail("usage: cell \"<label>\" [key=value ...]");
    ScenarioCell cell;
    cell.label = toks[1].text;
    if (cell.label.empty())
        return fail("cell label must not be empty");
    for (const auto &existing : out_.cells)
        if (existing.label == cell.label)
            return fail("duplicate cell label \"" + cell.label + "\"");
    cell.params = out_.params;

    std::set<std::string> overridden;
    for (std::size_t i = 2; i < toks.size(); ++i) {
        if (toks[i].quoted)
            return fail("cell overrides must be bare key=value pairs");
        const std::string &pair = toks[i].text;
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 >= pair.size())
            return fail("cell override must look like key=value, "
                        "got '" +
                        pair + "'");
        const std::string key = pair.substr(0, eq);
        const std::string value = pair.substr(eq + 1);
        if (key == "paper") {
            if (!cell.paper.empty())
                return fail("duplicate paper= annotation");
            cell.paper = value;
            continue;
        }
        if (!overridden.insert(key).second)
            return fail("duplicate cell override '" + key + "'");
        bool known = key == "pid";
        std::string err;
        if (known ? !parsePidValue(value, cell.params.pid, err)
                  : !applyParamField(cell.params, key, value, known, err))
            return fail(err);
        if (!known)
            return fail("unknown cell override '" + key + "'");
    }
    // Canonical order for printing, regardless of source order.
    for (const char *key : kParamKeys)
        if (overridden.count(key))
            cell.overridden.push_back(key);
    if (overridden.count("pid"))
        cell.overridden.push_back("pid");
    out_.cells.push_back(std::move(cell));
    cellLines_.push_back(lineNo_);
    return true;
}

bool
Parser::validate()
{
    if (!sawRequests_ && !sawDuration_)
        return failAt(scenarioLine_,
                      "scenario needs a requests or duration directive");

    // A rate list sweeps one fixed trace shape over several rates, so
    // it takes nothing that already varies the rate or the trace.
    if (!out_.rates.empty()) {
        const int line = keyLines_.at("rate");
        if (out_.mode == ScenarioMode::CacheStream)
            return failAt(line, "cache-stream scenarios take no rate list");
        if (sawDuration_)
            return failAt(line, "a rate list needs requests, not duration");
        if (!out_.ops.empty())
            return failAt(out_.ops.front().line,
                          "ops cannot be combined with a rate list");
    } else if (out_.report == ScenarioReport::P99ByRate ||
               out_.report == ScenarioReport::SloByRate) {
        return failAt(keyLines_.at("report"),
                      std::string("report ") +
                          enumToken(kReports, out_.report) +
                          " needs a rate list (rate <r1>,<r2>,...)");
    }

    const bool streamReport = out_.report == ScenarioReport::HitCurve ||
                              out_.report == ScenarioReport::Reuse;
    if (out_.mode == ScenarioMode::CacheStream) {
        if (!out_.ops.empty())
            return failAt(out_.ops.front().line,
                          "cache-stream scenarios take no ops");
        if (!sawRequests_)
            return failAt(scenarioLine_, "cache-stream scenarios are "
                                         "request-counted; use requests");
        if (out_.warm != 0)
            return failAt(scenarioLine_,
                          "cache-stream scenarios do not support warm");
        if (!streamReport)
            return failAt(lineOf("report"), "cache-stream scenarios use "
                                            "report hit-curve or reuse");
        if (out_.window > out_.requests)
            return failAt(keyLines_.count("window") ? lineOf("window")
                                                    : lineOf("requests"),
                          "window " + fmtU64(out_.window) +
                              " exceeds requests " +
                              fmtU64(out_.requests) +
                              " (the hit curve would have no rows)");
    } else if (streamReport) {
        return failAt(lineOf("report"),
                      std::string("report ") +
                          enumToken(kReports, out_.report) +
                          " requires mode cache-stream");
    }

    // Reports over the virtual-time window read `duration`; reports of
    // one cell's run render exactly one cell.
    const auto report =
        std::string("report ") + enumToken(kReports, out_.report);
    if ((out_.report == ScenarioReport::Timeline ||
         out_.report == ScenarioReport::Scaling ||
         out_.report == ScenarioReport::HitAge) &&
        !sawDuration_)
        return failAt(lineOf("report"), report + " needs duration");
    if ((out_.report == ScenarioReport::Allocation ||
         out_.report == ScenarioReport::HitAge) &&
        out_.cellCount() != 1)
        return failAt(lineOf("report"),
                      report + " renders one cell, got " +
                          fmtU64(out_.cellCount()));

    if (sawDuration_ && out_.rate <= 0.0)
        return failAt(scenarioLine_,
                      "duration-based scenarios need rate > 0");
    if (out_.arrivalSeed &&
        (out_.rate <= 0.0 || out_.mode == ScenarioMode::CacheStream))
        return failAt(lineOf("arrival-seed"),
                      "arrival-seed needs a serving scenario with "
                      "rate > 0 (nothing else draws arrivals)");

    for (std::size_t i = 0; i < out_.cellCount(); ++i) {
        const auto cell = out_.cell(i);
        const bool needsSmall =
            cell.params.system == ScenarioSystem::MoDM ||
            cell.params.system == ScenarioSystem::StandaloneSmall;
        if (needsSmall && cell.params.small.empty())
            return failAt(scenarioLine_,
                          "cell \"" + cell.label + "\": system " +
                              enumToken(kSystems, cell.params.system) +
                              " needs a non-empty small list");
        // Only MoDM runs the global monitor the gains would steer.
        if (!cell.params.pid.empty() &&
            cell.params.system != ScenarioSystem::MoDM)
            return failAt(cellLines_[i],
                          "cell \"" + cell.label + "\": pid needs "
                              "system modm (got " +
                              enumToken(kSystems, cell.params.system) +
                              ")");
        // Workers and cache entries are split across nodes; a share
        // below one would be clamped up to one, silently running a
        // bigger cluster than the scenario asked for.
        const auto &p = cell.params;
        if (p.workers < p.nodes || p.cache < p.nodes)
            return failAt(out_.cells.empty() ? lineOf("nodes")
                                             : cellLines_[i],
                          "cell \"" + cell.label + "\": " +
                              (p.workers < p.nodes
                                   ? "workers " + fmtU64(p.workers)
                                   : "cache " + fmtU64(p.cache)) +
                              " is below its " + fmtU64(p.nodes) +
                              " nodes (each node needs at least one)");
        if (out_.report == ScenarioReport::Quality &&
            !cell.paper.empty() &&
            std::count(cell.paper.begin(), cell.paper.end(), ',') != 1)
            return failAt(cellLines_[i],
                          "cell \"" + cell.label +
                              "\": report quality takes "
                              "paper=<clip>,<fid>, got '" +
                              cell.paper + "'");
    }

    return validateArrivalOps() && validateMixOps() &&
           validateFaultOps() && validateKnobOps();
}

bool
Parser::validateArrivalOps()
{
    double shapedUntil = 0.0;
    for (const auto &op : out_.ops) {
        const bool arrival = op.kind == ScenarioOp::Kind::Rate ||
                             op.kind == ScenarioOp::Kind::Ramp ||
                             op.kind == ScenarioOp::Kind::Diurnal ||
                             op.kind == ScenarioOp::Kind::Flash;
        if (!arrival)
            continue;
        if (out_.rate <= 0.0)
            return failAt(op.line, "rate-shaping op in a batch "
                                   "(rate 0) scenario");
        if (op.kind == ScenarioOp::Kind::Flash)
            continue; // multiplicative; may overlap anything
        if (op.time < shapedUntil)
            return failAt(op.line,
                          "rate op inside the previous shaped window "
                          "(which ends at t=" +
                              scenarioNumber(shapedUntil) + ")");
        if (op.kind != ScenarioOp::Kind::Rate)
            shapedUntil = op.time + op.duration;
    }
    return true;
}

bool
Parser::validateMixOps()
{
    bool sawDrift = false;
    for (const auto &op : out_.ops) {
        if (op.kind != ScenarioOp::Kind::Drift)
            continue;
        if (sawDrift)
            return failAt(op.line, "at most one drift op per scenario");
        sawDrift = true;
    }
    return true;
}

bool
Parser::validateFaultOps()
{
    if (!out_.hasFaults())
        return true;
    for (const auto &cell : out_.cells)
        for (const auto &key : cell.overridden)
            if (key == "nodes")
                return failAt(scenarioLine_,
                              "cell \"" + cell.label +
                                  "\" may not override nodes in a "
                                  "scenario with fault ops");
    // Mirror serving::validatePlan's liveness tracking so authoring
    // errors surface here as file:line diagnostics instead of panics
    // at run startup.
    const std::size_t nodes = out_.params.nodes;
    std::vector<bool> up(nodes, true);
    std::vector<bool> admitting(nodes, true);
    std::size_t admittingCount = nodes;
    for (const auto &op : out_.ops) {
        if (op.kind != ScenarioOp::Kind::Fault)
            continue;
        if (op.node >= nodes)
            return failAt(op.line, "fault targets node " +
                                       fmtU64(op.node) + " of " +
                                       fmtU64(nodes));
        switch (op.fault) {
          case ScenarioFault::Kill:
            if (!up[op.node])
                return failAt(op.line, "kill of node " +
                                           fmtU64(op.node) +
                                           " which is already down");
            if (admitting[op.node]) {
                if (admittingCount <= 1)
                    return failAt(op.line,
                                  "fault plan would leave no "
                                  "admitting node");
                admitting[op.node] = false;
                --admittingCount;
            }
            up[op.node] = false;
            break;
          case ScenarioFault::Drain:
            if (!up[op.node])
                return failAt(op.line, "drain of node " +
                                           fmtU64(op.node) +
                                           " which is down");
            if (!admitting[op.node])
                return failAt(op.line, "node " + fmtU64(op.node) +
                                           " is already draining");
            if (admittingCount <= 1)
                return failAt(op.line, "fault plan would leave no "
                                       "admitting node");
            admitting[op.node] = false;
            --admittingCount;
            break;
          case ScenarioFault::Rejoin:
            if (admitting[op.node])
                return failAt(op.line, "rejoin of node " +
                                           fmtU64(op.node) +
                                           " which is already up");
            up[op.node] = true;
            admitting[op.node] = true;
            ++admittingCount;
            break;
        }
    }
    return true;
}

bool
Parser::validateKnobOps()
{
    for (const auto &op : out_.ops) {
        if (op.kind != ScenarioOp::Kind::Knob)
            continue;
        for (std::size_t i = 0; i < out_.cellCount(); ++i) {
            const auto cell = out_.cell(i);
            if (op.knob == ScenarioKnob::Replicas) {
                if (cell.params.partitioning !=
                    ScenarioPartitioning::Replicated)
                    return failAt(op.line,
                                  "replicas knob requires partitioning "
                                  "replicated (cell \"" +
                                      cell.label + "\" is sharded)");
                if (op.knobValue >
                    static_cast<double>(cell.params.nodes))
                    return failAt(op.line,
                                  "replicas knob exceeds the " +
                                      fmtU64(cell.params.nodes) +
                                      " nodes of cell \"" + cell.label +
                                      "\"");
            } else if (op.knob == ScenarioKnob::Cache) {
                if (op.knobValue <
                    static_cast<double>(cell.params.nodes))
                    return failAt(op.line,
                                  "cache knob " +
                                      scenarioNumber(op.knobValue) +
                                      " is below the " +
                                      fmtU64(cell.params.nodes) +
                                      " nodes of cell \"" + cell.label +
                                      "\"");
            } else if (op.knob == ScenarioKnob::Ef) {
                if (cell.params.retrieval != ScenarioRetrieval::Hnsw)
                    return failAt(
                        op.line,
                        "ef knob requires retrieval hnsw (cell \"" +
                            cell.label + "\" uses " +
                            enumToken(kRetrievals,
                                      cell.params.retrieval) +
                            ")");
            } else if (op.knob == ScenarioKnob::Nprobe) {
                if (cell.params.retrieval != ScenarioRetrieval::Ivf &&
                    cell.params.retrieval != ScenarioRetrieval::IvfPq)
                    return failAt(
                        op.line,
                        "nprobe knob requires an ivf retrieval "
                        "backend (cell \"" +
                            cell.label + "\" uses " +
                            enumToken(kRetrievals,
                                      cell.params.retrieval) +
                            ")");
            }
        }
    }
    return true;
}

std::unique_ptr<TraceGenerator>
makeGenerator(ScenarioDataset dataset, std::uint64_t seed)
{
    if (dataset == ScenarioDataset::DiffusionDB)
        return makeDiffusionDB(seed);
    return makeMJHQ(seed);
}

} // namespace

// ---------------------------------------------------------------------
// Scenario methods.
// ---------------------------------------------------------------------

ScenarioCell
Scenario::cell(std::size_t i) const
{
    if (cells.empty()) {
        MODM_ASSERT(i == 0, "scenario has one implicit cell");
        ScenarioCell implicit;
        implicit.label = name;
        implicit.params = params;
        return implicit;
    }
    MODM_ASSERT(i < cells.size(), "cell index %zu of %zu", i,
                cells.size());
    return cells[i];
}

bool
Scenario::mixesSources() const
{
    for (const auto &op : ops)
        if (op.kind == ScenarioOp::Kind::Drift ||
            op.kind == ScenarioOp::Kind::Region)
            return true;
    return false;
}

bool
Scenario::hasFaults() const
{
    for (const auto &op : ops)
        if (op.kind == ScenarioOp::Kind::Fault)
            return true;
    return false;
}

bool
Scenario::hasKnobs() const
{
    for (const auto &op : ops)
        if (op.kind == ScenarioOp::Kind::Knob)
            return true;
    return false;
}

std::uint64_t
Scenario::arrivalRngSeed() const
{
    return arrivalSeed.value_or(seed ^ 0xa441a15ULL);
}

// ---------------------------------------------------------------------
// Parse / print / digest.
// ---------------------------------------------------------------------

std::string
parseScenario(std::istream &in, const std::string &filename,
              Scenario &out)
{
    Parser parser(in, filename, out);
    return parser.run();
}

Scenario
parseScenarioOrDie(std::istream &in, const std::string &filename)
{
    Scenario scenario;
    const std::string error = parseScenario(in, filename, scenario);
    if (!error.empty())
        fatal("%s", error.c_str());
    return scenario;
}

Scenario
loadScenarioFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open scenario file '%s'", path.c_str());
    return parseScenarioOrDie(in, path);
}

void
printScenario(const Scenario &scenario, std::ostream &out)
{
    out << "scenario " << scenario.name << "\n";
    out << "seed " << fmtU64(scenario.seed) << "\n";
    if (scenario.arrivalSeed)
        out << "arrival-seed " << fmtU64(*scenario.arrivalSeed) << "\n";
    out << "mode " << enumToken(kModes, scenario.mode) << "\n";
    out << "dataset " << enumToken(kDatasets, scenario.dataset) << "\n";
    for (const char *key : kParamKeys)
        out << key << " " << paramValueToken(scenario.params, key)
            << "\n";
    out << "warm " << fmtU64(scenario.warm) << "\n";
    if (scenario.requests > 0)
        out << "requests " << fmtU64(scenario.requests) << "\n";
    else
        out << "duration " << scenarioNumber(scenario.duration) << "\n";
    out << "rate ";
    if (scenario.rates.empty()) {
        out << scenarioNumber(scenario.rate);
    } else {
        for (std::size_t i = 0; i < scenario.rates.size(); ++i)
            out << (i ? "," : "") << scenarioNumber(scenario.rates[i]);
    }
    out << "\n";
    out << "window " << fmtU64(scenario.window) << "\n";
    out << "sampler-seed " << fmtU64(scenario.samplerSeed) << "\n";
    out << "recovery-window " << fmtU64(scenario.recoveryWindow) << "\n";
    out << "report " << enumToken(kReports, scenario.report) << "\n";
    if (!scenario.title.empty())
        out << "title \"" << scenario.title << "\"\n";
    if (!scenario.ops.empty()) {
        out << "\n";
        for (const auto &op : scenario.ops)
            out << opLine(op) << "\n";
    }
    if (!scenario.cells.empty()) {
        out << "\n";
        for (const auto &cell : scenario.cells) {
            out << "cell \"" << cell.label << "\"";
            for (const auto &key : cell.overridden)
                out << " " << key << "="
                    << paramValueToken(cell.params, key);
            if (!cell.paper.empty())
                out << " paper=" << cell.paper;
            out << "\n";
        }
    }
}

std::string
canonicalScenario(const Scenario &scenario)
{
    std::ostringstream out;
    printScenario(scenario, out);
    return out.str();
}

std::uint64_t
fnv1a64(std::string_view data, std::uint64_t basis)
{
    std::uint64_t hash = basis;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
scenarioDigest(const Scenario &scenario)
{
    return fnv1a64(canonicalScenario(scenario));
}

std::vector<std::string>
scenarioOpLines(const Scenario &scenario)
{
    std::vector<std::string> lines;
    lines.reserve(scenario.ops.size());
    for (const auto &op : scenario.ops)
        lines.push_back(opLine(op));
    return lines;
}

// ---------------------------------------------------------------------
// Rate-schedule compilation.
// ---------------------------------------------------------------------

std::vector<RateSegment>
scenarioRateSchedule(const Scenario &scenario)
{
    MODM_ASSERT(scenario.rate > 0.0,
                "rate schedule needs a positive base rate");

    // The base-rate curve as (start, rate) pieces; later pieces win at
    // equal starts. Flash windows multiply on top.
    std::vector<std::pair<double, double>> pieces = {
        {0.0, scenario.rate}};
    struct FlashWindow
    {
        double start;
        double end;
        double factor;
    };
    std::vector<FlashWindow> flashes;
    double current = scenario.rate;
    constexpr double kTau = 6.283185307179586;

    for (const auto &op : scenario.ops) {
        switch (op.kind) {
          case ScenarioOp::Kind::Rate:
            pieces.emplace_back(op.time, op.rate);
            current = op.rate;
            break;
          case ScenarioOp::Kind::Ramp:
            for (std::size_t k = 0; k < op.steps; ++k) {
                const double start =
                    op.time + op.duration *
                                  static_cast<double>(k) /
                                  static_cast<double>(op.steps);
                const double frac = (static_cast<double>(k) + 0.5) /
                                    static_cast<double>(op.steps);
                pieces.emplace_back(start,
                                    current + (op.rate - current) * frac);
            }
            pieces.emplace_back(op.time + op.duration, op.rate);
            current = op.rate;
            break;
          case ScenarioOp::Kind::Diurnal:
            for (std::size_t k = 0; k < op.steps; ++k) {
                const double start =
                    op.time + op.duration *
                                  static_cast<double>(k) /
                                  static_cast<double>(op.steps);
                const double mid =
                    start + op.duration /
                                (2.0 * static_cast<double>(op.steps));
                pieces.emplace_back(
                    start, op.base + op.amplitude *
                                         std::sin(kTau * (mid - op.time) /
                                                  op.period));
            }
            pieces.emplace_back(op.time + op.duration, op.base);
            current = op.base;
            break;
          case ScenarioOp::Kind::Flash:
            flashes.push_back(
                {op.time, op.time + op.duration, op.factor});
            break;
          default:
            break;
        }
    }

    std::vector<double> bounds;
    for (const auto &piece : pieces)
        bounds.push_back(piece.first);
    for (const auto &flash : flashes) {
        bounds.push_back(flash.start);
        bounds.push_back(flash.end);
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());

    const auto rateAt = [&](double t) {
        double rate = pieces.front().second;
        for (const auto &piece : pieces)
            if (piece.first <= t)
                rate = piece.second;
        for (const auto &flash : flashes)
            if (flash.start <= t && t < flash.end)
                rate *= flash.factor;
        return rate;
    };

    std::vector<RateSegment> segments;
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
        const double duration = bounds[i + 1] - bounds[i];
        if (duration <= 0.0)
            continue;
        segments.push_back({duration, rateAt(bounds[i])});
    }
    // Terminal segment; PiecewiseArrivals holds the last rate forever,
    // so the duration is nominal.
    segments.push_back({60.0, rateAt(bounds.back())});
    return segments;
}

// ---------------------------------------------------------------------
// Workload building.
// ---------------------------------------------------------------------

ScenarioWorkload
buildScenarioWorkload(const Scenario &scenario)
{
    ScenarioWorkload workload;
    auto base = makeGenerator(scenario.dataset, scenario.seed);
    workload.warm.reserve(scenario.warm);
    for (std::size_t i = 0; i < scenario.warm; ++i)
        workload.warm.push_back(base->next());

    // Source 0 is the base generator; regional generators and the
    // drift target follow. Single-source scenarios never touch the
    // mixing rng, so their traces match the legacy bundle helpers
    // byte for byte.
    std::vector<std::unique_ptr<TraceGenerator>> sources;
    sources.push_back(std::move(base));
    std::vector<std::size_t> regionSource(kMaxRegions + 1, 0);
    std::size_t driftSource = 0;
    double driftStart = 0.0;
    double driftDuration = 0.0;
    const bool mixed = scenario.mixesSources();
    if (mixed) {
        for (const auto &op : scenario.ops) {
            if (op.kind == ScenarioOp::Kind::Region &&
                regionSource[op.region] == 0) {
                regionSource[op.region] = sources.size();
                sources.push_back(makeGenerator(
                    scenario.dataset,
                    mix64(scenario.seed ^
                          (0x7265676e5aULL + op.region))));
            } else if (op.kind == ScenarioOp::Kind::Drift) {
                driftSource = sources.size();
                sources.push_back(
                    makeGenerator(scenario.dataset, op.driftSeed));
                driftStart = op.time;
                driftDuration = op.duration;
            }
        }
    }

    Rng mixRng(mix64(scenario.seed ^ 0x6d69780aULL));
    std::vector<double> weights;
    const auto draw = [&](double t) {
        if (!mixed)
            return sources[0]->next();
        weights.assign(sources.size(), 0.0);
        weights[0] = 1.0; // the base stream keeps unit share
        for (const auto &op : scenario.ops) {
            if (op.time > t)
                break;
            if (op.kind == ScenarioOp::Kind::Region)
                weights[regionSource[op.region]] = op.weight;
        }
        if (driftSource != 0 && t >= driftStart) {
            const double p =
                std::min(1.0, (t - driftStart) / driftDuration);
            for (auto &w : weights)
                w *= 1.0 - p;
            weights[driftSource] = p;
        }
        double total = 0.0;
        for (const double w : weights)
            total += w;
        double u = mixRng.uniform() * total;
        std::size_t pick = 0;
        for (std::size_t i = 0; i < weights.size(); ++i) {
            u -= weights[i];
            if (u < 0.0) {
                pick = i;
                break;
            }
            if (weights[i] > 0.0)
                pick = i; // guards the u == total edge
        }
        return sources[pick]->next();
    };

    std::uint64_t nextId = scenario.warm;
    const auto append = [&](double t) {
        Request request;
        request.prompt = draw(t);
        request.prompt.id = nextId++;
        request.arrival = t;
        workload.trace.push_back(std::move(request));
    };

    if (scenario.rate <= 0.0) {
        workload.trace.reserve(scenario.requests);
        for (std::size_t i = 0; i < scenario.requests; ++i)
            append(0.0);
        return workload;
    }

    PiecewiseArrivals arrivals(scenarioRateSchedule(scenario));
    Rng arrivalRng(scenario.arrivalRngSeed());
    if (scenario.requests > 0) {
        workload.trace.reserve(scenario.requests);
        for (std::size_t i = 0; i < scenario.requests; ++i)
            append(arrivals.next(arrivalRng));
    } else {
        while (true) {
            const double t = arrivals.next(arrivalRng);
            if (t > scenario.duration)
                break;
            append(t);
        }
    }
    return workload;
}

} // namespace modm::workload
