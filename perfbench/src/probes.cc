#include "probes.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>

#include "src/common/log.hh"
#include "src/diffusion/model_spec.hh"
#include "src/diffusion/sampler.hh"
#include "src/serving/router.hh"
#include "src/sim/event_queue.hh"

namespace perfbench {

using modm::embedding::Embedding;
using modm::serving::RequestScheduler;
using modm::workload::Prompt;

namespace {

// Probe sample sizes: enough calls that the per-call mean is stable to
// a few percent, few enough that probing stays well under a second on
// the largest workload.
constexpr std::size_t kEncodeCalls = 2000;
constexpr std::size_t kLookupCalls = 1000;
constexpr std::size_t kSampleCalls = 1000;
constexpr std::size_t kAdmitCalls = 1000;

/** Salt for the probe sampler, so probe images never reuse run ids. */
constexpr std::uint64_t kProbeSamplerSalt = 0x9b0be5ULL;

/** Float-kernel vs double-oracle rounding allowance on similarities. */
constexpr double kTieTolerance = 1e-6;

std::size_t
cacheSize(const RequestScheduler &scheduler)
{
    if (const auto *image = scheduler.imageCache())
        return image->size();
    if (const auto *latent = scheduler.latentCache())
        return latent->size();
    return 0;
}

std::size_t
cacheCapacity(const RequestScheduler &scheduler)
{
    if (const auto *image = scheduler.imageCache())
        return image->capacity();
    if (const auto *latent = scheduler.latentCache())
        return latent->capacity();
    return 0;
}

const float *
cacheRow(const RequestScheduler &scheduler, std::uint64_t id)
{
    if (const auto *image = scheduler.imageCache())
        return image->row(id);
    if (const auto *latent = scheduler.latentCache())
        return latent->row(id);
    return nullptr;
}

double
rowSimilarity(const float *row, const Embedding &query)
{
    double sum = 0.0;
    const auto &q = query.vec();
    for (std::size_t i = 0; i < q.size(); ++i)
        sum += static_cast<double>(row[i]) * static_cast<double>(q[i]);
    return sum;
}

bool
bitEqual(const Embedding &a, const Embedding &b)
{
    return a.dim() == b.dim() &&
        std::memcmp(a.vec().data(), b.vec().data(),
                    a.dim() * sizeof(float)) == 0;
}

/** `count` indices spread evenly over [0, n). */
std::vector<std::size_t>
spread(std::size_t n, std::size_t count)
{
    std::vector<std::size_t> out;
    if (n == 0)
        return out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(i * n / count % n);
    return out;
}

/** Median microseconds per call over spans named `name` from `first`. */
double
perCallUs(const SpanLog &spans, const char *name, int first)
{
    std::vector<double> perCall;
    const auto &all = spans.spans();
    for (std::size_t i = static_cast<std::size_t>(first); i < all.size();
         ++i) {
        if (all[i].name == name && all[i].calls > 0)
            perCall.push_back(all[i].us() /
                              static_cast<double>(all[i].calls));
    }
    if (perCall.empty())
        return 0.0;
    const auto mid = perCall.begin() + perCall.size() / 2;
    std::nth_element(perCall.begin(), mid, perCall.end());
    return *mid;
}

} // namespace

Embedding
probeEncode(const modm::embedding::TextEncoder &encoder,
            const Prompt &prompt, SpanLog &spans)
{
    ScopedSpan span(spans, "encode");
    return encoder.encode(prompt.visualConcept, prompt.lexicalStyle,
                          prompt.text);
}

Lookup
probeRetrieve(const RequestScheduler &scheduler, const Embedding &query,
              SpanLog &spans)
{
    ScopedSpan span(spans, "retrieve");
    if (const auto *image = scheduler.imageCache()) {
        const auto r = image->retrieve(query);
        return {r.found, r.entryId, r.similarity};
    }
    if (const auto *latent = scheduler.latentCache()) {
        const auto r = latent->retrieve(query);
        return {r.found, r.entryId, r.similarity};
    }
    return {};
}

Lookup
bruteForce(const RequestScheduler &scheduler,
           const std::vector<std::uint64_t> &ids, const Embedding &query)
{
    Lookup best;
    for (const std::uint64_t id : ids) {
        const float *row = cacheRow(scheduler, id);
        if (row == nullptr)
            continue;
        const double sim = rowSimilarity(row, query);
        if (!best.found || sim > best.similarity ||
            (sim == best.similarity && id < best.id))
            best = {true, id, sim};
    }
    return best;
}

bool
lookupAgrees(const RequestScheduler &scheduler, const Lookup &layer,
             const Lookup &oracle, const Embedding &query)
{
    if (const auto *latent = scheduler.latentCache()) {
        const double threshold = latent->thresholds().hitThreshold;
        if (!layer.found)
            return !oracle.found ||
                oracle.similarity < threshold + kTieTolerance;
        if (layer.similarity < threshold)
            return false;
    } else if (layer.found != oracle.found) {
        return false;
    }
    if (!layer.found || layer.id == oracle.id)
        return true;
    const float *row = cacheRow(scheduler, layer.id);
    return row != nullptr &&
        rowSimilarity(row, query) >= oracle.similarity - kTieTolerance;
}

ProbeReport
runProbes(const modm::serving::ServingSystem &system,
          const modm::workload::ScenarioWorkload &workload,
          const modm::serving::ServingResult &result, SpanLog &spans)
{
    ScopedSpan probesSpan(spans, "probes");
    const int first = probesSpan.id();
    const auto &config = system.node(0).config();
    const auto &trace = workload.trace;
    ProbeReport report;

    // The probed layers, built from node 0's config (its shard
    // capacity, seed and tuning) exactly as the node builds them.
    RequestScheduler scheduler(config);
    const modm::embedding::TextEncoder encoder(config.textEncoder);
    modm::diffusion::Sampler sampler(config.seed ^ kProbeSamplerSalt,
                                     config.sampler, config.schedule);

    // Cache content comes from the workload's own prompts in arrival
    // order: warm-up first, then the trace.
    std::vector<const Prompt *> prompts;
    prompts.reserve(workload.warm.size() + trace.size());
    for (const auto &p : workload.warm)
        prompts.push_back(&p);
    for (const auto &r : trace)
        prompts.push_back(&r.prompt);
    std::size_t cursor = 0;
    std::vector<std::uint64_t> ids;
    modm::diffusion::Image lastImage;
    const auto admitNext = [&](const char *name) {
        const Prompt &prompt = *prompts[cursor++ % prompts.size()];
        lastImage = timed(spans, "fill.generate", [&] {
            return sampler.generate(config.largeModel, prompt, 0.0);
        });
        const auto text = timed(spans, "fill.encode", [&] {
            return encoder.encode(prompt.visualConcept,
                                  prompt.lexicalStyle, prompt.text);
        });
        timed(spans, name, [&] {
            scheduler.admitGenerated(lastImage, text, true, 0.0);
        });
        ids.push_back(lastImage.id);
    };

    const std::size_t capacity = cacheCapacity(scheduler);
    const auto fillTo = [&](std::size_t rows) {
        ScopedSpan fill(spans, "fill");
        for (std::size_t i = 0;
             i < 4 * capacity && cacheSize(scheduler) < rows; ++i)
            admitNext("fill.admit");
    };
    // Lookups scan the run's mean end-of-run shard occupancy.
    fillTo(std::min<std::size_t>(
        capacity, (result.cacheSize + system.numNodes() / 2) /
            system.numNodes()));

    // Encode: the probe's tower against the run's own, bit for bit.
    const auto &runEncoder = system.node(0).scheduler().textEncoder();
    std::vector<Embedding> queries;
    queries.reserve(kEncodeCalls);
    for (const std::size_t i : spread(trace.size(), kEncodeCalls)) {
        const Prompt &prompt = trace[i].prompt;
        queries.push_back(probeEncode(encoder, prompt, spans));
        const auto reference = runEncoder.encode(
            prompt.visualConcept, prompt.lexicalStyle, prompt.text);
        report.encodeMismatches +=
            bitEqual(queries.back(), reference) ? 0 : 1;
    }

    // Retrieve, held against the exhaustive oracle afterwards, so the
    // oracle's full scans do not evict the rows between timed calls.
    if (capacity > 0) {
        report.retrieveRows = static_cast<double>(cacheSize(scheduler));
        const std::size_t lookups = std::min(kLookupCalls, queries.size());
        std::vector<Lookup> layer;
        layer.reserve(lookups);
        for (std::size_t i = 0; i < lookups; ++i)
            layer.push_back(probeRetrieve(scheduler, queries[i], spans));
        std::size_t agreed = 0;
        for (std::size_t i = 0; i < lookups; ++i) {
            const auto oracle = bruteForce(scheduler, ids, queries[i]);
            agreed += lookupAgrees(scheduler, layer[i], oracle, queries[i])
                ? 1 : 0;
        }
        report.recallAt1 = lookups == 0
            ? 1.0
            : static_cast<double>(agreed) / static_cast<double>(lookups);
    }

    // Classify: encode + retrieve + k-decision on trace requests.
    for (const std::size_t i : spread(trace.size(), kLookupCalls)) {
        timed(spans, "classify", [&] {
            return scheduler.classify(trace[i], trace[i].arrival);
        });
    }

    // Sample: re-run the run's own mix of generations and refinements
    // (model, steps skipped) on the requests it served.
    std::unordered_map<std::uint64_t, const modm::workload::Request *>
        requests;
    requests.reserve(trace.size());
    for (const auto &r : trace)
        requests.emplace(r.prompt.id, &r);
    std::map<std::string, modm::diffusion::ModelSpec> models;
    const auto &records = result.metrics.records();
    for (const std::size_t i : spread(records.size(), kSampleCalls)) {
        const auto &r = records[i];
        if (r.kind == modm::serving::ServeKind::DirectReturn)
            continue;
        auto model = models.find(r.servedBy);
        if (model == models.end())
            model = models
                        .emplace(r.servedBy,
                                 modm::diffusion::modelByName(r.servedBy))
                        .first;
        const Prompt &prompt = requests.at(r.promptId)->prompt;
        if (r.kind == modm::serving::ServeKind::Refinement) {
            timed(spans, "sample.refine", [&] {
                return sampler.refine(model->second, prompt, lastImage,
                                      r.k, r.finish);
            });
        } else {
            timed(spans, "sample.generate", [&] {
                return sampler.generate(model->second, prompt, r.finish);
            });
        }
    }

    // Admit into a full shard, so each insert also evicts (the
    // steady state of every workload).
    if (capacity > 0) {
        fillTo(capacity);
        for (std::size_t i = 0; i < kAdmitCalls; ++i)
            admitNext("admit");
    }

    // Dispatch: replay the run's own queue dispatches (kind and virtual
    // time, from the traced run's event log) through a fresh queue.
    // Arrival handlers capture the request, as the front-end's do; the
    // rest capture an id, as completion and monitor-tick handlers do.
    MODM_ASSERT(result.traceLog != nullptr,
                "the dispatch probe replays a traced run's event log");
    const auto lastQueueKind =
        static_cast<std::uint16_t>(modm::obs::EventKind::Knob);
    const auto arrivalKind =
        static_cast<std::uint16_t>(modm::obs::EventKind::Arrival);
    std::uint64_t sink = 0;
    {
        ScopedSpan dispatch(spans, "dispatch");
        modm::sim::EventQueue queue;
        std::uint64_t events = 0;
        for (const auto &record : result.traceLog->records()) {
            if (record.kind > lastQueueKind)
                continue;
            const modm::sim::EventMeta meta{record.kind, record.node,
                                            record.request};
            if (record.kind == arrivalKind) {
                const auto request = *requests.at(record.request);
                queue.schedule(record.clock, meta, [request, &sink]() {
                    sink += request.prompt.id;
                });
            } else {
                const std::uint64_t id = record.seq;
                queue.schedule(record.clock, meta,
                               [id, &sink]() { sink += id; });
            }
            ++events;
        }
        queue.runAll();
        dispatch.setCalls(events);
    }

    // Route: the configured policy over every trace prompt.
    {
        const auto router = modm::serving::makeRouter(
            config.cluster.routing, system.numNodes(),
            system.config().seed ^ modm::serving::kRingSeedSalt,
            config.cluster.boundedLoadFactor);
        const std::vector<std::size_t> outstanding(
            router->needsOutstanding() ? system.numNodes() : 0, 0);
        ScopedSpan route(spans, "route");
        for (const auto &request : trace)
            sink += router->route(request.prompt, outstanding);
        route.setCalls(trace.size());
    }
    (void)sink;

    report.encodeUs = perCallUs(spans, "encode", first);
    report.retrieveUs = perCallUs(spans, "retrieve", first);
    report.classifyUs = perCallUs(spans, "classify", first);
    report.generateUs = perCallUs(spans, "sample.generate", first);
    report.refineUs = perCallUs(spans, "sample.refine", first);
    report.admitUs = perCallUs(spans, "admit", first);
    report.dispatchNs = 1e3 * perCallUs(spans, "dispatch", first);
    report.routeNs = 1e3 * perCallUs(spans, "route", first);
    return report;
}

} // namespace perfbench
