#include "runs.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <unordered_map>

#include "src/common/log.hh"
#include "src/common/stats.hh"
#include "src/eval/metrics.hh"
#include "src/serving/scenario_exec.hh"

namespace perfbench {

using modm::serving::ServeKind;
using modm::serving::ServingConfig;
using modm::serving::ServingResult;
using modm::serving::ServingSystem;
using modm::serving::SystemKind;

Workload
loadWorkload(const std::string &path, std::uint64_t seed)
{
    Workload w;
    w.scenario = modm::workload::loadScenarioFile(path);
    if (w.scenario.cellCount() != 1)
        modm::fatal("%s: a benchmark workload has exactly one cell, "
                    "found %zu",
                    path.c_str(), w.scenario.cellCount());
    if (w.scenario.mode != modm::workload::ScenarioMode::Serving)
        modm::fatal("%s: a benchmark workload runs in serving mode",
                    path.c_str());
    w.scenario.seed = seed;
    w.cell = w.scenario.cell(0);
    w.name = w.scenario.name;
    return w;
}

namespace {

/** Cache insertions / evictions / occupancy summed over node shards. */
struct CacheTotals
{
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t latentSize = 0;
};

CacheTotals
cacheTotals(const ServingSystem &system)
{
    CacheTotals totals;
    for (std::size_t n = 0; n < system.numNodes(); ++n) {
        const auto &scheduler = system.node(n).scheduler();
        if (const auto *image = scheduler.imageCache()) {
            totals.insertions += image->stats().insertions;
            totals.evictions += image->stats().evictions;
        }
        if (const auto *latent = scheduler.latentCache())
            totals.latentSize += latent->size();
    }
    return totals;
}

RunCounts
readCounts(const ServingSystem &system,
           const modm::workload::Trace &trace,
           const ServingResult &result, const CacheTotals &afterWarm)
{
    RunCounts c;
    c.requests = trace.size();

    std::unordered_map<std::uint64_t, std::uint32_t> completions;
    completions.reserve(trace.size());
    for (const auto &request : trace)
        completions.emplace(request.prompt.id, 0);
    std::uint64_t largeGenerations = 0;
    const auto &config = system.config();
    for (const auto &r : result.metrics.records()) {
        const auto it = completions.find(r.promptId);
        if (it != completions.end())
            ++it->second;
        if (r.kind == ServeKind::FullGeneration) {
            ++c.generateCalls;
            if (r.servedBy == config.largeModel.name)
                ++largeGenerations;
        } else if (r.kind == ServeKind::Refinement) {
            ++c.refineCalls;
        }
    }
    for (const auto &[id, count] : completions)
        c.completedOnce += count == 1 ? 1 : 0;

    bool latent = false;
    for (std::size_t n = 0; n < system.numNodes(); ++n) {
        const auto &node = system.node(n);
        const auto &stats = node.scheduler().stats();
        c.classified += stats.classified;
        c.hits += stats.hits;
        c.misses += stats.misses;
        c.directReturns += stats.directReturns;
        c.routed += node.assigned();
        if (const auto *image = node.scheduler().imageCache())
            c.lookups += image->stats().lookups;
        if (node.scheduler().latentCache() != nullptr) {
            latent = true;
            c.lookups += stats.classified;
        }
    }
    const auto end = cacheTotals(system);
    c.insertions = end.insertions - afterWarm.insertions;
    c.evictions = end.evictions - afterWarm.evictions;
    if (latent) {
        // LatentCache keeps no insertion counter: it admits exactly the
        // full large-model generations, and without a node kill it
        // loses entries only to eviction.
        c.insertions += largeGenerations;
        c.evictions += afterWarm.latentSize + largeGenerations -
            end.latentSize;
    }
    c.occupancyEnd = result.cacheSize;

    if (result.traceLog) {
        const auto lastQueueKind =
            static_cast<std::uint16_t>(modm::obs::EventKind::Knob);
        for (const auto &record : result.traceLog->records())
            c.simEvents += record.kind <= lastQueueKind ? 1 : 0;
    }
    return c;
}

} // namespace

Rep
runRep(const Workload &workload, const RepOptions &options,
       SpanLog &spans, const Inspect &inspect)
{
    Rep rep;
    ScopedSpan repSpan(spans, options.traceEvents ? "rep.traced" : "rep");
    const double setupCpuStart = processCpuS();

    const int buildSpan = spans.begin("workload.build");
    const auto built = modm::workload::buildScenarioWorkload(
        workload.scenario);
    spans.end(buildSpan);
    rep.workloadS = spans.seconds(buildSpan);

    rep.config = modm::serving::scenarioCellConfig(workload.scenario,
                                                   workload.cell);
    auto config = rep.config;
    config.keepOutputs = options.keepOutputs;
    config.trace.events = options.traceEvents;

    const int systemSpan = spans.begin("system.build");
    ServingSystem system(std::move(config));
    spans.end(systemSpan);
    rep.systemS = spans.seconds(systemSpan);

    const int warmSpan = spans.begin("warm");
    if (!built.warm.empty())
        system.warmCache(built.warm);
    spans.end(warmSpan);
    rep.warmS = spans.seconds(warmSpan);
    rep.setupCpuS = processCpuS() - setupCpuStart;
    const auto afterWarm = cacheTotals(system);

    const double runCpuStart = processCpuS();
    const int runSpan = spans.begin("run");
    rep.result = system.run(built.trace);
    spans.end(runSpan, built.trace.size());
    rep.runCpuS = processCpuS() - runCpuStart;
    rep.runS = spans.seconds(runSpan);

    rep.counts = readCounts(system, built.trace, rep.result, afterWarm);
    rep.digest = modm::workload::fnv1a64(
        modm::serving::resultDigest(rep.result));
    if (inspect)
        inspect(system, built, rep.result);
    return rep;
}

double
sloThresholdS(const ServingConfig &config)
{
    return 2.0 * config.largeModel.fullLatency(config.gpu);
}

SimMetrics
simMetrics(const ServingConfig &config, const ServingResult &result,
           const RunCounts &counts)
{
    SimMetrics m;
    const auto &metrics = result.metrics;
    modm::PercentileTracker queue;
    for (const auto &r : metrics.records())
        queue.add(r.queueDelay());

    const double requests = static_cast<double>(counts.requests);
    const std::uint64_t failed = counts.requests - counts.completedOnce;
    // A request without exactly one completion misses any limit.
    std::uint64_t violations = failed;
    const double threshold = sloThresholdS(config);
    for (const auto &r : metrics.records())
        violations += r.latency() > threshold ? 1 : 0;

    m.p50LatencyS = metrics.latencyPercentile(50.0);
    m.p99LatencyS = metrics.latencyPercentile(99.0);
    m.sloViolationShare = static_cast<double>(violations) / requests;
    m.throughputPerMin = result.throughputPerMin;
    m.hitRate = result.hitRate;
    m.energyJPerReq =
        result.energyJ / static_cast<double>(std::max<std::size_t>(
                             metrics.count(), 1));
    m.completedShare = static_cast<double>(counts.completedOnce) /
        requests;
    m.queueDelayP99S = queue.percentile(99.0);
    return m;
}

double
meanClipScore(const ServingResult &result)
{
    MODM_ASSERT(!result.images.empty() &&
                    result.images.size() == result.prompts.size(),
                "CLIP score needs the kept outputs");
    const modm::eval::MetricSuite suite;
    double sum = 0.0;
    for (std::size_t i = 0; i < result.images.size(); ++i)
        sum += suite.clipScore(result.prompts[i], result.images[i]);
    return sum / static_cast<double>(result.images.size());
}

double
median(std::vector<double> values)
{
    MODM_ASSERT(!values.empty(), "median of an empty sample");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
processCpuS()
{
    timespec ts = {};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
