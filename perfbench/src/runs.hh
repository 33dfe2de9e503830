/**
 * @file
 * One benchmark repetition of a workload, and the metrics read from it.
 *
 * A workload is a scenario file with exactly one cell. A repetition
 * builds the scenario workload, constructs the ServingSystem, warms its
 * caches and replays the trace; each of those four public calls is a
 * span in the benchmark's SpanLog. Counts are read afterwards through
 * the public stats accessors (SchedulerStats, ImageCacheStats,
 * LatentCache, NodeStats, FailoverReport, MetricsCollector records and
 * the obs event log), never through timers inside src/.
 */

#ifndef PERFBENCH_RUNS_HH
#define PERFBENCH_RUNS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "spans.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"

namespace perfbench {

/** A parsed workload file with the benchmark seed applied. */
struct Workload
{
    std::string name;
    modm::workload::Scenario scenario;
    modm::workload::ScenarioCell cell;
};

/**
 * Load a workload file and set Scenario::seed to `seed` (before any
 * workload is built from it). Exits via fatal() on a malformed file or
 * a file with more than one cell.
 */
Workload loadWorkload(const std::string &path, std::uint64_t seed);

/** Layer counts of one run, read from public stats accessors. */
struct RunCounts
{
    /** Requests the trace held. */
    std::uint64_t requests = 0;
    /** Trace requests with exactly one completion record. */
    std::uint64_t completedOnce = 0;
    /** Scheduler classifications (one text encode each). */
    std::uint64_t classified = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t directReturns = 0;
    /** Cache retrievals during the run. */
    std::uint64_t lookups = 0;
    /** Cache insertions / evictions during the run (warm-up excluded). */
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /** Router deliveries (arrivals plus re-routed backlog). */
    std::uint64_t routed = 0;
    /** Sampler calls behind the completions. */
    std::uint64_t generateCalls = 0;
    std::uint64_t refineCalls = 0;
    /** Queue dispatches (0 unless the run recorded an event log). */
    std::uint64_t simEvents = 0;
    /** Entries cached across shards at run end. */
    std::uint64_t occupancyEnd = 0;
};

/** What one repetition leaves behind. */
struct Rep
{
    double workloadS = 0.0;
    double systemS = 0.0;
    double warmS = 0.0;
    double runS = 0.0;
    /**
     * Process CPU seconds of the set-up calls (workload, system, warm;
     * the benchmark's set-up time) and of run(). Unlike the wall-clock
     * spans above, these do not grow when the host preempts the process
     * or steals its core.
     */
    double setupCpuS = 0.0;
    double runCpuS = 0.0;
    /** The full config the cell ran with. */
    modm::serving::ServingConfig config;
    modm::serving::ServingResult result;
    RunCounts counts;
    /** FNV-1a 64 of serving::resultDigest(result). */
    std::uint64_t digest = 0;
};

/** How a repetition runs. */
struct RepOptions
{
    /** Keep (prompt, image) outputs (needed for the CLIP score). */
    bool keepOutputs = false;
    /** Record the obs event log (ServingConfig::trace.events). */
    bool traceEvents = false;
};

/** Called after run() while the system is still alive. */
using Inspect = std::function<void(
    const modm::serving::ServingSystem &,
    const modm::workload::ScenarioWorkload &,
    const modm::serving::ServingResult &)>;

/**
 * Run one repetition: buildScenarioWorkload, ServingSystem, warmCache,
 * run, each inside a span. `inspect` (optional) sees the finished
 * system before it is destroyed.
 */
Rep runRep(const Workload &workload, const RepOptions &options,
           SpanLog &spans, const Inspect &inspect = {});

/** Virtual-clock results of the modelled cluster (deterministic). */
struct SimMetrics
{
    double p50LatencyS = 0.0;
    double p99LatencyS = 0.0;
    double sloViolationShare = 0.0;
    double throughputPerMin = 0.0;
    double hitRate = 0.0;
    double energyJPerReq = 0.0;
    double completedShare = 0.0;
    double queueDelayP99S = 0.0;
};

/** SLO threshold: 2x the large model's full latency on the GPU. */
double sloThresholdS(const modm::serving::ServingConfig &config);

/** Read the virtual-clock metrics of a finished run. */
SimMetrics simMetrics(const modm::serving::ServingConfig &config,
                      const modm::serving::ServingResult &result,
                      const RunCounts &counts);

/** Mean CLIP score over the kept outputs (keepOutputs runs). */
double meanClipScore(const modm::serving::ServingResult &result);

/** Median of a non-empty sample (copies). */
double median(std::vector<double> values);

/** CPU seconds every thread of this process has used so far. */
double processCpuS();

/** Peak resident set of this process so far, in MiB. */
double peakRssMiB();

} // namespace perfbench

#endif // PERFBENCH_RUNS_HH
