/**
 * @file
 * Layer probes: host cost per call of each serving layer, measured from
 * outside the program. After a traced run, the benchmark rebuilds each
 * layer from the run's node-local config, feeds it the workload's own
 * generated inputs, and wraps every call into the layer's public
 * function in a span (probe calls that cost tens of nanoseconds —
 * event dispatch and routing — are timed as one span per batch, since
 * two clock reads would cost as much as the call). The per-call cost is
 * the median over those spans, so a burst of host noise during one
 * probe does not inflate it; a layer's share of the run is
 * calls x cost per call / run host time.
 *
 * Every probe returns what the layer returns, so a self-test can hold
 * it against an independent oracle: the retrieve probe against an
 * exhaustive double-precision scan, the encode probe bit-for-bit
 * against TextEncoder::encode.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <cstdint>
#include <vector>

#include "spans.hh"
#include "src/embedding/encoder.hh"
#include "src/serving/scheduler.hh"
#include "src/serving/system.hh"
#include "src/workload/scenario.hh"

namespace perfbench {

/** A cache lookup as the scheduler's cache layer reports it. */
struct Lookup
{
    bool found = false;
    std::uint64_t id = 0;
    double similarity = -1.0;
};

/** TextEncoder::encode on one prompt, inside an "encode" span. */
modm::embedding::Embedding probeEncode(
    const modm::embedding::TextEncoder &encoder,
    const modm::workload::Prompt &prompt, SpanLog &spans);

/**
 * The scheduler's cache lookup (ImageCache::retrieve or
 * LatentCache::retrieve, whichever the system runs), inside a
 * "retrieve" span.
 */
Lookup probeRetrieve(const modm::serving::RequestScheduler &scheduler,
                     const modm::embedding::Embedding &query,
                     SpanLog &spans);

/**
 * Oracle: exhaustive scan in double precision over the cache rows of
 * `ids` that are still cached; ties go to the lower id.
 */
Lookup bruteForce(const modm::serving::RequestScheduler &scheduler,
                  const std::vector<std::uint64_t> &ids,
                  const modm::embedding::Embedding &query);

/**
 * True when the layer's lookup is what the exhaustive scan implies:
 * the same best entry (or one whose similarity ties the best within
 * float rounding), and — for the latent cache, which reports only
 * matches above its hit threshold — the same hit decision.
 */
bool lookupAgrees(const modm::serving::RequestScheduler &scheduler,
                  const Lookup &layer, const Lookup &oracle,
                  const modm::embedding::Embedding &query);

/** Per-call host cost of each layer, measured by the probes. */
struct ProbeReport
{
    double encodeUs = 0.0;
    double retrieveUs = 0.0;
    double classifyUs = 0.0;
    double generateUs = 0.0;
    double refineUs = 0.0;
    double admitUs = 0.0;
    double dispatchNs = 0.0;
    double routeNs = 0.0;
    /** Cache rows the retrieve probe scanned per call. */
    double retrieveRows = 0.0;
    /** Share of retrieve probes that agreed with the oracle. */
    double recallAt1 = 1.0;
    /** Encode probes not bit-equal to the run's own text tower. */
    std::uint64_t encodeMismatches = 0;
};

/**
 * Probe every layer of a finished run. `system` is the system that
 * produced `result` from `workload`; its node 0 config and final
 * shard occupancy set up the probed layers.
 */
ProbeReport runProbes(const modm::serving::ServingSystem &system,
                      const modm::workload::ScenarioWorkload &workload,
                      const modm::serving::ServingResult &result,
                      SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
