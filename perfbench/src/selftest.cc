/**
 * @file
 * Self-test of the benchmark's own code: the probes return what the
 * layers return, and the seed reaches the workload.
 *
 *   perfbench_selftest <workload.scn>...
 *
 * For each workload file, at a reduced trace size:
 *  - the same seed reproduces the result digest, another seed changes
 *    it (Scenario::seed is applied before the workload is built);
 *  - the encode probe is bit-equal to TextEncoder::encode;
 *  - the retrieve probe returns the entry an exhaustive scan finds, and
 *    the oracle comparison rejects a wrong entry;
 *  - the full probe pass over a traced run agrees with its oracles.
 * Exits 1 when any check fails.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "probes.hh"
#include "runs.hh"
#include "src/diffusion/sampler.hh"
#include "src/serving/scenario_exec.hh"

using namespace perfbench;

namespace {

int failures = 0;
int passed = 0;

void
check(bool ok, const std::string &what)
{
    if (ok) {
        ++passed;
        return;
    }
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
}

/** A workload shrunk so a self-test run takes well under a second. */
Workload
small(const std::string &path, std::uint64_t seed)
{
    Workload w = loadWorkload(path, seed);
    w.scenario.requests = 400;
    w.scenario.duration = 0.0;
    w.scenario.warm = std::min<std::size_t>(w.scenario.warm, 300);
    return w;
}

void
seedReachesWorkload(const std::string &path)
{
    SpanLog spans;
    const auto a = runRep(small(path, 1), {}, spans);
    const auto again = runRep(small(path, 1), {}, spans);
    const auto b = runRep(small(path, 2), {}, spans);
    check(a.digest == again.digest, path + ": a seed reproduces its digest");
    check(a.digest != b.digest, path + ": another seed changes the digest");
    check(a.counts.completedOnce == a.counts.requests,
          path + ": every request completes once");
}

void
probesMatchLayers(const std::string &path)
{
    SpanLog spans;
    const Workload w = small(path, 3);
    const auto built = modm::workload::buildScenarioWorkload(w.scenario);
    auto config = modm::serving::scenarioCellConfig(w.scenario, w.cell);

    // Encode: bit-equal to a fresh tower.
    const modm::embedding::TextEncoder encoder(config.textEncoder);
    const modm::embedding::TextEncoder reference(config.textEncoder);
    bool encodeEqual = true;
    for (const auto &r : built.trace) {
        const auto probed = probeEncode(encoder, r.prompt, spans);
        const auto direct = reference.encode(
            r.prompt.visualConcept, r.prompt.lexicalStyle, r.prompt.text);
        encodeEqual = encodeEqual && probed.dim() == direct.dim() &&
            std::memcmp(probed.vec().data(), direct.vec().data(),
                        probed.dim() * sizeof(float)) == 0;
    }
    check(encodeEqual, path + ": encode probe is bit-equal to encode()");

    // Retrieve: a scheduler filled with the warm prompts' generations,
    // queried with the trace prompts, against the exhaustive scan.
    config.cacheCapacity = 256;
    config.latentCacheCapacity = 256;
    modm::serving::RequestScheduler scheduler(config);
    modm::diffusion::Sampler sampler(config.seed);
    std::vector<std::uint64_t> ids;
    for (const auto &prompt : built.warm) {
        const auto image = sampler.generate(config.largeModel, prompt, 0.0);
        scheduler.admitGenerated(
            image,
            encoder.encode(prompt.visualConcept, prompt.lexicalStyle,
                           prompt.text),
            true, 0.0);
        ids.push_back(image.id);
    }
    bool agree = true;
    bool rejectsWrong = true;
    std::size_t hits = 0;
    for (const auto &r : built.trace) {
        const auto query = encoder.encode(
            r.prompt.visualConcept, r.prompt.lexicalStyle, r.prompt.text);
        const auto layer = probeRetrieve(scheduler, query, spans);
        const auto oracle = bruteForce(scheduler, ids, query);
        agree = agree && lookupAgrees(scheduler, layer, oracle, query);
        if (!layer.found)
            continue;
        ++hits;
        // The worst cached entry is never an acceptable answer.
        Lookup worst = oracle;
        double worstSim = 2.0;
        for (const auto id : ids) {
            const auto one = bruteForce(scheduler, {id}, query);
            if (one.found && one.similarity < worstSim) {
                worstSim = one.similarity;
                worst = {true, id, one.similarity};
            }
        }
        if (worst.id != oracle.id)
            rejectsWrong = rejectsWrong &&
                !lookupAgrees(scheduler, worst, oracle, query);
    }
    check(hits > 0, path + ": the retrieve probe finds cached entries");
    check(agree, path + ": retrieve probe matches the exhaustive scan");
    check(rejectsWrong, path + ": the oracle rejects a wrong entry");

    // The full probe pass over a traced run.
    SpanLog probeSpans;
    ProbeReport report;
    runRep(w, {true, true}, probeSpans,
           [&](const modm::serving::ServingSystem &system,
               const modm::workload::ScenarioWorkload &workload,
               const modm::serving::ServingResult &result) {
               report = runProbes(system, workload, result, probeSpans);
           });
    check(report.encodeMismatches == 0,
          path + ": probe pass encodes bit-equal to the run's tower");
    check(report.recallAt1 == 1.0,
          path + ": probe pass retrieves what the exhaustive scan finds");
    check(report.dispatchNs > 0.0 && report.encodeUs > 0.0,
          path + ": probe pass measures dispatch and encode");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: perfbench_selftest <workload.scn>...\n");
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        seedReachesWorkload(argv[i]);
        probesMatchLayers(argv[i]);
    }
    std::printf("selftest: %d checks passed, %d failed\n", passed,
                failures);
    return failures == 0 ? 0 : 1;
}
