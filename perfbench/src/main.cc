/**
 * @file
 * The repo benchmark binary: one workload, one seed, one process.
 *
 *   perfbench <workload.scn> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>]
 *
 * --trace 0 measures the end-to-end metrics with tracing off. It runs
 * the workload at kSubSeeds seeds derived from --seed (the first is
 * --seed itself), cycling through them until the time budget is spent;
 * each repetition builds the workload, constructs the system, warms it
 * and runs the trace. Host metrics are medians over every repetition
 * but the first, which warms the process; they count process CPU
 * seconds, not wall seconds, so time the host gives to other processes
 * does not count as the program's, and are scaled to the reference
 * host by reference passes timed between repetitions (reference.hh).
 * Virtual-clock metrics are medians over the sub-seeds, so one seed
 * whose trace happens to tip the cluster into a long backlog moves
 * neither.
 * A repeated sub-seed must reproduce its result digest. One more run
 * of the first sub-seed with keepOutputs on supplies the CLIP score and
 * must reproduce that sub-seed's virtual-clock results exactly.
 *
 * --trace 1 measures the per-layer metrics: it alternates untraced and
 * traced runs (both keeping outputs, so their result digests must be
 * equal), reads layer counts from the traced run's stats accessors and
 * event log, and runs the layer probes (probes.hh). The span file is
 * written when the run ends.
 *
 * Both modes check their own outputs and exit 1 when a check fails.
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics (name -> {value, unit}).
 */

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "probes.hh"
#include "reference.hh"
#include "runs.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"

using namespace perfbench;

namespace {

/** Workload instances per end-to-end run (see the file comment). */
constexpr int kSubSeeds = 9;
/** Untraced/traced pairs made even when the budget is spent. */
constexpr int kMinPairs = 2;
constexpr int kMaxReps = 64;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::string spans;
};

[[noreturn]] void
usage()
{
    modm::fatal("usage: perfbench <workload.scn> --seed <n> "
                "--seconds <s> --trace <0|1> [--spans <path>]");
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const bool hasValue = i + 1 < argc;
        if (flag == "--seed" && hasValue) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (flag == "--seconds" && hasValue) {
            args.seconds = std::strtod(argv[++i], nullptr);
        } else if (flag == "--trace" && hasValue) {
            args.trace = std::atoi(argv[++i]);
        } else if (flag == "--spans" && hasValue) {
            args.spans = argv[++i];
        } else if (flag.rfind("--", 0) != 0 && args.workload.empty()) {
            args.workload = flag;
        } else {
            usage();
        }
    }
    if (args.workload.empty() || args.seconds <= 0.0 ||
        (args.trace != 0 && args.trace != 1))
        usage();
    return args;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Failed checks, each printed to stderr as it is found. */
struct Checks
{
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    expect(bool ok, const std::string &what)
    {
        if (ok)
            return;
        std::fprintf(stderr, "check failed: %s\n", what.c_str());
        failures.push_back(what);
    }

    /** Every trace request completed exactly once. */
    void
    countRequests(const Rep &rep)
    {
        attempted += rep.counts.requests;
        failed += rep.counts.requests - rep.counts.completedOnce;
        expect(rep.counts.completedOnce == rep.counts.requests,
               "every trace request completes exactly once");
    }
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

bool
sameSim(const SimMetrics &a, const SimMetrics &b)
{
    return std::memcmp(&a, &b, sizeof(SimMetrics)) == 0;
}

/** Seed of sub-seed `i` of an end-to-end run; sub-seed 0 is `seed`. */
std::uint64_t
subSeed(std::uint64_t seed, int i)
{
    return i == 0 ? seed
                  : modm::mix64(seed * kSubSeeds +
                                static_cast<std::uint64_t>(i));
}

Workload
reseeded(Workload workload, std::uint64_t seed)
{
    workload.scenario.seed = seed;
    return workload;
}

/** Field-wise median of the sub-seeds' virtual-clock metrics. */
SimMetrics
medianSim(const std::vector<SimMetrics> &sims)
{
    const auto med = [&sims](double SimMetrics::*field) {
        std::vector<double> values;
        for (const auto &s : sims)
            values.push_back(s.*field);
        return median(values);
    };
    SimMetrics m;
    m.p50LatencyS = med(&SimMetrics::p50LatencyS);
    m.p99LatencyS = med(&SimMetrics::p99LatencyS);
    m.sloViolationShare = med(&SimMetrics::sloViolationShare);
    m.throughputPerMin = med(&SimMetrics::throughputPerMin);
    m.hitRate = med(&SimMetrics::hitRate);
    m.energyJPerReq = med(&SimMetrics::energyJPerReq);
    m.completedShare = med(&SimMetrics::completedShare);
    m.queueDelayP99S = med(&SimMetrics::queueDelayP99S);
    return m;
}

/** --trace 0: the end-to-end metrics. */
std::vector<Metric>
endToEnd(const Workload &workload, const Args &args, SpanLog &spans,
         Checks &checks)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> setup;
    std::vector<double> reqPerHostS;
    std::vector<SimMetrics> sims(kSubSeeds);
    std::vector<std::uint64_t> digests(kSubSeeds);
    // Reference passes after each repetition (reference.hh), two at a
    // time to spend more of the run on them without more forks.
    std::vector<double> reference;
    std::uint64_t referenceChecksum = 0;
    const auto measureReference = [&] {
        for (int k = 0; k < 2; ++k) {
            const ReferencePass pass = referencePass();
            if (reference.empty())
                referenceChecksum = pass.checksum;
            checks.expect(pass.checksum == referenceChecksum,
                          "every reference pass computes the same result");
            reference.push_back(pass.cpuS);
        }
    };
    double meanRepS = 0.0;
    for (int reps = 0; reps < kMaxReps; ++reps) {
        if (reps >= kSubSeeds &&
            secondsSince(start) + meanRepS > args.seconds)
            break;
        const int i = reps % kSubSeeds;
        const Rep rep = runRep(reseeded(workload, subSeed(args.seed, i)),
                               {}, spans);
        checks.countRequests(rep);
        // The first repetition warms the process (heap growth, first
        // page faults, lazy initialisation) and is not timed.
        if (reps > 0) {
            setup.push_back(rep.setupCpuS);
            reqPerHostS.push_back(
                static_cast<double>(rep.result.metrics.count()) /
                rep.runCpuS);
        }
        if (reps < kSubSeeds) {
            sims[i] = simMetrics(rep.config, rep.result, rep.counts);
            digests[i] = rep.digest;
        } else {
            checks.expect(rep.digest == digests[i],
                          "a repeated seed reproduces its result digest");
        }
        measureReference();
        meanRepS = secondsSince(start) / (reps + 1);
    }
    const double peakRss = peakRssMiB();
    const auto sim = medianSim(sims);
    // Measured CPU seconds -> reference-host seconds.
    const double toReference = kReferenceS / median(reference);

    const Rep quality = runRep(workload, {true, false}, spans);
    checks.countRequests(quality);
    checks.expect(sameSim(simMetrics(quality.config, quality.result,
                                     quality.counts),
                          sims[0]),
                  "the keepOutputs run reproduces the timed run's sim "
                  "metrics");
    const double clip = timed(spans, "clip_score", [&] {
        return meanClipScore(quality.result);
    });

    std::string digestText;
    for (const auto d : digests)
        digestText += hex(d);
    std::printf("sim_digest %s %s\n", workload.name.c_str(),
                hex(modm::workload::fnv1a64(digestText)).c_str());
    std::printf("outputs_digest %s %s\n", workload.name.c_str(),
                hex(quality.digest).c_str());
    std::printf("timed_reps %zu\n", setup.size());
    // The host metrics as measured, before scaling to the reference.
    std::printf("host_cpu req_per_s %.17g setup_s %.17g reference_s "
                "%.17g\n",
                median(reqPerHostS), median(setup), median(reference));
    // The complements of two reported shares, which are 0 or close to
    // it and so carry no relative bound.
    std::printf("requests_failed_share %.17g\n", 1.0 - sim.completedShare);
    std::printf("sim_slo_violation_share %.17g\n", sim.sloViolationShare);
    return {
        {"sim_req_per_host_s", median(reqPerHostS) / toReference,
         "req/s"},
        {"setup_s", median(setup) * toReference, "s"},
        {"peak_rss_mb", peakRss, "MiB"},
        {"requests_completed_share", sim.completedShare, "share"},
        {"sim_p50_latency_s", sim.p50LatencyS, "sim_s"},
        {"sim_p99_latency_s", sim.p99LatencyS, "sim_s"},
        {"sim_slo_attainment_share", 1.0 - sim.sloViolationShare, "share"},
        {"sim_throughput_per_min", sim.throughputPerMin, "req/sim_min"},
        {"sim_hit_rate", sim.hitRate, "share"},
        {"sim_energy_j_per_req", sim.energyJPerReq, "J/req"},
        {"sim_clip_score", clip, "score"},
    };
}

/** --trace 1: the per-layer metrics. */
std::vector<Metric>
perLayer(const Workload &workload, const Args &args, SpanLog &spans,
         Checks &checks)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<double> untracedS, tracedS, workloadS, systemS, warmS;
    Rep traced;
    ProbeReport probes;
    double meanPairS = 0.0;
    for (int pairs = 0; pairs < kMaxReps / 2; ++pairs) {
        if (pairs >= kMinPairs &&
            secondsSince(start) + meanPairS > args.seconds)
            break;
        Rep plain = runRep(workload, {true, false}, spans);
        checks.countRequests(plain);
        untracedS.push_back(plain.runS);
        workloadS.push_back(plain.workloadS);
        systemS.push_back(plain.systemS);
        warmS.push_back(plain.warmS);

        // The first traced run also feeds the probes, while its
        // system is still alive.
        const bool probe = pairs == 0;
        Rep rep = runRep(
            workload, {true, true}, spans,
            [&](const modm::serving::ServingSystem &system,
                const modm::workload::ScenarioWorkload &built,
                const modm::serving::ServingResult &result) {
                if (probe)
                    probes = runProbes(system, built, result, spans);
            });
        checks.countRequests(rep);
        tracedS.push_back(rep.runS);
        checks.expect(rep.digest == plain.digest,
                      "the traced run's result digest equals the "
                      "untraced run's");
        if (probe) {
            std::printf("outputs_digest %s %s\n", workload.name.c_str(),
                        hex(plain.digest).c_str());
            traced = std::move(rep);
        }
        meanPairS = secondsSince(start) / (pairs + 1);
    }
    checks.expect(probes.encodeMismatches == 0,
                  "the encode probe is bit-equal to the run's text "
                  "tower");
    checks.expect(probes.recallAt1 == 1.0,
                  "every retrieve probe agrees with the exhaustive scan");

    const auto &c = traced.counts;
    const auto &result = traced.result;
    const double runS = median(untracedS);
    const double us = 1e-6 / runS; // one microsecond as a share of the run
    const double encodeShare = c.classified * probes.encodeUs * us;
    const double retrieveShare = c.lookups * probes.retrieveUs * us;
    const double sampleShare = (c.generateCalls * probes.generateUs +
                                c.refineCalls * probes.refineUs) *
        us;
    const double admitShare = c.insertions * probes.admitUs * us;
    const double dispatchShare = c.simEvents * probes.dispatchNs * 1e-3 * us;
    const double routeShare = c.routed * probes.routeNs * 1e-3 * us;
    const auto sim = simMetrics(traced.config, result, c);
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };

    std::printf("layer_split %s retrieve=%.3f sample+encode=%.3f "
                "dispatch=%.3f admit=%.3f route=%.3f\n",
                workload.name.c_str(), retrieveShare,
                sampleShare + encodeShare, dispatchShare, admitShare,
                routeShare);
    return {
        {"workload.build_s", median(workloadS), "s"},
        {"system.build_s", median(systemS), "s"},
        {"warm.s", median(warmS), "s"},
        {"run.s", runS, "s"},
        {"encode.us_per_call", probes.encodeUs, "us"},
        {"encode.share", encodeShare, "share"},
        {"retrieve.us_per_call", probes.retrieveUs, "us"},
        {"retrieve.calls", u(c.lookups), "count"},
        {"retrieve.rows_per_call", probes.retrieveRows, "rows"},
        {"retrieve.share", retrieveShare, "share"},
        {"retrieve.recall_at1", probes.recallAt1, "share"},
        {"classify.us_per_call", probes.classifyUs, "us"},
        {"scheduler.hits", u(c.hits), "count"},
        {"scheduler.misses", u(c.misses), "count"},
        {"scheduler.direct_returns", u(c.directReturns), "count"},
        {"kdecide.mean_k", result.metrics.meanK(), "steps"},
        {"sample.generate_us", probes.generateUs, "us"},
        {"sample.refine_us", probes.refineUs, "us"},
        {"sample.generate_calls", u(c.generateCalls), "count"},
        {"sample.refine_calls", u(c.refineCalls), "count"},
        {"sample.share", sampleShare, "share"},
        {"cache.insertions", u(c.insertions), "count"},
        {"cache.evictions", u(c.evictions), "count"},
        {"cache.hits_per_insert",
         c.insertions == 0 ? 0.0 : u(c.hits) / u(c.insertions), "ratio"},
        {"cache.occupancy_end", u(c.occupancyEnd), "entries"},
        {"admit.us_per_call", probes.admitUs, "us"},
        {"admit.share", admitShare, "share"},
        {"sim.events", u(c.simEvents), "count"},
        {"dispatch.ns_per_event", probes.dispatchNs, "ns"},
        {"host_us_per_event",
         c.simEvents == 0 ? 0.0 : runS * 1e6 / u(c.simEvents), "us"},
        {"dispatch.share", dispatchShare, "share"},
        {"route.ns_per_call", probes.routeNs, "ns"},
        {"route.share", routeShare, "share"},
        {"router.load_imbalance", result.loadImbalance, "ratio"},
        {"fault.rerouted", u(result.failover.rerouted), "count"},
        {"fault.recovery_s", result.failover.hitRateRecoveryS, "sim_s"},
        {"worker.model_switches", u(result.modelSwitches), "count"},
        {"sim.queue_delay_p99_s", sim.queueDelayP99S, "sim_s"},
        {"trace.overhead_share", (median(tracedS) - runS) / runS, "share"},
        {"layers.accounted_share",
         encodeShare + retrieveShare + sampleShare + admitShare +
             dispatchShare + routeShare,
         "share"},
    };
}

void
printResult(const std::vector<Metric> &metrics, Checks &checks)
{
    for (const auto &m : metrics) {
        checks.expect(std::isfinite(m.value),
                      "metric " + m.name + " is a finite number");
        std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                checks.failures.empty() ? "true" : "false",
                checks.attempted, checks.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto &m = metrics[i];
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    // The untraced runs must be untraced: the env debugging override
    // would otherwise switch the tracer on.
    unsetenv("MODM_TRACE");

    const Workload workload = loadWorkload(args.workload, args.seed);
    SpanLog spans;
    Checks checks;
    const auto metrics = args.trace == 0
        ? endToEnd(workload, args, spans, checks)
        : perLayer(workload, args, spans, checks);
    if (!args.spans.empty()) {
        checks.expect(spans.write(args.spans, workload.name),
                      "span file " + args.spans + " is written");
        std::printf("spans %s %zu\n", args.spans.c_str(),
                    spans.spans().size());
    }
    printResult(metrics, checks);
    return checks.failures.empty() ? 0 : 1;
}
