/**
 * @file
 * A fixed reference workload that measures how fast the host runs at
 * the moment.
 *
 * The benchmark shares a host whose speed drifts by up to 30% over minutes
 * as other tenants load its memory system and cores; every host time
 * the benchmark takes, set-up and run alike, drifts with it. The
 * reference workload is owned by the benchmark and uses no code from
 * src/, so a change to the serving stack never changes it. Timing it
 * between repetitions tells how fast the host was during the run;
 * scaling the run's host times by it removes part of the drift (see
 * "Host speed" in README.md), while a program that gets faster still
 * reads faster by the same factor.
 *
 * It mixes the kinds of work the serving stack spends its time on:
 * dense float arithmetic on data in a core's own caches (text and image
 * towers, sampler), dot-product scans over rows that do not fit in a
 * core's L2 cache (cache retrieval), and scattered integer updates of a
 * table (RNG and cache bookkeeping).
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>

namespace perfbench {

/**
 * CPU seconds of one pass on the reference host. Host metrics are
 * reported in seconds of that host: a measured time t becomes
 * t * kReferenceS / (median pass time in the same run). The value is
 * the median pass time on the shared 4-core x86-64 host the benchmark
 * was written on, so reported and measured times are close there.
 */
constexpr double kReferenceS = 0.036;

/** One timed pass of the reference workload. */
struct ReferencePass
{
    /** CPU seconds the pass took. */
    double cpuS = 0.0;
    /** Checksum of the pass's results; equal on every pass. */
    std::uint64_t checksum = 0;
};

/**
 * Run the reference workload once, in a child process that this call
 * waits for, so its buffers add nothing to this process's memory or
 * heap.
 */
ReferencePass referencePass();

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
