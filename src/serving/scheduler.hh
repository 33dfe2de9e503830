/**
 * @file
 * Request Scheduler (paper §4.2, §5.2): classifies incoming requests
 * into cache hits and misses, performs retrieval and k-selection, and
 * maintains cache content as generations complete.
 *
 * The scheduler owns the text tower (the paper hosts a CLIP model in the
 * scheduler process) and the system's one cache: MoDM's image cache, or
 * — when running the Nirvana or Pinecone baseline — the text-keyed
 * latent cache.
 */

#ifndef MODM_SERVING_SCHEDULER_HH
#define MODM_SERVING_SCHEDULER_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/cache/image_cache.hh"
#include "src/cache/latent_cache.hh"
#include "src/common/sampled_vector.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/encoder.hh"
#include "src/serving/config.hh"
#include "src/serving/k_decision.hh"
#include "src/workload/prompt.hh"

namespace modm::serving {

/** A classified request ready for queueing/dispatch. */
struct ClassifiedJob
{
    workload::Request request;
    embedding::Embedding textEmbedding;
    /** True when served from cache (refinement or direct return). */
    bool hit = false;
    /** True when the cached image is returned without refinement. */
    bool direct = false;
    /** Steps to skip when refining. */
    int k = 0;
    /** Retrieval similarity (text-to-image for MoDM, text-to-text
     *  for Nirvana/Pinecone); -1 on miss. */
    double similarity = -1.0;
    /** Copy of the retrieved image (valid when hit). */
    diffusion::Image base;
    /** Classification timestamp. */
    double classifiedAt = 0.0;
};

/** Aggregate scheduler counters. */
struct SchedulerStats
{
    std::uint64_t classified = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t directReturns = 0;
    std::map<int, std::uint64_t> kCounts;
    /**
     * Retrievals compared against an exhaustive scan (approximate
     * backends with recall tracking on; 0 under the exact default).
     */
    std::uint64_t retrievalChecked = 0;
    /** Checked retrievals that returned the exact best entry. */
    std::uint64_t retrievalAgreed = 0;

    /** Observed recall@1; 1.0 when nothing was checked (exact). */
    double recallAt1() const
    {
        return retrievalChecked == 0
            ? 1.0
            : static_cast<double>(retrievalAgreed) /
                static_cast<double>(retrievalChecked);
    }
};

/**
 * The request scheduler. Behaviour varies with the configured
 * SystemKind, so one implementation serves MoDM and every baseline.
 */
class RequestScheduler
{
  public:
    /** Construct per the experiment configuration. */
    explicit RequestScheduler(const ServingConfig &config);

    /**
     * Classify a request at simulated time `now`: embed the prompt,
     * retrieve from the appropriate cache, apply thresholds, select k.
     */
    ClassifiedJob classify(const workload::Request &request, double now);

    /**
     * Pre-size the system's cache for an expected number of entries —
     * the warm-up phase calls this so bulk admission avoids index
     * reallocation and rehash churn.
     */
    void reserveCache(std::size_t expected);

    /**
     * Re-bound the system's cache to a new shard capacity; shrinking
     * evicts down under the shard's own eviction policy. Scripted knob
     * changes land here.
     */
    void setCacheCapacity(std::size_t capacity);

    /**
     * Admit a finished generation to the cache per the system's
     * admission policy.
     *
     * @param image The generated image.
     * @param text_embedding Text embedding of the producing prompt.
     * @param from_miss True when the image came from a cache miss
     *        (i.e., was produced by the large model from scratch).
     * @param now Simulated time.
     */
    void admitGenerated(const diffusion::Image &image,
                        const embedding::Embedding &text_embedding,
                        bool from_miss, double now);

    /**
     * The system's cache core: MoDM's image cache or the text-keyed
     * cache of Nirvana/Pinecone; null for Vanilla/StandaloneSmall.
     * Retrieval knobs are set on its index() directly.
     */
    cache::EmbeddingCache *cache() { return cache_.get(); }

    /** Const cache-core access. */
    const cache::EmbeddingCache *cache() const { return cache_.get(); }

    /** MoDM image cache (null for other kinds). */
    cache::ImageCache *imageCache() { return imageCache_; }

    /** Const image-cache access. */
    const cache::ImageCache *imageCache() const { return imageCache_; }

    /** Nirvana/Pinecone text-keyed cache (null for other kinds). */
    cache::LatentCache *latentCache() { return latentCache_; }

    /** Const latent-cache access. */
    const cache::LatentCache *latentCache() const { return latentCache_; }

    /** Text tower. */
    const embedding::TextEncoder &textEncoder() const { return text_; }

    /** The k-decision table. */
    const KDecision &kDecision() const { return kDecision_; }

    /** Counters. */
    const SchedulerStats &stats() const { return stats_; }

    /**
     * Ages (seconds between retrieval and the retrieved image's
     * creation) of every cache hit — the Fig. 15 temporal-locality
     * data. Bounded by ServingConfig::maxTelemetrySamples via
     * deterministic stride downsampling (unbounded by default).
     */
    const std::vector<double> &hitAges() const
    {
        return hitAges_.items();
    }

    /** Total hit-age samples observed (retained + downsampled away). */
    std::uint64_t hitAgesSeen() const { return hitAges_.seen(); }

    /**
     * Drop all cached content: a killed node's shard dies with it, so
     * a rejoin starts cold. Aggregate counters survive — they are run
     * telemetry, not cache state.
     */
    void clearCaches();

  private:
    SystemKind kind_;
    double pineconeThreshold_;
    embedding::TextEncoder text_;
    KDecision kDecision_;
    AdmissionPolicy admission_;
    std::unique_ptr<cache::EmbeddingCache> cache_;
    /** Typed views of cache_ (at most one is set). */
    cache::ImageCache *imageCache_ = nullptr;
    cache::LatentCache *latentCache_ = nullptr;
    SchedulerStats stats_;
    SampledVector<double> hitAges_;
};

} // namespace modm::serving

#endif // MODM_SERVING_SCHEDULER_HH
