/**
 * @file
 * Nirvana-style latent cache (the paper's primary caching baseline,
 * §2.2).
 *
 * Nirvana stores *intermediate latent representations* of previous
 * generations at several de-noising depths, retrieves by text-to-text
 * similarity between prompt embeddings, and skips the first k steps of
 * the large model. Consequences the paper calls out, all modelled here:
 *
 *  - storage is ~2.5 MB per image (multiple latents) vs 1.4 MB for a
 *    final image;
 *  - latents are model-specific: entries record the producing model and
 *    retrieval rejects mismatched models (cache fragmentation);
 *  - text-to-text retrieval has no visual grounding, so thresholds are
 *    high (0.65-0.95 band) and selected k values are conservative,
 *    capping the end-to-end saving near 20 %.
 *
 * Pinecone's text-keyed image cache is the same structure with one
 * threshold and k = 0. Storage, retrieval, and sampled utility
 * eviction live in the EmbeddingCache core; this layer adds the model
 * check and the threshold -> k mapping.
 */

#ifndef MODM_CACHE_LATENT_CACHE_HH
#define MODM_CACHE_LATENT_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/cache/embedding_cache.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/vector_index.hh"

namespace modm::cache {

/** Bytes of one multi-k latent set (paper §3.1: ~2.5 MB per image). */
constexpr double kLatentSetBytes = 2.5e6;

/** Nirvana text-to-text threshold -> k mapping. */
struct NirvanaThresholds
{
    /** Minimum text-to-text similarity for any hit. */
    double hitThreshold = 0.82;
    /**
     * Similarity floors for increasing k, parallel to kValues. The
     * highest floor not exceeding the observed similarity decides k.
     * Conservative: text-to-text similarity has no visual grounding,
     * so Nirvana cannot risk large skips (the root of its ~20 % cap).
     */
    std::vector<double> similarityFloors = {0.82, 0.90, 0.96};
    /** k values available in the cached latent sets. */
    std::vector<int> kValues = {5, 10, 15};
};

/** Result of a latent-cache lookup. */
struct LatentHit
{
    bool found = false;
    std::uint64_t entryId = 0;
    /** Text-to-text similarity of the match. */
    double similarity = -1.0;
    /** De-noising steps to skip, per the threshold mapping. */
    int k = 0;
    /** True when compared against an exhaustive scan (recall@1). */
    bool exactChecked = false;
    /** When checked: did the backend return the exact best entry? */
    bool exactAgreed = false;
};

/**
 * Fixed-capacity latent cache keyed by prompt text embeddings, with
 * sampled utility eviction by hit count (Nirvana's policy).
 */
class LatentCache : public EmbeddingCache
{
  public:
    /**
     * @param capacity Maximum number of cached latent sets.
     * @param model_name The single model this cache serves.
     * @param thresholds Similarity -> k mapping.
     * @param seed Seed for sampled utility eviction.
     * @param retrieval Retrieval-backend selection and tuning; the
     *        default is the exact flat scan.
     */
    LatentCache(std::size_t capacity, std::string model_name,
                NirvanaThresholds thresholds = {},
                std::uint64_t seed = 1,
                embedding::RetrievalBackendConfig retrieval = {});

    /**
     * Cache the latents of a finished generation. Images from other
     * models are rejected (model dependence) and counted.
     */
    void insert(const diffusion::Image &image,
                const embedding::Embedding &text_embedding, double now);

    /**
     * Look up by the *text* embedding of a new prompt; applies the hit
     * threshold and decides k. Hides the core's thresholdless
     * EmbeddingCache::retrieve.
     */
    LatentHit retrieve(const embedding::Embedding &query_text) const;

    /** Number of inserts rejected due to model mismatch. */
    std::uint64_t rejectedInserts() const { return rejectedInserts_; }

    /** The threshold table in use. */
    const NirvanaThresholds &thresholds() const { return thresholds_; }

  private:
    std::string modelName_;
    NirvanaThresholds thresholds_;
    std::uint64_t rejectedInserts_ = 0;
};

} // namespace modm::cache

#endif // MODM_CACHE_LATENT_CACHE_HH
