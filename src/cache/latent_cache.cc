#include "src/cache/latent_cache.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::cache {

LatentCache::LatentCache(std::size_t capacity, std::string model_name,
                         NirvanaThresholds thresholds, std::uint64_t seed,
                         embedding::RetrievalBackendConfig retrieval)
    // Nirvana's utility is the hit count alone: recency weight 0.
    : EmbeddingCache(capacity, EvictionPolicy::Utility, 0.0,
                     embedding::kEmbeddingDim, seed, retrieval),
      modelName_(std::move(model_name)), thresholds_(std::move(thresholds))
{
    MODM_ASSERT(thresholds_.similarityFloors.size() ==
                thresholds_.kValues.size(),
                "threshold floors and k values must align");
    MODM_ASSERT(std::is_sorted(thresholds_.similarityFloors.begin(),
                               thresholds_.similarityFloors.end()),
                "similarity floors must be ascending");
}

void
LatentCache::insert(const diffusion::Image &image,
                    const embedding::Embedding &text_embedding, double now)
{
    if (image.modelName != modelName_) {
        // Latents are model-specific: content from other models cannot
        // populate this cache (the fragmentation MoDM avoids).
        ++rejectedInserts_;
        return;
    }
    admit(image, text_embedding, kLatentSetBytes, now);
}

LatentHit
LatentCache::retrieve(const embedding::Embedding &query_text) const
{
    // Recall accounting runs before thresholding: an approximate miss
    // of the exact best can also flip a hit into a miss.
    const RetrievalResult match = EmbeddingCache::retrieve(query_text);
    LatentHit hit;
    hit.exactChecked = match.exactChecked;
    hit.exactAgreed = match.exactAgreed;
    if (!match.found || match.similarity < thresholds_.hitThreshold)
        return hit;
    hit.found = true;
    hit.entryId = match.entryId;
    hit.similarity = match.similarity;
    hit.k = thresholds_.kValues.front();
    for (std::size_t i = 0; i < thresholds_.similarityFloors.size(); ++i) {
        if (match.similarity >= thresholds_.similarityFloors[i])
            hit.k = thresholds_.kValues[i];
    }
    return hit;
}

} // namespace modm::cache
