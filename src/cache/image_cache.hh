/**
 * @file
 * MoDM's final-image cache (paper §3.1, §5.4).
 *
 * The cache stores *final generated images* plus their CLIP image
 * embeddings — the model-agnostic design that lets any diffusion model
 * family consume cached content. Retrieval is text-to-image cosine
 * similarity (paper Eq. 1) over the embedding index. Storage,
 * retrieval, and the FIFO/LRU/Utility eviction policies live in the
 * EmbeddingCache core; this layer adds the image tower that produces
 * the key.
 */

#ifndef MODM_CACHE_IMAGE_CACHE_HH
#define MODM_CACHE_IMAGE_CACHE_HH

#include <cstdint>

#include "src/cache/embedding_cache.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/encoder.hh"
#include "src/embedding/vector_index.hh"

namespace modm::cache {

/** Fixed-capacity image cache keyed by CLIP image embeddings. */
class ImageCache : public EmbeddingCache
{
  public:
    /**
     * @param capacity Maximum number of cached images.
     * @param policy Eviction policy.
     * @param encoder_config Image-tower configuration for embedding
     *        inserted images.
     * @param seed Seed for sampled utility eviction.
     * @param retrieval Retrieval-backend selection and tuning; the
     *        default is the exact flat scan.
     */
    ImageCache(std::size_t capacity, EvictionPolicy policy,
               embedding::ImageEncoderConfig encoder_config = {},
               std::uint64_t seed = 1,
               embedding::RetrievalBackendConfig retrieval = {});

    /**
     * Insert an image at simulated time `now`, embedding it with the
     * image tower and evicting per policy when full.
     */
    void insert(const diffusion::Image &image, double now);

  private:
    embedding::ImageEncoder encoder_;
};

} // namespace modm::cache

#endif // MODM_CACHE_IMAGE_CACHE_HH
