#include "src/cache/image_cache.hh"

namespace modm::cache {

namespace {

/**
 * Image-cache utility is the hit count with mild recency weighting, so
 * ties among equally-hit images evict the least recently hit.
 */
constexpr double kRecencyWeight = 0.001;

} // namespace

ImageCache::ImageCache(std::size_t capacity, EvictionPolicy policy,
                       embedding::ImageEncoderConfig encoder_config,
                       std::uint64_t seed,
                       embedding::RetrievalBackendConfig retrieval)
    : EmbeddingCache(capacity, policy, kRecencyWeight, encoder_config.dim,
                     seed, retrieval),
      encoder_(encoder_config)
{
}

void
ImageCache::insert(const diffusion::Image &image, double now)
{
    admit(image, encoder_.encode(image.content, image.fidelity, image.id),
          image.byteSize, now);
}

} // namespace modm::cache
