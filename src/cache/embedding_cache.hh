/**
 * @file
 * The embedding-cache core under every cache in this repo.
 *
 * MoDM's image cache, NIRVANA's latent cache, and Pinecone's
 * text-keyed cache are the same structure: generated images stored
 * under an embedding key, retrieved by cosine similarity, and evicted
 * by an ordered or sampled policy. They differ only in which tower
 * produces the key and in what a match means (see ImageCache and
 * LatentCache, the thin layers on top of this core).
 *
 * The core owns:
 *  - the RowStore slab of key embeddings and the VectorIndex over them
 *    (the cache doubles as the index's RowSource, so quantized
 *    backends re-rank against exact rows at no extra memory);
 *  - the entry map and the insertion-order deque with lazy deletion;
 *  - the eviction policies:
 *     - FIFO: the paper's choice — a sliding window over recent
 *       generations, justified by the strong temporal locality of
 *       production traffic (>90 % of hits retrieve images generated
 *       within 4 h, Fig. 15) and by the diversity benefit of
 *       automatically expiring popular items.
 *     - LRU and Utility: provided for the cache-policy ablation and
 *       for NIRVANA. Utility eviction uses sampled eviction (candidate
 *       sampling, as production caches do) to stay O(1)-ish per
 *       insert.
 */

#ifndef MODM_CACHE_EMBEDDING_CACHE_HH
#define MODM_CACHE_EMBEDDING_CACHE_HH

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <unordered_map>

#include "src/common/rng.hh"
#include "src/common/row_store.hh"
#include "src/diffusion/image.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/vector_index.hh"

namespace modm::cache {

/** Cache eviction policy. */
enum class EvictionPolicy
{
    FIFO,     ///< sliding window (the paper's choice)
    LRU,      ///< least-recently-hit
    Utility,  ///< keep frequently-hit items (Nirvana-style utility)
};

/** Printable policy name. */
const char *policyName(EvictionPolicy policy);

/** One cached image plus retrieval metadata. */
struct CacheEntry
{
    diffusion::Image image;
    /** Slot of the key embedding in the cache's row slab. */
    RowStore::Slot embeddingSlot = 0;
    double insertTime = 0.0;
    double lastHitTime = 0.0;
    std::uint64_t hits = 0;
    /** Storage charged for the entry: the image, or a latent set. */
    double bytes = 0.0;
};

/** Result of a best-match lookup. */
struct RetrievalResult
{
    /** True when the cache is non-empty and a best match exists. */
    bool found = false;
    /** Best-match entry id (image id). */
    std::uint64_t entryId = 0;
    /** Cosine similarity of the best match. */
    double similarity = -1.0;
    /**
     * True when this lookup was compared against an exhaustive scan
     * (approximate backends with recall tracking on).
     */
    bool exactChecked = false;
    /** When checked: did the backend return the exact best entry? */
    bool exactAgreed = false;
};

/** Aggregate cache statistics; clear() keeps them (run telemetry). */
struct CacheStats
{
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hitsRecorded = 0;
    /** Times the insertion-order deque was compacted. */
    std::uint64_t orderCompactions = 0;
    /** Lookups compared against an exhaustive scan (recall@1). */
    std::uint64_t recallChecked = 0;
    /** Checked lookups where the backend matched the exact best. */
    std::uint64_t recallAgreed = 0;
};

/**
 * Fixed-capacity cache of images keyed by embedding. Layers add the
 * key tower and the public insert; everything else lives here.
 */
class EmbeddingCache : public embedding::RowSource
{
  public:
    /**
     * @param capacity Maximum number of cached entries.
     * @param policy Eviction policy.
     * @param recency_weight Utility eviction scores an entry as
     *        hits + recency_weight * lastHitTime.
     * @param dim Key embedding dimension.
     * @param seed Seed for sampled utility eviction.
     * @param retrieval Retrieval-backend selection and tuning.
     */
    EmbeddingCache(std::size_t capacity, EvictionPolicy policy,
                   double recency_weight, std::size_t dim,
                   std::uint64_t seed,
                   embedding::RetrievalBackendConfig retrieval);

    /** Pinned in place: the index holds `this` as its RowSource. */
    EmbeddingCache(const EmbeddingCache &) = delete;
    EmbeddingCache &operator=(const EmbeddingCache &) = delete;

    /**
     * Pre-size the entry map, retrieval index, and LRU bookkeeping for
     * `expected` entries (clamped to capacity). Called before warm-up
     * so bulk insertion pays neither repeated embedding-row
     * reallocation nor hash rehashing.
     */
    void reserve(std::size_t expected);

    /** Best match for a query embedding (no threshold applied). */
    RetrievalResult retrieve(const embedding::Embedding &query) const;

    /** Record that a retrieval was used (affects LRU/Utility order). */
    void recordHit(std::uint64_t entry_id, double now);

    /** Entry access; panics when absent. */
    const CacheEntry &entry(std::uint64_t entry_id) const;

    /** True when the id is cached. */
    bool contains(std::uint64_t entry_id) const
    {
        return entries_.count(entry_id) > 0;
    }

    /** Number of cached entries. */
    std::size_t size() const { return entries_.size(); }

    /** Capacity. */
    std::size_t capacity() const { return capacity_; }

    /**
     * Change the capacity mid-run (scripted knob change). Shrinking
     * evicts down to the new bound under the active eviction policy;
     * growing just raises the bound.
     */
    void setCapacity(std::size_t capacity);

    /** Total payload bytes of cached entries (storage accounting). */
    double storedBytes() const { return storedBytes_; }

    /** Statistics. */
    const CacheStats &stats() const { return stats_; }

    /**
     * Exact-row oracle over cached entries (RowSource): returns the
     * slab row in place — quantized backends re-rank against it with
     * zero copies (rowAccesses() counts the handed-out pointers so
     * tests can pin the zero-copy path).
     */
    const float *row(std::uint64_t id) const override;

    /** Slab-row pointers handed out through the RowSource. */
    std::uint64_t rowAccesses() const { return rowAccesses_; }

    /**
     * The retrieval backend. Retrieval knobs (parallelism, load
     * signal, efSearch, nprobe) are set on it directly.
     */
    embedding::VectorIndex &index() { return *index_; }
    const embedding::VectorIndex &index() const { return *index_; }

    /**
     * Slots currently held by the insertion-order deque, live + stale.
     * Bounded at roughly twice the live entry count by compaction
     * (exposed so tests can pin the bound).
     */
    std::size_t orderSlots() const { return order_.size(); }

    /** Remove every entry (node restart); statistics are kept. */
    void clear();

  protected:
    /**
     * Admit `image` under `key` at simulated time `now`, charging
     * `bytes` of storage and evicting per policy when full.
     */
    void admit(const diffusion::Image &image,
               const embedding::Embedding &key, double bytes, double now);

  private:
    void evictOne();
    std::uint64_t pickUtilityVictim();
    void erase(std::uint64_t id);
    /** Drop stale order slots once they outnumber live ones. */
    void compactOrder();

    std::size_t capacity_;
    EvictionPolicy policy_;
    double recencyWeight_;
    /** Compare approximate lookups against an exhaustive scan. */
    bool trackRecall_;
    Rng rng_;

    std::unordered_map<std::uint64_t, CacheEntry> entries_;
    /** Key rows, slot-addressed from CacheEntry (stable slab pointers,
     *  freelist reuse on eviction). */
    RowStore rows_;
    mutable std::uint64_t rowAccesses_ = 0;
    std::unique_ptr<embedding::VectorIndex> index_;
    std::deque<std::uint64_t> order_;   // insertion order
    std::size_t staleOrder_ = 0;        // order_ ids no longer cached
    /** LRU policy only: front = least recently hit. */
    std::list<std::uint64_t> lruOrder_;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        lruPos_;
    double storedBytes_ = 0.0;
    /** Mutable: the const retrieve() counts lookups and recall. */
    mutable CacheStats stats_;
};

} // namespace modm::cache

#endif // MODM_CACHE_EMBEDDING_CACHE_HH
