#include "src/cache/embedding_cache.hh"

#include <algorithm>

#include "src/common/log.hh"

namespace modm::cache {

const char *
policyName(EvictionPolicy policy)
{
    switch (policy) {
      case EvictionPolicy::FIFO:
        return "FIFO";
      case EvictionPolicy::LRU:
        return "LRU";
      case EvictionPolicy::Utility:
        return "Utility";
    }
    panic("unknown EvictionPolicy");
}

EmbeddingCache::EmbeddingCache(std::size_t capacity, EvictionPolicy policy,
                               double recency_weight, std::size_t dim,
                               std::uint64_t seed,
                               embedding::RetrievalBackendConfig retrieval)
    : capacity_(capacity), policy_(policy), recencyWeight_(recency_weight),
      trackRecall_(retrieval.trackRecall), rng_(seed), rows_(dim),
      index_(embedding::makeVectorIndex(retrieval, dim))
{
    MODM_ASSERT(capacity_ > 0, "cache capacity must be positive");
    // The cache itself is the exact-row oracle: rows_ already holds
    // every key embedding, so quantized backends re-rank for free.
    index_->setRowSource(this);
}

void
EmbeddingCache::reserve(std::size_t expected)
{
    const std::size_t n = std::min(expected, capacity_);
    entries_.reserve(n);
    if (policy_ == EvictionPolicy::LRU)
        lruPos_.reserve(n);
    index_->reserve(n);
}

void
EmbeddingCache::admit(const diffusion::Image &image,
                      const embedding::Embedding &key, double bytes,
                      double now)
{
    MODM_ASSERT(!entries_.count(image.id),
                "duplicate cache insert for image %llu",
                static_cast<unsigned long long>(image.id));
    while (entries_.size() >= capacity_)
        evictOne();

    CacheEntry entry;
    entry.image = image;
    entry.embeddingSlot = rows_.insert(key.vec().data());
    entry.insertTime = now;
    entry.lastHitTime = now;
    entry.bytes = bytes;

    index_->insert(image.id, key);
    order_.push_back(image.id);
    if (policy_ == EvictionPolicy::LRU) {
        lruOrder_.push_back(image.id);
        lruPos_[image.id] = std::prev(lruOrder_.end());
    }
    storedBytes_ += bytes;
    entries_.emplace(image.id, std::move(entry));
    ++stats_.insertions;
}

RetrievalResult
EmbeddingCache::retrieve(const embedding::Embedding &query) const
{
    ++stats_.lookups;
    RetrievalResult result;
    if (entries_.empty())
        return result;
    const auto match = index_->best(query);
    result.found = true;
    result.entryId = match.id;
    result.similarity = match.similarity;
    if (trackRecall_ && index_->approximate()) {
        // Quality attribution for approximate backends: did this
        // lookup return the entry an exhaustive scan would have?
        const auto exact = index_->exactBest(query);
        result.exactChecked = true;
        result.exactAgreed = exact.id == match.id;
        ++stats_.recallChecked;
        if (result.exactAgreed)
            ++stats_.recallAgreed;
    }
    return result;
}

void
EmbeddingCache::recordHit(std::uint64_t entry_id, double now)
{
    auto it = entries_.find(entry_id);
    MODM_ASSERT(it != entries_.end(), "recordHit on absent entry");
    ++it->second.hits;
    it->second.lastHitTime = now;
    ++stats_.hitsRecorded;
    if (policy_ == EvictionPolicy::LRU) {
        // Move to most-recently-used position.
        auto pos = lruPos_.find(entry_id);
        MODM_ASSERT(pos != lruPos_.end(), "LRU bookkeeping out of sync");
        lruOrder_.splice(lruOrder_.end(), lruOrder_, pos->second);
        pos->second = std::prev(lruOrder_.end());
    }
}

const CacheEntry &
EmbeddingCache::entry(std::uint64_t entry_id) const
{
    const auto it = entries_.find(entry_id);
    MODM_ASSERT(it != entries_.end(), "entry() on absent id %llu",
                static_cast<unsigned long long>(entry_id));
    return it->second;
}

const float *
EmbeddingCache::row(std::uint64_t id) const
{
    const auto it = entries_.find(id);
    if (it == entries_.end())
        return nullptr;
    ++rowAccesses_;
    return rows_.row(it->second.embeddingSlot);
}

void
EmbeddingCache::setCapacity(std::size_t capacity)
{
    MODM_ASSERT(capacity > 0, "cache capacity must be positive");
    capacity_ = capacity;
    while (entries_.size() > capacity_)
        evictOne();
}

std::uint64_t
EmbeddingCache::pickUtilityVictim()
{
    // Sampled eviction: examine a bounded number of random candidates
    // and evict the one with the lowest utility (hit count plus the
    // layer's recency weighting). Keeps eviction O(sample) like
    // production caches (e.g. Redis' approximated LFU).
    constexpr std::size_t kSample = 24;
    MODM_ASSERT(!order_.empty(), "utility eviction on empty cache");
    std::uint64_t victim = 0;
    double worst = 0.0;
    bool first = true;
    for (std::size_t i = 0; i < kSample; ++i) {
        const std::uint64_t id = order_[rng_.uniformInt(order_.size())];
        const auto it = entries_.find(id);
        if (it == entries_.end())
            continue; // stale order slot (already evicted)
        const CacheEntry &e = it->second;
        const double utility = static_cast<double>(e.hits) +
            recencyWeight_ * e.lastHitTime;
        if (first || utility < worst) {
            worst = utility;
            victim = id;
            first = false;
        }
    }
    if (first) {
        // All sampled slots were stale: fall back to the oldest entry.
        for (std::uint64_t id : order_) {
            if (entries_.count(id))
                return id;
        }
        panic("utility eviction found no live entries");
    }
    return victim;
}

void
EmbeddingCache::evictOne()
{
    MODM_ASSERT(!entries_.empty(), "evict on empty cache");
    std::uint64_t victim = 0;
    switch (policy_) {
      case EvictionPolicy::FIFO:
        while (!order_.empty() && !entries_.count(order_.front())) {
            order_.pop_front();
            --staleOrder_;
        }
        MODM_ASSERT(!order_.empty(), "FIFO bookkeeping out of sync");
        victim = order_.front();
        break;
      case EvictionPolicy::LRU:
        MODM_ASSERT(!lruOrder_.empty(), "LRU bookkeeping out of sync");
        victim = lruOrder_.front();
        break;
      case EvictionPolicy::Utility:
        victim = pickUtilityVictim();
        break;
    }
    erase(victim);
    ++stats_.evictions;
}

void
EmbeddingCache::erase(std::uint64_t id)
{
    const auto it = entries_.find(id);
    MODM_ASSERT(it != entries_.end(), "erase of absent entry");
    storedBytes_ -= it->second.bytes;
    // Remove from the index before releasing the slab slot: the index
    // may still read this id's row through the RowSource mid-removal.
    index_->remove(id);
    rows_.release(it->second.embeddingSlot);
    const auto pos = lruPos_.find(id);
    if (pos != lruPos_.end()) {
        lruOrder_.erase(pos->second);
        lruPos_.erase(pos);
    }
    if (!order_.empty() && order_.front() == id) {
        order_.pop_front();
        // The erased front may expose stale slots behind it.
        while (!order_.empty() && !entries_.count(order_.front())) {
            order_.pop_front();
            --staleOrder_;
        }
    } else {
        // Mid-deque erase (LRU/Utility victims): leave the stale id in
        // order_ — eviction paths skip absent ids, and compactOrder()
        // keeps the stale population bounded. Lazy deletion keeps
        // erase O(1) amortized.
        ++staleOrder_;
    }
    entries_.erase(it);
    compactOrder();
}

void
EmbeddingCache::compactOrder()
{
    // Compact once stale slots outnumber live ones: each rebuild is
    // O(order) but is triggered only after at least order/2 mid-deque
    // erases, so the amortized cost per erase is O(1) and order_ never
    // exceeds ~2x the live entry count on long traces.
    if (staleOrder_ * 2 <= order_.size() || order_.empty())
        return;
    std::deque<std::uint64_t> live;
    for (const std::uint64_t id : order_) {
        if (entries_.count(id))
            live.push_back(id);
    }
    order_.swap(live);
    staleOrder_ = 0;
    ++stats_.orderCompactions;
}

void
EmbeddingCache::clear()
{
    entries_.clear();
    rows_.clear();
    index_->clear();
    order_.clear();
    lruOrder_.clear();
    lruPos_.clear();
    staleOrder_ = 0;
    storedBytes_ = 0.0;
}

} // namespace modm::cache
