/**
 * @file
 * Unit tests for the cache substrate: the image cache (insert, retrieve,
 * eviction policies, storage accounting), the Nirvana latent cache
 * (text-to-text retrieval, model dependence, threshold-mapped k), and
 * the embedding-cache contract both share (typed CacheCore tests).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "src/cache/image_cache.hh"
#include "src/cache/latent_cache.hh"
#include "src/common/rng.hh"
#include "src/diffusion/sampler.hh"
#include "src/embedding/encoder.hh"

namespace modm::cache {
namespace {

diffusion::Image
makeImage(std::uint64_t id, Rng &rng, double fidelity = 0.95,
          const std::string &model = "SD3.5L")
{
    diffusion::Image img;
    img.id = id;
    img.content = randomUnitVec(embedding::kEmbeddingDim, rng);
    img.fidelity = fidelity;
    img.modelName = model;
    img.byteSize = 1.4e6;
    return img;
}

TEST(ImageCache, InsertAndRetrieve)
{
    Rng rng(3);
    ImageCache cache(10, EvictionPolicy::FIFO);
    const auto img = makeImage(1, rng);
    cache.insert(img, 0.0);
    EXPECT_EQ(cache.size(), 1u);

    embedding::ImageEncoder enc;
    const auto query = enc.encode(img.content, img.fidelity, img.id);
    const auto result = cache.retrieve(query);
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.entryId, 1u);
    EXPECT_GT(result.similarity, 0.95);
}

TEST(ImageCache, EmptyRetrieveFindsNothing)
{
    ImageCache cache(10, EvictionPolicy::FIFO);
    Rng rng(5);
    embedding::ImageEncoder enc;
    const auto query =
        enc.encode(randomUnitVec(embedding::kEmbeddingDim, rng), 1.0, 9);
    EXPECT_FALSE(cache.retrieve(query).found);
}

TEST(ImageCache, FifoEvictsOldest)
{
    Rng rng(7);
    ImageCache cache(3, EvictionPolicy::FIFO);
    for (std::uint64_t i = 1; i <= 5; ++i)
        cache.insert(makeImage(i, rng), static_cast<double>(i));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_FALSE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
    EXPECT_TRUE(cache.contains(3));
    EXPECT_TRUE(cache.contains(5));
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(ImageCache, LruKeepsHotEntries)
{
    Rng rng(9);
    ImageCache cache(3, EvictionPolicy::LRU);
    cache.insert(makeImage(1, rng), 1.0);
    cache.insert(makeImage(2, rng), 2.0);
    cache.insert(makeImage(3, rng), 3.0);
    cache.recordHit(1, 4.0); // 1 is now most recent; 2 is LRU
    cache.insert(makeImage(4, rng), 5.0);
    EXPECT_TRUE(cache.contains(1));
    EXPECT_FALSE(cache.contains(2));
}

TEST(ImageCache, UtilityKeepsFrequentlyHitEntries)
{
    Rng rng(11);
    ImageCache cache(20, EvictionPolicy::Utility);
    for (std::uint64_t i = 1; i <= 20; ++i)
        cache.insert(makeImage(i, rng), static_cast<double>(i));
    // Entry 5 is hit many times; sampled eviction should spare it.
    for (int hit = 0; hit < 50; ++hit)
        cache.recordHit(5, 100.0 + hit);
    for (std::uint64_t i = 21; i <= 35; ++i)
        cache.insert(makeImage(i, rng), 100.0 + i);
    EXPECT_TRUE(cache.contains(5));
}

TEST(ImageCache, StorageAccounting)
{
    Rng rng(13);
    ImageCache cache(2, EvictionPolicy::FIFO);
    cache.insert(makeImage(1, rng), 0.0);
    cache.insert(makeImage(2, rng), 0.0);
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 2.8e6);
    cache.insert(makeImage(3, rng), 0.0); // evicts one
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 2.8e6);
    cache.clear();
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 0.0);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ImageCache, RetrievalReturnsBestOfMany)
{
    Rng rng(17);
    ImageCache cache(100, EvictionPolicy::FIFO);
    std::vector<diffusion::Image> images;
    for (std::uint64_t i = 1; i <= 50; ++i) {
        images.push_back(makeImage(i, rng));
        cache.insert(images.back(), 0.0);
    }
    embedding::ImageEncoder enc;
    // Query very close to image 25's content.
    const Vec q = jitterUnitVec(images[24].content, 0.05, rng);
    const auto result = cache.retrieve(enc.encode(q, 1.0, 999999));
    ASSERT_TRUE(result.found);
    EXPECT_EQ(result.entryId, 25u);
}

TEST(ImageCache, HitBookkeeping)
{
    Rng rng(19);
    ImageCache cache(10, EvictionPolicy::FIFO);
    cache.insert(makeImage(1, rng), 0.0);
    cache.recordHit(1, 5.0);
    cache.recordHit(1, 6.0);
    EXPECT_EQ(cache.entry(1).hits, 2u);
    EXPECT_DOUBLE_EQ(cache.entry(1).lastHitTime, 6.0);
    EXPECT_EQ(cache.stats().hitsRecorded, 2u);
}

TEST(LatentCache, RejectsOtherModels)
{
    Rng rng(23);
    LatentCache cache(10, "SD3.5L");
    embedding::TextEncoder text;
    const auto emb = text.encode(randomUnitVec(64, rng),
                                 randomUnitVec(64, rng), "p");
    cache.insert(makeImage(1, rng, 0.95, "SD3.5L"), emb, 0.0);
    cache.insert(makeImage(2, rng, 0.85, "SDXL"), emb, 0.0);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.rejectedInserts(), 1u);
}

TEST(LatentCache, TextToTextRetrievalAndThresholds)
{
    Rng rng(29);
    LatentCache cache(10, "SD3.5L");
    embedding::TextEncoder text;

    const Vec v = randomUnitVec(64, rng);
    const Vec l = randomUnitVec(64, rng);
    const auto stored = text.encode(v, l, "prompt one");
    cache.insert(makeImage(1, rng), stored, 0.0);

    // Nearly identical prompt: very high t2t similarity -> largest k.
    const auto sameQuery =
        text.encode(jitterUnitVec(v, 0.02, rng), l, "prompt one b");
    const auto hit = cache.retrieve(sameQuery);
    ASSERT_TRUE(hit.found);
    EXPECT_GE(hit.similarity, 0.96);
    EXPECT_EQ(hit.k, 15);

    // Unrelated prompt: below the 0.82 gate -> miss.
    const auto farQuery = text.encode(randomUnitVec(64, rng),
                                      randomUnitVec(64, rng), "other");
    EXPECT_FALSE(cache.retrieve(farQuery).found);
}

TEST(LatentCache, StorageUsesLatentSetSize)
{
    // 2.5 MB per entry vs 1.4 MB per final image (paper §3.1).
    Rng rng(31);
    LatentCache cache(10, "SD3.5L");
    embedding::TextEncoder text;
    const auto emb = text.encode(randomUnitVec(64, rng),
                                 randomUnitVec(64, rng), "p");
    cache.insert(makeImage(1, rng), emb, 0.0);
    EXPECT_DOUBLE_EQ(cache.storedBytes(), kLatentSetBytes);
    EXPECT_GT(kLatentSetBytes, 1.4e6);
}

TEST(LatentCache, UtilityEvictionSparesHotEntries)
{
    Rng rng(37);
    LatentCache cache(20, "SD3.5L");
    embedding::TextEncoder text;
    for (std::uint64_t i = 1; i <= 20; ++i) {
        const auto emb = text.encode(randomUnitVec(64, rng),
                                     randomUnitVec(64, rng), "p");
        cache.insert(makeImage(i, rng), emb, 0.0);
    }
    for (int hit = 0; hit < 50; ++hit)
        cache.recordHit(3, 0.0);
    for (std::uint64_t i = 21; i <= 32; ++i) {
        const auto emb = text.encode(randomUnitVec(64, rng),
                                     randomUnitVec(64, rng), "p");
        cache.insert(makeImage(i, rng), emb, 0.0);
    }
    EXPECT_EQ(cache.size(), 20u);
    EXPECT_NO_FATAL_FAILURE(cache.entry(3));
}

/**
 * Parameterized eviction-policy sweep: every policy must respect
 * capacity, keep retrieval consistent, and account storage exactly.
 */
class PolicySweepTest
    : public ::testing::TestWithParam<EvictionPolicy>
{
};

TEST_P(PolicySweepTest, CapacityAndConsistencyUnderChurn)
{
    Rng rng(41);
    ImageCache cache(50, GetParam());
    embedding::ImageEncoder enc;
    for (std::uint64_t i = 1; i <= 500; ++i) {
        cache.insert(makeImage(i, rng), static_cast<double>(i));
        EXPECT_LE(cache.size(), 50u);
        if (i % 7 == 0) {
            const auto q = enc.encode(
                randomUnitVec(embedding::kEmbeddingDim, rng), 1.0,
                1000000 + i);
            const auto r = cache.retrieve(q);
            if (r.found) {
                EXPECT_TRUE(cache.contains(r.entryId));
                cache.recordHit(r.entryId, static_cast<double>(i));
            }
        }
    }
    EXPECT_EQ(cache.size(), 50u);
    EXPECT_DOUBLE_EQ(cache.storedBytes(), 50 * 1.4e6);
    EXPECT_EQ(cache.stats().insertions, 500u);
    EXPECT_EQ(cache.stats().evictions, 450u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, PolicySweepTest,
    ::testing::Values(EvictionPolicy::FIFO, EvictionPolicy::LRU,
                      EvictionPolicy::Utility),
    [](const auto &info) { return policyName(info.param); });

/**
 * LRU evicts mid-deque too; the insertion-order bound of the typed
 * CacheCore tests below must hold under it as well.
 */
TEST(ImageCache, LruOrderSlotsStayBounded)
{
    Rng rng(19);
    constexpr std::size_t kCapacity = 64;
    ImageCache cache(kCapacity, EvictionPolicy::LRU);
    embedding::ImageEncoder enc;
    for (std::uint64_t i = 1; i <= 3000; ++i) {
        cache.insert(makeImage(i, rng), static_cast<double>(i));
        // Hits shuffle LRU order so victims are rarely the order front.
        const auto q = enc.encode(
            randomUnitVec(embedding::kEmbeddingDim, rng), 1.0,
            3000000 + i);
        const auto r = cache.retrieve(q);
        if (r.found)
            cache.recordHit(r.entryId, static_cast<double>(i));
        ASSERT_LE(cache.orderSlots(), 2 * kCapacity + 1);
    }
    EXPECT_EQ(cache.size(), kCapacity);
}

/**
 * The shared contract of the embedding-cache core, typed over both
 * layers. Each layer type builds a cache and derives an entry's image
 * and key embedding from its id alone, so a test can re-derive what
 * the cache must hold.
 */
struct ImageLayer
{
    static constexpr double kEntryBytes = 1.4e6;

    static std::unique_ptr<ImageCache> make(std::size_t capacity)
    {
        return std::make_unique<ImageCache>(capacity,
                                            EvictionPolicy::Utility);
    }

    static diffusion::Image image(std::uint64_t id)
    {
        Rng rng(id);
        return makeImage(id, rng);
    }

    /** The image-tower key of entry `id`; any id is a valid query. */
    static embedding::Embedding key(std::uint64_t id)
    {
        static const embedding::ImageEncoder encoder;
        const auto img = image(id);
        return encoder.encode(img.content, img.fidelity, img.id);
    }

    static void insert(ImageCache &cache, std::uint64_t id, double now)
    {
        cache.insert(image(id), now);
    }
};

struct LatentLayer
{
    static constexpr double kEntryBytes = kLatentSetBytes;

    static std::unique_ptr<LatentCache> make(std::size_t capacity)
    {
        return std::make_unique<LatentCache>(capacity, "SD3.5L");
    }

    /** The prompt-text key of entry `id`; any id is a valid query. */
    static embedding::Embedding key(std::uint64_t id)
    {
        static const embedding::TextEncoder encoder;
        Rng rng(id);
        const Vec visual = randomUnitVec(64, rng);
        const Vec lexical = randomUnitVec(64, rng);
        return encoder.encode(visual, lexical, "p");
    }

    static void insert(LatentCache &cache, std::uint64_t id, double now)
    {
        Rng rng(id);
        cache.insert(makeImage(id, rng), key(id), now);
    }
};

struct LayerNames
{
    template <typename Layer>
    static std::string GetName(int)
    {
        return std::is_same_v<Layer, ImageLayer> ? "Image" : "Latent";
    }
};

template <typename Layer>
class CacheCore : public ::testing::Test
{
};

using CacheLayers = ::testing::Types<ImageLayer, LatentLayer>;
TYPED_TEST_SUITE(CacheCore, CacheLayers, LayerNames);

/** setCapacity shrink evicts down to the bound; growing only raises it. */
TYPED_TEST(CacheCore, ShrinkEvictsDownToBound)
{
    auto cache = TypeParam::make(40);
    for (std::uint64_t id = 1; id <= 40; ++id)
        TypeParam::insert(*cache, id, static_cast<double>(id));
    cache->recordHit(7, 41.0);

    cache->setCapacity(10);
    EXPECT_EQ(cache->capacity(), 10u);
    EXPECT_EQ(cache->size(), 10u);
    EXPECT_EQ(cache->stats().evictions, 30u);
    EXPECT_EQ(cache->index().size(), 10u);
    EXPECT_DOUBLE_EQ(cache->storedBytes(), 10 * TypeParam::kEntryBytes);

    cache->setCapacity(20);
    EXPECT_EQ(cache->size(), 10u);
    for (std::uint64_t id = 41; id <= 60; ++id)
        TypeParam::insert(*cache, id, static_cast<double>(id));
    EXPECT_EQ(cache->size(), 20u);
    EXPECT_EQ(cache->stats().evictions, 40u);
}

/**
 * The kill -> cold-rejoin path: clear() drops every entry but keeps
 * the statistics, and the same ids can be admitted again.
 */
TYPED_TEST(CacheCore, ClearThenReinsertSameIds)
{
    auto cache = TypeParam::make(16);
    for (std::uint64_t id = 1; id <= 16; ++id)
        TypeParam::insert(*cache, id, 0.0);
    cache->clear();
    EXPECT_EQ(cache->size(), 0u);
    EXPECT_EQ(cache->index().size(), 0u);
    EXPECT_EQ(cache->orderSlots(), 0u);
    EXPECT_DOUBLE_EQ(cache->storedBytes(), 0.0);
    EXPECT_FALSE(cache->contains(3));
    EXPECT_EQ(cache->row(3), nullptr);

    for (std::uint64_t id = 1; id <= 16; ++id)
        TypeParam::insert(*cache, id, 1.0);
    EXPECT_EQ(cache->size(), 16u);
    EXPECT_EQ(cache->stats().insertions, 32u);
    EXPECT_EQ(cache->stats().evictions, 0u);
    const auto best = static_cast<const EmbeddingCache &>(*cache)
                          .retrieve(TypeParam::key(9));
    ASSERT_TRUE(best.found);
    EXPECT_EQ(best.entryId, 9u);
}

/** row(id) returns the new entry's key after its slab slot is reused. */
TYPED_TEST(CacheCore, RowFollowsReusedSlot)
{
    auto cache = TypeParam::make(1);
    TypeParam::insert(*cache, 1, 0.0);
    const float *slot = cache->row(1);
    ASSERT_NE(slot, nullptr);

    TypeParam::insert(*cache, 2, 1.0); // evicts 1, reuses its slot
    EXPECT_EQ(cache->row(1), nullptr);
    const float *row = cache->row(2);
    EXPECT_EQ(row, slot);
    const auto key = TypeParam::key(2);
    EXPECT_EQ(std::memcmp(row, key.vec().data(),
                          key.dim() * sizeof(float)),
              0);
}

/**
 * Utility eviction erases mid-deque and leaves stale ids behind
 * (lazy deletion); compaction must bound the insertion-order deque at
 * ~2x the live entries at every step. Two churn inputs: hits on the
 * best match of a random query every third insert, and a hit on every
 * fresh entry at a frozen clock (so utilities tie and victims are
 * rarely the front).
 */
TYPED_TEST(CacheCore, OrderSlotsStayBoundedUnderChurn)
{
    struct Churn
    {
        std::size_t capacity;
        std::uint64_t inserts;
        bool hitFresh;
    };
    for (const Churn churn : {Churn{100, 5000, false},
                              Churn{40, 2000, true}}) {
        auto cache = TypeParam::make(churn.capacity);
        for (std::uint64_t id = 1; id <= churn.inserts; ++id) {
            const double now =
                churn.hitFresh ? 0.0 : static_cast<double>(id);
            TypeParam::insert(*cache, id, now);
            if (churn.hitFresh) {
                cache->recordHit(id, now);
            } else if (id % 3 == 0) {
                const auto r = static_cast<const EmbeddingCache &>(*cache)
                                   .retrieve(TypeParam::key(2000000 + id));
                if (r.found)
                    cache->recordHit(r.entryId, now);
            }
            ASSERT_LE(cache->orderSlots(), 2 * churn.capacity + 1)
                << "stale order slots accumulating at insert " << id;
        }
        EXPECT_EQ(cache->size(), churn.capacity);
        EXPECT_GT(cache->stats().orderCompactions, 0u);
    }
}

/**
 * Eviction on a drained cache is a library bug the guards must catch
 * loudly rather than corrupt bookkeeping.
 */
TEST(ImageCacheDeathTest, ZeroCapacityIsRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(ImageCache(0, EvictionPolicy::FIFO),
                 "capacity must be positive");
}

/** recordHit on an evicted (absent) entry must panic, not corrupt. */
TEST(ImageCacheDeathTest, RecordHitOnAbsentEntryPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(23);
    ImageCache cache(2, EvictionPolicy::LRU);
    cache.insert(makeImage(1, rng), 0.0);
    EXPECT_DEATH(cache.recordHit(999, 1.0), "absent entry");
}

/**
 * Utility eviction must keep working when the sampled candidates are
 * dominated by stale order slots: a churn-heavy, hit-heavy trace where
 * victims are mostly mid-deque. After churn the cache must still be
 * exactly at capacity with consistent retrieval.
 */
TEST(ImageCache, UtilityEvictionSkipsStaleSlots)
{
    Rng rng(29);
    ImageCache cache(16, EvictionPolicy::Utility);
    embedding::ImageEncoder enc;
    for (std::uint64_t i = 1; i <= 800; ++i) {
        cache.insert(makeImage(i, rng), static_cast<double>(i));
        for (int probe = 0; probe < 2; ++probe) {
            const auto q = enc.encode(
                randomUnitVec(embedding::kEmbeddingDim, rng), 1.0,
                4000000 + i * 2 + probe);
            const auto r = cache.retrieve(q);
            if (r.found) {
                ASSERT_TRUE(cache.contains(r.entryId));
                cache.recordHit(r.entryId, static_cast<double>(i));
            }
        }
    }
    EXPECT_EQ(cache.size(), 16u);
    EXPECT_EQ(cache.stats().evictions, 800u - 16u);
}

/**
 * Eviction interleaved with *parallel* top-k retrieval: a cache using
 * sharded scans must return bit-identical results to a serial twin fed
 * the exact same insert/hit/evict sequence, across heavy churn.
 */
TEST(ImageCache, EvictionInterleavedWithParallelTopK)
{
    constexpr std::size_t kCapacity = 48;
    Rng rngA(31), rngB(31);
    ImageCache parallel(kCapacity, EvictionPolicy::Utility);
    ImageCache serial(kCapacity, EvictionPolicy::Utility);
    parallel.index().setParallelism(4);
    parallel.index().setParallelThreshold(0);
    embedding::ImageEncoder enc;
    for (std::uint64_t i = 1; i <= 600; ++i) {
        parallel.insert(makeImage(i, rngA), static_cast<double>(i));
        serial.insert(makeImage(i, rngB), static_cast<double>(i));
        const auto q = enc.encode(
            randomUnitVec(embedding::kEmbeddingDim, rngA), 1.0,
            5000000 + i);
        // Advance the twin's rng identically.
        randomUnitVec(embedding::kEmbeddingDim, rngB);
        const auto rp = parallel.retrieve(q);
        const auto rs = serial.retrieve(q);
        ASSERT_EQ(rp.found, rs.found);
        if (rp.found) {
            ASSERT_EQ(rp.entryId, rs.entryId);
            // Bit-identical: the sharded merge is exact.
            ASSERT_EQ(rp.similarity, rs.similarity);
            parallel.recordHit(rp.entryId, static_cast<double>(i));
            serial.recordHit(rs.entryId, static_cast<double>(i));
        }
    }
    EXPECT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(parallel.orderSlots(), serial.orderSlots());
}

} // namespace
} // namespace modm::cache
