/**
 * @file
 * Property tests for sharded FlatIndex retrieval: the parallel scan
 * must return bit-identical results to the serial scan — same ids, same
 * order, same exact similarity doubles — across the edge sizes (empty,
 * one row, k-1, k) and at the paper's 100k-entry scale, with and
 * without removals.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>
#include <vector>

#include "src/common/rng.hh"
#include "src/common/thread_pool.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/index.hh"

namespace modm::embedding {
namespace {

constexpr std::size_t kK = 8;

/** Build an index of `entries` random unit embeddings. */
FlatIndex
makeIndex(std::size_t entries, std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    FlatIndex index(dim);
    for (std::size_t i = 0; i < entries; ++i)
        index.insert(i, Embedding(randomUnitVec(dim, rng)));
    return index;
}

/** Serial and sharded scans must agree exactly on every query. */
void
expectShardedMatchesSerial(FlatIndex &index, std::size_t dim,
                           std::size_t queries, std::uint64_t seed)
{
    Rng rng(seed);
    for (std::size_t q = 0; q < queries; ++q) {
        const Embedding query(randomUnitVec(dim, rng));

        index.setParallelism(1);
        const Match serialBest = index.best(query);
        const std::vector<Match> serialTop = index.topK(query, kK);

        // Force sharding even on tiny indexes and single-core
        // machines: threshold 0 plus explicit shard counts (the pool
        // drains extra shards with whatever threads it has). 0 also
        // checks the auto mode.
        index.setParallelThreshold(0);
        for (const std::size_t shards :
             {std::size_t{0}, std::size_t{2}, std::size_t{4},
              std::size_t{13}}) {
            index.setParallelism(shards);
            const Match shardedBest = index.best(query);
            const std::vector<Match> shardedTop = index.topK(query, kK);

            EXPECT_EQ(serialBest.id, shardedBest.id) << shards;
            EXPECT_EQ(serialBest.similarity, shardedBest.similarity)
                << shards;

            ASSERT_EQ(serialTop.size(), shardedTop.size());
            for (std::size_t i = 0; i < serialTop.size(); ++i) {
                EXPECT_EQ(serialTop[i].id, shardedTop[i].id)
                    << shards << " shards, rank " << i;
                EXPECT_EQ(serialTop[i].similarity, shardedTop[i].similarity)
                    << shards << " shards, rank " << i;
            }
        }
    }
}

TEST(ParallelIndex, EdgeSizesMatchSerial)
{
    // 0, 1, k-1, and k entries: shard count exceeds or equals rows.
    for (const std::size_t entries :
         {std::size_t{0}, std::size_t{1}, kK - 1, kK}) {
        SCOPED_TRACE(entries);
        auto index = makeIndex(entries, kEmbeddingDim, 1 + entries);
        expectShardedMatchesSerial(index, kEmbeddingDim, 20, 99 + entries);
    }
}

TEST(ParallelIndex, MidSizesMatchSerial)
{
    for (const std::size_t entries : {std::size_t{257}, std::size_t{4096}}) {
        SCOPED_TRACE(entries);
        auto index = makeIndex(entries, kEmbeddingDim, entries);
        expectShardedMatchesSerial(index, kEmbeddingDim, 10, 7 * entries);
    }
}

TEST(ParallelIndex, HundredThousandEntriesMatchSerial)
{
    // The paper's cache scale. Few queries: each serial scan is 6.4M
    // multiply-adds.
    auto index = makeIndex(100000, kEmbeddingDim, 42);
    expectShardedMatchesSerial(index, kEmbeddingDim, 3, 4242);
}

TEST(ParallelIndex, MatchesSerialAfterRemovals)
{
    auto index = makeIndex(10000, kEmbeddingDim, 5);
    // Swap-with-last removal permutes slots; sharding must not care.
    for (std::size_t id = 0; id < 10000; id += 3)
        ASSERT_TRUE(index.remove(id));
    expectShardedMatchesSerial(index, kEmbeddingDim, 10, 555);
}

TEST(ParallelIndex, DuplicateScoresTieBreakDeterministically)
{
    // Insert the same embedding many times: every score ties, so the
    // (similarity desc, slot asc) order is all that separates results.
    Rng rng(11);
    const Vec base = randomUnitVec(kEmbeddingDim, rng);
    FlatIndex index;
    for (std::size_t i = 0; i < 64; ++i)
        index.insert(i, Embedding(base));
    expectShardedMatchesSerial(index, kEmbeddingDim, 5, 1111);
}

TEST(ParallelIndex, ParallelismCapRespected)
{
    auto index = makeIndex(1000, kEmbeddingDim, 3);
    index.setParallelThreshold(0);
    for (const std::size_t cap : {std::size_t{2}, std::size_t{3}}) {
        index.setParallelism(cap);
        Rng rng(17);
        const Embedding query(randomUnitVec(kEmbeddingDim, rng));
        const auto top = index.topK(query, kK);
        ASSERT_EQ(top.size(), kK);
        index.setParallelism(1);
        const auto serial = index.topK(query, kK);
        for (std::size_t i = 0; i < kK; ++i) {
            EXPECT_EQ(serial[i].id, top[i].id);
            EXPECT_EQ(serial[i].similarity, top[i].similarity);
        }
    }
}

TEST(ThreadPool, ParallelForCoversEveryShardOnce)
{
    ThreadPool pool(3);
    for (const std::size_t shards :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
        std::vector<int> hits(shards, 0);
        pool.parallelFor(shards,
                         [&](std::size_t s) { ++hits[s]; });
        for (std::size_t s = 0; s < shards; ++s)
            EXPECT_EQ(hits[s], 1) << "shard " << s;
    }
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(2);
    for (int round = 0; round < 50; ++round) {
        std::vector<int> hits(16, 0);
        pool.parallelFor(16, [&](std::size_t s) { ++hits[s]; });
        for (std::size_t s = 0; s < 16; ++s)
            ASSERT_EQ(hits[s], 1);
    }
}

TEST(ThreadPool, ConcurrentSubmittersSerialize)
{
    // Two threads sharing one pool: submissions must not trample each
    // other's shard counters (regression for a deadlock where a second
    // submitter overwrote an in-flight job's state).
    ThreadPool pool(2);
    auto hammer = [&pool] {
        for (int round = 0; round < 200; ++round) {
            std::vector<int> hits(8, 0);
            pool.parallelFor(8, [&](std::size_t s) { ++hits[s]; });
            for (std::size_t s = 0; s < 8; ++s)
                ASSERT_EQ(hits[s], 1);
        }
    };
    std::thread other(hammer);
    hammer();
    other.join();
}

TEST(ThreadPool, ZeroWorkersRunsInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.concurrency(), 1u);
    std::vector<int> hits(4, 0);
    pool.parallelFor(4, [&](std::size_t s) { ++hits[s]; });
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(hits[s], 1);
}

} // namespace
} // namespace modm::embedding
