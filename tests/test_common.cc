/**
 * @file
 * Unit tests for the common substrate: RNG determinism and
 * distributional sanity, vector math, statistics, matrix algebra (the
 * FID building blocks), table formatting, and the task-based thread
 * pool (batch waits, nested submission, concurrent submitters, and
 * fatal() on a pool worker).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "src/common/log.hh"
#include "src/common/matrix.hh"
#include "src/common/rng.hh"
#include "src/common/stats.hh"
#include "src/common/table.hh"
#include "src/common/thread_pool.hh"
#include "src/common/vec.hh"

namespace modm {
namespace {

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.uniform());
    EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.normal());
    EXPECT_NEAR(stat.mean(), 0.0, 0.02);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate)
{
    Rng rng(17);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.exponential(4.0));
    EXPECT_NEAR(stat.mean(), 0.25, 0.01);
}

TEST(Rng, PoissonMeanMatches)
{
    Rng rng(19);
    RunningStat small, large;
    for (int i = 0; i < 20000; ++i) {
        small.add(static_cast<double>(rng.poisson(3.0)));
        large.add(static_cast<double>(rng.poisson(80.0)));
    }
    EXPECT_NEAR(small.mean(), 3.0, 0.1);
    EXPECT_NEAR(large.mean(), 80.0, 0.5);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(23);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.uniformInt(7), 7u);
}

TEST(Rng, GeometricMean)
{
    Rng rng(29);
    RunningStat stat;
    const double p = 0.2;
    for (int i = 0; i < 50000; ++i)
        stat.add(static_cast<double>(rng.geometric(p)));
    // Mean failures before success = (1 - p) / p = 4.
    EXPECT_NEAR(stat.mean(), 4.0, 0.15);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.fork();
    Rng child2 = parent.fork();
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += child.next() == child2.next() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(Zipf, ProbabilitiesSumToOne)
{
    ZipfDistribution zipf(100, 1.1);
    double total = 0.0;
    for (std::uint64_t k = 0; k < zipf.size(); ++k)
        total += zipf.prob(k);
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SkewFavoursSmallRanks)
{
    ZipfDistribution zipf(1000, 1.2);
    EXPECT_GT(zipf.prob(0), zipf.prob(1));
    EXPECT_GT(zipf.prob(1), zipf.prob(10));
    EXPECT_GT(zipf.prob(10), zipf.prob(500));
}

TEST(Zipf, EmpiricalMatchesPmf)
{
    ZipfDistribution zipf(50, 1.0);
    Rng rng(37);
    std::vector<std::uint64_t> counts(50, 0);
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[zipf.sample(rng)];
    for (std::uint64_t k : {0ull, 1ull, 5ull, 20ull}) {
        const double freq = static_cast<double>(counts[k]) / n;
        EXPECT_NEAR(freq, zipf.prob(k), 0.01) << "k=" << k;
    }
}

TEST(Vec, DotAndNorm)
{
    Vec a = {3.0f, 4.0f};
    EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
    EXPECT_DOUBLE_EQ(norm(a), 5.0);
}

TEST(Vec, NormalizeYieldsUnitLength)
{
    Vec a = {1.0f, 2.0f, 2.0f};
    normalize(a);
    EXPECT_NEAR(norm(a), 1.0, 1e-6);
}

TEST(Vec, CosineBounds)
{
    Rng rng(41);
    for (int i = 0; i < 100; ++i) {
        const Vec a = randomUnitVec(16, rng);
        const Vec b = randomUnitVec(16, rng);
        const double c = cosine(a, b);
        EXPECT_GE(c, -1.0 - 1e-9);
        EXPECT_LE(c, 1.0 + 1e-9);
    }
    const Vec a = randomUnitVec(16, rng);
    EXPECT_NEAR(cosine(a, a), 1.0, 1e-6);
}

TEST(Vec, RandomUnitVecsNearlyOrthogonalInHighDim)
{
    Rng rng(43);
    RunningStat stat;
    for (int i = 0; i < 500; ++i) {
        const Vec a = randomUnitVec(64, rng);
        const Vec b = randomUnitVec(64, rng);
        stat.add(cosine(a, b));
    }
    EXPECT_NEAR(stat.mean(), 0.0, 0.02);
    EXPECT_LT(stat.stddev(), 0.2);
}

TEST(Vec, JitterControlsCosine)
{
    // cos(jittered, base) ~= 1/sqrt(1 + s^2).
    Rng rng(47);
    for (const double s : {0.1, 0.5, 1.0}) {
        RunningStat stat;
        for (int i = 0; i < 300; ++i) {
            const Vec base = randomUnitVec(64, rng);
            const Vec out = jitterUnitVec(base, s, rng);
            stat.add(cosine(base, out));
        }
        EXPECT_NEAR(stat.mean(), 1.0 / std::sqrt(1.0 + s * s), 0.02)
            << "strength " << s;
    }
}

TEST(Vec, LerpEndpoints)
{
    const Vec a = {1.0f, 0.0f};
    const Vec b = {0.0f, 1.0f};
    EXPECT_EQ(lerp(a, b, 0.0), a);
    EXPECT_EQ(lerp(a, b, 1.0), b);
    const Vec mid = lerp(a, b, 0.5);
    EXPECT_FLOAT_EQ(mid[0], 0.5f);
    EXPECT_FLOAT_EQ(mid[1], 0.5f);
}

TEST(RunningStat, WelfordMatchesDirect)
{
    RunningStat stat;
    const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
    for (double x : xs)
        stat.add(x);
    EXPECT_DOUBLE_EQ(stat.mean(), 6.2);
    EXPECT_NEAR(stat.variance(), 37.2, 1e-9);
    EXPECT_DOUBLE_EQ(stat.min(), 1.0);
    EXPECT_DOUBLE_EQ(stat.max(), 16.0);
    EXPECT_EQ(stat.count(), 5u);
}

TEST(PercentileTracker, ExactPercentiles)
{
    PercentileTracker tracker;
    for (int i = 1; i <= 100; ++i)
        tracker.add(static_cast<double>(i));
    EXPECT_NEAR(tracker.percentile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(tracker.percentile(100.0), 100.0, 1e-9);
    EXPECT_NEAR(tracker.percentile(50.0), 50.5, 1e-9);
    EXPECT_NEAR(tracker.p99(), 99.01, 0.1);
}

TEST(PercentileTracker, InterleavedAddAndQuery)
{
    PercentileTracker tracker;
    tracker.add(10.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(50.0), 10.0);
    tracker.add(20.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(100.0), 20.0);
    tracker.add(0.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(0.0), 0.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);  // clamps to bin 0
    h.add(0.5);
    h.add(9.5);
    h.add(25.0);  // clamps to last bin
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_NEAR(h.binCenter(0), 0.5, 1e-9);
    EXPECT_NEAR(h.binFraction(0), 0.5, 1e-9);
}

TEST(WindowedRate, ExpiresOldEvents)
{
    WindowedRate rate(60.0);
    for (int i = 0; i < 30; ++i)
        rate.record(static_cast<double>(i));
    EXPECT_EQ(rate.countInWindow(30.0), 30u);
    EXPECT_NEAR(rate.perMinute(30.0), 30.0, 1e-9);
    // 100 s later everything expired.
    EXPECT_EQ(rate.countInWindow(130.0), 0u);
}

TEST(Matrix, MultiplyIdentity)
{
    Matrix m(3);
    m.at(0, 1) = 2.0;
    m.at(2, 0) = -1.0;
    const Matrix i = Matrix::identity(3);
    const Matrix p = m * i;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(p.at(r, c), m.at(r, c));
}

TEST(Matrix, EigenOfDiagonal)
{
    Matrix m(3);
    m.at(0, 0) = 3.0;
    m.at(1, 1) = 1.0;
    m.at(2, 2) = 2.0;
    auto eig = eigenSymmetric(m);
    std::sort(eig.values.begin(), eig.values.end());
    EXPECT_NEAR(eig.values[0], 1.0, 1e-9);
    EXPECT_NEAR(eig.values[1], 2.0, 1e-9);
    EXPECT_NEAR(eig.values[2], 3.0, 1e-9);
}

TEST(Matrix, SqrtSquaresBack)
{
    // Random symmetric PSD matrix: A = B B^T.
    Rng rng(53);
    const std::size_t n = 8;
    Matrix b(n);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b.at(r, c) = rng.normal();
    const Matrix a = b * b.transposed();
    const Matrix root = sqrtSymmetricPSD(a);
    const Matrix square = root * root;
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            EXPECT_NEAR(square.at(r, c), a.at(r, c), 1e-6);
}

TEST(Matrix, CovarianceOfKnownSamples)
{
    // Two perfectly anti-correlated coordinates.
    std::vector<Vec> samples = {
        {1.0f, -1.0f}, {-1.0f, 1.0f}, {2.0f, -2.0f}, {-2.0f, 2.0f}};
    const Matrix cov = covariance(samples);
    EXPECT_NEAR(cov.at(0, 0), cov.at(1, 1), 1e-9);
    EXPECT_NEAR(cov.at(0, 1), -cov.at(0, 0), 1e-9);
}

TEST(Frechet, ZeroForIdenticalPopulations)
{
    Rng rng(59);
    std::vector<Vec> pop;
    for (int i = 0; i < 200; ++i)
        pop.push_back(gaussianVec(8, rng));
    EXPECT_NEAR(frechetDistance(pop, pop), 0.0, 1e-6);
}

TEST(Frechet, DetectsMeanShift)
{
    Rng rng(61);
    std::vector<Vec> a, b;
    for (int i = 0; i < 2000; ++i) {
        a.push_back(gaussianVec(4, rng));
        Vec shifted = gaussianVec(4, rng);
        shifted[0] += 3.0f;
        b.push_back(shifted);
    }
    // FID of a pure mean shift -> |delta mu|^2 = 9.
    EXPECT_NEAR(frechetDistance(a, b), 9.0, 0.8);
}

TEST(Frechet, GrowsWithCovarianceInflation)
{
    Rng rng(67);
    std::vector<Vec> a, b, c;
    for (int i = 0; i < 2000; ++i) {
        a.push_back(gaussianVec(4, rng));
        Vec wide = gaussianVec(4, rng);
        scale(wide, 2.0);
        b.push_back(wide);
        Vec wider = gaussianVec(4, rng);
        scale(wider, 3.0);
        c.push_back(wider);
    }
    const double ab = frechetDistance(a, b);
    const double ac = frechetDistance(a, c);
    EXPECT_GT(ab, 1.0);
    EXPECT_GT(ac, ab);
}

TEST(Table, AlignsAndCounts)
{
    Table t({"name", "value"});
    t.addRow({"alpha", Table::fmt(1.5)});
    t.addRow({"b", Table::fmt(std::uint64_t{42})});
    const std::string s = t.toString();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.50"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    const std::string csv = t.toCsv();
    EXPECT_NE(csv.find("name,value"), std::string::npos);
}

TEST(ThreadPool, ParallelForCoversEveryShardOnce)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> counts(137);
    pool.parallelFor(counts.size(), [&](std::size_t shard) {
        ++counts[shard];
    });
    for (const auto &c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline)
{
    ThreadPool pool(0);
    std::size_t ran = 0;
    pool.parallelFor(10, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 10u);
    ThreadPool::TaskGroup group(pool);
    group.submit([&] { ++ran; });
    group.submit([&] { ++ran; });
    group.wait();
    EXPECT_EQ(ran, 12u);
}

TEST(ThreadPool, TaskGroupRunsEverySubmittedTask)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 100; ++i)
        group.submit([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 100);
    // A drained group is reusable.
    group.submit([&ran] { ++ran; });
    group.wait();
    EXPECT_EQ(ran.load(), 101);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // Every outer task itself runs a parallelFor on the same pool while
    // the pool is saturated — the regression case for the old
    // one-job-at-a-time design, where a second submitter serialized and
    // a nested one deadlocked.
    ThreadPool pool(2);
    std::atomic<int> inner{0};
    pool.parallelFor(8, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 64);
}

TEST(ThreadPool, ConcurrentSubmittersProceedInParallel)
{
    // Two independent threads each drive their own batches on one pool;
    // both must complete (and not corrupt each other's bookkeeping).
    ThreadPool pool(3);
    std::atomic<int> total{0};
    auto driver = [&] {
        for (int round = 0; round < 20; ++round) {
            pool.parallelFor(16, [&](std::size_t) { ++total; });
        }
    };
    std::thread a(driver), b(driver);
    a.join();
    b.join();
    EXPECT_EQ(total.load(), 2 * 20 * 16);
}

TEST(ThreadPool, TasksMaySubmitToTheirOwnGroup)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    ThreadPool::TaskGroup group(pool);
    for (int i = 0; i < 4; ++i) {
        group.submit([&] {
            ++ran;
            // Grow the batch from inside a running task; wait() must
            // pick these up too.
            group.submit([&ran] { ++ran; });
        });
    }
    group.wait();
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolDeathTest, FatalOnAPoolWorkerExitsOne)
{
    // fatal() inside a pool task while another task is still running,
    // as when one sweep cell hits a user error: the process must exit
    // 1 at once, neither hang in the pool's teardown nor crash in the
    // task that is still running.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            alarm(30); // a hang dies of SIGALRM instead of stalling ctest
            auto &pool = ThreadPool::global();
            pool.parallelFor(2, [&pool](std::size_t shard) {
                // Shard 1 runs on a worker; a pool without workers runs
                // every shard on the caller.
                if (shard == 1 || pool.workerCount() == 0)
                    fatal("cell failed on a pool worker");
                for (;;)
                    std::this_thread::yield();
            });
        },
        ::testing::ExitedWithCode(1), "fatal: cell failed on a pool worker");
}

} // namespace
} // namespace modm
