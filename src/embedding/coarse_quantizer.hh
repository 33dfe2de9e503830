/**
 * @file
 * What the approximate retrieval backends share: the coarse quantizer
 * under IvfIndex and IvfPqIndex, the (similarity desc, id asc) result
 * order with its bounded top-k selector, and the linear load shed
 * behind adaptive nprobe (IVF, IVF-PQ) and adaptive efSearch (HNSW).
 *
 * The coarse quantizer partitions unit-norm embeddings with spherical
 * k-means: a stride sample of the rows, nlist seeded picks, Lloyd
 * iterations with max-dot assignment, and empty clusters reseeded from
 * the worst-fitting rows. Every step is a pure function of (rows in the
 * caller's enumeration order, seed), so equal insert/remove sequences
 * give equal centroids on any machine. Ties always go to the lowest
 * centroid index.
 */

#ifndef MODM_EMBEDDING_COARSE_QUANTIZER_HH
#define MODM_EMBEDDING_COARSE_QUANTIZER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/embedding/vector_index.hh"

namespace modm::embedding {

/** Total order on matches: similarity desc, id asc. */
inline bool
idScoreBefore(const Match &a, const Match &b)
{
    if (a.similarity != b.similarity)
        return a.similarity > b.similarity;
    return a.id < b.id;
}

/**
 * Bounded top-k selection in idScoreBefore order: a heap of the k best
 * (score, id) candidates offered so far, worst at the front. The order
 * is total over distinct ids, so the result does not depend on the
 * order candidates are offered in.
 */
class TopMatches
{
  public:
    explicit TopMatches(std::size_t k) : k_(k) {}

    void offer(std::uint64_t id, double score);

    bool empty() const { return heap_.empty(); }

    /** The kept matches, best first. */
    std::vector<Match> take();

  private:
    std::size_t k_;
    std::vector<Match> heap_;
};

/**
 * Linear load shed: `full` at load 0, the floor (`minimum` clamped to
 * [1, full]) at load 1. floor() keeps the result monotone
 * nonincreasing in load.
 */
std::size_t shedByLoad(std::size_t full, std::size_t minimum,
                       double load);

/** Spherical k-means centroids over unit-norm rows. */
class CoarseQuantizer
{
  public:
    /** Rows-per-list factor that triggers initial training. */
    static constexpr std::size_t kTrainFactor = 4;
    /** Training-set cap; larger indexes train on a stride sample. */
    static constexpr std::size_t kMaxTrainRows = 16384;
    /** Lloyd iterations per (re)training. */
    static constexpr std::size_t kKmeansIters = 8;

    explicit CoarseQuantizer(std::size_t dim) : dim_(dim) {}

    /**
     * Fit `nlist` centroids to `rows` (at least nlist of them, in the
     * caller's enumeration order), replacing any previous centroids.
     * Callers pass config.seed mixed with their training generation,
     * so retrains explore fresh seedings.
     */
    void train(const std::vector<const float *> &rows, std::size_t nlist,
               std::uint64_t seed);

    /** True once centroids exist. */
    bool trained() const { return !centroids_.empty(); }

    /** Centroid `c` (dim floats). */
    const float *centroid(std::size_t c) const
    {
        return &centroids_[c * dim_];
    }

    /** Nearest centroid for a row (ties: lowest index). */
    std::size_t assign(const float *row) const;

    /**
     * Indexes of the min(nprobe, nlist) highest-scoring centroids for
     * a query, best first (ties: lowest index).
     */
    std::vector<std::size_t> probe(const float *query,
                                   std::size_t nprobe) const;

    std::size_t memoryBytes() const
    {
        return centroids_.size() * sizeof(float);
    }

    void clear() { centroids_.clear(); }

  private:
    std::size_t nlist() const { return centroids_.size() / dim_; }

    std::size_t dim_;
    std::vector<float> centroids_; // nlist * dim_ once trained
};

/**
 * The skew retrain rule: true when the largest list holds more than
 * config.retrainThreshold x the mean list size. Thresholds <= 1
 * disable it, and at least max(size / 4, nlist) inserts must have
 * landed since the last training, so adversarial skew (e.g. every row
 * identical) cannot retrain on every insert. That gate runs before the
 * O(nlist) scan over `lists` (anything with an `ids` vector).
 */
template <typename List>
bool
listsSkewed(const std::vector<List> &lists, std::size_t size,
            std::size_t insertsSinceTrain,
            const RetrievalBackendConfig &config)
{
    if (config.retrainThreshold <= 1.0 ||
        insertsSinceTrain < std::max(size / 4, config.nlist))
        return false;
    std::size_t maxList = 0;
    for (const List &l : lists)
        maxList = std::max(maxList, l.ids.size());
    const double mean =
        static_cast<double>(size) / static_cast<double>(lists.size());
    return static_cast<double>(maxList) > config.retrainThreshold * mean;
}

} // namespace modm::embedding

#endif // MODM_EMBEDDING_COARSE_QUANTIZER_HH
