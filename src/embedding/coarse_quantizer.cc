#include "src/embedding/coarse_quantizer.hh"

#include <cmath>
#include <cstring>

#include "src/common/kernels.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"

namespace modm::embedding {

void
TopMatches::offer(std::uint64_t id, double score)
{
    const Match candidate{id, score};
    if (heap_.size() < k_) {
        heap_.push_back(candidate);
        std::push_heap(heap_.begin(), heap_.end(), idScoreBefore);
    } else if (idScoreBefore(candidate, heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), idScoreBefore);
        heap_.back() = candidate;
        std::push_heap(heap_.begin(), heap_.end(), idScoreBefore);
    }
}

std::vector<Match>
TopMatches::take()
{
    std::sort(heap_.begin(), heap_.end(), idScoreBefore);
    return std::move(heap_);
}

std::size_t
shedByLoad(std::size_t full, std::size_t minimum, double load)
{
    const std::size_t floor = std::clamp<std::size_t>(minimum, 1, full);
    const double span = static_cast<double>(full - floor);
    return floor + static_cast<std::size_t>(
                       std::floor(span * (1.0 - load) + 1e-9));
}

void
CoarseQuantizer::train(const std::vector<const float *> &rows,
                       std::size_t nlist, std::uint64_t seed)
{
    const std::size_t total = rows.size();
    MODM_ASSERT(nlist >= 1 && total >= nlist,
                "coarse quantizer: %zu rows cannot seed %zu centroids",
                total, nlist);

    // Gather the training sample: a fixed stride over the caller's
    // enumeration order, capped at kMaxTrainRows.
    const std::size_t sampleCount = std::min(total, kMaxTrainRows);
    std::vector<const float *> sample(sampleCount);
    for (std::size_t s = 0; s < sampleCount; ++s)
        sample[s] = rows[total * s / sampleCount];

    // Seed centroids: partial Fisher-Yates over the sample picks nlist
    // distinct rows.
    Rng rng(seed);
    std::vector<std::size_t> perm(sampleCount);
    for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = i;
    std::vector<float> centroids(nlist * dim_);
    for (std::size_t c = 0; c < nlist; ++c) {
        const std::size_t pick = c + rng.uniformInt(perm.size() - c);
        std::swap(perm[c], perm[pick]);
        std::memcpy(&centroids[c * dim_], sample[perm[c]],
                    dim_ * sizeof(float));
    }

    // Lloyd iterations with cosine assignment: assign to the max-dot
    // centroid (ties: lowest index), recompute each centroid as the
    // normalized mean of its members, and reseed empty clusters from
    // the worst-fitting rows so no list is dead.
    std::vector<std::size_t> assignment(sampleCount);
    std::vector<double> bestDot(sampleCount);
    std::vector<double> sums(nlist * dim_);
    std::vector<std::size_t> counts(nlist);
    for (std::size_t iter = 0; iter < kKmeansIters; ++iter) {
        for (std::size_t s = 0; s < sampleCount; ++s)
            kernels::bestBatch(sample[s], centroids.data(), dim_, nlist,
                               dim_, &assignment[s], &bestDot[s]);
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (std::size_t s = 0; s < sampleCount; ++s) {
            double *sum = &sums[assignment[s] * dim_];
            const float *row = sample[s];
            for (std::size_t d = 0; d < dim_; ++d)
                sum[d] += row[d];
            ++counts[assignment[s]];
        }
        for (std::size_t c = 0; c < nlist; ++c) {
            if (counts[c] == 0)
                continue; // reseeded below
            const double *sum = &sums[c * dim_];
            double normSq = 0.0;
            for (std::size_t d = 0; d < dim_; ++d)
                normSq += sum[d] * sum[d];
            if (normSq <= 0.0)
                continue; // degenerate mean: keep the old centroid
            const double inv = 1.0 / std::sqrt(normSq);
            float *out = &centroids[c * dim_];
            for (std::size_t d = 0; d < dim_; ++d)
                out[d] = static_cast<float>(sum[d] * inv);
        }
        for (std::size_t c = 0; c < nlist; ++c) {
            if (counts[c] != 0)
                continue;
            // Steal the row that fits its current centroid worst.
            std::size_t worst = sampleCount;
            for (std::size_t s = 0; s < sampleCount; ++s) {
                if (counts[assignment[s]] <= 1)
                    continue; // don't empty another cluster
                if (worst == sampleCount || bestDot[s] < bestDot[worst])
                    worst = s;
            }
            if (worst == sampleCount)
                break; // fewer distinct rows than clusters
            --counts[assignment[worst]];
            assignment[worst] = c;
            counts[c] = 1;
            bestDot[worst] = 2.0; // not stolen twice
            std::memcpy(&centroids[c * dim_], sample[worst],
                        dim_ * sizeof(float));
        }
    }
    centroids_ = std::move(centroids);
}

std::size_t
CoarseQuantizer::assign(const float *row) const
{
    // Strictly-greater admission over ascending centroid slots: ties
    // keep the lowest index.
    std::size_t best = 0;
    double score = 0.0;
    kernels::bestBatch(row, centroids_.data(), dim_, nlist(), dim_, &best,
                       &score);
    return best;
}

std::vector<std::size_t>
CoarseQuantizer::probe(const float *query, std::size_t nprobe) const
{
    std::vector<std::size_t> order(nlist());
    for (std::size_t c = 0; c < order.size(); ++c)
        order[c] = c;
    nprobe = std::min(nprobe, order.size());
    std::vector<double> scores(order.size());
    kernels::dotBatch(query, centroids_.data(), dim_, order.size(), dim_,
                      scores.data());
    std::partial_sort(order.begin(), order.begin() + nprobe, order.end(),
                      [&scores](std::size_t a, std::size_t b) {
                          if (scores[a] != scores[b])
                              return scores[a] > scores[b];
                          return a < b;
                      });
    order.resize(nprobe);
    return order;
}

} // namespace modm::embedding
