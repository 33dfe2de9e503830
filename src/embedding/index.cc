#include "src/embedding/index.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "src/common/kernels.hh"
#include "src/common/log.hh"
#include "src/common/thread_pool.hh"

namespace modm::embedding {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Smallest float >= v (v within float range). */
float
floatAtLeast(double v)
{
    float f = static_cast<float>(v);
    if (static_cast<double>(f) < v)
        f = std::nextafter(f, std::numeric_limits<float>::infinity());
    return f;
}

/** Largest float <= v (v <= the largest float). */
float
floatAtMost(double v)
{
    if (!(v >= -std::numeric_limits<float>::max()))
        return -std::numeric_limits<float>::infinity();
    float f = static_cast<float>(v);
    if (static_cast<double>(f) > v)
        f = std::nextafter(f, -std::numeric_limits<float>::infinity());
    return f;
}

/** A double <= a - b: one step below the rounded difference. */
double
diffDown(double a, double b)
{
    return std::nextafter(a - b, -kInf);
}

/** Total order on scored slots: similarity desc, insertion slot asc. */
bool
scoreBefore(std::size_t slotA, double scoreA, std::size_t slotB,
            double scoreB)
{
    if (scoreA != scoreB)
        return scoreA > scoreB;
    return slotA < slotB;
}

/** Shard s of `shards` over [0, rows): a contiguous slot range. */
std::pair<std::size_t, std::size_t>
shardRange(std::size_t s, std::size_t shards, std::size_t rows)
{
    const std::size_t lo = rows * s / shards;
    const std::size_t hi = rows * (s + 1) / shards;
    return {lo, hi};
}

} // namespace

FlatIndex::FlatIndex(std::size_t dim)
    : dim_(dim)
{
    MODM_ASSERT(dim_ > 0, "index dimension must be positive");
    rows_.reset(dim_);
    shadow_.reset(dim_);
}

void
FlatIndex::reserve(std::size_t rows)
{
    rows_.reserve(rows);
    shadow_.reserve(rows);
    normBound_.reserve(rows);
    blockNorm_.reserve((rows + kBlock - 1) / kBlock);
    ids_.reserve(rows);
    slotOf_.reserve(rows);
}

void
FlatIndex::insert(std::uint64_t id, const Embedding &embedding)
{
    MODM_ASSERT(embedding.dim() == dim_,
                "index insert: dimension %zu != %zu", embedding.dim(), dim_);
    insertRow(id, embedding.vec().data());
}

void
FlatIndex::insertRow(std::uint64_t id, const float *row)
{
    MODM_ASSERT(!contains(id), "index insert: duplicate id %llu",
                static_cast<unsigned long long>(id));
    double sumSq = 0.0;
    bool inHalfRange = true;
    for (std::size_t i = 0; i < dim_; ++i) {
        MODM_ASSERT(std::isfinite(row[i]),
                    "index insert: id %llu element %zu is not finite",
                    static_cast<unsigned long long>(id), i);
        sumSq += static_cast<double>(row[i]) * row[i];
        inHalfRange = inHalfRange && std::fabs(row[i]) <= kernels::kHalfMax;
    }
    std::uint16_t *half = shadow_.append();
    for (std::size_t i = 0; i < dim_; ++i)
        half[i] = kernels::encodeHalf(row[i]);
    // The 2^-30 margin covers the rounding of sumSq and the sqrt.
    const float norm = inHalfRange
        ? floatAtLeast(std::sqrt(sumSq) * (1.0 + 0x1p-30))
        : std::numeric_limits<float>::infinity();
    if (ids_.size() % kBlock == 0)
        blockNorm_.push_back(norm);
    else
        blockNorm_.back() = std::max(blockNorm_.back(), norm);
    normBound_.push_back(norm);
    slotOf_[id] = ids_.size();
    ids_.push_back(id);
    rows_.pushBack(row);
}

bool
FlatIndex::remove(std::uint64_t id)
{
    const auto it = slotOf_.find(id);
    if (it == slotOf_.end())
        return false;
    const std::size_t slot = it->second;
    const std::size_t last = ids_.size() - 1;
    if (slot != last) {
        // Swap the last row into the vacated slot.
        ids_[slot] = ids_[last];
        slotOf_[ids_[slot]] = slot;
    }
    rows_.swapRemove(slot);
    shadow_.swapRemove(slot);
    normBound_[slot] = normBound_.back();
    normBound_.pop_back();
    // Both touched blocks may have lost their largest norm.
    blockNorm_.resize((normBound_.size() + kBlock - 1) / kBlock);
    for (const std::size_t block : {slot / kBlock, last / kBlock}) {
        if (block < blockNorm_.size())
            refreshBlockNorm(block);
    }
    ids_.pop_back();
    slotOf_.erase(it);
    return true;
}

void
FlatIndex::refreshBlockNorm(std::size_t block)
{
    const std::size_t lo = block * kBlock;
    const std::size_t hi = std::min(normBound_.size(), lo + kBlock);
    blockNorm_[block] =
        *std::max_element(normBound_.begin() + lo, normBound_.begin() + hi);
}

bool
FlatIndex::contains(std::uint64_t id) const
{
    return slotOf_.find(id) != slotOf_.end();
}

std::size_t
FlatIndex::scanShards() const
{
    if (parallelism_ == 1 || ids_.size() < parallelThreshold_)
        return 1;
    // An explicit setting forces that shard count even when the pool
    // has fewer threads (it then drains shards with what it has) —
    // this is what lets the property tests exercise the sharded merge
    // on any machine. Auto mode matches the pool.
    const std::size_t want = parallelism_ == 0
                                 ? ThreadPool::global().concurrency()
                                 : parallelism_;
    return std::max<std::size_t>(1, std::min(want, ids_.size()));
}

FlatIndex::Bound
FlatIndex::boundFor(const float *query) const
{
    // |s~ - d| for a row x with fp16 shadow xhat, float prefilter sum s~
    // and pinned double score d, with u = 2^-24, k = dim + 4 and
    // gamma(m, u) = m u / (1 - m u):
    //   fp16 rounding   sum |q_i||x_i - xhat_i|
    //                     <= 2^-11 ||q|| ||x|| + 2^-25 ||q||_1
    //   float sum       gamma(k, u) sum |q_i xhat_i| + k 2^-149
    //                     <= gamma(k, u) ((1 + 2^-11) ||q|| ||x||
    //                        + 2^-25 ||q||_1) + k 2^-149
    //   double sum      gamma(dim, 2^-53) ||q|| ||x||
    // The 2^-20 slack covers the roundings of this arithmetic and of
    // the s~ +- eps sums. docs/RETRIEVAL.md has the derivation.
    double l1 = 0.0;
    double l2 = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        const double a = std::fabs(static_cast<double>(query[i]));
        l1 += a;
        l2 += a * a;
    }
    Bound bound;
    const double k = static_cast<double>(dim_ + 4);
    // Zero, NaN and infinite queries, and any query whose float sums
    // could overflow against a saturated +-65504 shadow, scan
    // exhaustively.
    if (!(l1 > 0.0 && l1 <= 0x1p96) || k * 0x1p-24 >= 0x1p-4)
        return bound;
    const double slack = 1.0 + 0x1p-20;
    const double gammaF = k * 0x1p-24 / (1.0 - k * 0x1p-24);
    const double n = static_cast<double>(dim_);
    const double gammaD = n * 0x1p-53 / (1.0 - n * 0x1p-53);
    const double qNorm = std::sqrt(l2) * slack;
    l1 *= slack;
    bound.perNorm =
        qNorm * (0x1p-11 + gammaF * (1.0 + 0x1p-11) + gammaD) * slack;
    bound.fixed = (0x1p-25 * l1 * (1.0 + gammaF) + k * 0x1p-149) * slack;
    bound.usable = true;
    return bound;
}

FlatIndex::SlotScore
FlatIndex::scanBest(const float *query, const Bound &bound,
                    std::size_t lo, std::size_t hi) const
{
    SlotScore result{lo, -2.0};
    if (!bound.usable) {
        // The batched kernel admits strictly-greater scores in slot
        // order, so the earliest slot wins ties.
        std::size_t slot = 0;
        double score = 0.0;
        if (kernels::bestBatch(query, rows_.row(lo), rows_.stride(),
                               hi - lo, dim_, &slot, &score)) {
            result.slot = lo + slot;
            result.score = score;
        }
        return result;
    }
    // One pass: each block first raises the cut (the largest lower
    // bound seen), then re-scores its rows whose upper bound reaches
    // it. A row below the cut scores strictly less than the row that
    // set it, so it can be neither the best nor tied with it; the
    // re-scored rows are admitted strictly-greater in slot order,
    // exactly as the exhaustive scan admits every row. Every rounded
    // step moves the cut down, never up.
    float approx[kBlock];
    double cut = -kInf;
    bool any = false;
    for (std::size_t base = lo; base < hi;) {
        const std::size_t end = std::min(hi, (base / kBlock + 1) * kBlock);
        const float top = kernels::dotHalfBatch(
            query, shadow_.row(base), shadow_.stride(), end - base, dim_,
            approx);
        const double eps =
            bound.perNorm * blockNorm_[base / kBlock] + bound.fixed;
        cut = std::max(cut, diffDown(top, eps));
        const float threshold = floatAtMost(diffDown(cut, eps));
        for (std::size_t i = 0; i < end - base; ++i) {
            if (approx[i] < threshold)
                continue;
            const double score =
                kernels::dot(query, rows_.row(base + i), dim_);
            if (!any || score > result.score) {
                any = true;
                result = {base + i, score};
            }
        }
        base = end;
    }
    return result;
}

std::vector<FlatIndex::SlotScore>
FlatIndex::scanTop(const float *query, const Bound &bound, std::size_t lo,
                   std::size_t hi, std::size_t keep) const
{
    std::vector<SlotScore> top;
    keep = std::min(keep, hi - lo);
    if (keep == 0)
        return top;
    if (!bound.usable) {
        // kernels::topKBatch performs the bounded selection over the
        // shard's contiguous slot range by the same (score desc, slot
        // asc) total order; slots come back relative to `lo`.
        const auto scored = kernels::topKBatch(
            query, rows_.row(lo), rows_.stride(), hi - lo, dim_, keep);
        top.reserve(scored.size());
        for (const auto &s : scored)
            top.push_back({lo + s.slot, s.score});
        return top;
    }
    const auto better = [](const SlotScore &a, const SlotScore &b) {
        return scoreBefore(a.slot, a.score, b.slot, b.score);
    };
    // `lows` is a min-heap of the `keep` largest lower bounds. Once it
    // is full its root is the cut: `keep` rows score at least that, so
    // a row whose upper bound is below it cannot place. Re-scored rows
    // go through the exhaustive scan's bounded selection.
    std::vector<double> lows;
    lows.reserve(keep);
    top.reserve(keep);
    float approx[kBlock];
    for (std::size_t base = lo; base < hi;) {
        const std::size_t end = std::min(hi, (base / kBlock + 1) * kBlock);
        kernels::dotHalfBatch(query, shadow_.row(base), shadow_.stride(),
                              end - base, dim_, approx);
        const double eps =
            bound.perNorm * blockNorm_[base / kBlock] + bound.fixed;
        for (std::size_t i = 0; i < end - base; ++i) {
            // Compare on the rounded difference; store the one below.
            const double low = approx[i] - eps;
            if (lows.size() < keep) {
                lows.push_back(diffDown(approx[i], eps));
                std::push_heap(lows.begin(), lows.end(), std::greater<>());
            } else if (low > lows.front()) {
                std::pop_heap(lows.begin(), lows.end(), std::greater<>());
                lows.back() = diffDown(approx[i], eps);
                std::push_heap(lows.begin(), lows.end(), std::greater<>());
            }
        }
        const double cut = lows.size() == keep ? lows.front() : -kInf;
        const float threshold = floatAtMost(diffDown(cut, eps));
        for (std::size_t i = 0; i < end - base; ++i) {
            if (approx[i] < threshold)
                continue;
            const SlotScore cand{
                base + i, kernels::dot(query, rows_.row(base + i), dim_)};
            if (top.size() < keep) {
                top.push_back(cand);
                std::push_heap(top.begin(), top.end(), better);
            } else if (better(cand, top.front())) {
                std::pop_heap(top.begin(), top.end(), better);
                top.back() = cand;
                std::push_heap(top.begin(), top.end(), better);
            }
        }
        base = end;
    }
    std::sort(top.begin(), top.end(), better);
    return top;
}

Match
FlatIndex::best(const Embedding &query) const
{
    Match result;
    if (empty())
        return result;
    MODM_ASSERT(query.dim() == dim_, "index query: dimension mismatch");
    const float *q = query.vec().data();
    const Bound bound = boundFor(q);
    const std::size_t shards = scanShards();
    SlotScore top{0, -2.0};
    if (shards <= 1) {
        top = scanBest(q, bound, 0, ids_.size());
    } else {
        std::vector<SlotScore> partial(shards);
        ThreadPool::global().parallelFor(shards, [&](std::size_t s) {
            const auto [lo, hi] = shardRange(s, shards, ids_.size());
            partial[s] = scanBest(q, bound, lo, hi);
        });
        // Shards cover ascending slot ranges, so a strictly-greater
        // merge keeps the earliest slot on ties, same as the serial
        // scan.
        top = partial[0];
        for (std::size_t s = 1; s < shards; ++s)
            if (partial[s].score > top.score)
                top = partial[s];
    }
    result.id = ids_[top.slot];
    result.similarity = top.score;
    return result;
}

std::vector<Match>
FlatIndex::topK(const Embedding &query, std::size_t k) const
{
    std::vector<Match> result;
    if (empty() || k == 0)
        return result;
    MODM_ASSERT(query.dim() == dim_, "index query: dimension mismatch");
    const float *q = query.vec().data();
    const Bound bound = boundFor(q);
    const std::size_t shards = scanShards();
    std::vector<SlotScore> top;
    if (shards <= 1) {
        top = scanTop(q, bound, 0, ids_.size(), k);
    } else {
        std::vector<std::vector<SlotScore>> partial(shards);
        ThreadPool::global().parallelFor(shards, [&](std::size_t s) {
            const auto [lo, hi] = shardRange(s, shards, ids_.size());
            partial[s] = scanTop(q, bound, lo, hi, k);
        });
        for (const auto &p : partial)
            top.insert(top.end(), p.begin(), p.end());
        const std::size_t keep = std::min(k, top.size());
        std::partial_sort(top.begin(), top.begin() + keep, top.end(),
                          [](const SlotScore &a, const SlotScore &b) {
                              return scoreBefore(a.slot, a.score, b.slot,
                                                 b.score);
                          });
        top.resize(keep);
    }
    result.reserve(top.size());
    for (const auto &entry : top)
        result.push_back({ids_[entry.slot], entry.score});
    return result;
}

void
FlatIndex::clear()
{
    rows_.clear();
    shadow_.clear();
    normBound_.clear();
    blockNorm_.clear();
    ids_.clear();
    slotOf_.clear();
}

} // namespace modm::embedding
