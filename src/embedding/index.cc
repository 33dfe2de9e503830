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
constexpr float kInfF = std::numeric_limits<float>::infinity();

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

/** Rows with max|x_i| above this are not covered by the prefilter. */
constexpr float kMaxRowMagnitude = 0x1p100f;

/** Queries need max|q_i| in this range to use the prefilter; with
 *  |Q . X| < 2^24 it keeps every s~ below 2^127, and 2^-100 keeps the
 *  query's scale a normal float. */
constexpr float kMinQueryMagnitude = 0x1p-100f;
constexpr float kMaxQueryMagnitude = 0x1p16f;

/**
 * Quantize v[0..n), whose largest magnitude is maxAbs, to int8 codes
 * rounded to nearest with scale s = maxAbs / 127 rounded to float, so
 * that v ~ s * code with every code in [-127, 127]; returns s. *errSq
 * receives sum (v_i - s * code_i)^2, computed in double against the
 * returned s (s * code_i is exact in double). A scale that underflows
 * to zero leaves every code 0, so the error is the whole of v.
 */
float
quantizeInt8(const float *v, std::size_t n, float maxAbs, std::int8_t *code,
             double *errSq)
{
    const float scale = maxAbs / static_cast<float>(kernels::kInt8Max);
    const double inv = scale > 0.0f ? 1.0 / scale : 0.0;
    const double limit = kernels::kInt8Max;
    double err = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        // Round to nearest without a libm call (baseline x86-64 has no
        // roundsd): adding and removing 1.5 * 2^52 leaves no fraction
        // bits for |t| < 2^51. The bound needs only |code| <= 127 and
        // the error measured against the code actually stored.
        const double t = v[i] * inv;
        const double c =
            std::clamp((t + 0x1.8p52) - 0x1.8p52, -limit, limit);
        code[i] = static_cast<std::int8_t>(c);
        const double r = v[i] - static_cast<double>(scale) * c;
        err += r * r;
    }
    *errSq = err;
    return scale;
}

/** An upper bound on sqrt(sumSq) as a float; the 2^-30 margin covers
 *  the rounding of the sum of squares and of the sqrt. */
float
normAtLeast(double sumSq)
{
    return floatAtLeast(std::sqrt(sumSq) * (1.0 + 0x1p-30));
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
    scale_.reserve(rows);
    bound_.reserve(rows);
    blockBound_.reserve((rows + kBlock - 1) / kBlock);
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
    float maxAbs = 0.0f;
    for (std::size_t i = 0; i < dim_; ++i) {
        MODM_ASSERT(std::isfinite(row[i]),
                    "index insert: id %llu element %zu is not finite",
                    static_cast<unsigned long long>(id), i);
        sumSq += static_cast<double>(row[i]) * row[i];
        maxAbs = std::max(maxAbs, std::fabs(row[i]));
    }
    std::int8_t *code = shadow_.append();
    float scale = 0.0f;
    RowBound bound{kInfF, kInfF};
    if (maxAbs <= kMaxRowMagnitude) {
        double errSq = 0.0;
        scale = quantizeInt8(row, dim_, maxAbs, code, &errSq);
        bound = {normAtLeast(sumSq), normAtLeast(errSq)};
    } else {
        std::fill(code, code + dim_, std::int8_t{0});
    }
    if (ids_.size() % kBlock == 0) {
        blockBound_.push_back(bound);
    } else {
        RowBound &block = blockBound_.back();
        block.norm = std::max(block.norm, bound.norm);
        block.err = std::max(block.err, bound.err);
    }
    scale_.push_back(scale);
    bound_.push_back(bound);
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
    scale_[slot] = scale_.back();
    scale_.pop_back();
    bound_[slot] = bound_.back();
    bound_.pop_back();
    // Both touched blocks may have lost their largest bounds.
    blockBound_.resize((bound_.size() + kBlock - 1) / kBlock);
    const std::size_t first = slot / kBlock;
    if (first < blockBound_.size())
        refreshBlockBound(first);
    if (last / kBlock != first && last / kBlock < blockBound_.size())
        refreshBlockBound(last / kBlock);
    ids_.pop_back();
    slotOf_.erase(it);
    return true;
}

void
FlatIndex::refreshBlockBound(std::size_t block)
{
    const std::size_t lo = block * kBlock;
    const std::size_t hi = std::min(bound_.size(), lo + kBlock);
    RowBound top;
    for (std::size_t slot = lo; slot < hi; ++slot) {
        top.norm = std::max(top.norm, bound_[slot].norm);
        top.err = std::max(top.err, bound_[slot].err);
    }
    blockBound_[block] = top;
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

void
FlatIndex::encodeQuery(const float *query, QueryCode *out) const
{
    // |s~ - d| for a row x with codes X, scale sx and error bound e_x,
    // a query q with codes Q, scale sq and qhat = sq Q, the prefilter
    // score s~ = fl(fl(float(Q . X) sx) sq) and the pinned double
    // score d, with u = 2^-24 and gamma(m, v) = m v / (1 - m v):
    //   quantization   |q.x - qhat.xhat| <= ||q - qhat|| ||x||
    //                                        + ||qhat|| e_x
    //   float scaling  (2u + u^2) |qhat.xhat| + 2^-150 (1 + sq (1 + u))
    //                    <= 2^-22 ||qhat|| (||x|| + e_x) + 2^-149 (1 + sq)
    //   double sum     gamma(dim, 2^-53) ||q|| ||x||
    // Q . X is an exact int32 sum and converts to float exactly while
    // dim * 127^2 < 2^24. The 2^-20 slack covers the roundings of this
    // arithmetic and of the s~ +- eps sums. docs/RETRIEVAL.md has the
    // derivation.
    out->usable = false;
    if (dim_ > kMaxPrefilterDim)
        return;
    float maxAbs = 0.0f;
    double l2 = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
        const float a = std::fabs(query[i]);
        if (!(a <= std::numeric_limits<float>::max()))
            return; // NaN or infinite: scan exhaustively
        maxAbs = std::max(maxAbs, a);
        l2 += static_cast<double>(a) * a;
    }
    // Zero queries, and scales the bound does not cover, scan
    // exhaustively.
    if (!(maxAbs >= kMinQueryMagnitude && maxAbs <= kMaxQueryMagnitude))
        return;
    double errSq = 0.0;
    out->scale = quantizeInt8(query, dim_, maxAbs, out->code, &errSq);
    double codeSq = 0.0; // an exact integer
    for (std::size_t i = 0; i < dim_; ++i)
        codeSq += static_cast<double>(out->code[i]) * out->code[i];
    const double slack = 1.0 + 0x1p-20;
    const double n = static_cast<double>(dim_);
    const double gammaD = n * 0x1p-53 / (1.0 - n * 0x1p-53);
    const double qNorm = std::sqrt(l2) * slack;
    const double qErr = std::sqrt(errSq) * slack;
    const double qHatNorm = out->scale * std::sqrt(codeSq) * slack;
    out->perNorm = (qErr + gammaD * qNorm + 0x1p-22 * qHatNorm) * slack;
    out->perErr = qHatNorm * (1.0 + 0x1p-22) * slack;
    out->fixed = 0x1p-149 * (1.0 + out->scale) * slack;
    out->usable = true;
}

FlatIndex::SlotScore
FlatIndex::scanBest(const float *query, const QueryCode &code,
                    std::size_t lo, std::size_t hi) const
{
    SlotScore result{lo, -2.0};
    if (!code.usable) {
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
    // it; an exact score above the cut raises it further. A row below
    // the cut scores strictly less than the row that set it, so it can
    // be neither the best nor tied with it; the re-scored rows are
    // admitted strictly-greater in slot order, exactly as the
    // exhaustive scan admits every row. Every rounded step moves the
    // cut down, never up.
    float approx[kBlock];
    double cut = -kInf;
    bool any = false;
    for (std::size_t base = lo, end; base < hi; base = end) {
        end = std::min(hi, (base / kBlock + 1) * kBlock);
        const float top = kernels::dotInt8Batch(
            code.code, code.scale, shadow_.row(base), &scale_[base],
            shadow_.stride(), end - base, dim_, approx);
        const double eps = blockEps(code, base / kBlock);
        cut = std::max(cut, diffDown(top, eps));
        float threshold = floatAtMost(diffDown(cut, eps));
        if (top < threshold)
            continue; // no row of this block reaches the cut
        for (std::size_t i = 0; i < end - base; ++i) {
            if (approx[i] < threshold)
                continue;
            const double score =
                kernels::dot(query, rows_.row(base + i), dim_);
            if (!any || score > result.score) {
                any = true;
                result = {base + i, score};
                if (score > cut) {
                    cut = score;
                    threshold = floatAtMost(diffDown(cut, eps));
                }
            }
        }
    }
    return result;
}

std::vector<FlatIndex::SlotScore>
FlatIndex::scanTop(const float *query, const QueryCode &code,
                   std::size_t lo, std::size_t hi, std::size_t keep) const
{
    std::vector<SlotScore> top;
    keep = std::min(keep, hi - lo);
    if (keep == 0)
        return top;
    if (!code.usable) {
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
    for (std::size_t base = lo, end; base < hi; base = end) {
        end = std::min(hi, (base / kBlock + 1) * kBlock);
        const float blockTop = kernels::dotInt8Batch(
            code.code, code.scale, shadow_.row(base), &scale_[base],
            shadow_.stride(), end - base, dim_, approx);
        const double eps = blockEps(code, base / kBlock);
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
        if (blockTop < threshold)
            continue; // no row of this block reaches the cut
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
    QueryCode code;
    encodeQuery(q, &code);
    const std::size_t shards = scanShards();
    SlotScore top{0, -2.0};
    if (shards <= 1) {
        top = scanBest(q, code, 0, ids_.size());
    } else {
        std::vector<SlotScore> partial(shards);
        ThreadPool::global().parallelFor(shards, [&](std::size_t s) {
            const auto [lo, hi] = shardRange(s, shards, ids_.size());
            partial[s] = scanBest(q, code, lo, hi);
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
    QueryCode code;
    encodeQuery(q, &code);
    const std::size_t shards = scanShards();
    std::vector<SlotScore> top;
    if (shards <= 1) {
        top = scanTop(q, code, 0, ids_.size(), k);
    } else {
        std::vector<std::vector<SlotScore>> partial(shards);
        ThreadPool::global().parallelFor(shards, [&](std::size_t s) {
            const auto [lo, hi] = shardRange(s, shards, ids_.size());
            partial[s] = scanTop(q, code, lo, hi, k);
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
    scale_.clear();
    bound_.clear();
    blockBound_.clear();
    ids_.clear();
    slotOf_.clear();
}

} // namespace modm::embedding
