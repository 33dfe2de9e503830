#include "src/embedding/ivf_index.hh"

#include <algorithm>

#include "src/common/kernels.hh"
#include "src/common/log.hh"
#include "src/common/rng.hh"

namespace modm::embedding {

namespace {

/** Rows per batched-scoring block in the list scans. */
constexpr std::size_t kListBlock = 256;

} // namespace

IvfIndex::IvfIndex(const RetrievalBackendConfig &config, std::size_t dim)
    : dim_(dim), config_(config), quantizer_(dim), lists_(makeLists(1))
{
    MODM_ASSERT(dim_ > 0, "ivf index dimension must be positive");
    MODM_ASSERT(config_.nlist > 0, "ivf nlist must be positive");
    MODM_ASSERT(config_.nlist <= CoarseQuantizer::kMaxTrainRows,
                "ivf nlist %zu exceeds the training-sample cap %zu",
                config_.nlist, CoarseQuantizer::kMaxTrainRows);
    // makeVectorIndex validates with a thrown diagnostic before this
    // runs; the assert only backstops direct construction.
    MODM_ASSERT(config_.nprobe >= 1 && config_.nprobe <= config_.nlist,
                "ivf nprobe %zu must be in [1, nlist %zu]",
                config_.nprobe, config_.nlist);
}

std::size_t
IvfIndex::trainFloor() const
{
    return CoarseQuantizer::kTrainFactor * config_.nlist;
}

std::vector<IvfIndex::List>
IvfIndex::makeLists(std::size_t count) const
{
    std::vector<List> lists(count);
    for (List &l : lists)
        l.rows.reset(dim_);
    return lists;
}

void
IvfIndex::reserve(std::size_t rows)
{
    locator_.reserve(rows);
    if (!trained()) {
        lists_[0].rows.reserve(std::min(rows, trainFloor()));
        lists_[0].ids.reserve(std::min(rows, trainFloor()));
    }
}

void
IvfIndex::appendToList(std::size_t list, std::uint64_t id,
                       const float *row)
{
    List &l = lists_[list];
    locator_[id] = {list, l.ids.size()};
    l.ids.push_back(id);
    l.rows.pushBack(row);
}

void
IvfIndex::insert(std::uint64_t id, const Embedding &embedding)
{
    MODM_ASSERT(embedding.dim() == dim_,
                "ivf insert: dimension %zu != %zu", embedding.dim(), dim_);
    MODM_ASSERT(!contains(id), "ivf insert: duplicate id %llu",
                static_cast<unsigned long long>(id));
    const float *row = embedding.vec().data();
    appendToList(trained() ? quantizer_.assign(row) : 0, id, row);
    ++insertsSinceTrain_;
    if (!trained()) {
        if (size() >= trainFloor())
            train();
    } else if (listsSkewed(lists_, size(), insertsSinceTrain_, config_)) {
        train();
    }
}

bool
IvfIndex::remove(std::uint64_t id)
{
    const auto it = locator_.find(id);
    if (it == locator_.end())
        return false;
    const Location loc = it->second;
    List &l = lists_[loc.list];
    const std::size_t last = l.ids.size() - 1;
    if (loc.pos != last) {
        // Swap the list's last row into the vacated position.
        l.ids[loc.pos] = l.ids[last];
        locator_[l.ids[loc.pos]].pos = loc.pos;
    }
    l.rows.swapRemove(loc.pos);
    l.ids.pop_back();
    locator_.erase(it);
    return true;
}

bool
IvfIndex::contains(std::uint64_t id) const
{
    return locator_.find(id) != locator_.end();
}

void
IvfIndex::train()
{
    const std::size_t total = size();
    const std::size_t nlist = config_.nlist;
    if (total < nlist)
        return; // not enough rows to seed distinct centroids

    // Train on the current enumeration order (lists in order,
    // positions in order) — a pure function of the index contents.
    std::vector<const float *> rows;
    rows.reserve(total);
    for (const List &l : lists_) {
        for (std::size_t p = 0; p < l.ids.size(); ++p)
            rows.push_back(l.rows.row(p));
    }
    quantizer_.train(rows, nlist, config_.seed ^ mix64(trainings_));

    // Re-bin every row under the new quantizer.
    std::vector<List> old;
    old.swap(lists_);
    lists_ = makeLists(nlist);
    for (const List &l : old) {
        for (std::size_t p = 0; p < l.ids.size(); ++p) {
            const float *row = l.rows.row(p);
            appendToList(quantizer_.assign(row), l.ids[p], row);
        }
    }
    ++trainings_;
    insertsSinceTrain_ = 0;
}

void
IvfIndex::setLoadSignal(double load)
{
    if (!config_.adaptiveNprobe)
        return;
    load_ = std::clamp(load, 0.0, 1.0);
}

std::size_t
IvfIndex::effectiveNprobe() const
{
    if (!config_.adaptiveNprobe)
        return config_.nprobe;
    return shedByLoad(config_.nprobe, config_.minNprobe, load_);
}

void
IvfIndex::scanList(const List &l, const float *query,
                   TopMatches &top) const
{
    double scores[kListBlock];
    for (std::size_t base = 0; base < l.ids.size(); base += kListBlock) {
        const std::size_t len = std::min(kListBlock, l.ids.size() - base);
        kernels::dotBatch(query, l.rows.row(base), l.rows.stride(), len,
                          dim_, scores);
        for (std::size_t i = 0; i < len; ++i)
            top.offer(l.ids[base + i], scores[i]);
    }
}

Match
IvfIndex::best(const Embedding &query) const
{
    const auto top = topK(query, 1);
    return top.empty() ? Match{} : top.front();
}

Match
IvfIndex::exactBest(const Embedding &query) const
{
    if (empty())
        return Match{};
    MODM_ASSERT(query.dim() == dim_, "ivf query: dimension mismatch");
    TopMatches top(1);
    for (const List &l : lists_)
        scanList(l, query.vec().data(), top);
    return top.take().front();
}

std::vector<Match>
IvfIndex::topK(const Embedding &query, std::size_t k) const
{
    if (empty() || k == 0)
        return {};
    MODM_ASSERT(query.dim() == dim_, "ivf query: dimension mismatch");
    const float *q = query.vec().data();
    TopMatches top(k);
    if (trained()) {
        for (const std::size_t c : quantizer_.probe(q, effectiveNprobe()))
            scanList(lists_[c], q, top);
    }
    // Untrained, or eviction churn drained every probed list while
    // others still hold rows: scan everything, so a non-empty index
    // always returns real entries.
    if (top.empty()) {
        for (const List &l : lists_)
            scanList(l, q, top);
    }
    return top.take();
}

bool
IvfIndex::approximate() const
{
    return trained() && std::min(effectiveNprobe(), lists_.size()) <
        lists_.size();
}

std::size_t
IvfIndex::memoryBytes() const
{
    // Rows count dim (not stride) floats, so the figure is unchanged
    // from the pre-slab layout at any dimension.
    std::size_t bytes = quantizer_.memoryBytes() +
        locatorBytes(locator_.size(), sizeof(Location));
    for (const List &l : lists_)
        bytes += l.ids.size() * dim_ * sizeof(float) +
            l.ids.size() * sizeof(std::uint64_t);
    return bytes;
}

void
IvfIndex::setNprobe(std::size_t nprobe)
{
    if (nprobe == 0)
        return; // 0 = leave the configured value
    // probe() clamps to the list count, so a too-large override
    // degrades to the exhaustive probe rather than faulting mid-run.
    config_.nprobe = nprobe;
}

void
IvfIndex::clear()
{
    lists_ = makeLists(1);
    quantizer_.clear();
    locator_.clear();
    trainings_ = 0;
    insertsSinceTrain_ = 0;
}

} // namespace modm::embedding
