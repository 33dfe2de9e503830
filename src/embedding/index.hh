/**
 * @file
 * Exact flat cosine retrieval — the Flat backend of the VectorIndex
 * interface (vector_index.hh).
 *
 * The paper stores 100k image embeddings (~0.29 GB of CLIP vectors) and
 * reports retrieval latency of ~0.05 s — negligible against 10+ s of
 * denoising. This index keeps rows in a contiguous flat array so the
 * brute-force scan is cache-friendly, and supports O(1) removal (swap with
 * the last row) for FIFO/LRU eviction.
 *
 * Scans can shard across ThreadPool::global(): opt in with
 * setParallelism(0) (the default stays serial so existing measurements
 * and single-thread callers are unaffected), and sharding engages once
 * the index is large enough for the fork/join overhead to pay off.
 * Sharding is exact, not approximate: each shard computes the same
 * per-row dot products the serial loop would, and the merge orders by
 * (similarity desc, insertion slot asc) — a total order — so serial and
 * sharded scans return bit-identical results.
 *
 * Exact int8 prefilter. Next to the float rows the index keeps an
 * int8 shadow of every row (Int8Rows, moved in lockstep through
 * insert, swap-remove and clear): codes X with a per-row scale
 * sx = max|x| / 127, an upper bound on the row's L2 norm and one on
 * its quantization error ||x - sx X||, and the maximum of both bounds
 * over every aligned block of 256 slots. A scan quantizes the query
 * the same way, reads the shadow, a quarter of the bytes of the float
 * rows, one block at a time and scores it through
 * kernels::dotInt8Batch: an exact int32 sum Q . X, scaled by two float
 * multiplications, so the prefilter scores s~ do not depend on the
 * kernel tier. For a row with prefilter score s~, the pinned double
 * score lies in [s~ - eps, s~ + eps], where eps is a proven bound on
 * both quantizations, both float roundings and the double sum, taken
 * at the block's largest bounds (docs/RETRIEVAL.md, "Exact int8
 * prefilter"). best() keeps the running maximum L of s~ - eps and of
 * the exact scores it has re-scored; topK(k) keeps the k-th largest
 * s~ - eps. A block whose largest s~ falls below L - eps
 * is skipped; otherwise it re-scores its rows with s~ + eps >= L
 * through the pinned double kernel, in slot order, with the same
 * admission as the exhaustive scan. A discarded row scores strictly
 * below the rows that set L, so results equal the exhaustive double
 * scan bit for bit under every kernel tier. Queries the bound does not
 * cover (zero, non-finite, of tiny or huge scale, or longer than
 * kMaxPrefilterDim) take the exhaustive scan.
 */

#ifndef MODM_EMBEDDING_INDEX_HH
#define MODM_EMBEDDING_INDEX_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/row_store.hh"
#include "src/embedding/embedding.hh"
#include "src/embedding/vector_index.hh"

namespace modm::embedding {

/**
 * Flat cosine index keyed by caller-assigned 64-bit ids. Exact: every
 * query scans every row.
 */
class FlatIndex final : public VectorIndex
{
  public:
    /**
     * Indexes smaller than this scan serially regardless of the
     * parallelism setting; below it the fork/join overhead exceeds the
     * scan itself.
     */
    static constexpr std::size_t kDefaultParallelThreshold = 8192;

    /** Create an index for embeddings of the given dimensionality. */
    explicit FlatIndex(std::size_t dim = kEmbeddingDim);

    /**
     * Pre-allocate room for `rows` embeddings: one contiguous
     * reservation of the row storage plus hash-map capacity, so bulk
     * insertion (cache warm-up) avoids repeated rows_ reallocation and
     * slotOf_ rehash churn.
     */
    void reserve(std::size_t rows) override;

    /** Insert an embedding under a fresh id; ids must be unique. */
    void insert(std::uint64_t id, const Embedding &embedding) override;

    /**
     * Insert a raw row of dim() floats as is (insert() forwards the
     * embedding's unit vector here). Every element must be finite: a
     * NaN would win or break every comparison, so it aborts naming
     * the id and element. Rows with an element beyond 2^100 are
     * allowed; the prefilter does not cover them, so they are always
     * re-scored.
     */
    void insertRow(std::uint64_t id, const float *row);

    /** Remove an id; returns false when absent. */
    bool remove(std::uint64_t id) override;

    /** True when the id is present. */
    bool contains(std::uint64_t id) const override;

    /** Number of stored embeddings. */
    std::size_t size() const override { return ids_.size(); }

    /**
     * Best match for a query, or a Match with similarity -1 when the
     * index is empty.
     */
    Match best(const Embedding &query) const override;

    /** Top-k matches ordered by decreasing similarity (ties: insertion
     *  order). */
    std::vector<Match> topK(const Embedding &query,
                            std::size_t k) const override;

    /**
     * Set the scan parallelism: 1 (the default) forces serial scans,
     * 0 shards to match ThreadPool::global(), any other value forces
     * exactly that many shards (the pool drains them with the threads
     * it has).
     */
    void setParallelism(std::size_t threads) override
    {
        parallelism_ = threads;
    }

    /** Configured parallelism (0 = auto). */
    std::size_t parallelism() const { return parallelism_; }

    /**
     * Minimum index size before scans shard; lower it to 0 to force the
     * sharded path even on tiny indexes (used by the property tests).
     */
    void setParallelThreshold(std::size_t rows) override
    {
        parallelThreshold_ = rows;
    }

    /** Active parallel threshold. */
    std::size_t parallelThreshold() const { return parallelThreshold_; }

    /** Remove everything. */
    void clear() override;

    /** Float rows + int8 shadow rows with their scales + norm and
     *  error bounds (per row and per block) + ids + locator payloads;
     *  ~5 * dim + 44 per entry. Counts dim (not stride) elements per
     *  row so the figure does not depend on the slab padding. */
    std::size_t memoryBytes() const override
    {
        return ids_.size() *
            (dim_ * (sizeof(float) + sizeof(std::int8_t)) +
             sizeof(float) + sizeof(RowBound) + sizeof(std::uint64_t)) +
            blockBound_.size() * sizeof(RowBound) +
            locatorBytes(slotOf_.size(), sizeof(std::size_t));
    }

    /** Longest row the prefilter covers: up to it, int8 sums convert
     *  to float exactly (dim * 127^2 < 2^24). Longer rows scan
     *  exhaustively. */
    static constexpr std::size_t kMaxPrefilterDim = 1040;

  private:
    /** Scored slot, the unit the scan and merge operate on. */
    struct SlotScore
    {
        std::size_t slot;
        double score;
    };

    /** Slots per prefilter block; blocks start at multiples of it. */
    static constexpr std::size_t kBlock = 256;

    /** Upper bounds on a row's ||x|| and on its quantization error
     *  ||x - sx X||, rounded up to floats; both +inf for a row the
     *  prefilter does not cover. A block keeps the maximum of each. */
    struct RowBound
    {
        float norm = 0.0f;
        float err = 0.0f;
    };

    /** One query's int8 code and scale, and its bound: a row with
     *  bounds b has |s~ - d| <= perNorm * b.norm + perErr * b.err +
     *  fixed. */
    struct QueryCode
    {
        std::int8_t code[kMaxPrefilterDim];
        float scale = 0.0f;
        double perNorm = 0.0;
        double perErr = 0.0;
        double fixed = 0.0;
        /** False: the query falls outside the bound's assumptions and
         *  scans use the exhaustive double kernel. */
        bool usable = false;
    };

    /** Quantize one query and derive its bound (docs/RETRIEVAL.md). */
    void encodeQuery(const float *query, QueryCode *out) const;

    /** The prefilter error bound of `query` over one block. */
    double blockEps(const QueryCode &query, std::size_t block) const
    {
        const RowBound &b = blockBound_[block];
        return query.perNorm * b.norm + query.perErr * b.err + query.fixed;
    }

    /** Recompute blockBound_[block] from the rows it holds. */
    void refreshBlockBound(std::size_t block);

    /** Shards the next scan will use (1 = serial). */
    std::size_t scanShards() const;

    /** Best slot in [lo, hi), earliest slot winning ties. */
    SlotScore scanBest(const float *query, const QueryCode &code,
                       std::size_t lo, std::size_t hi) const;

    /** Top `keep` slots in [lo, hi) by (score desc, slot asc). */
    std::vector<SlotScore> scanTop(const float *query,
                                   const QueryCode &code, std::size_t lo,
                                   std::size_t hi, std::size_t keep) const;

    std::size_t dim_;
    std::size_t parallelism_ = 1;
    std::size_t parallelThreshold_ = kDefaultParallelThreshold;
    AlignedRows rows_;               // slot-addressed, 64-byte aligned
    Int8Rows shadow_;                // int8 codes of rows_, same slots
    std::vector<float> scale_;       // slot -> the codes' scale sx
    std::vector<RowBound> bound_;    // slot -> norm and error bounds
    std::vector<RowBound> blockBound_; // block -> max of each in it
    std::vector<std::uint64_t> ids_;             // slot -> id
    std::unordered_map<std::uint64_t, std::size_t> slotOf_; // id -> slot
};

} // namespace modm::embedding

#endif // MODM_EMBEDDING_INDEX_HH
