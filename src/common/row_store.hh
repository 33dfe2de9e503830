/**
 * @file
 * Contiguous, cache-line-aligned storage for embedding rows.
 *
 * Before this layer, every index and cache owned scattered per-row
 * allocations (std::vector<float> per entry), so the retrieval hot
 * loops — which are memory-bound, not ALU-bound — chased pointers
 * across the heap. Two containers replace that:
 *
 *   AlignedRows  dense slot-addressed storage for index scans: one
 *                buffer, rows at slot * stride, 64-byte aligned, with
 *                swap-remove compaction. This is what dotBatch /
 *                topKBatch stream over. Int8Rows is the same slab over
 *                int8 codes (FlatIndex's prefilter shadow).
 *
 *   RowStore     chunked slab with STABLE row pointers plus a LIFO
 *                freelist, for caches: entries hand out `Slot` handles,
 *                eviction releases the slot for the next insert, and
 *                RowSource::row() returns the slab pointer directly
 *                (zero-copy re-rank).
 *
 * Rows are padded to a 64-byte stride (16 floats, 64 int8 codes) so
 * every row starts on a cache line; the pad elements are zeroed once and
 * never read by the kernels (which score exactly `dim` elements), so
 * results are unchanged. At the embedding dims this repo uses (64,
 * 512) the stride equals the dim and the byte accounting is identical
 * to the per-row-vector layout it replaces.
 */

#ifndef MODM_COMMON_ROW_STORE_HH
#define MODM_COMMON_ROW_STORE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace modm {

/** Round a row of `dim` T's up to a whole number of cache lines. */
template <typename T = float>
constexpr std::size_t
alignedRowStride(std::size_t dim)
{
    constexpr std::size_t perLine = 64 / sizeof(T);
    return (dim + perLine - 1) / perLine * perLine;
}

/**
 * Dense slot-addressed row storage: row r lives at data() + r *
 * stride(). Append with pushBack, compact with swapRemove (the caller
 * owns the slot-to-id mapping, exactly as with the flat vector this
 * replaces). Reallocation moves the buffer, so raw pointers are only
 * stable between mutations — index scans take them fresh per query.
 * Instantiated for float (AlignedRows) and std::int8_t (Int8Rows).
 */
template <typename T>
class BasicAlignedRows
{
  public:
    BasicAlignedRows() = default;
    explicit BasicAlignedRows(std::size_t dim) { reset(dim); }

    /** Set the row length and drop all rows. */
    void reset(std::size_t dim);

    std::size_t dim() const { return dim_; }
    /** Elements between consecutive rows (>= dim, 64-byte aligned). */
    std::size_t stride() const { return stride_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const T *data() const { return data_.get(); }
    const T *row(std::size_t slot) const
    {
        return data_.get() + slot * stride_;
    }
    T *row(std::size_t slot) { return data_.get() + slot * stride_; }

    void reserve(std::size_t rows);
    /** Append a row with its pad zeroed and return it for the caller
     *  to fill in [0, dim); the new slot is size() - 1. */
    T *append();
    /** Append a copy of src[0..dim); returns the new row's slot. */
    std::size_t pushBack(const T *src);
    /** Move the last row into `slot` and shrink by one. */
    void swapRemove(std::size_t slot);
    void clear() { size_ = 0; }

    /** Bytes of row payload (size * stride * sizeof(T)); no allocator
     *  slack, so the figure is a pure function of the construction
     *  sequence. */
    std::size_t memoryBytes() const
    {
        return size_ * stride_ * sizeof(T);
    }

  private:
    void grow(std::size_t rows);

    struct Free
    {
        void operator()(T *p) const
        {
            ::operator delete[](p, std::align_val_t{64});
        }
    };
    std::unique_ptr<T[], Free> data_;
    std::size_t dim_ = 0;
    std::size_t stride_ = 0;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

using AlignedRows = BasicAlignedRows<float>;
using Int8Rows = BasicAlignedRows<std::int8_t>;

/**
 * Chunked slab with stable pointers and freelist reuse. insert()
 * returns a Slot handle; row(slot) stays valid until release(slot)
 * regardless of later growth (chunks are never reallocated, only
 * appended). Released slots are reused LIFO, so a cache at steady
 * state (evict one, admit one) touches the same warm lines instead of
 * growing the heap.
 */
class RowStore
{
  public:
    using Slot = std::uint32_t;

    explicit RowStore(std::size_t dim, std::size_t rowsPerChunk = 1024);

    std::size_t dim() const { return dim_; }
    std::size_t stride() const { return stride_; }
    /** Slots currently handed out. */
    std::size_t liveRows() const { return live_; }

    /** Copy src[0..dim) into a (possibly recycled) slot. */
    Slot insert(const float *src);
    /** Return the slot to the freelist; its pointer becomes invalid. */
    void release(Slot slot);

    const float *row(Slot slot) const
    {
        return chunks_[slot / rowsPerChunk_].get() +
            static_cast<std::size_t>(slot % rowsPerChunk_) * stride_;
    }
    float *row(Slot slot)
    {
        return chunks_[slot / rowsPerChunk_].get() +
            static_cast<std::size_t>(slot % rowsPerChunk_) * stride_;
    }

    /** Drop every slot and chunk. */
    void clear();

    /** Bytes of live row payload (live * stride * 4). */
    std::size_t memoryBytes() const
    {
        return live_ * stride_ * sizeof(float);
    }

  private:
    struct Free
    {
        void operator()(float *p) const
        {
            ::operator delete[](p, std::align_val_t{64});
        }
    };

    std::size_t dim_;
    std::size_t stride_;
    std::size_t rowsPerChunk_;
    std::vector<std::unique_ptr<float[], Free>> chunks_;
    std::vector<Slot> freelist_;
    std::size_t next_ = 0; // first never-used slot
    std::size_t live_ = 0;
};

} // namespace modm

#endif // MODM_COMMON_ROW_STORE_HH
