#include "src/common/row_store.hh"

#include <cstring>

#include "src/common/log.hh"

namespace modm {

namespace {

float *
allocAligned(std::size_t floats)
{
    return static_cast<float *>(
        ::operator new[](floats * sizeof(float), std::align_val_t{64}));
}

} // namespace

// ----------------------------------------------------------- AlignedRows

template <typename T>
void
BasicAlignedRows<T>::reset(std::size_t dim)
{
    MODM_ASSERT(dim > 0, "AlignedRows needs a positive dim");
    dim_ = dim;
    stride_ = alignedRowStride<T>(dim);
    size_ = 0;
    capacity_ = 0;
    data_.reset();
}

template <typename T>
void
BasicAlignedRows<T>::grow(std::size_t rows)
{
    std::size_t cap = capacity_ ? capacity_ : 16;
    while (cap < rows)
        cap *= 2;
    std::unique_ptr<T[], Free> fresh(static_cast<T *>(::operator new[](
        cap * stride_ * sizeof(T), std::align_val_t{64})));
    if (size_ > 0)
        std::memcpy(fresh.get(), data_.get(), size_ * stride_ * sizeof(T));
    data_ = std::move(fresh);
    capacity_ = cap;
}

template <typename T>
void
BasicAlignedRows<T>::reserve(std::size_t rows)
{
    if (rows > capacity_)
        grow(rows);
}

template <typename T>
T *
BasicAlignedRows<T>::append()
{
    MODM_ASSERT(dim_ > 0, "AlignedRows::reset before append");
    if (size_ == capacity_)
        grow(size_ + 1);
    T *dst = data_.get() + size_++ * stride_;
    // Zero the pad once so the buffer never holds indeterminate bytes
    // (the kernels score exactly dim elements and skip the pad).
    for (std::size_t i = dim_; i < stride_; ++i)
        dst[i] = T{};
    return dst;
}

template <typename T>
std::size_t
BasicAlignedRows<T>::pushBack(const T *src)
{
    std::memcpy(append(), src, dim_ * sizeof(T));
    return size_ - 1;
}

template <typename T>
void
BasicAlignedRows<T>::swapRemove(std::size_t slot)
{
    MODM_ASSERT(slot < size_, "AlignedRows::swapRemove out of range");
    const std::size_t last = size_ - 1;
    if (slot != last) {
        std::memcpy(data_.get() + slot * stride_,
                    data_.get() + last * stride_, stride_ * sizeof(T));
    }
    size_ = last;
}

template class BasicAlignedRows<float>;
template class BasicAlignedRows<std::int8_t>;

// ------------------------------------------------------------- RowStore

RowStore::RowStore(std::size_t dim, std::size_t rowsPerChunk)
    : dim_(dim), stride_(alignedRowStride(dim)),
      rowsPerChunk_(rowsPerChunk)
{
    MODM_ASSERT(dim > 0, "RowStore needs a positive dim");
    MODM_ASSERT(rowsPerChunk > 0, "RowStore needs rows per chunk");
}

RowStore::Slot
RowStore::insert(const float *src)
{
    Slot slot;
    if (!freelist_.empty()) {
        slot = freelist_.back();
        freelist_.pop_back();
    } else {
        slot = static_cast<Slot>(next_++);
        if (slot / rowsPerChunk_ == chunks_.size())
            chunks_.emplace_back(allocAligned(rowsPerChunk_ * stride_));
    }
    float *dst = row(slot);
    std::memcpy(dst, src, dim_ * sizeof(float));
    for (std::size_t i = dim_; i < stride_; ++i)
        dst[i] = 0.0f;
    ++live_;
    return slot;
}

void
RowStore::release(Slot slot)
{
    MODM_ASSERT(slot < next_, "RowStore::release of unknown slot");
    MODM_ASSERT(live_ > 0, "RowStore::release with no live rows");
    freelist_.push_back(slot);
    --live_;
}

void
RowStore::clear()
{
    chunks_.clear();
    freelist_.clear();
    next_ = 0;
    live_ = 0;
}

} // namespace modm
