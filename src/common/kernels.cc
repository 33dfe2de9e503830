#include "src/common/kernels.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "src/common/log.hh"

#if defined(__x86_64__) || defined(__i386__)
#define MODM_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace modm::kernels {
namespace {

// ---------------------------------------------------------------------
// Scalar tier: the 4-stripe accumulation written as the naive nested
// loop. Stripe j collects elements i % 4 == j in i order — the exact
// sums (and roundings) of every other default tier, so this is the
// reference the CI kernels job diffs against.
// ---------------------------------------------------------------------

double
dotScalar(const float *a, const float *b, std::size_t n)
{
    double stripe[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t j = 0; j < 4; ++j) {
            stripe[j] += static_cast<double>(a[i + j]) *
                static_cast<double>(b[i + j]);
        }
    }
    double acc = (stripe[0] + stripe[1]) + (stripe[2] + stripe[3]);
    for (; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

void
dot8Scalar(const float *q, const float *rows, std::size_t stride,
           const float *next, std::size_t n, double *out)
{
    (void)next;
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotScalar(q, rows + r * stride, n);
}

void
gather8Scalar(const float *q, const float *const *rows, std::size_t n,
              double *out)
{
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotScalar(q, rows[r], n);
}

// ---------------------------------------------------------------------
// Unrolled tier: the PR 5 hot loop (four independent accumulators, one
// pass). Same stripes, same combine, same remainder as scalar —
// bit-identical, just friendlier to the scheduler.
// ---------------------------------------------------------------------

double
dotUnrolled(const float *a, const float *b, std::size_t n)
{
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        acc1 += static_cast<double>(a[i + 1]) *
            static_cast<double>(b[i + 1]);
        acc2 += static_cast<double>(a[i + 2]) *
            static_cast<double>(b[i + 2]);
        acc3 += static_cast<double>(a[i + 3]) *
            static_cast<double>(b[i + 3]);
    }
    double acc = (acc0 + acc1) + (acc2 + acc3);
    for (; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

void
dot8Unrolled(const float *q, const float *rows, std::size_t stride,
             const float *next, std::size_t n, double *out)
{
    (void)next;
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotUnrolled(q, rows + r * stride, n);
}

void
gather8Unrolled(const float *q, const float *const *rows, std::size_t n,
                double *out)
{
    for (std::size_t r = 0; r < 8; ++r)
        out[r] = dotUnrolled(q, rows[r], n);
}

// ---------------------------------------------------------------------
// int8 prefilter, portable form (the scalar and unrolled tiers): a plain
// int32 loop, which compilers vectorize at baseline SSE2. Integer sums
// are exact, so every tier returns the same scores.
// ---------------------------------------------------------------------

std::int32_t
dotInt8(const std::int8_t *q, const std::int8_t *row, std::size_t n)
{
    std::int32_t acc = 0;
    for (std::size_t i = 0; i < n; ++i)
        acc += static_cast<std::int32_t>(q[i]) * row[i];
    return acc;
}

/** The prefilter score of one int32 sum: (float(sum) * sx) * sq. */
float
scaleInt8(std::int32_t sum, float rowScale, float queryScale)
{
    return (static_cast<float>(sum) * rowScale) * queryScale;
}

float
int8BatchPortable(const std::int8_t *q, float qScale,
                  const std::int8_t *rows, const float *rowScale,
                  std::size_t stride, std::size_t count, std::size_t n,
                  float *out)
{
    float best = -std::numeric_limits<float>::infinity();
    for (std::size_t r = 0; r < count; ++r) {
        out[r] = scaleInt8(dotInt8(q, rows + r * stride, n), rowScale[r],
                           qScale);
        best = std::max(best, out[r]);
    }
    return best;
}

#ifdef MODM_KERNELS_X86

// ---------------------------------------------------------------------
// AVX2 tier. Each __m256d accumulator IS the four stripes: lane j of
// `_mm256_fmadd_pd(cvtps_pd(row), cvtps_pd(query), acc)` performs
// stripe j's `acc += (double)a * (double)b` with a single rounding
// (the float product is exact in double), so sums stay bit-identical
// to the scalar tiers. The speed comes from the 8-row block — the
// query converts once per 4 elements instead of once per row — and
// from prefetching the next block: a 1M x 512 scan streams 2 GB and
// is bandwidth-bound, so hiding the miss latency beats widening the
// ALUs (measured 2.3x over the unrolled tier on this class of VM).
// ---------------------------------------------------------------------

__attribute__((target("avx2,fma"))) double
dotAvx2(const float *a, const float *b, std::size_t n)
{
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d va = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
        const __m256d vb = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
        acc = _mm256_fmadd_pd(va, vb, acc);
    }
    alignas(32) double l[4];
    _mm256_store_pd(l, acc);
    double out = (l[0] + l[1]) + (l[2] + l[3]);
    for (; i < n; ++i)
        out += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return out;
}

__attribute__((target("avx2,fma"))) void
dot8Avx2(const float *q, const float *rows, std::size_t stride,
         const float *next, std::size_t n, double *out)
{
    __m256d a[8];
    for (int r = 0; r < 8; ++r)
        a[r] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vq = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
        // Walk the next block at 2x the consumption rate so its lines
        // arrive before the current block's arithmetic runs out.
        if (next) {
            _mm_prefetch(reinterpret_cast<const char *>(next + i * 8),
                         _MM_HINT_T0);
        }
        for (int r = 0; r < 8; ++r) {
            a[r] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(rows + r * stride + i)), vq,
                a[r]);
        }
    }
    for (int r = 0; r < 8; ++r) {
        alignas(32) double l[4];
        _mm256_store_pd(l, a[r]);
        double acc = (l[0] + l[1]) + (l[2] + l[3]);
        for (std::size_t j = i; j < n; ++j) {
            acc += static_cast<double>(q[j]) *
                static_cast<double>(rows[r * stride + j]);
        }
        out[r] = acc;
    }
}

__attribute__((target("avx2,fma"))) void
gather8Avx2(const float *q, const float *const *rows, std::size_t n,
            double *out)
{
    __m256d a[8];
    for (int r = 0; r < 8; ++r)
        a[r] = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d vq = _mm256_cvtps_pd(_mm_loadu_ps(q + i));
        for (int r = 0; r < 8; ++r) {
            a[r] = _mm256_fmadd_pd(
                _mm256_cvtps_pd(_mm_loadu_ps(rows[r] + i)), vq, a[r]);
        }
    }
    for (int r = 0; r < 8; ++r) {
        alignas(32) double l[4];
        _mm256_store_pd(l, a[r]);
        double acc = (l[0] + l[1]) + (l[2] + l[3]);
        for (std::size_t j = i; j < n; ++j) {
            acc += static_cast<double>(q[j]) *
                static_cast<double>(rows[r][j]);
        }
        out[r] = acc;
    }
}

// The prefilter's AVX2 form. maddubs multiplies unsigned by signed
// bytes, so sign_epi8 moves the query's sign onto the row (a zero
// where Q_i is 0) and the query enters as |Q|. maddubs adds adjacent
// products into int16 lanes (at most 2 * 127^2 = 32258, so it never
// saturates) and madd against ones widens pairs of those into int32.
// Eight rows per block, with named accumulators (GCC keeps an indexed
// vector array on the stack), reduce through a hadd transpose to one
// vector of eight exact sums; it is scaled as the portable form scales
// it, so the scores match bit for bit. The prefetch walks the next
// block at the rate the current one is consumed.
__attribute__((target("avx2"), always_inline)) inline __m256i
maddInt8(const std::int8_t *row, __m256i absQ, __m256i signQ, __m256i acc)
{
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i *>(row));
    const __m256i pairs =
        _mm256_maddubs_epi16(absQ, _mm256_sign_epi8(x, signQ));
    return _mm256_add_epi32(acc,
                            _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)));
}

/** The int32 sums of elements [i, n) of eight rows: the part of a
 *  row shorter than one 32-byte step. Kept out of line, since only
 *  dims that are not a multiple of 32 reach it. */
__attribute__((target("avx2"), noinline)) __m256i
int8Tail8(const std::int8_t *q, const std::int8_t *rows, std::size_t stride,
          std::size_t i, std::size_t n)
{
    alignas(32) std::int32_t tail[8];
    for (std::size_t r = 0; r < 8; ++r)
        tail[r] = dotInt8(q + i, rows + r * stride + i, n - i);
    return _mm256_load_si256(reinterpret_cast<const __m256i *>(tail));
}

__attribute__((target("avx2"), always_inline)) inline float
int8x8Avx2(const std::int8_t *q, __m256 qScale, const std::int8_t *rows,
           const float *rowScale, std::size_t stride,
           const std::int8_t *next, std::size_t n, float *out)
{
    __m256i a0 = _mm256_setzero_si256();
    __m256i a1 = a0, a2 = a0, a3 = a0, a4 = a0, a5 = a0, a6 = a0, a7 = a0;
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i vq =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(q + i));
        const __m256i absQ = _mm256_abs_epi8(vq);
        if (next) {
            // 8 rows x 32 bytes consumed per step; fetch 256 bytes of
            // the next block.
            for (std::size_t line = 0; line < 256; line += 64) {
                _mm_prefetch(reinterpret_cast<const char *>(next + i * 8 +
                                                             line),
                             _MM_HINT_T0);
            }
        }
        const std::int8_t *row = rows + i;
        a0 = maddInt8(row, absQ, vq, a0);
        a1 = maddInt8(row + stride, absQ, vq, a1);
        a2 = maddInt8(row + 2 * stride, absQ, vq, a2);
        a3 = maddInt8(row + 3 * stride, absQ, vq, a3);
        a4 = maddInt8(row + 4 * stride, absQ, vq, a4);
        a5 = maddInt8(row + 5 * stride, absQ, vq, a5);
        a6 = maddInt8(row + 6 * stride, absQ, vq, a6);
        a7 = maddInt8(row + 7 * stride, absQ, vq, a7);
    }
    const __m256i u0 = _mm256_hadd_epi32(_mm256_hadd_epi32(a0, a1),
                                         _mm256_hadd_epi32(a2, a3));
    const __m256i u1 = _mm256_hadd_epi32(_mm256_hadd_epi32(a4, a5),
                                         _mm256_hadd_epi32(a6, a7));
    // u0 = rows 0-3 over lanes 0-3 | rows 0-3 over lanes 4-7; u1 the
    // same for rows 4-7. Pair the 128-bit halves and add.
    __m256i sums =
        _mm256_add_epi32(_mm256_permute2x128_si256(u0, u1, 0x20),
                         _mm256_permute2x128_si256(u0, u1, 0x31));
    if (i < n)
        sums = _mm256_add_epi32(sums, int8Tail8(q, rows, stride, i, n));
    const __m256 scores = _mm256_mul_ps(
        _mm256_mul_ps(_mm256_cvtepi32_ps(sums), _mm256_loadu_ps(rowScale)),
        qScale);
    _mm256_storeu_ps(out, scores);
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(scores),
                          _mm256_extractf128_ps(scores, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    return _mm_cvtss_f32(m);
}

__attribute__((target("avx2"))) float
int8BatchAvx2(const std::int8_t *q, float qScale, const std::int8_t *rows,
              const float *rowScale, std::size_t stride, std::size_t count,
              std::size_t n, float *out)
{
    const __m256 vScale = _mm256_set1_ps(qScale);
    float best = -std::numeric_limits<float>::infinity();
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        const std::int8_t *next =
            r + 16 <= count ? rows + (r + 8) * stride : nullptr;
        best = std::max(best, int8x8Avx2(q, vScale, rows + r * stride,
                                         rowScale + r, stride, next, n,
                                         out + r));
    }
    for (; r < count; ++r) {
        out[r] = scaleInt8(dotInt8(q, rows + r * stride, n), rowScale[r],
                           qScale);
        best = std::max(best, out[r]);
    }
    return best;
}

#endif // MODM_KERNELS_X86

// ---------------------------------------------------------------------
// Dispatch plumbing.
// ---------------------------------------------------------------------

struct Ops
{
    double (*dot1)(const float *, const float *, std::size_t);
    void (*dot8)(const float *, const float *, std::size_t,
                 const float *, std::size_t, double *);
    void (*gather8)(const float *, const float *const *, std::size_t,
                    double *);
    float (*int8Batch)(const std::int8_t *, float, const std::int8_t *,
                       const float *, std::size_t, std::size_t, std::size_t,
                       float *);
};

const Ops &
opsFor(Tier tier)
{
    static const Ops scalar{dotScalar, dot8Scalar, gather8Scalar,
                            int8BatchPortable};
    static const Ops unrolled{dotUnrolled, dot8Unrolled, gather8Unrolled,
                              int8BatchPortable};
#ifdef MODM_KERNELS_X86
    static const Ops avx2{dotAvx2, dot8Avx2, gather8Avx2, int8BatchAvx2};
#endif
    switch (tier) {
    case Tier::Scalar:
        return scalar;
#ifdef MODM_KERNELS_X86
    case Tier::Avx2:
        return avx2;
#endif
    case Tier::Unrolled:
    default:
        return unrolled;
    }
}

struct State
{
    Tier tier = Tier::Unrolled;
    bool fromEnv = false;
};

Tier
autoTier()
{
#ifdef MODM_KERNELS_X86
    if (tierAvailable(Tier::Avx2))
        return Tier::Avx2;
#endif
    return Tier::Unrolled;
}

State
initState()
{
    State s;
    const char *env = std::getenv("MODM_KERNEL");
    s.tier = tierFromEnv(env);
    s.fromEnv = env != nullptr && env[0] != '\0';
    return s;
}

State &
state()
{
    static State s = initState();
    return s;
}

// Resolve MODM_KERNEL during static initialization, while the program
// is still single-threaded: a fatal() from the first scan on a pool
// thread would run exit() under live workers and hang.
[[maybe_unused]] const State &kStartupState = state();

/** Rows per scoring block in topKBatch/bestBatch. */
constexpr std::size_t kScoreBlock = 256;

} // namespace

const char *
tierName(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
        return "scalar";
    case Tier::Unrolled:
        return "unrolled";
    case Tier::Avx2:
        return "avx2";
    }
    return "unrolled";
}

std::optional<Tier>
parseTier(std::string_view name)
{
    for (const Tier tier : {Tier::Scalar, Tier::Unrolled, Tier::Avx2}) {
        if (name == tierName(tier))
            return tier;
    }
    return std::nullopt;
}

Tier
tierFromEnv(const char *value)
{
    if (value == nullptr || value[0] == '\0')
        return autoTier();
    const std::optional<Tier> tier = parseTier(value);
    if (!tier) {
        fatal("MODM_KERNEL=%s: unknown kernel tier (expected scalar, "
              "unrolled or avx2)",
              value);
    }
    if (!tierAvailable(*tier)) {
        fatal("MODM_KERNEL=%s: tier not available on this build/CPU",
              value);
    }
    return *tier;
}

bool
tierAvailable(Tier tier)
{
    switch (tier) {
    case Tier::Scalar:
    case Tier::Unrolled:
        return true;
    case Tier::Avx2:
#ifdef MODM_KERNELS_X86
        // Static initialization may ask before libgcc's constructor
        // has filled in the CPU model.
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }
    return false;
}

KernelInfo
active()
{
    const State &s = state();
    return {s.tier, tierName(s.tier), s.fromEnv};
}

bool
setTier(Tier tier)
{
    if (!tierAvailable(tier))
        return false;
    state().tier = tier;
    return true;
}

double
dot(const float *a, const float *b, std::size_t n)
{
    return opsFor(state().tier).dot1(a, b, n);
}

void
dotBatch(const float *query, const float *rows, std::size_t stride,
         std::size_t count, std::size_t n, double *out)
{
    const Ops &ops = opsFor(state().tier);
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        const float *next =
            r + 16 <= count ? rows + (r + 8) * stride : nullptr;
        ops.dot8(query, rows + r * stride, stride, next, n, out + r);
    }
    for (; r < count; ++r)
        out[r] = ops.dot1(query, rows + r * stride, n);
}

void
dotGather(const float *query, const float *const *rows,
          std::size_t count, std::size_t n, double *out)
{
    const Ops &ops = opsFor(state().tier);
    // Touch every line of the following block's rows before scoring
    // the current one; scattered candidates (HNSW expansion) get the
    // same latency hiding the contiguous path gets from dot8.
    const std::size_t lines = (n * sizeof(float) + 63) / 64;
    std::size_t r = 0;
    for (; r + 8 <= count; r += 8) {
        if (r + 16 <= count) {
            for (std::size_t p = 0; p < 8; ++p) {
                const float *row = rows[r + 8 + p];
                for (std::size_t l = 0; l < lines; ++l)
                    __builtin_prefetch(row + l * 16);
            }
        }
        ops.gather8(query, rows + r, n, out + r);
    }
    for (; r < count; ++r)
        out[r] = ops.dot1(query, rows[r], n);
}

float
dotInt8Batch(const std::int8_t *query, float queryScale,
             const std::int8_t *rows, const float *rowScale,
             std::size_t stride, std::size_t count, std::size_t n,
             float *out)
{
    return opsFor(state().tier)
        .int8Batch(query, queryScale, rows, rowScale, stride, count, n, out);
}

std::vector<Scored>
topKBatch(const float *query, const float *rows, std::size_t stride,
          std::size_t count, std::size_t n, std::size_t k)
{
    std::vector<Scored> heap;
    if (k == 0)
        return heap;
    heap.reserve(std::min(k, count));
    // (score desc, slot asc): the FlatIndex ordering contract.
    const auto better = [](const Scored &x, const Scored &y) {
        if (x.score != y.score)
            return x.score > y.score;
        return x.slot < y.slot;
    };
    double scores[kScoreBlock];
    for (std::size_t base = 0; base < count; base += kScoreBlock) {
        const std::size_t len = std::min(kScoreBlock, count - base);
        dotBatch(query, rows + base * stride, stride, len, n, scores);
        for (std::size_t i = 0; i < len; ++i) {
            const Scored cand{base + i, scores[i]};
            if (heap.size() < k) {
                heap.push_back(cand);
                std::push_heap(heap.begin(), heap.end(), better);
            } else if (better(cand, heap.front())) {
                std::pop_heap(heap.begin(), heap.end(), better);
                heap.back() = cand;
                std::push_heap(heap.begin(), heap.end(), better);
            }
        }
    }
    std::sort(heap.begin(), heap.end(), better);
    return heap;
}

bool
bestBatch(const float *query, const float *rows, std::size_t stride,
          std::size_t count, std::size_t n, std::size_t *slot,
          double *score)
{
    if (count == 0)
        return false;
    double bestScore = 0.0;
    std::size_t bestSlot = 0;
    bool any = false;
    double scores[kScoreBlock];
    for (std::size_t base = 0; base < count; base += kScoreBlock) {
        const std::size_t len = std::min(kScoreBlock, count - base);
        dotBatch(query, rows + base * stride, stride, len, n, scores);
        for (std::size_t i = 0; i < len; ++i) {
            // Strictly greater: earliest slot wins ties, matching the
            // pre-kernel FlatIndex::scanBest admission.
            if (!any || scores[i] > bestScore) {
                any = true;
                bestScore = scores[i];
                bestSlot = base + i;
            }
        }
    }
    *slot = bestSlot;
    *score = bestScore;
    return true;
}

} // namespace modm::kernels
