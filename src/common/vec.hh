/**
 * @file
 * Dense float vector math used by the synthetic CLIP embedding space, the
 * diffusion latent simulator, and the evaluation metrics.
 *
 * Vectors are plain std::vector<float>; the helpers here keep hot loops
 * (dot products against a cache of 100k embeddings) simple enough for the
 * compiler to vectorise.
 */

#ifndef MODM_COMMON_VEC_HH
#define MODM_COMMON_VEC_HH

#include <cstddef>
#include <vector>

namespace modm {

class Rng;

using Vec = std::vector<float>;

/** Dot product; both vectors must have equal dimension. */
double dot(const Vec &a, const Vec &b);

/**
 * Dot product over raw rows of length n — THE retrieval hot loop,
 * shared by every VectorIndex backend (FlatIndex row scans, IvfIndex
 * centroid assignment and list scans). One definition, inline in the
 * header so each scan loop vectorizes it in context. Speed up here
 * and every backend speeds up together.
 *
 * The inner loop is a 4-way unrolled multi-accumulator: a single
 * `acc += a[i] * b[i]` chain serializes on the ~4-cycle FP-add
 * latency and cannot be auto-vectorized without -ffast-math (FP
 * addition is not associative, so the compiler must preserve the
 * chain); four independent double accumulators break the dependence
 * and let the compiler emit SIMD multiply-adds. Each float product is
 * exact in double (24+24 significand bits < 53), but the blocked
 * summation order differs from the sequential chain, so results can
 * differ from the pre-unroll loop in the last ulp — the pinned serving
 * digests were re-pinned once for this change (hex-float digests
 * capture every bit; all figure tables, which print rounded values,
 * were verified byte-identical).
 */
inline double
dot(const float *a, const float *b, std::size_t n)
{
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    // Both loops run over explicit bounds: with one counter carried
    // from the first loop into the second, GCC 12 inlining a constant n
    // reports a bogus -Waggressive-loop-optimizations on the remainder.
    const std::size_t whole = n - n % 4;
    for (std::size_t i = 0; i < whole; i += 4) {
        acc0 += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        acc1 += static_cast<double>(a[i + 1]) *
            static_cast<double>(b[i + 1]);
        acc2 += static_cast<double>(a[i + 2]) *
            static_cast<double>(b[i + 2]);
        acc3 += static_cast<double>(a[i + 3]) *
            static_cast<double>(b[i + 3]);
    }
    double acc = (acc0 + acc1) + (acc2 + acc3);
    for (std::size_t i = whole; i < n; ++i)
        acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return acc;
}

/** Euclidean norm. */
double norm(const Vec &a);

/** Squared Euclidean distance. */
double distanceSquared(const Vec &a, const Vec &b);

/** Normalize in place to unit length; zero vectors are left unchanged. */
void normalize(Vec &a);

/** Return a unit-length copy. */
Vec normalized(const Vec &a);

/** Cosine similarity in [-1, 1]; zero vectors yield 0. */
double cosine(const Vec &a, const Vec &b);

/** a += s * b. */
void axpy(Vec &a, double s, const Vec &b);

/** Element-wise convex blend: (1 - t) * a + t * b. */
Vec lerp(const Vec &a, const Vec &b, double t);

/** Scale in place. */
void scale(Vec &a, double s);

/** i.i.d. standard normal vector of the given dimension. */
Vec gaussianVec(std::size_t dim, Rng &rng);

/** Unit vector drawn uniformly from the sphere. */
Vec randomUnitVec(std::size_t dim, Rng &rng);

/**
 * Perturb a unit vector by an isotropic random direction of total norm
 * `strength`, then re-normalize; models "a nearby concept".
 *
 * The perturbation norm (not the per-coordinate noise) is what controls
 * the resulting cosine: cos(out, base) ~= 1 / sqrt(1 + strength^2), so
 * callers can dial in similarity structure independent of dimension.
 */
Vec jitterUnitVec(const Vec &base, double strength, Rng &rng);

} // namespace modm

#endif // MODM_COMMON_VEC_HH
