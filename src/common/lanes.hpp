/**
 * @file
 * The one CPU probe behind every SIMD lane kernel in src/.
 *
 * Internal to the library.  It is a header only so that the kernels and
 * their tests share one instruction-set list and one probe.
 *
 * A lane kernel is one template body on GCC vector types, compiled once
 * per ISA, each copy inlined into a function of its own `target`.  Each
 * kernel lists the instances it compiled as {isa, function pointers}
 * records and keeps the ones supportedInstances() returns: the host's
 * ISAs, widest first, the scalar loop last.  The kernel runs the first
 * one; a test runs them all against the scalar loop, and a microbench
 * times each one.  The pick is a cpuid branch rather than
 * target_clones, whose ifunc resolver crashes ThreadSanitizer-
 * instrumented programs at load time.
 *
 * A lane does the scalar arithmetic in the scalar order, so every
 * instance returns the scalar loop's bits.  That holds only while the
 * compiler does not contract a multiply and an add into one FMA, which
 * GCC does by default inside an AVX2/AVX-512 `target` function: the
 * library is built with -ffp-contract=off (src/CMakeLists.txt).
 */

#ifndef DHL_COMMON_LANES_HPP
#define DHL_COMMON_LANES_HPP

#include <cstddef>
#include <initializer_list>
#include <type_traits>
#include <vector>

#if defined(__x86_64__)
// Declares the builtins below at every ISA, not only the base one.
#include <immintrin.h>
#endif

namespace dhl {
namespace lanes {

/** The instruction sets a lane instance is compiled for. */
enum class LaneIsa
{
    Scalar, ///< 1 lane: the scalar loop, on a host without AVX2.
    Avx2,   ///< 4 double or 64-bit lanes: one ymm register.
    Avx512, ///< 8 double or 64-bit lanes: one zmm register (AVX-512F).
};

/** Lanes of 64-bit elements per block of @p isa. */
constexpr std::size_t
laneWidth(LaneIsa isa)
{
    return isa == LaneIsa::Avx512 ? 8 : isa == LaneIsa::Avx2 ? 4 : 1;
}

/** "avx512", "avx2" or "scalar": a label for tests and benchmarks. */
const char *isaName(LaneIsa isa);

/** The ISAs this host runs, widest first, Scalar last.  The CPU is
 *  probed on the first call only. */
const std::vector<LaneIsa> &supportedIsas();

/**
 * The records of @p compiled (one per ISA, each with an `isa` member)
 * whose ISA this host runs, in supportedIsas() order.
 */
template <typename Instance>
std::vector<Instance>
supportedInstances(std::initializer_list<Instance> compiled)
{
    std::vector<Instance> out;
    for (const LaneIsa isa : supportedIsas()) {
        for (const Instance &k : compiled) {
            if (k.isa == isa)
                out.push_back(k);
        }
    }
    return out;
}

#if defined(__x86_64__)
/** Four doubles: one AVX2 register. */
using F64x4 = double __attribute__((vector_size(32)));

/** Eight doubles: one AVX-512 register. */
using F64x8 = double __attribute__((vector_size(64)));

/** The double lanes of @p I, one of the vector ISAs. */
template <LaneIsa I>
using LaneVec = std::conditional_t<I == LaneIsa::Avx512, F64x8, F64x4>;

/** Lanes per block of @p I. */
template <LaneIsa I>
inline constexpr std::size_t kLaneWidth = laneWidth(I);

/**
 * True when the compare @p Pred holds in any lane of @p a against @p b:
 * one test on the ISA's native mask.  Pred is _CMP_LE_OS (a <= b) or
 * _CMP_UNORD_Q (either is NaN).  Spelt with GCC builtins rather than
 * <immintrin.h> intrinsics: a builtin is expanded in the function it is
 * finally inlined into, while an intrinsic is an always_inline function
 * that cannot be inlined into a template without the matching target
 * attribute.
 */
template <LaneIsa I, int Pred>
[[gnu::always_inline]] inline bool
anyCompare(const LaneVec<I> &a, const LaneVec<I> &b)
{
    static_assert(Pred == _CMP_LE_OS || Pred == _CMP_UNORD_Q);
    if constexpr (I == LaneIsa::Avx512) {
        // Under the current rounding mode.
        return __builtin_ia32_cmppd512_mask(a, b, Pred, 0xff, 4) != 0;
    } else if constexpr (Pred == _CMP_LE_OS) {
        return __builtin_ia32_movmskpd256(
                   reinterpret_cast<F64x4>(a <= b)) != 0;
    } else {
        return __builtin_ia32_movmskpd256(
                   reinterpret_cast<F64x4>((a != a) | (b != b))) != 0;
    }
}
#endif

} // namespace lanes
} // namespace dhl

#endif // DHL_COMMON_LANES_HPP
