/**
 * @file
 * The dispatched build of the lane-per-prefix sweep kernel
 * (core/lane_kernel.hh): the same source as the portable build in
 * core/mbavf_kernel.cc, compiled with -mavx2 so a block of 8 mode
 * lanes fills one 256-bit register.
 *
 * Built only when MBAVF_SIMD is on and the target is x86-64; callers
 * must check avx2KernelAvailable() (a runtime CPUID probe) first.
 * Otherwise this unit compiles to a stub that reports the build
 * unavailable.
 */

#include "core/mbavf_kernel.hh"

#if defined(MBAVF_SIMD_AVX2) && defined(__AVX2__)

#include "core/lane_kernel.hh"

namespace mbavf
{
namespace detail
{

bool
avx2KernelAvailable()
{
    return __builtin_cpu_supports("avx2");
}

void
sweepRowsAvx2(const SweepCtx &ctx, std::uint64_t row_begin,
              std::uint64_t row_end, ModeAccumulators &out,
              SweepTallies &tallies)
{
    sweepRowsLanes(ctx, row_begin, row_end, out, tallies);
}

} // namespace detail
} // namespace mbavf

#else // !MBAVF_SIMD_AVX2

namespace mbavf
{
namespace detail
{

bool
avx2KernelAvailable()
{
    return false;
}

void
sweepRowsAvx2(const SweepCtx &, std::uint64_t, std::uint64_t,
              ModeAccumulators &, SweepTallies &)
{
    panic("AVX2 sweep kernel is not compiled into this build");
}

} // namespace detail
} // namespace mbavf

#endif // MBAVF_SIMD_AVX2
