// Internal: SIMD kernel entry points (implementation in kernels_simd.cpp,
// the only TU the build compiles with a vector ISA — -mavx2 on x86-64,
// isolated there so the rest of the library stays runnable on any host).
//
// These must only be invoked when the backend factory resolved the call
// to the SIMD tier (backend.h rule "vector"): the factory's runtime cpuid
// probe is what makes executing AVX2 instructions safe. On builds without
// a vector ISA the same symbols exist as delegation stubs to the blocked
// kernels, and BackendFactory::simd_compiled() reports false so the
// factory never selects them. Public dispatch lives in kernels.h.
#pragma once

#include <cstdint>

namespace vf::kernels::detail {

void matmul_simd(const float* a, const float* b, float* out, std::int64_t m,
                 std::int64_t k, std::int64_t n);
void matmul_tl_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n);
void matmul_tr_simd(const float* a, const float* b, float* out, std::int64_t m,
                    std::int64_t k, std::int64_t n);
void mul_simd(const float* a, const float* b, float* out, std::int64_t count);
void column_sums_simd(const float* in, float* out, std::int64_t rows,
                      std::int64_t cols);

}  // namespace vf::kernels::detail
