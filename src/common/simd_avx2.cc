// The width-4 (AVX2) kernel table. src/CMakeLists.txt compiles this TU with
// -mavx2 on x86-64 only; simd.cc runs its kernels solely after
// __builtin_cpu_supports("avx2") succeeds.

#include "common/simd_vector.h"

namespace fairhms {
namespace simd {
namespace internal {

const KernelTable* Avx2Kernels() {
#if defined(__GNUC__) && defined(__AVX2__)
  return VectorKernels<4>(DispatchLevel::kAvx2);
#else
  return nullptr;
#endif
}

}  // namespace internal
}  // namespace simd
}  // namespace fairhms
