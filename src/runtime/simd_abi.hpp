#pragma once
// simd_abi — the SIMD target the library was compiled for.
//
// The build raises the ISA baseline to AVX2, and to AVX-512 on top of
// it, where the host CPU supports them (CMakeLists.txt; NRC_NO_AVX2 and
// NRC_NO_AVX512 opt out).  This header names the resulting leg for
// reports: Schedule::describe() prints it on the SIMD-block schemes, and
// the benchmarks record it beside their numbers.  kGroupLanes is the
// lane-block width unit those reports and benchmark schedules size
// their blocks by: 8 on the AVX-512 leg, 4 elsewhere.

#if defined(__AVX2__) && !defined(NRC_NO_AVX2)
#define NRC_SIMD_AVX2 1
#else
#define NRC_SIMD_AVX2 0
#endif

// The AVX-512 leg layers on top of the AVX2 leg, so NRC_NO_AVX2 implies
// the scalar leg for both.
#if defined(__AVX512F__) && !defined(NRC_NO_AVX512) && NRC_SIMD_AVX2
#define NRC_SIMD_AVX512 1
#else
#define NRC_SIMD_AVX512 0
#endif

namespace nrc::simd {

/// Lanes of one 64-bit lane group on this target: 8 where a 512-bit
/// vector is native, 4 elsewhere.
inline constexpr int kGroupLanes = NRC_SIMD_AVX512 ? 8 : 4;

/// Compile-time ABI tag ("avx512" / "avx2" / "scalar").
inline constexpr const char* abi_name() {
#if NRC_SIMD_AVX512
  return "avx512";
#elif NRC_SIMD_AVX2
  return "avx2";
#else
  return "scalar";
#endif
}

/// The ABI leg actually usable at run time: the compiled leg
/// cross-checked against cpuid, so a binary compiled for an ISA its
/// host lacks reports the widest leg the CPU can execute instead of
/// the compile-time macro.
inline const char* runtime_abi() {
#if defined(__GNUC__) || defined(__clang__)
#if NRC_SIMD_AVX512
  if (__builtin_cpu_supports("avx512f")) return "avx512";
  return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
#elif NRC_SIMD_AVX2
  return __builtin_cpu_supports("avx2") ? "avx2" : "scalar";
#else
  return "scalar";
#endif
#else
  return abi_name();
#endif
}

}  // namespace nrc::simd
