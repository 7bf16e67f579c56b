#pragma once

/// \file dispatch.hpp
/// Runtime CPU dispatch for the rfp::simd micro-kernels (DESIGN.md
/// "Vectorized kernels"). The instruction set is probed once per process
/// (cpuid) and every kernel call routes through the chosen level; the
/// scalar fallback is always available and bit-identical to the vector
/// path (the Stage-B ranking kernel is instead within a certified margin
/// at every level, and the solver re-scores its winners canonically), so
/// dispatch never changes results — only speed.
///
/// Overrides:
///  - build: -DRFP_DISABLE_SIMD=ON compiles the vector kernels out
///    entirely (non-x86 hosts, or pinning the fallback under sanitizers);
///  - process: RFP_FORCE_SCALAR (any value other than "", "0", "false",
///    "off") forces the scalar path; RFP_SIMD_LEVEL=scalar|avx2|avx512
///    pins a specific level, clamped to what the machine can run.

namespace rfp::simd {

enum class Level {
  kScalar = 0,  ///< portable fallback, std::fma arithmetic
  kAvx2 = 1,    ///< AVX2 + FMA, 4-8 cells per instruction
  kAvx512 = 2,  ///< AVX-512F, 8-16 cells per instruction
};

/// Short stable name for logs/benches: "scalar", "avx2" or "avx512".
const char* name(Level level);

/// True when the AVX2 kernel translation unit was compiled in (the build
/// was not configured with -DRFP_DISABLE_SIMD and the compiler supports
/// the required target flags).
bool compiled_avx2();

/// True when the AVX-512 kernel translation unit was compiled in.
bool compiled_avx512();

/// The best level this machine can run, probed once (cpuid: AVX-512F for
/// kAvx512; AVX2 and FMA for kAvx2). kScalar when nothing vector was
/// compiled in.
Level detected();

/// detected(), unless the RFP_FORCE_SCALAR / RFP_SIMD_LEVEL environment
/// variables demand otherwise. Read once per process, like detected().
Level active();

/// Full override resolution, exposed for tests: RFP_FORCE_SCALAR (any
/// truthy value) wins outright; otherwise RFP_SIMD_LEVEL names a level
/// ("scalar"/"avx2"/"avx512") which is clamped so it never exceeds
/// `detected_level`; unset/empty/unrecognized values fall through to
/// `detected_level`.
Level resolve_level(Level detected_level, const char* force_scalar_env,
                    const char* simd_level_env);

}  // namespace rfp::simd
