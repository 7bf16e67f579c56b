#include "rfp/simd/dispatch.hpp"

#include <cstdlib>
#include <cstring>

namespace rfp::simd {

const char* name(Level level) {
  switch (level) {
    case Level::kAvx512:
      return "avx512";
    case Level::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

bool compiled_avx2() {
#if defined(RFP_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool compiled_avx512() {
#if defined(RFP_HAVE_AVX512)
  return true;
#else
  return false;
#endif
}

Level detected() {
#if defined(RFP_HAVE_AVX2) || defined(RFP_HAVE_AVX512)
  static const Level level = [] {
#if defined(RFP_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f")) return Level::kAvx512;
#endif
#if defined(RFP_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return Level::kAvx2;
    }
#endif
    return Level::kScalar;
  }();
  return level;
#else
  return Level::kScalar;
#endif
}

namespace {

bool env_truthy(const char* env) {
  return env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0 &&
         std::strcmp(env, "false") != 0 && std::strcmp(env, "off") != 0;
}

}  // namespace

Level resolve_level(Level detected_level, const char* force_scalar_env,
                    const char* simd_level_env) {
  if (env_truthy(force_scalar_env)) return Level::kScalar;
  if (simd_level_env != nullptr) {
    Level requested = detected_level;
    if (std::strcmp(simd_level_env, "scalar") == 0) {
      requested = Level::kScalar;
    } else if (std::strcmp(simd_level_env, "avx2") == 0) {
      requested = Level::kAvx2;
    } else if (std::strcmp(simd_level_env, "avx512") == 0) {
      requested = Level::kAvx512;
    }
    // Clamp: a pinned level never exceeds what the machine can run, so
    // CI can export RFP_SIMD_LEVEL=avx512 unconditionally and degrade
    // gracefully on narrower runners.
    return requested < detected_level ? requested : detected_level;
  }
  return detected_level;
}

Level active() {
  static const Level level =
      resolve_level(detected(), std::getenv("RFP_FORCE_SCALAR"),
                    std::getenv("RFP_SIMD_LEVEL"));
  return level;
}

}  // namespace rfp::simd
