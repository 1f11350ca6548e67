#include "fidr/common/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace fidr::simd {
namespace {

// Kernel TUs are only compiled on x86-64 (src/fidr/*/CMakeLists.txt
// sets FIDR_SIMD_X86 alongside the per-file -msse4.1/-mavx2 flags);
// everywhere else only the scalar reference exists.
bool
cpu_probe(Target target)
{
#if defined(FIDR_SIMD_X86)
    switch (target) {
      case Target::kScalar: return true;
      case Target::kSse4: return __builtin_cpu_supports("sse4.1");
      case Target::kAvx2: return __builtin_cpu_supports("avx2");
      case Target::kAvx512:
        // The AVX-512 chunker keeps the gear table in zmm registers
        // via vpermi2w, which needs VBMI on top of F+BW.
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vbmi");
    }
    return false;
#else
    return target == Target::kScalar;
#endif
}

Target
probe_detected()
{
    if (cpu_probe(Target::kAvx512))
        return Target::kAvx512;
    if (cpu_probe(Target::kAvx2))
        return Target::kAvx2;
    if (cpu_probe(Target::kSse4))
        return Target::kSse4;
    return Target::kScalar;
}

Target
initial_target()
{
    const char *env = std::getenv("FIDR_SIMD");
    if (env == nullptr || std::string_view(env).empty())
        return detected();
    const std::optional<Target> parsed = parse(env);
    if (!parsed) {
        std::fprintf(stderr,
                     "fidr: FIDR_SIMD=%s not recognized "
                     "(auto|avx512|avx2|sse4|scalar); using %s\n",
                     env, name(detected()));
        return detected();
    }
    if (!supported(*parsed)) {
        std::fprintf(stderr,
                     "fidr: FIDR_SIMD=%s unsupported on this host; "
                     "using %s\n",
                     env, name(detected()));
        return detected();
    }
    return *parsed;
}

std::atomic<Target> &
active_slot()
{
    static std::atomic<Target> slot(initial_target());
    return slot;
}

}  // namespace

bool
supported(Target target)
{
    return target <= detected();
}

Target
detected()
{
    static const Target cached = probe_detected();
    return cached;
}

bool
sha_ni()
{
#if defined(FIDR_SIMD_X86)
    static const bool cached = __builtin_cpu_supports("sha");
    return cached;
#else
    return false;
#endif
}

Target
active()
{
    return active_slot().load(std::memory_order_relaxed);
}

Target
set_target(Target target)
{
    const Target clamped = supported(target) ? target : detected();
    active_slot().store(clamped, std::memory_order_relaxed);
    return clamped;
}

const char *
name(Target target)
{
    switch (target) {
      case Target::kScalar: return "scalar";
      case Target::kSse4: return "sse4";
      case Target::kAvx2: return "avx2";
      case Target::kAvx512: return "avx512";
    }
    return "?";
}

std::optional<Target>
parse(std::string_view text)
{
    if (text == "auto")
        return detected();
    if (text == "scalar")
        return Target::kScalar;
    if (text == "sse4")
        return Target::kSse4;
    if (text == "avx2")
        return Target::kAvx2;
    if (text == "avx512")
        return Target::kAvx512;
    return std::nullopt;
}

}  // namespace fidr::simd
