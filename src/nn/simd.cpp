#include "nn/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "common/error.hpp"
#include "nn/simd_kernels.hpp"
#include "obs/log.hpp"

namespace pp::nn {

namespace {

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

constexpr Isa kAllIsas[] = {Isa::kScalar, Isa::kAvx2, Isa::kAvx512};

// force_isa pin: -1 = none, otherwise static_cast<int>(Isa).
std::atomic<int> g_forced{-1};

Isa resolve_from_env() {
  if (const char* env = std::getenv("PP_FORCE_ISA")) {
    Isa isa = parse_isa(env);
    PP_REQUIRE_MSG(isa_usable(isa),
                   std::string("PP_FORCE_ISA=") + env +
                       " requested but this host/build does not support it");
    PP_LOG(Info) << "kernel ISA forced via PP_FORCE_ISA: " << isa_name(isa);
    return isa;
  }
  // Widest usable tier wins.
  Isa isa = Isa::kScalar;
  if (isa_usable(Isa::kAvx2)) isa = Isa::kAvx2;
  if (isa_usable(Isa::kAvx512)) isa = Isa::kAvx512;
  PP_LOG(Debug) << "kernel ISA dispatch: " << isa_name(isa);
  return isa;
}

}  // namespace

Isa active_isa() {
  int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  // Resolved once; a throwing resolution (bad PP_FORCE_ISA) retries on the
  // next call rather than caching the failure.
  static Isa resolved = resolve_from_env();
  return resolved;
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kAvx512: return "avx512";
    case Isa::kAvx2: return "avx2";
    case Isa::kScalar: break;
  }
  return "scalar";
}

bool isa_compiled(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kAvx2: return detail::avx2_kernels() != nullptr;
    case Isa::kAvx512: return detail::avx512_kernels() != nullptr;
  }
  return false;
}

bool isa_usable(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return true;
    case Isa::kAvx2: return isa_compiled(isa) && cpu_has_avx2_fma();
    case Isa::kAvx512: return isa_compiled(isa) && cpu_has_avx512();
  }
  return false;
}

Isa parse_isa(const std::string& name) {
  for (Isa isa : kAllIsas)
    if (name == isa_name(isa)) return isa;
  // The accepted set is whatever this binary actually carries, so an
  // avx512-less build reports its real choices.
  std::string accepted;
  for (Isa isa : kAllIsas) {
    if (!isa_compiled(isa)) continue;
    if (!accepted.empty()) accepted += ", ";
    accepted += '"';
    accepted += isa_name(isa);
    accepted += '"';
  }
  throw Error("unknown ISA '" + name + "' (compiled tiers: " + accepted + ")");
}

void force_isa(Isa isa) {
  PP_REQUIRE_MSG(isa_usable(isa), std::string("force_isa(") + isa_name(isa) +
                                      "): not usable on this host/build");
  g_forced.store(static_cast<int>(isa), std::memory_order_relaxed);
}

void clear_forced_isa() { g_forced.store(-1, std::memory_order_relaxed); }

namespace detail {

const KernelTable& active_kernels() {
  const Isa isa = active_isa();
  if (isa == Isa::kAvx512) {
    const KernelTable* t = avx512_kernels();
    if (t) return *t;
  }
  if (isa == Isa::kAvx2 || isa == Isa::kAvx512) {
    const KernelTable* t = avx2_kernels();
    if (t) return *t;
  }
  return scalar_kernels();
}

}  // namespace detail

}  // namespace pp::nn
