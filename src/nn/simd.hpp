// Runtime ISA selection for the kernel layer (see DESIGN.md "SIMD kernel
// layer").
//
// One binary carries every kernel set: the portable scalar kernels that
// every target compiles, plus the AVX2+FMA and AVX-512 microkernels, each
// built in a single translation unit with per-file vector flags (-mavx2
// -mfma / -mavx512f -mavx512bw -mavx512vl), so nothing else in the binary
// emits vector instructions. Which set runs is decided once per process:
//
//   PP_FORCE_ISA=scalar|avx2|avx512   explicit override (unknown values
//                              are a pp::Error; a tier the host/build
//                              cannot run is also an error, not a silent
//                              fallback);
//   unset                      cpuid probe, widest usable tier wins:
//                              avx512 > avx2 > scalar.
//
// Determinism contract: a fixed binary on a fixed (ISA, precision) is
// bitwise reproducible across PP_THREADS and batch splits (kernels are
// value-pure per output element; row-parallel GEMM chunking never changes
// a row's reduction order; the int8 path accumulates in exact int32).
// Different ISAs agree only to tolerance — FMA contracts rounding steps
// and vector exp is a polynomial — and so do different precisions of one
// ISA (quantization rounds weights/activations); cross-ISA and
// cross-precision parity is asserted with epsilons, never bitwise.
#pragma once

#include <string>

namespace pp::nn {

enum class Isa { kScalar, kAvx2, kAvx512 };

/// The ISA every dispatched kernel currently runs. Resolved from
/// PP_FORCE_ISA / cpuid on first call; after that it only changes through
/// force_isa/clear_forced_isa.
Isa active_isa();

/// "scalar", "avx2" or "avx512".
const char* isa_name(Isa isa);

/// True when the given ISA's kernels are compiled into this binary.
bool isa_compiled(Isa isa);

/// True when the ISA is usable on this host: compiled in AND supported by
/// the CPU. Scalar is always usable.
bool isa_usable(Isa isa);

/// Parses an ISA name as accepted by PP_FORCE_ISA. Throws pp::Error on
/// unknown names; the message lists the tiers compiled into this binary.
Isa parse_isa(const std::string& name);

/// Test/bench hook: pins the dispatched ISA for the whole process until
/// clear_forced_isa(). Throws pp::Error when the ISA is not usable here.
void force_isa(Isa isa);

/// Drops a force_isa() pin; dispatch returns to the PP_FORCE_ISA / cpuid
/// resolution.
void clear_forced_isa();

}  // namespace pp::nn
