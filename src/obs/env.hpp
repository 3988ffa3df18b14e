// Integer environment knobs: one strict parser for every bounded PP_*
// number (PP_THREADS, PP_TRACE_BUF).
//
// A value must be a whole decimal number inside the knob's bounds: no sign,
// no fraction, no exponent, no unit suffix, no surrounding space. A
// malformed value logs a [pp:warn] line and the knob keeps its default, so
// a typo such as `10MB` never silently becomes a different number.
#pragma once

#include <cstdint>
#include <optional>

namespace pp::obs {

/// `s` as a whole decimal integer in [lo, hi]; nullopt for anything else.
std::optional<std::uint64_t> parse_bounded(const char* s, std::uint64_t lo,
                                           std::uint64_t hi);

/// Environment variable `name` parsed by parse_bounded, or `fallback` when
/// it is unset or malformed. A malformed value logs a [pp:warn] line.
std::uint64_t env_bounded(const char* name, std::uint64_t lo,
                          std::uint64_t hi, std::uint64_t fallback);

}  // namespace pp::obs
