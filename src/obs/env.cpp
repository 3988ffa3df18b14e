#include "obs/env.hpp"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "obs/log.hpp"

namespace pp::obs {

std::optional<std::uint64_t> parse_bounded(const char* s, std::uint64_t lo,
                                           std::uint64_t hi) {
  const char* end = s + std::strlen(s);
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s, end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

std::uint64_t env_bounded(const char* name, std::uint64_t lo,
                          std::uint64_t hi, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (!env) return fallback;
  if (const auto v = parse_bounded(env, lo, hi)) return *v;
  PP_LOG(Warn) << name << "='" << env << "' is not a whole number in [" << lo
               << ", " << hi << "]; using " << fallback;
  return fallback;
}

}  // namespace pp::obs
