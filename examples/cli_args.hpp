// Strict numeric argument parsing shared by the ppaint_cli and ppaint_serve
// command lines: a malformed number is a usage error that names the
// argument, never a silently truncated value or an uncaught
// std::invalid_argument.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace pp::cli {

/// The WHOLE of `v` must be a base-10 integer inside [lo, hi]: "1e3",
/// "32x", "-1" for a non-negative argument and "" all fail. On failure
/// prints "<prog>: <arg> needs an integer in [lo, hi], got '<v>'" to stderr
/// and returns false (out untouched).
inline bool parse_num(const char* prog, const char* arg, const std::string& v,
                      long long lo, long long hi, long long* out) {
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || errno != 0 || end != v.c_str() + v.size() || x < lo ||
      x > hi) {
    std::fprintf(stderr, "%s: %s needs an integer in [%lld, %lld], got '%s'\n",
                 prog, arg, lo, hi, v.c_str());
    return false;
  }
  *out = x;
  return true;
}

}  // namespace pp::cli
