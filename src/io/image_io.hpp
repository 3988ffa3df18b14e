// PGM image export/import for layout clips (no external image libraries).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "geometry/raster.hpp"

namespace pp {

/// Writes a binary raster as an 8-bit binary PGM (P5), metal = white.
/// `scale` repeats each layout pixel scale x scale image pixels for
/// visibility. Throws pp::Error on I/O failure.
void write_pgm(const Raster& r, const std::string& path, int scale = 1);

/// Reads a P5/P2 PGM (P5 samples are 16-bit big-endian when maxval > 255)
/// and thresholds at 128 into a binary raster. Throws pp::Error on a
/// malformed header, a truncated body or a sample above maxval.
Raster read_pgm(const std::string& path);

/// Bytes between `in`'s read position and the end of the file (0 when the
/// stream cannot seek, so an unbounded header is rejected, not trusted).
/// The readers bound a header's declared size by it before allocating.
std::uint64_t bytes_left(std::istream& in);

}  // namespace pp
