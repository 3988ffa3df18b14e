// PGM image export/import for layout clips (no external image libraries).
#pragma once

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

}  // namespace pp
