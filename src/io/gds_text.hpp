// GDSII-style ASCII export / import of pattern libraries.
//
// Downstream EDA flows consume layout clips as GDS; this module writes a
// KLayout-style ASCII GDS ("gdstxt") stream with one structure per pattern
// and one BOUNDARY element per rectangle of the disjoint slab decomposition
// (rectangle soup is valid GDS geometry and round-trips exactly).
//
// Because GDS has no canvas concept, the clip dimensions are encoded in the
// structure name: "pattern_<index>_w<width>_h<height>". The reader accepts
// arbitrary rectilinear BOUNDARY polygons (even-odd fill at pixel centres),
// so clips exported by other tools import correctly too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/raster.hpp"

namespace pp {

/// Largest clip side read_gds_text accepts. It is at least the largest
/// expansion canvas (expand::kMaxCanvasEdge; ppaint_cli static_asserts it),
/// so a canvas written by `ppaint_cli expand` reads back. A structure name
/// that declares more is a pp::Error before any raster is allocated.
inline constexpr int kMaxGdsClipEdge = 4096;

/// Largest total of pixels the structures of one file may declare (four
/// 4096^2 canvases), so a short file cannot ask for gigabytes. The structure
/// that crosses it is a pp::Error before its raster is allocated.
inline constexpr std::uint64_t kMaxGdsTotalPixels = std::uint64_t{1} << 26;

struct GdsTextOptions {
  int layer = 10;
  int datatype = 0;
  std::string libname = "PPLIB";
};

/// Writes the library; throws pp::Error on I/O failure.
void write_gds_text(const std::vector<Raster>& patterns,
                    const std::string& path, const GdsTextOptions& opts = {});

/// Reads a library previously written by write_gds_text (or compatible
/// ASCII GDS with rectilinear boundaries and encoded structure names).
/// Throws pp::Error on parse errors, including a side above
/// kMaxGdsClipEdge or a pixel total above kMaxGdsTotalPixels.
std::vector<Raster> read_gds_text(const std::string& path);

/// Rasterizes one closed rectilinear polygon (vertices in pixel corner
/// coordinates, implicit closing edge) onto a canvas using even-odd filling
/// at pixel centres. Exposed for tests.
void fill_polygon(Raster& canvas, const std::vector<Point>& vertices);

}  // namespace pp
