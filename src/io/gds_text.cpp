#include "io/gds_text.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "geometry/polygon.hpp"

namespace pp {

namespace {

/// name[lo, hi) as an int in [1, kMaxGdsClipEdge]. The structure name is
/// outside input, so a non-numeric or out-of-range dimension is a
/// pp::Error, and the cap keeps a one-line name from asking for a
/// gigapixel raster.
int parse_dim(const std::string& name, std::size_t lo, std::size_t hi) {
  int v = 0;
  const char* first = name.data() + lo;
  const char* last = name.data() + hi;
  const auto [end, ec] = std::from_chars(first, last, v);
  PP_REQUIRE_MSG(ec == std::errc() && end == last && v > 0,
                 "bad GDS clip dimensions in " + name);
  PP_REQUIRE_MSG(v <= kMaxGdsClipEdge,
                 "GDS clip side above " + std::to_string(kMaxGdsClipEdge) +
                     " in " + name);
  return v;
}

}  // namespace

void fill_polygon(Raster& canvas, const std::vector<Point>& vertices) {
  PP_REQUIRE_MSG(vertices.size() >= 4, "polygon needs at least 4 vertices");
  // Even-odd scanline fill at pixel centres (x+0.5, y+0.5): count vertical
  // edges crossing the scanline to the left of the centre.
  for (int y = 0; y < canvas.height(); ++y) {
    double cy = y + 0.5;
    // Collect x coordinates of vertical edges spanning cy.
    std::vector<int> xs;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      const Point& a = vertices[i];
      const Point& b = vertices[(i + 1) % vertices.size()];
      if (a.x != b.x) continue;  // horizontal edge: no crossing
      int lo = std::min(a.y, b.y), hi = std::max(a.y, b.y);
      if (cy > lo && cy < hi) xs.push_back(a.x);
    }
    std::sort(xs.begin(), xs.end());
    // Fill between pairs of crossings.
    for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
      int x0 = std::max(0, xs[i]);
      int x1 = std::min(canvas.width(), xs[i + 1]);
      for (int x = x0; x < x1; ++x) canvas(x, y) = 1;
    }
  }
}

void write_gds_text(const std::vector<Raster>& patterns,
                    const std::string& path, const GdsTextOptions& opts) {
  std::ofstream out(path);
  PP_REQUIRE_MSG(out.good(), "cannot open GDS for writing: " + path);
  out << "HEADER 600\n";
  out << "BGNLIB\n";
  out << "LIBNAME " << opts.libname << "\n";
  out << "UNITS 0.001 1e-09\n";
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const Raster& r = patterns[i];
    out << "BGNSTR\n";
    out << "STRNAME pattern_" << i << "_w" << r.width() << "_h" << r.height()
        << "\n";
    for (const Rect& rect : decompose_rectangles(r)) {
      out << "BOUNDARY\n";
      out << "LAYER " << opts.layer << "\n";
      out << "DATATYPE " << opts.datatype << "\n";
      // 5 points, closed ring, counter-clockwise in y-up convention.
      out << "XY 5 " << rect.x0 << " " << rect.y0 << " " << rect.x1 << " "
          << rect.y0 << " " << rect.x1 << " " << rect.y1 << " " << rect.x0
          << " " << rect.y1 << " " << rect.x0 << " " << rect.y0 << "\n";
      out << "ENDEL\n";
    }
    out << "ENDSTR\n";
  }
  out << "ENDLIB\n";
  PP_REQUIRE_MSG(out.good(), "GDS write failed: " + path);
}

std::vector<Raster> read_gds_text(const std::string& path) {
  std::ifstream in(path);
  PP_REQUIRE_MSG(in.good(), "cannot open GDS for reading: " + path);
  std::vector<Raster> out;
  std::string line;
  bool saw_header = false;
  Raster current;
  bool in_struct = false;
  std::uint64_t total_pixels = 0;
  while (std::getline(in, line)) {
    std::istringstream row(line);
    std::string kw;
    row >> kw;
    if (kw == "HEADER") {
      saw_header = true;
    } else if (kw == "STRNAME") {
      PP_REQUIRE_MSG(saw_header, "STRNAME before HEADER in " + path);
      std::string name;
      row >> name;
      // Parse "..._w<width>_h<height>".
      auto wpos = name.rfind("_w");
      auto hpos = name.rfind("_h");
      PP_REQUIRE_MSG(wpos != std::string::npos && hpos != std::string::npos &&
                         hpos > wpos,
                     "GDS structure name lacks _w/_h dimensions: " + name);
      const int w = parse_dim(name, wpos + 2, hpos);
      const int h = parse_dim(name, hpos + 2, name.size());
      total_pixels += static_cast<std::uint64_t>(w) * h;
      PP_REQUIRE_MSG(total_pixels <= kMaxGdsTotalPixels,
                     "GDS structures declare more than " +
                         std::to_string(kMaxGdsTotalPixels) +
                         " pixels in total in " + path);
      current = Raster(w, h);
      in_struct = true;
    } else if (kw == "XY") {
      PP_REQUIRE_MSG(in_struct, "XY outside a structure in " + path);
      int n = 0;
      row >> n;
      PP_REQUIRE_MSG(n >= 4, "degenerate GDS boundary in " + path);
      std::vector<Point> pts;
      for (int i = 0; i < n; ++i) {
        Point p;
        row >> p.x >> p.y;
        PP_REQUIRE_MSG(!row.fail(), "truncated XY record in " + path);
        pts.push_back(p);
      }
      // Drop the explicit closing point if present.
      if (pts.size() >= 2 && pts.front() == pts.back()) pts.pop_back();
      fill_polygon(current, pts);
    } else if (kw == "ENDSTR") {
      PP_REQUIRE_MSG(in_struct, "ENDSTR without BGNSTR in " + path);
      out.push_back(std::move(current));
      in_struct = false;
    }
  }
  PP_REQUIRE_MSG(saw_header, "not an ASCII GDS file: " + path);
  PP_REQUIRE_MSG(!in_struct, "unterminated structure in " + path);
  return out;
}

}  // namespace pp
