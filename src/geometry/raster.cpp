#include "geometry/raster.hpp"

#include <sstream>

#include "common/error.hpp"

namespace pp {

Raster::Raster(int width, int height, std::uint8_t fill)
    : width_(width), height_(height) {
  PP_REQUIRE(width >= 0 && height >= 0);
  data_.assign(static_cast<std::size_t>(width) * height, fill);
}

std::uint8_t Raster::at(int x, int y) const {
  PP_REQUIRE_MSG(x >= 0 && x < width_ && y >= 0 && y < height_,
                 "raster access out of bounds");
  return (*this)(x, y);
}

void Raster::set(int x, int y, std::uint8_t v) {
  PP_REQUIRE_MSG(x >= 0 && x < width_ && y >= 0 && y < height_,
                 "raster access out of bounds");
  (*this)(x, y) = v;
}

void Raster::fill_rect(const Rect& r, std::uint8_t v) {
  Rect c = r.intersection(bounds());
  for (int y = c.y0; y < c.y1; ++y)
    for (int x = c.x0; x < c.x1; ++x) (*this)(x, y) = v;
}

long long Raster::count_ones() const {
  long long n = 0;
  for (std::uint8_t v : data_) n += (v != 0);
  return n;
}

double Raster::density() const {
  if (empty()) return 0.0;
  return static_cast<double>(count_ones()) / static_cast<double>(size());
}

Raster Raster::crop(const Rect& r) const {
  Rect c = r.intersection(bounds());
  Raster out(c.width(), c.height());
  for (int y = 0; y < c.height(); ++y)
    for (int x = 0; x < c.width(); ++x)
      out(x, y) = (*this)(c.x0 + x, c.y0 + y);
  return out;
}

void Raster::paste(const Raster& src, int x, int y) {
  for (int sy = 0; sy < src.height(); ++sy) {
    int dy = y + sy;
    if (dy < 0 || dy >= height_) continue;
    for (int sx = 0; sx < src.width(); ++sx) {
      int dx = x + sx;
      if (dx < 0 || dx >= width_) continue;
      (*this)(dx, dy) = src(sx, sy);
    }
  }
}

namespace {
void require_same_shape(const Raster& a, const Raster& b) {
  PP_REQUIRE_MSG(a.width() == b.width() && a.height() == b.height(),
                 "raster shape mismatch");
}
}  // namespace

Raster Raster::logical_and(const Raster& a, const Raster& b) {
  require_same_shape(a, b);
  Raster out(a.width(), a.height());
  for (std::size_t i = 0; i < out.data().size(); ++i)
    out.data()[i] = (a.data()[i] && b.data()[i]) ? 1 : 0;
  return out;
}

Raster Raster::logical_or(const Raster& a, const Raster& b) {
  require_same_shape(a, b);
  Raster out(a.width(), a.height());
  for (std::size_t i = 0; i < out.data().size(); ++i)
    out.data()[i] = (a.data()[i] || b.data()[i]) ? 1 : 0;
  return out;
}

Raster Raster::logical_xor(const Raster& a, const Raster& b) {
  require_same_shape(a, b);
  Raster out(a.width(), a.height());
  for (std::size_t i = 0; i < out.data().size(); ++i)
    out.data()[i] = ((a.data()[i] != 0) != (b.data()[i] != 0)) ? 1 : 0;
  return out;
}

long long Raster::hamming(const Raster& a, const Raster& b) {
  require_same_shape(a, b);
  long long n = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i)
    n += ((a.data()[i] != 0) != (b.data()[i] != 0));
  return n;
}

Raster Raster::transposed() const {
  Raster out(height_, width_);
  for (int y = 0; y < height_; ++y)
    for (int x = 0; x < width_; ++x) out(y, x) = (*this)(x, y);
  return out;
}

std::uint64_t Raster::hash() const {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(width_));
  mix(static_cast<std::uint64_t>(height_));
  for (std::uint8_t v : data_) mix(v != 0 ? 1u : 0u);
  return h;
}

std::string Raster::to_ascii() const {
  std::string s;
  s.reserve(static_cast<std::size_t>(height_) * (width_ + 1));
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) s += (*this)(x, y) ? '#' : '.';
    s += '\n';
  }
  return s;
}

Raster Raster::from_ascii(const std::string& art) {
  std::vector<std::string> rows;
  std::istringstream in(art);
  std::string line;
  while (std::getline(in, line)) {
    // Strip whitespace-only lines; allow indentation in test literals.
    std::string trimmed;
    for (char c : line)
      if (c == '.' || c == '#') trimmed += c;
    if (!trimmed.empty()) rows.push_back(trimmed);
  }
  if (rows.empty()) return Raster();
  std::size_t w = rows.front().size();
  for (const auto& r : rows)
    PP_REQUIRE_MSG(r.size() == w, "ragged ascii raster");
  Raster out(static_cast<int>(w), static_cast<int>(rows.size()));
  for (int y = 0; y < out.height(); ++y)
    for (int x = 0; x < out.width(); ++x)
      out(x, y) = rows[static_cast<std::size_t>(y)][static_cast<std::size_t>(x)] == '#' ? 1 : 0;
  return out;
}

}  // namespace pp
