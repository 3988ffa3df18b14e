// Binary raster layout clips.
//
// A Raster is the pixel-level representation PatternPaint operates on: each
// pixel is a fixed 1nm x 1nm square, value 1 = metal present, 0 = empty.
// This is the representation the diffusion model generates and the DRC
// engine checks; the squish module converts it to/from the compressed
// topology + delta-vector form.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/rect.hpp"

namespace pp {

class Raster {
 public:
  Raster() = default;

  /// Creates a width x height raster filled with `fill` (0 or 1).
  Raster(int width, int height, std::uint8_t fill = 0);

  int width() const { return width_; }
  int height() const { return height_; }
  long long size() const {
    return static_cast<long long>(width_) * height_;
  }
  bool empty() const { return width_ == 0 || height_ == 0; }

  /// Unchecked pixel access (hot loops). y is the row, x the column.
  std::uint8_t operator()(int x, int y) const {
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }
  std::uint8_t& operator()(int x, int y) {
    return data_[static_cast<std::size_t>(y) * width_ + x];
  }

  /// Checked access: throws pp::Error when out of bounds.
  std::uint8_t at(int x, int y) const;
  void set(int x, int y, std::uint8_t v);

  /// Pixel value treating everything outside the clip as empty (0).
  std::uint8_t at_or_zero(int x, int y) const {
    if (x < 0 || y < 0 || x >= width_ || y >= height_) return 0;
    return (*this)(x, y);
  }

  const std::vector<std::uint8_t>& data() const { return data_; }
  std::vector<std::uint8_t>& data() { return data_; }

  Rect bounds() const { return Rect{0, 0, width_, height_}; }

  /// Sets every pixel in r (clipped to bounds) to v.
  void fill_rect(const Rect& r, std::uint8_t v);

  /// Number of set (metal) pixels.
  long long count_ones() const;

  /// Fraction of set pixels in [0,1]; 0 for an empty raster.
  double density() const;

  /// Returns the sub-clip r (clipped against bounds).
  Raster crop(const Rect& r) const;

  /// Pastes `src` with its top-left corner at (x, y), clipped.
  void paste(const Raster& src, int x, int y);

  /// Logical per-pixel operations; operands must have identical shape.
  static Raster logical_and(const Raster& a, const Raster& b);
  static Raster logical_or(const Raster& a, const Raster& b);
  static Raster logical_xor(const Raster& a, const Raster& b);

  /// Number of pixels that differ; shapes must match.
  static long long hamming(const Raster& a, const Raster& b);

  /// Transposes rows and columns (used to share horizontal/vertical checks).
  Raster transposed() const;

  /// 64-bit content hash (FNV-1a over shape + pixels).
  std::uint64_t hash() const;

  /// Multi-line '.'/'#' drawing for test failure messages.
  std::string to_ascii() const;

  /// Parses a '.'/'#' drawing (rows separated by '\n'); ignores blank lines.
  static Raster from_ascii(const std::string& art);

  friend bool operator==(const Raster& a, const Raster& b) {
    return a.width_ == b.width_ && a.height_ == b.height_ && a.data_ == b.data_;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace pp
