#include "io/image_io.hpp"

#include <charconv>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/error.hpp"

namespace pp {

std::uint64_t bytes_left(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here || !in.good()) return 0;
  return static_cast<std::uint64_t>(end - here);
}

void write_pgm(const Raster& r, const std::string& path, int scale) {
  PP_REQUIRE(scale >= 1);
  std::ofstream out(path, std::ios::binary);
  PP_REQUIRE_MSG(out.good(), "cannot open for writing: " + path);
  out << "P5\n" << r.width() * scale << " " << r.height() * scale << "\n255\n";
  std::string row(static_cast<std::size_t>(r.width()) * scale, '\0');
  for (int y = 0; y < r.height(); ++y) {
    for (int x = 0; x < r.width(); ++x) {
      char v = r(x, y) ? static_cast<char>(255) : 0;
      for (int s = 0; s < scale; ++s)
        row[static_cast<std::size_t>(x) * scale + s] = v;
    }
    for (int s = 0; s < scale; ++s) out.write(row.data(), row.size());
  }
  PP_REQUIRE_MSG(out.good(), "write failed: " + path);
}

Raster read_pgm(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PP_REQUIRE_MSG(in.good(), "cannot open for reading: " + path);
  std::string magic;
  in >> magic;
  PP_REQUIRE_MSG(magic == "P5" || magic == "P2", "not a PGM file: " + path);
  auto next_token = [&in, &path]() {
    std::string tok;
    for (;;) {
      in >> tok;
      PP_REQUIRE_MSG(in.good(), "truncated PGM header: " + path);
      if (tok[0] == '#') {
        std::string rest;
        std::getline(in, rest);
        continue;
      }
      return tok;
    }
  };
  // Header integers are outside input: a non-numeric or out-of-range
  // token is a pp::Error like any other malformed file.
  auto next_int = [&next_token, &path]() {
    const std::string tok = next_token();
    int v = 0;
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    PP_REQUIRE_MSG(ec == std::errc() && end == tok.data() + tok.size(),
                   "bad PGM header value '" + tok + "': " + path);
    return v;
  };
  const int w = next_int();
  const int h = next_int();
  const int maxv = next_int();
  PP_REQUIRE_MSG(w > 0 && h > 0 && maxv > 0 && maxv < 65536,
                 "bad PGM dimensions: " + path);
  // P5 samples are one byte, or two big-endian bytes when maxval > 255.
  const std::size_t bytes = maxv > 255 ? 2 : 1;
  // Bound the header by the file before allocating width x height: P5
  // needs one separator byte plus `bytes` per sample, P2 at least a digit
  // and a separator per sample.
  const std::uint64_t samples =
      static_cast<std::uint64_t>(w) * static_cast<std::uint64_t>(h);
  const std::uint64_t need =
      magic == "P5" ? 1 + samples * bytes : 2 * samples;
  const std::uint64_t left = bytes_left(in);
  PP_REQUIRE_MSG(need <= left, "PGM header claims " + std::to_string(w) +
                                   "x" + std::to_string(h) + " samples but " +
                                   std::to_string(left) +
                                   " bytes follow: " + path);
  Raster r(w, h);
  if (magic == "P5") {
    in.get();  // single whitespace after maxval
    std::vector<unsigned char> buf(r.data().size() * bytes);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    PP_REQUIRE_MSG(in.gcount() == static_cast<std::streamsize>(buf.size()),
                   "truncated PGM data: " + path);
    for (std::size_t i = 0; i < r.data().size(); ++i) {
      const int v = bytes == 2 ? buf[2 * i] << 8 | buf[2 * i + 1] : buf[i];
      r.data()[i] = v * 255 / maxv >= 128 ? 1 : 0;
    }
  } else {
    for (std::size_t i = 0; i < r.data().size(); ++i) {
      int v = 0;
      in >> v;
      PP_REQUIRE_MSG(!in.fail(), "truncated PGM data: " + path);
      PP_REQUIRE_MSG(v >= 0 && v <= maxv, "PGM sample out of range: " + path);
      r.data()[i] = v * 255 / maxv >= 128 ? 1 : 0;
    }
  }
  return r;
}

}  // namespace pp
