#include "io/pattern_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "io/image_io.hpp"

namespace pp {

void save_pattern_library(const std::vector<Raster>& patterns,
                          const std::string& path) {
  std::ofstream out(path);
  PP_REQUIRE_MSG(out.good(), "cannot open for writing: " + path);
  out << "PPLIB v1\n";
  out << "count " << patterns.size() << "\n";
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const Raster& r = patterns[i];
    out << "pattern " << i << " " << r.width() << " " << r.height() << "\n";
    out << r.to_ascii();
  }
  PP_REQUIRE_MSG(out.good(), "write failed: " + path);
}

std::vector<Raster> load_pattern_library(const std::string& path) {
  std::ifstream in(path);
  PP_REQUIRE_MSG(in.good(), "cannot open for reading: " + path);
  std::string line;
  PP_REQUIRE_MSG(std::getline(in, line) && line == "PPLIB v1",
                 "bad library header in " + path);
  std::size_t count = 0;
  {
    PP_REQUIRE_MSG(static_cast<bool>(std::getline(in, line)),
                   "missing count in " + path);
    std::istringstream is(line);
    std::string kw;
    is >> kw >> count;
    PP_REQUIRE_MSG(kw == "count", "bad count line in " + path);
  }
  // No reserve: `count` is outside input, checked only against the
  // patterns actually read.
  std::vector<Raster> out;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream is(line);
    std::string kw;
    std::size_t idx;
    int w, h;
    is >> kw >> idx >> w >> h;
    PP_REQUIRE_MSG(kw == "pattern" && !is.fail() && w > 0 && h > 0,
                   "bad pattern header in " + path);
    // Bound the header by the file before allocating w x h: the rows take
    // w bytes each and a newline between them.
    const std::uint64_t need = (w + std::uint64_t{1}) * h - 1;
    const std::uint64_t left = bytes_left(in);
    PP_REQUIRE_MSG(need <= left, "pattern " + std::to_string(idx) +
                                     " declares " + std::to_string(w) + "x" +
                                     std::to_string(h) + " pixels but " +
                                     std::to_string(left) +
                                     " bytes follow in " + path);
    Raster r(w, h);
    for (int y = 0; y < h; ++y) {
      PP_REQUIRE_MSG(static_cast<bool>(std::getline(in, line)),
                     "truncated pattern in " + path);
      PP_REQUIRE_MSG(static_cast<int>(line.size()) >= w,
                     "short pattern row in " + path);
      for (int x = 0; x < w; ++x) r(x, y) = line[static_cast<std::size_t>(x)] == '#' ? 1 : 0;
    }
    out.push_back(std::move(r));
  }
  PP_REQUIRE_MSG(out.size() == count, "pattern count mismatch in " + path);
  return out;
}

}  // namespace pp
