// Tests for PGM image I/O, CSV writing and pattern library serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/csv.hpp"
#include "io/gds_text.hpp"
#include "io/image_io.hpp"
#include "io/pattern_io.hpp"

namespace pp {
namespace {

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pp_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

using ImageIo = TempDir;
using Csv = TempDir;
using PatternIo = TempDir;

TEST_F(ImageIo, PgmRoundTrip) {
  Raster r = Raster::from_ascii(
      "#..#\n"
      ".##.\n"
      "#..#\n");
  write_pgm(r, path("a.pgm"));
  EXPECT_EQ(read_pgm(path("a.pgm")), r);
}

TEST_F(ImageIo, PgmScaledRoundTrip) {
  Raster r = Raster::from_ascii("#.\n.#\n");
  write_pgm(r, path("s.pgm"), 4);
  Raster big = read_pgm(path("s.pgm"));
  EXPECT_EQ(big.width(), 8);
  EXPECT_EQ(big.height(), 8);
  EXPECT_EQ(big(0, 0), 1);
  EXPECT_EQ(big(3, 3), 1);
  EXPECT_EQ(big(4, 0), 0);
  EXPECT_EQ(big(7, 7), 1);
}

TEST_F(ImageIo, ReadAsciiPgmWithComment) {
  std::ofstream f(path("p2.pgm"));
  f << "P2\n# a comment\n3 2\n255\n255 0 255\n0 255 0\n";
  f.close();
  Raster r = read_pgm(path("p2.pgm"));
  EXPECT_EQ(r.to_ascii(), "#.#\n.#.\n");
}

TEST_F(ImageIo, RejectsBadMagic) {
  std::ofstream f(path("bad.pgm"));
  f << "P6\n1 1\n255\nxxx";
  f.close();
  EXPECT_THROW(read_pgm(path("bad.pgm")), Error);
}

TEST_F(ImageIo, RejectsMissingFile) {
  EXPECT_THROW(read_pgm(path("nonexistent.pgm")), Error);
  EXPECT_THROW(write_pgm(Raster(2, 2), (dir_ / "no" / "dir" / "x.pgm").string()),
               Error);
}

TEST_F(ImageIo, RejectsTruncatedData) {
  std::ofstream f(path("trunc.pgm"), std::ios::binary);
  f << "P5\n4 4\n255\nab";  // 2 bytes instead of 16
  f.close();
  EXPECT_THROW(read_pgm(path("trunc.pgm")), Error);
}

TEST_F(ImageIo, RejectsTruncatedOrOutOfRangeAsciiData) {
  // One value where a 2x2 P2 needs four; a value past maxval is rejected too.
  for (const char* body : {"P2\n2 2\n255\n255\n", "P2\n1 1\n255\n256\n",
                           "P2\n1 1\n255\n2147483647\n"}) {
    std::ofstream f(path("trunc.pgm"));
    f << body;
    f.close();
    EXPECT_THROW(read_pgm(path("trunc.pgm")), Error) << body;
  }
}

TEST_F(ImageIo, Reads16BitBinarySamplesBigEndian) {
  // maxval > 255: two bytes per sample, most significant first.
  std::ofstream f(path("p16.pgm"), std::ios::binary);
  f << "P5\n3 1\n65535\n";
  f.write("\xff\xff\x00\x00\x00\xff", 6);
  f.close();
  EXPECT_EQ(read_pgm(path("p16.pgm")).to_ascii(), "#..\n");
}

TEST_F(ImageIo, RejectsMalformedHeaderNumbers) {
  for (const char* header : {"P2\nx 1\n255\n0\n", "P2\n1 1x\n255\n0\n",
                             "P2\n99999999999 1\n255\n0\n",
                             "P2\n1 1\n-5\n0\n"}) {
    std::ofstream f(path("hdr.pgm"));
    f << header;
    f.close();
    EXPECT_THROW(read_pgm(path("hdr.pgm")), Error) << header;
  }
}

// The header is checked against the bytes that follow it before the
// raster is allocated. Without that check a 23-byte
// "P5 100000 100000 255" file allocated 10 GB, and INT_MAX x INT_MAX
// escaped as std::bad_alloc instead of a pp::Error.
TEST_F(ImageIo, RejectsHeaderLargerThanFile) {
  for (const char* body :
       {"P5 4096 4096 255\nab", "P5 2147483647 2147483647 255\n",
        "P5 2 2 65535\n1234567", "P2 4096 4096 255\n0 1 0 1\n"}) {
    std::ofstream f(path("big.pgm"), std::ios::binary);
    f << body;
    f.close();
    try {
      read_pgm(path("big.pgm"));
      ADD_FAILURE() << "accepted " << body;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("bytes follow"), std::string::npos)
          << body << ": " << e.what();
    }
  }
}

TEST_F(Csv, WritesRowsWithEscaping) {
  {
    CsvWriter w(path("t.csv"));
    w.row("name", "value");
    w.row("plain", 42);
    w.write_row({"with,comma", "with\"quote", "multi\nline"});
  }
  std::ifstream in(path("t.csv"));
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("name,value\n"), std::string::npos);
  EXPECT_NE(all.find("plain,42\n"), std::string::npos);
  EXPECT_NE(all.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(all.find("\"with\"\"quote\""), std::string::npos);
}

TEST_F(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter((dir_ / "no" / "x.csv").string()), Error);
}

TEST_F(PatternIo, LibraryRoundTrip) {
  Rng rng(77);
  std::vector<Raster> lib;
  for (int i = 0; i < 7; ++i) {
    Raster r(rng.uniform_int(4, 20), rng.uniform_int(4, 20));
    for (auto& v : r.data()) v = rng.bernoulli(0.4);
    lib.push_back(r);
  }
  save_pattern_library(lib, path("lib.txt"));
  auto loaded = load_pattern_library(path("lib.txt"));
  ASSERT_EQ(loaded.size(), lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i) EXPECT_EQ(loaded[i], lib[i]);
}

TEST_F(PatternIo, EmptyLibraryRoundTrip) {
  save_pattern_library({}, path("empty.txt"));
  EXPECT_TRUE(load_pattern_library(path("empty.txt")).empty());
}

TEST_F(PatternIo, RejectsCorruptHeader) {
  std::ofstream f(path("corrupt.txt"));
  f << "NOTALIB\n";
  f.close();
  EXPECT_THROW(load_pattern_library(path("corrupt.txt")), Error);
}

TEST_F(PatternIo, RejectsCountMismatch) {
  std::ofstream f(path("mismatch.txt"));
  f << "PPLIB v1\ncount 2\npattern 0 2 1\n##\n";
  f.close();
  EXPECT_THROW(load_pattern_library(path("mismatch.txt")), Error);
}

TEST_F(PatternIo, RejectsTruncatedPattern) {
  std::ofstream f(path("trunc.txt"));
  f << "PPLIB v1\ncount 1\npattern 0 2 3\n##\n";
  f.close();
  EXPECT_THROW(load_pattern_library(path("trunc.txt")), Error);
}

// Header numbers are outside input: a pattern's w x h is bounded by the
// bytes left in the file before the raster is allocated, and `count` is
// never used to reserve memory.
TEST_F(PatternIo, RejectsDimensionsTheFileCannotHold) {
  std::ofstream f(path("huge.txt"));
  f << "PPLIB v1\ncount 1\npattern 0 4000 4000\n";
  f.close();
  try {
    load_pattern_library(path("huge.txt"));
    FAIL() << "expected pp::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("declares 4000x4000"),
              std::string::npos)
        << e.what();
  }
  std::ofstream g(path("count.txt"));
  g << "PPLIB v1\ncount 18446744073709551615\npattern 0 2 1\n##\n";
  g.close();
  EXPECT_THROW(load_pattern_library(path("count.txt")), Error);
}

using GdsText = TempDir;

TEST_F(GdsText, RoundTripRandomClips) {
  Rng rng(911);
  std::vector<Raster> lib;
  for (int i = 0; i < 6; ++i) {
    Raster r(rng.uniform_int(6, 24), rng.uniform_int(6, 24));
    int k = rng.uniform_int(1, 4);
    for (int j = 0; j < k; ++j) {
      int x = rng.uniform_int(0, r.width() - 3);
      int y = rng.uniform_int(0, r.height() - 3);
      r.fill_rect(Rect{x, y, x + rng.uniform_int(1, 3), y + rng.uniform_int(1, 3)}, 1);
    }
    lib.push_back(r);
  }
  write_gds_text(lib, path("lib.gds"));
  auto loaded = read_gds_text(path("lib.gds"));
  ASSERT_EQ(loaded.size(), lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i) EXPECT_EQ(loaded[i], lib[i]);
}

TEST_F(GdsText, EmptyClipAndEmptyLibrary) {
  write_gds_text({Raster(5, 7)}, path("blank.gds"));
  auto loaded = read_gds_text(path("blank.gds"));
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], Raster(5, 7));
  write_gds_text({}, path("none.gds"));
  EXPECT_TRUE(read_gds_text(path("none.gds")).empty());
}

TEST_F(GdsText, ReadsForeignRectilinearPolygon) {
  // An L-shaped BOUNDARY as another tool would emit it (single polygon,
  // not rect soup).
  std::ofstream f(path("foreign.gds"));
  f << "HEADER 600\nBGNLIB\nLIBNAME X\nUNITS 0.001 1e-09\n";
  f << "BGNSTR\nSTRNAME clip_w6_h6\n";
  f << "BOUNDARY\nLAYER 10\nDATATYPE 0\n";
  f << "XY 7 0 0 2 0 2 4 6 4 6 6 0 6 0 0\nENDEL\nENDSTR\nENDLIB\n";
  f.close();
  auto loaded = read_gds_text(path("foreign.gds"));
  ASSERT_EQ(loaded.size(), 1u);
  Raster expect = Raster::from_ascii(
      "##....\n"
      "##....\n"
      "##....\n"
      "##....\n"
      "######\n"
      "######\n");
  EXPECT_EQ(loaded[0], expect);
}

TEST_F(GdsText, RejectsCorruptStreams) {
  std::ofstream f(path("bad1.gds"));
  f << "STRNAME x_w2_h2\n";
  f.close();
  EXPECT_THROW(read_gds_text(path("bad1.gds")), Error);  // no HEADER

  std::ofstream g(path("bad2.gds"));
  g << "HEADER 600\nBGNSTR\nSTRNAME clip\nENDSTR\n";  // no dimensions
  g.close();
  EXPECT_THROW(read_gds_text(path("bad2.gds")), Error);

  std::ofstream h(path("bad3.gds"));
  h << "HEADER 600\nBGNSTR\nSTRNAME c_w4_h4\nXY 4 0 0 1\n";  // truncated XY
  h.close();
  EXPECT_THROW(read_gds_text(path("bad3.gds")), Error);

  EXPECT_THROW(read_gds_text(path("missing.gds")), Error);
}

// Structure-name dimensions are outside input: a non-numeric or
// out-of-range value is a pp::Error, not an escaped std::stoi exception,
// and a side above kMaxGdsClipEdge is one too, not a std::bad_alloc or a
// gigapixel raster.
TEST_F(GdsText, RejectsBadStructureDimensions) {
  for (const char* name : {"c_wABC_h5", "c_w99999999999_h1", "c_w4_h4x",
                           "c_w0_h4", "c_w-3_h4", "p_w2147483647_h2147483647",
                           "p_w3000000_h1000", "p_w4097_h1", "p_w1_h4097"}) {
    std::ofstream f(path("dims.gds"));
    f << "HEADER 600\nBGNSTR\nSTRNAME " << name << "\nENDSTR\n";
    f.close();
    EXPECT_THROW(read_gds_text(path("dims.gds")), Error) << name;
  }
  // The cap itself is a legal clip: an empty structure at the largest
  // expansion canvas loads.
  std::ofstream f(path("edge.gds"));
  f << "HEADER 600\nBGNSTR\nSTRNAME e_w4096_h4096\nENDSTR\n";
  f.close();
  const std::vector<Raster> clips = read_gds_text(path("edge.gds"));
  ASSERT_EQ(clips.size(), 1u);
  EXPECT_EQ(clips[0].width(), kMaxGdsClipEdge);
  EXPECT_EQ(clips[0].height(), kMaxGdsClipEdge);
}

// The structures of one file may declare at most kMaxGdsTotalPixels in
// total (four 4096^2 canvases); a fifth empty 4096^2 structure is a
// pp::Error before its 16 MiB raster is allocated.
TEST_F(GdsText, RejectsPixelTotalAboveTheCap) {
  auto write_structs = [&](int n) {
    std::ofstream f(path("many.gds"));
    f << "HEADER 600\n";
    for (int i = 0; i < n; ++i)
      f << "BGNSTR\nSTRNAME e" << i << "_w4096_h4096\nENDSTR\n";
  };
  write_structs(4);
  EXPECT_EQ(read_gds_text(path("many.gds")).size(), 4u);
  write_structs(5);
  EXPECT_THROW(read_gds_text(path("many.gds")), Error);
}

TEST(FillPolygon, RectangleAndDonutHalves) {
  Raster r(8, 8);
  fill_polygon(r, {{1, 1}, {5, 1}, {5, 4}, {1, 4}});
  EXPECT_EQ(r.count_ones(), 12);
  EXPECT_EQ(r(1, 1), 1);
  EXPECT_EQ(r(4, 3), 1);
  EXPECT_EQ(r(5, 1), 0);  // half-open
  Raster tiny(4, 4);
  EXPECT_THROW(fill_polygon(tiny, {{0, 0}, {1, 1}}), Error);
}

}  // namespace
}  // namespace pp
