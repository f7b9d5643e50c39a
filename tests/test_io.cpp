/// Tests for the binary persistence layer: round trips, corruption and
/// type-confusion detection, headers that claim more than the file holds,
/// and a seeded mutational fuzz of every loader.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "fsi/dense/norms.hpp"
#include "fsi/io/binary_io.hpp"
#include "fsi/selinv/fsi.hpp"
#include "testing.hpp"

namespace {

using namespace fsi;
using dense::index_t;
using dense::Matrix;
using fsi::testing::expect_close;

/// Unique temp path per test; removed on destruction.
struct TempFile {
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "fsi_io_" + name + ".bin") {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(BinaryIo, MatrixRoundTrip) {
  TempFile tmp("matrix");
  util::Rng rng(71);
  Matrix m = fsi::testing::random_matrix(17, 9, rng);
  io::save_matrix(tmp.path, m);
  Matrix back = io::load_matrix(tmp.path);
  expect_close(back, m, 0.0, "matrix round trip must be exact");
}

TEST(BinaryIo, StridedViewIsCompacted) {
  TempFile tmp("view");
  util::Rng rng(72);
  Matrix host = fsi::testing::random_matrix(20, 20, rng);
  io::save_matrix(tmp.path, host.block(3, 4, 7, 6));
  Matrix back = io::load_matrix(tmp.path);
  ASSERT_EQ(back.rows(), 7);
  ASSERT_EQ(back.cols(), 6);
  expect_close(back, Matrix::copy_of(host.block(3, 4, 7, 6)), 0.0, "view");
}

TEST(BinaryIo, EmptyMatrixRoundTrip) {
  // A 0 x 5 matrix owns no storage; neither direction may index into it
  // (UBSan reports a column pointer formed from null).
  TempFile tmp("empty");
  io::save_matrix(tmp.path, Matrix(0, 5));
  Matrix back = io::load_matrix(tmp.path);
  EXPECT_EQ(back.rows(), 0);
  EXPECT_EQ(back.cols(), 5);
}

TEST(BinaryIo, PCyclicRoundTrip) {
  TempFile tmp("pcyclic");
  util::Rng rng(73);
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(5, 7, rng);
  io::save_pcyclic(tmp.path, m);
  pcyclic::PCyclicMatrix back = io::load_pcyclic(tmp.path);
  ASSERT_EQ(back.block_size(), 5);
  ASSERT_EQ(back.num_blocks(), 7);
  for (index_t i = 0; i < 7; ++i)
    expect_close(Matrix::copy_of(back.b(i)), Matrix::copy_of(m.b(i)), 0.0,
                 "p-cyclic block");
}

TEST(BinaryIo, FieldRoundTrip) {
  TempFile tmp("field");
  util::Rng rng(74);
  qmc::HsField f(6, 9, rng);
  io::save_field(tmp.path, f);
  qmc::HsField back = io::load_field(tmp.path);
  for (index_t l = 0; l < 6; ++l)
    for (index_t i = 0; i < 9; ++i) EXPECT_EQ(back.at(l, i), f.at(l, i));
}

TEST(BinaryIo, MeasurementsRoundTrip) {
  TempFile tmp("meas");
  qmc::Measurements m(4, 3);
  m.add_sample(1.0);
  m.add_density(0.4, 0.6);
  m.add_af_structure_factor(1.25);
  m.add_spxx(2, 1, -0.5);
  io::save_measurements(tmp.path, m);
  qmc::Measurements back = io::load_measurements(tmp.path);
  EXPECT_DOUBLE_EQ(back.density(), m.density());
  EXPECT_DOUBLE_EQ(back.af_structure_factor(), 1.25);
  EXPECT_DOUBLE_EQ(back.spxx(2, 1), -0.5);
}

TEST(BinaryIo, SelectedInversionRoundTrip) {
  TempFile tmp("selinv");
  util::Rng rng(75);
  pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(4, 8, rng);
  selinv::FsiOptions opts;
  opts.c = 4;
  opts.q = 2;
  opts.pattern = pcyclic::Pattern::Columns;
  auto s = selinv::fsi(m, opts, rng);

  io::save_selected_inversion(tmp.path, s);
  auto back = io::load_selected_inversion(tmp.path);
  EXPECT_EQ(back.pattern(), s.pattern());
  EXPECT_EQ(back.selection().q, 2);
  ASSERT_EQ(back.size(), s.size());
  for (const auto& [k, col] : s.keys())
    expect_close(back.at(k, col), s.at(k, col), 0.0, "selected block");
}

TEST(BinaryIo, MissingFileThrows) {
  EXPECT_THROW(io::load_matrix("/nonexistent/fsi_no_such_file.bin"),
               util::CheckError);
}

TEST(BinaryIo, TypeConfusionDetected) {
  TempFile tmp("confusion");
  util::Rng rng(76);
  Matrix m = fsi::testing::random_matrix(3, 3, rng);
  io::save_matrix(tmp.path, m);
  EXPECT_THROW(io::load_pcyclic(tmp.path), util::CheckError);
  EXPECT_THROW(io::load_field(tmp.path), util::CheckError);
}

TEST(BinaryIo, CorruptMagicDetected) {
  TempFile tmp("magic");
  {
    std::ofstream out(tmp.path, std::ios::binary);
    out << "NOTFSI_GARBAGE_____";
  }
  EXPECT_THROW(io::load_matrix(tmp.path), util::CheckError);
}

TEST(BinaryIo, TruncationDetected) {
  TempFile tmp("trunc");
  util::Rng rng(77);
  Matrix m = fsi::testing::random_matrix(30, 30, rng);
  io::save_matrix(tmp.path, m);
  // Truncate the file to half its size.
  std::ifstream in(tmp.path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(tmp.path, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  EXPECT_THROW(io::load_matrix(tmp.path), util::CheckError);
}

// ---------------------------------------------------------------------------
// Headers the file cannot back.  Each file is written byte by byte in the
// documented layout: [magic "FSIB"] [version u32 = 1] [record tag u32]
// [payload]; tags 1-5 are matrix, p-cyclic, field, measurements, selected
// inversion.

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

/// Builder of a hand-made checkpoint file.
struct RawFile {
  explicit RawFile(std::uint32_t tag) { u32(0x42495346).u32(1).u32(tag); }
  RawFile& u32(std::uint32_t v) { return put(&v, sizeof v); }
  RawFile& i64(std::int64_t v) { return put(&v, sizeof v); }
  RawFile& f64(double v) { return put(&v, sizeof v); }
  RawFile& put(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
    return *this;
  }
  void write(const std::string& path) const { write_file(path, bytes); }
  std::vector<std::uint8_t> bytes;
};

/// The largest dimension a header may claim; its square is beyond any
/// address space.
constexpr std::int64_t kLargestDim = (std::int64_t{1} << 24) - 1;

TEST(BinaryIoHeader, MatrixBeyondAddressSpaceThrowsCheckError) {
  TempFile tmp("hdr_matrix");
  RawFile(1).i64(kLargestDim).i64(kLargestDim).write(tmp.path);
  EXPECT_THROW(io::load_matrix(tmp.path), util::CheckError);
}

TEST(BinaryIoHeader, PCyclicBlockBeyondAddressSpaceThrowsCheckError) {
  TempFile tmp("hdr_pcyclic");
  RawFile(2).i64(std::int64_t{1} << 23).i64(1).write(tmp.path);
  EXPECT_THROW(io::load_pcyclic(tmp.path), util::CheckError);
}

TEST(BinaryIoHeader, FieldBeyondAddressSpaceThrowsCheckError) {
  TempFile tmp("hdr_field");
  const std::int64_t big = (std::int64_t{1} << 31) - 1;
  RawFile(3).i64(big).i64(big).write(tmp.path);
  EXPECT_THROW(io::load_field(tmp.path), util::CheckError);
}

TEST(BinaryIoHeader, MeasurementsBeyondAddressSpaceThrowsCheckError) {
  TempFile tmp("hdr_meas");
  const std::int64_t side = std::int64_t{1} << 23;
  RawFile(4).i64(side).i64(side).i64(8 + side * side).write(tmp.path);
  EXPECT_THROW(io::load_measurements(tmp.path), util::CheckError);
}

TEST(BinaryIoHeader, MeasurementSlicesOutsideIndexRangeThrowCheckError) {
  // L = 2^32 + 4 must not be read as L = 4: the payload that follows is a
  // complete 4-slice record, so only the range check can reject it.
  TempFile tmp("hdr_meas_trunc");
  RawFile f(4);
  f.i64((std::int64_t{1} << 32) + 4).i64(3).i64(8 + 4 * 3);
  for (int i = 0; i < 8 + 4 * 3; ++i) f.f64(1.0);
  f.write(tmp.path);
  EXPECT_THROW(io::load_measurements(tmp.path), util::CheckError);
}

/// A diagonal-pattern selected-inversion header: n = 2, c = 4, q = 0.
RawFile selected_header(std::int64_t l) {
  RawFile f(5);
  f.u32(static_cast<std::uint32_t>(pcyclic::Pattern::Diagonal));
  f.i64(2).i64(l).i64(4).i64(0);
  return f;
}

TEST(BinaryIoHeader, SelectedBlockBeyondAddressSpaceThrowsCheckError) {
  TempFile tmp("hdr_selinv");
  selected_header(8).i64(kLargestDim).i64(kLargestDim).write(tmp.path);
  EXPECT_THROW(io::load_selected_inversion(tmp.path), util::CheckError);
}

TEST(BinaryIoHeader, SelectedSlicesOutsideIndexRangeThrowCheckError) {
  // L = 2^32 + 8 followed by the b = 2 blocks of an L = 8 record.
  TempFile tmp("hdr_selinv_trunc");
  RawFile f = selected_header((std::int64_t{1} << 32) + 8);
  for (int block = 0; block < 2; ++block) {
    f.i64(2).i64(2);
    for (int i = 0; i < 4; ++i) f.f64(0.5);
  }
  f.write(tmp.path);
  EXPECT_THROW(io::load_selected_inversion(tmp.path), util::CheckError);
}

// ---------------------------------------------------------------------------
// Seeded mutational fuzz: one saved file per record type, mutated once per
// iteration by a bit flip, a truncation, appended bytes, or an i64/u32 at a
// random offset overwritten with 0, -1, 2^31, 2^62 or a random value.
// Every load must return or throw util::CheckError.

constexpr int kFuzzIterations = 600;

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void mutate(std::vector<std::uint8_t>& b, util::Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      b[rng.below(b.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1:
      b.resize(rng.below(b.size()));
      break;
    case 2:
      for (std::uint64_t i = 1 + rng.below(16); i > 0; --i)
        b.push_back(static_cast<std::uint8_t>(rng()));
      break;
    default: {
      const std::uint64_t values[] = {0, ~0ull, 1ull << 31, 1ull << 62, rng()};
      const std::uint64_t v64 = values[rng.below(5)];
      const auto v32 = static_cast<std::uint32_t>(v64);
      const bool wide = rng.below(2) == 0;
      const std::size_t width = wide ? sizeof v64 : sizeof v32;
      std::memcpy(b.data() + rng.below(b.size() - width + 1),
                  wide ? static_cast<const void*>(&v64) : &v32, width);
      break;
    }
  }
}

/// Mutate \p saved (the bytes of a file the loader accepts) and load each
/// mutant through \p load; both outcomes must occur.
void fuzz_loader(const std::string& name, std::uint64_t seed,
                 const std::function<void(const std::string&)>& save,
                 const std::function<void(const std::string&)>& load) {
  TempFile tmp("fuzz_" + name);
  save(tmp.path);
  const std::vector<std::uint8_t> saved = read_all(tmp.path);
  ASSERT_GE(saved.size(), 32u);
  util::Rng rng(seed);
  int loaded = 0, rejected = 0;
  for (int it = 0; it < kFuzzIterations; ++it) {
    std::vector<std::uint8_t> bytes = saved;
    mutate(bytes, rng);
    write_file(tmp.path, bytes);
    try {
      load(tmp.path);
      ++loaded;
    } catch (const util::CheckError&) {
      ++rejected;
    } catch (const std::exception& e) {
      FAIL() << name << " iteration " << it << ": " << e.what();
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(BinaryIoFuzz, MatrixLoadsOrThrowsCheckError) {
  util::Rng rng(81);
  const Matrix m = fsi::testing::random_matrix(3, 4, rng);
  fuzz_loader(
      "matrix", 0xF11E0001, [&](const std::string& p) { io::save_matrix(p, m); },
      [](const std::string& p) { io::load_matrix(p); });
}

TEST(BinaryIoFuzz, PCyclicLoadsOrThrowsCheckError) {
  util::Rng rng(82);
  const auto m = pcyclic::PCyclicMatrix::random(2, 3, rng);
  fuzz_loader(
      "pcyclic", 0xF11E0002,
      [&](const std::string& p) { io::save_pcyclic(p, m); },
      [](const std::string& p) { io::load_pcyclic(p); });
}

TEST(BinaryIoFuzz, FieldLoadsOrThrowsCheckError) {
  util::Rng rng(83);
  const qmc::HsField f(4, 3, rng);
  fuzz_loader(
      "field", 0xF11E0003, [&](const std::string& p) { io::save_field(p, f); },
      [](const std::string& p) { io::load_field(p); });
}

TEST(BinaryIoFuzz, MeasurementsLoadOrThrowCheckError) {
  qmc::Measurements m(3, 2);
  m.add_sample(1.0);
  m.add_spxx(1, 1, 0.25);
  fuzz_loader(
      "meas", 0xF11E0004,
      [&](const std::string& p) { io::save_measurements(p, m); },
      [](const std::string& p) { io::load_measurements(p); });
}

TEST(BinaryIoFuzz, SelectedInversionLoadsOrThrowsCheckError) {
  util::Rng rng(85);
  const pcyclic::PCyclicMatrix m = pcyclic::PCyclicMatrix::random(2, 4, rng);
  selinv::FsiOptions opts;
  opts.c = 2;
  opts.q = 1;
  opts.pattern = pcyclic::Pattern::Columns;
  const auto s = selinv::fsi(m, opts, rng);
  fuzz_loader(
      "selinv", 0xF11E0005,
      [&](const std::string& p) { io::save_selected_inversion(p, s); },
      [](const std::string& p) { io::load_selected_inversion(p); });
}

}  // namespace
