#include "fsi/io/binary_io.hpp"

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fsi/util/check.hpp"

namespace fsi::io {
namespace {

constexpr std::uint32_t kMagic = 0x42495346;  // "FSIB" little-endian
constexpr std::uint32_t kVersion = 1;

enum class Tag : std::uint32_t {
  Matrix = 1,
  PCyclic = 2,
  HsField = 3,
  Measurements = 4,
  SelectedInversion = 5,
};

/// RAII FILE handle.
struct File {
  File(const std::string& path, const char* mode) : f(std::fopen(path.c_str(), mode)) {
    FSI_CHECK(f != nullptr, "binary_io: cannot open '" + path + "'");
  }
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* f = nullptr;
};

void write_bytes(std::FILE* f, const void* data, std::size_t bytes) {
  FSI_CHECK(std::fwrite(data, 1, bytes, f) == bytes, "binary_io: short write");
}
void read_bytes(std::FILE* f, void* data, std::size_t bytes) {
  FSI_CHECK(std::fread(data, 1, bytes, f) == bytes,
            "binary_io: short read (truncated or corrupt file)");
}

void write_u32(std::FILE* f, std::uint32_t v) { write_bytes(f, &v, sizeof v); }
std::uint32_t read_u32(std::FILE* f) {
  std::uint32_t v = 0;
  read_bytes(f, &v, sizeof v);
  return v;
}
void write_i64(std::FILE* f, std::int64_t v) { write_bytes(f, &v, sizeof v); }
std::int64_t read_i64(std::FILE* f) {
  std::int64_t v = 0;
  read_bytes(f, &v, sizeof v);
  return v;
}

void write_header(std::FILE* f, Tag tag) {
  write_u32(f, kMagic);
  write_u32(f, kVersion);
  write_u32(f, static_cast<std::uint32_t>(tag));
}

void read_header(std::FILE* f, Tag expected) {
  FSI_CHECK(read_u32(f) == kMagic, "binary_io: bad magic (not an FSI file)");
  FSI_CHECK(read_u32(f) == kVersion, "binary_io: unsupported format version");
  FSI_CHECK(read_u32(f) == static_cast<std::uint32_t>(expected),
            "binary_io: record type mismatch");
}

/// Exclusive upper bound on every stored dimension: well inside index_t,
/// and far above any block size or slice count the library runs.
constexpr std::int64_t kMaxDim = std::int64_t{1} << 24;

/// Read one dimension field, rejected unless it lies in [lo, kMaxDim).
dense::index_t read_dim(std::FILE* f, std::int64_t lo, const char* what) {
  const std::int64_t v = read_i64(f);
  FSI_CHECK(v >= lo && v < kMaxDim, std::string("binary_io: implausible ") +
                                        what + " " + std::to_string(v));
  return static_cast<dense::index_t>(v);
}

/// Throw unless the rest of the file holds \p count records of \p bytes
/// each — checked before the loader allocates anything for them, and by
/// division, so that no product of claimed sizes can overflow.
void require_bytes(std::FILE* f, std::uint64_t count, std::uint64_t bytes) {
  const long pos = std::ftell(f);
  FSI_CHECK(pos >= 0 && std::fseek(f, 0, SEEK_END) == 0,
            "binary_io: cannot seek");
  const long end = std::ftell(f);
  FSI_CHECK(end >= pos && std::fseek(f, pos, SEEK_SET) == 0,
            "binary_io: cannot seek");
  FSI_CHECK(bytes == 0 || count <= static_cast<std::uint64_t>(end - pos) / bytes,
            "binary_io: header claims more data than the file holds "
            "(truncated or corrupt file)");
}

/// Bytes of one stored n x n matrix: two i64 dimensions and the doubles.
std::uint64_t square_payload_bytes(dense::index_t n) {
  const auto un = static_cast<std::uint64_t>(n);
  return 2 * sizeof(std::int64_t) + sizeof(double) * un * un;
}

void write_matrix_payload(std::FILE* f, dense::ConstMatrixView m) {
  write_i64(f, m.rows());
  write_i64(f, m.cols());
  for (dense::index_t j = 0; j < m.cols() && m.rows() > 0; ++j)
    write_bytes(f, m.col(j), sizeof(double) * static_cast<std::size_t>(m.rows()));
}

dense::Matrix read_matrix_payload(std::FILE* f) {
  const dense::index_t rows = read_dim(f, 0, "matrix rows");
  const dense::index_t cols = read_dim(f, 0, "matrix cols");
  require_bytes(f, static_cast<std::uint64_t>(rows) * cols, sizeof(double));
  dense::Matrix m(rows, cols);
  // Column-major with ld == rows: the payload is one contiguous read.  An
  // empty matrix (rows or cols 0) owns no storage to read into.
  if (!m.empty())
    read_bytes(f, m.data(),
               sizeof(double) * static_cast<std::size_t>(rows) * cols);
  return m;
}

}  // namespace

void save_matrix(const std::string& path, dense::ConstMatrixView m) {
  File file(path, "wb");
  write_header(file.f, Tag::Matrix);
  write_matrix_payload(file.f, m);
}

dense::Matrix load_matrix(const std::string& path) {
  File file(path, "rb");
  read_header(file.f, Tag::Matrix);
  return read_matrix_payload(file.f);
}

void save_pcyclic(const std::string& path, const pcyclic::PCyclicMatrix& m) {
  File file(path, "wb");
  write_header(file.f, Tag::PCyclic);
  write_i64(file.f, m.block_size());
  write_i64(file.f, m.num_blocks());
  for (dense::index_t i = 0; i < m.num_blocks(); ++i)
    write_matrix_payload(file.f, m.b(i));
}

pcyclic::PCyclicMatrix load_pcyclic(const std::string& path) {
  File file(path, "rb");
  read_header(file.f, Tag::PCyclic);
  const dense::index_t n = read_dim(file.f, 1, "block size");
  const dense::index_t l = read_dim(file.f, 1, "block count");
  require_bytes(file.f, static_cast<std::uint64_t>(l), square_payload_bytes(n));
  std::vector<dense::Matrix> blocks;
  blocks.reserve(static_cast<std::size_t>(l));
  for (dense::index_t i = 0; i < l; ++i) {
    blocks.push_back(read_matrix_payload(file.f));
    FSI_CHECK(blocks.back().rows() == n && blocks.back().cols() == n,
              "binary_io: p-cyclic block dimension mismatch");
  }
  return pcyclic::PCyclicMatrix(std::move(blocks));
}

void save_field(const std::string& path, const qmc::HsField& field) {
  File file(path, "wb");
  write_header(file.f, Tag::HsField);
  write_i64(file.f, field.num_slices());
  write_i64(file.f, field.num_sites());
  const auto buf = field.serialize();
  write_bytes(file.f, buf.data(), sizeof(double) * buf.size());
}

qmc::HsField load_field(const std::string& path) {
  File file(path, "rb");
  read_header(file.f, Tag::HsField);
  const dense::index_t l = read_dim(file.f, 1, "field slices");
  const dense::index_t n = read_dim(file.f, 1, "field sites");
  require_bytes(file.f, static_cast<std::uint64_t>(l) * n, sizeof(double));
  std::vector<double> buf(static_cast<std::size_t>(l) * n);
  read_bytes(file.f, buf.data(), sizeof(double) * buf.size());
  return qmc::HsField::deserialize(l, n, buf.data(), buf.size());
}

void save_measurements(const std::string& path, const qmc::Measurements& m) {
  File file(path, "wb");
  write_header(file.f, Tag::Measurements);
  write_i64(file.f, m.num_slices());
  write_i64(file.f, m.num_distance_classes());
  const auto buf = m.serialize();
  write_i64(file.f, static_cast<std::int64_t>(buf.size()));
  write_bytes(file.f, buf.data(), sizeof(double) * buf.size());
}

qmc::Measurements load_measurements(const std::string& path) {
  File file(path, "rb");
  read_header(file.f, Tag::Measurements);
  const dense::index_t l = read_dim(file.f, 1, "measurement slices");
  const dense::index_t dmax = read_dim(file.f, 1, "distance classes");
  const auto len = static_cast<std::uint64_t>(read_i64(file.f));
  FSI_CHECK(len == qmc::Measurements::serialized_size(l, dmax),
            "binary_io: measurement payload size mismatch");
  require_bytes(file.f, len, sizeof(double));
  std::vector<double> buf(len);
  read_bytes(file.f, buf.data(), sizeof(double) * len);
  return qmc::Measurements::deserialize(l, dmax, buf);
}

void save_selected_inversion(const std::string& path,
                             const pcyclic::SelectedInversion& s) {
  File file(path, "wb");
  write_header(file.f, Tag::SelectedInversion);
  write_u32(file.f, static_cast<std::uint32_t>(s.pattern()));
  write_i64(file.f, s.block_size());
  write_i64(file.f, s.selection().l_total);
  write_i64(file.f, s.selection().c);
  write_i64(file.f, s.selection().q);
  for (const auto& [k, l] : s.keys())
    write_matrix_payload(file.f, s.at(k, l).view());
}

pcyclic::SelectedInversion load_selected_inversion(const std::string& path) {
  File file(path, "rb");
  read_header(file.f, Tag::SelectedInversion);
  const auto pattern = static_cast<pcyclic::Pattern>(read_u32(file.f));
  FSI_CHECK(pattern >= pcyclic::Pattern::Diagonal &&
                pattern <= pcyclic::Pattern::AllDiagonals,
            "binary_io: unknown selection pattern");
  const dense::index_t n = read_dim(file.f, 1, "block size");
  const dense::index_t l = read_dim(file.f, 1, "block count");
  const dense::index_t c = read_dim(file.f, 1, "cluster size");
  const dense::index_t q = read_dim(file.f, 0, "wrap offset");
  const pcyclic::Selection sel(l, c, q);
  require_bytes(file.f, static_cast<std::uint64_t>(sel.block_count(pattern)),
                square_payload_bytes(n));
  pcyclic::SelectedInversion s(pattern, n, sel);
  for (const auto& [k, col] : s.keys()) {
    dense::Matrix block = read_matrix_payload(file.f);
    FSI_CHECK(block.rows() == n && block.cols() == n,
              "binary_io: selected block dimension mismatch");
    s.slot(k, col) = std::move(block);
  }
  return s;
}

}  // namespace fsi::io
