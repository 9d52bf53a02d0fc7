#include "pandora/io/io.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <vector>

#include "pandora/common/expect.hpp"
#include "pandora/dendrogram/analysis.hpp"

namespace pandora::io {

namespace {

constexpr std::uint64_t kDendrogramMagic = 0x50414e444f524131ull;  // "PANDORA1"
constexpr std::uint64_t kEdgesMagic = 0x50414e4544474553ull;  // "PANEDGES"

template <class T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <class T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  PANDORA_EXPECT(static_cast<bool>(in), "truncated stream");
  return value;
}

/// Reads a signed 64-bit header size and range-checks it before narrowing.
index_t read_size(std::istream& in) {
  const auto value = read_pod<std::int64_t>(in);
  PANDORA_EXPECT(value >= 0 && value <= std::numeric_limits<index_t>::max(),
                 "corrupt header: size out of range");
  return static_cast<index_t>(value);
}

template <class T>
void write_vector(std::ostream& out, const std::vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <class T>
std::vector<T> read_vector(std::istream& in, std::uint64_t max_expected) {
  const auto count = read_pod<std::uint64_t>(in);
  PANDORA_EXPECT(count <= max_expected, "corrupt stream: implausible array size");
  std::vector<T> v(static_cast<std::size_t>(count));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  PANDORA_EXPECT(static_cast<bool>(in), "truncated stream");
  return v;
}

}  // namespace

void save_dendrogram(std::ostream& out, const dendrogram::Dendrogram& d) {
  write_pod(out, kDendrogramMagic);
  write_pod(out, static_cast<std::int64_t>(d.num_edges));
  write_pod(out, static_cast<std::int64_t>(d.num_vertices));
  write_vector(out, d.parent);
  write_vector(out, d.weight);
  write_vector(out, d.edge_order);
  PANDORA_EXPECT(static_cast<bool>(out), "write failed");
}

dendrogram::Dendrogram load_dendrogram(std::istream& in) {
  PANDORA_EXPECT(read_pod<std::uint64_t>(in) == kDendrogramMagic,
                 "not a pandora dendrogram stream");
  dendrogram::Dendrogram d;
  d.num_edges = read_size(in);
  d.num_vertices = read_size(in);
  const std::uint64_t nodes = static_cast<std::uint64_t>(d.num_edges) +
                              static_cast<std::uint64_t>(d.num_vertices);
  d.parent = read_vector<index_t>(in, nodes);
  d.weight = read_vector<double>(in, static_cast<std::uint64_t>(d.num_edges));
  d.edge_order = read_vector<index_t>(in, static_cast<std::uint64_t>(d.num_edges));
  PANDORA_EXPECT(d.parent.size() == nodes, "corrupt stream: parent size mismatch");
  dendrogram::validate_dendrogram(d);
  return d;
}

void save_dendrogram_file(const std::string& path, const dendrogram::Dendrogram& d) {
  std::ofstream out(path, std::ios::binary);
  PANDORA_EXPECT(out.is_open(), "cannot open " + path);
  save_dendrogram(out, d);
}

dendrogram::Dendrogram load_dendrogram_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PANDORA_EXPECT(in.is_open(), "cannot open " + path);
  return load_dendrogram(in);
}

void save_edges(std::ostream& out, const graph::EdgeList& edges, index_t num_vertices) {
  write_pod(out, kEdgesMagic);
  write_pod(out, static_cast<std::int64_t>(num_vertices));
  write_pod(out, static_cast<std::uint64_t>(edges.size()));
  for (const auto& e : edges) {
    write_pod(out, e.u);
    write_pod(out, e.v);
    write_pod(out, e.weight);
  }
  PANDORA_EXPECT(static_cast<bool>(out), "write failed");
}

std::pair<graph::EdgeList, index_t> load_edges(std::istream& in) {
  PANDORA_EXPECT(read_pod<std::uint64_t>(in) == kEdgesMagic, "not a pandora edge stream");
  const index_t num_vertices = read_size(in);
  const auto count = read_pod<std::uint64_t>(in);
  // The count is untrusted, so it does not size the vector: a bogus one runs
  // into the end of the stream instead of into the allocator.
  graph::EdgeList edges;
  for (std::uint64_t i = 0; i < count; ++i) {
    graph::WeightedEdge e;
    e.u = read_pod<index_t>(in);
    e.v = read_pod<index_t>(in);
    e.weight = read_pod<double>(in);
    PANDORA_EXPECT(e.u >= 0 && e.u < num_vertices && e.v >= 0 && e.v < num_vertices,
                   "corrupt stream: edge endpoint out of range");
    edges.push_back(e);
  }
  return {std::move(edges), num_vertices};
}

void write_linkage_csv(std::ostream& out, const dendrogram::Dendrogram& d) {
  out << "cluster_a,cluster_b,distance,size\n";
  for (const auto& row : dendrogram::linkage_matrix(d))
    out << row.cluster_a << ',' << row.cluster_b << ',' << row.distance << ',' << row.size
        << '\n';
}

void write_points_csv(std::ostream& out, const spatial::PointSet& points) {
  for (index_t i = 0; i < points.size(); ++i) {
    for (int d = 0; d < points.dim(); ++d) {
      if (d) out << ',';
      out << points.at(i, d);
    }
    out << '\n';
  }
}

spatial::PointSet read_points_csv(std::istream& in) {
  std::vector<double> coords;
  int dim = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;
    int this_dim = 0;
    while (std::getline(row, cell, ',')) {
      coords.push_back(std::stod(cell));
      ++this_dim;
    }
    if (dim == 0) dim = this_dim;
    PANDORA_EXPECT(this_dim == dim, "ragged CSV: inconsistent column count");
  }
  PANDORA_EXPECT(dim > 0, "empty CSV");
  spatial::PointSet points(dim, static_cast<index_t>(coords.size() / static_cast<std::size_t>(dim)));
  points.coords() = std::move(coords);
  return points;
}

}  // namespace pandora::io
