#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "pandora/data/point_generators.hpp"
#include "pandora/dendrogram/pandora.hpp"
#include "pandora/io/io.hpp"
#include "test_helpers.hpp"

namespace {

using namespace pandora;
using pandora::testing::Topology;
using pandora::testing::make_tree;

TEST(Io, DendrogramBinaryRoundTrip) {
  const graph::EdgeList tree = make_tree(Topology::preferential, 500, 3);
  const auto original = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 500);
  std::stringstream stream;
  io::save_dendrogram(stream, original);
  const auto loaded = io::load_dendrogram(stream);
  EXPECT_EQ(loaded.num_edges, original.num_edges);
  EXPECT_EQ(loaded.num_vertices, original.num_vertices);
  EXPECT_EQ(loaded.parent, original.parent);
  EXPECT_EQ(loaded.weight, original.weight);
  EXPECT_EQ(loaded.edge_order, original.edge_order);
}

TEST(Io, DendrogramRejectsGarbageAndTruncation) {
  std::stringstream garbage("this is not a dendrogram");
  EXPECT_THROW((void)io::load_dendrogram(garbage), std::invalid_argument);

  const graph::EdgeList tree = make_tree(Topology::path, 50, 1);
  const auto original = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 50);
  std::stringstream stream;
  io::save_dendrogram(stream, original);
  const std::string bytes = stream.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW((void)io::load_dendrogram(truncated), std::invalid_argument);
}

TEST(Io, EdgeListRoundTrip) {
  const graph::EdgeList tree = make_tree(Topology::caterpillar, 300, 5);
  std::stringstream stream;
  io::save_edges(stream, tree, 300);
  const auto [loaded, nv] = io::load_edges(stream);
  EXPECT_EQ(nv, 300);
  ASSERT_EQ(loaded.size(), tree.size());
  for (std::size_t i = 0; i < tree.size(); ++i) EXPECT_EQ(loaded[i], tree[i]);
}

// A hand-written edge stream: magic, num_vertices, edge count, then
// (u, v, weight) records.
std::stringstream edge_stream(std::int64_t num_vertices, std::uint64_t count,
                              const graph::EdgeList& edges) {
  std::stringstream stream;
  const auto put = [&](const auto& value) {
    stream.write(reinterpret_cast<const char*>(&value), sizeof(value));
  };
  put(std::uint64_t{0x50414e4544474553ull});  // "PANEDGES"
  put(num_vertices);
  put(count);
  for (const auto& e : edges) {
    put(e.u);
    put(e.v);
    put(e.weight);
  }
  return stream;
}

TEST(Io, EdgeListRejectsImplausibleCountWithoutAllocating) {
  std::stringstream stream = edge_stream(10, std::uint64_t{1} << 40, {{0, 1, 1.0}});
  EXPECT_THROW((void)io::load_edges(stream), std::invalid_argument);
}

TEST(Io, EdgeListRejectsOutOfRangeEndpoint) {
  std::stringstream stream = edge_stream(3, 2, {{0, 1, 1.0}, {1, 3, 2.0}});
  EXPECT_THROW((void)io::load_edges(stream), std::invalid_argument);
}

TEST(Io, EdgeListRejectsVertexCountBeyondIndexRange) {
  // 2^32 + 2 would narrow to 2 and make the edge below look valid.
  std::stringstream stream = edge_stream((std::int64_t{1} << 32) + 2, 1, {{0, 1, 1.0}});
  EXPECT_THROW((void)io::load_edges(stream), std::invalid_argument);
}

TEST(Io, LinkageCsvHasHeaderAndAllRows) {
  const graph::EdgeList tree = make_tree(Topology::balanced, 64, 2);
  const auto d = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 64);
  std::stringstream stream;
  io::write_linkage_csv(stream, d);
  std::string line;
  index_t lines = 0;
  while (std::getline(stream, line))
    if (!line.empty()) ++lines;
  EXPECT_EQ(lines, 64);  // header + 63 merges
}

TEST(Io, PointsCsvRoundTrip) {
  const spatial::PointSet original = data::uniform_points(200, 3, 9);
  std::stringstream stream;
  io::write_points_csv(stream, original);
  const spatial::PointSet loaded = io::read_points_csv(stream);
  ASSERT_EQ(loaded.size(), original.size());
  ASSERT_EQ(loaded.dim(), original.dim());
  for (index_t i = 0; i < original.size(); ++i)
    for (int d = 0; d < 3; ++d)
      EXPECT_NEAR(loaded.at(i, d), original.at(i, d), 1e-5);  // text precision
}

TEST(Io, PointsCsvRejectsRaggedRows) {
  std::stringstream ragged("1,2,3\n4,5\n");
  EXPECT_THROW((void)io::read_points_csv(ragged), std::invalid_argument);
}

TEST(Io, FileRoundTrip) {
  const graph::EdgeList tree = make_tree(Topology::broom, 100, 7);
  const auto original = dendrogram::pandora_dendrogram(exec::default_executor(), tree, 100);
  const std::string path = ::testing::TempDir() + "/pandora_io_test.bin";
  io::save_dendrogram_file(path, original);
  const auto loaded = io::load_dendrogram_file(path);
  EXPECT_EQ(loaded.parent, original.parent);
  EXPECT_THROW((void)io::load_dendrogram_file("/nonexistent/nope.bin"), std::invalid_argument);
}

}  // namespace
