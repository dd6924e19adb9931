#include "hypergraph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "test_util.hpp"

namespace hgr {
namespace {

TEST(Io, HypergraphRoundTrip) {
  HypergraphBuilder b(4);
  b.add_net({0, 1, 2}, 3);
  b.add_net({2, 3}, 7);
  b.set_vertex_weight(0, 5);
  b.set_vertex_size(0, 2);
  const Hypergraph h = b.finalize();

  std::stringstream ss;
  write_hmetis(h, ss);
  const Hypergraph back = read_hmetis(ss);

  EXPECT_EQ(back.num_vertices(), h.num_vertices());
  EXPECT_EQ(back.num_nets(), h.num_nets());
  EXPECT_EQ(back.net_cost(NetId{0}), 3);
  EXPECT_EQ(back.net_cost(NetId{1}), 7);
  EXPECT_EQ(back.vertex_weight(VertexId{0}), 5);
  EXPECT_EQ(back.vertex_size(VertexId{0}), 2);
  back.validate();
}

TEST(Io, ReadsPlainHmetisNoWeights) {
  std::stringstream ss("% comment\n2 3\n1 2\n2 3\n");
  const Hypergraph h = read_hmetis(ss);
  EXPECT_EQ(h.num_nets(), 2);
  EXPECT_EQ(h.num_vertices(), 3);
  EXPECT_EQ(h.net_cost(NetId{0}), 1);
  // Pins are 1-based in the file.
  EXPECT_EQ(h.pins(NetId{0})[0], VertexId{0});
}

TEST(Io, ReadsNetCostsFormat1) {
  std::stringstream ss("1 2 1\n9 1 2\n");
  const Hypergraph h = read_hmetis(ss);
  EXPECT_EQ(h.net_cost(NetId{0}), 9);
}

TEST(Io, RejectsOutOfRangePin) {
  std::stringstream ss("1 2\n1 5\n");
  EXPECT_THROW(read_hmetis(ss), std::runtime_error);
}

TEST(Io, RejectsGarbageHeader) {
  std::stringstream ss("nonsense\n");
  EXPECT_THROW(read_hmetis(ss), std::runtime_error);
}

TEST(Io, RejectsMissingNetLine) {
  std::stringstream ss("2 3\n1 2\n");
  EXPECT_THROW(read_hmetis(ss), std::runtime_error);
}

TEST(Io, RejectsNegativeNetCost) {
  std::stringstream ss("1 2 1\n-4 1 2\n");
  EXPECT_THROW(read_hmetis(ss), std::runtime_error);
}

TEST(Io, RejectsNegativeVertexWeight) {
  std::stringstream ss("1 2 10\n1 2\n3\n-1\n");
  EXPECT_THROW(read_hmetis(ss), std::runtime_error);
}

TEST(Io, RejectsNegativeVertexSize) {
  std::stringstream ss("1 2 110\n1 2\n3 1\n2 -6\n");
  EXPECT_THROW(read_hmetis(ss), std::runtime_error);
}

TEST(Io, RejectsNonNumericPin) {
  std::stringstream ss("1 3\n1 two 3\n");
  EXPECT_THROW(read_hmetis(ss), std::runtime_error);
}

// The checked-in malformed corpus: each file must be rejected with a
// message that names the offending entity, not just "bad file".
TEST(Io, MalformedCorpusRejectedWithClearErrors) {
  const std::string dir = HGR_TEST_DATA_DIR;
  const auto error_of = [](const std::string& path) -> std::string {
    try {
      read_hmetis_file(path);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_NE(error_of(dir + "/truncated.hgr").find("missing net line"),
            std::string::npos);
  EXPECT_NE(error_of(dir + "/pin_out_of_range.hgr").find("pin 9"),
            std::string::npos);
  EXPECT_NE(error_of(dir + "/negative_weight.hgr").find("vertex 2"),
            std::string::npos);
  EXPECT_NE(error_of(dir + "/negative_cost.hgr").find("net 1"),
            std::string::npos);
  EXPECT_NE(error_of(dir + "/vertex_count_overflow.hgr")
                .find("vertex count 4294967298 exceeds"),
            std::string::npos);
}

/// The message of the parse error `read` throws on `text` ("" if none).
template <typename Read>
std::string parse_error_of(Read read, const std::string& text) {
  std::stringstream ss(text);
  try {
    read(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Io, MetisRejectsNegativeVertexWeight) {
  const std::string err =
      parse_error_of(read_metis_graph, "2 1 10\n-3 2\n1 1\n");
  EXPECT_NE(err.find("negative weight -3 for vertex 1"), std::string::npos)
      << err;
}

TEST(Io, MetisRejectsNegativeEdgeWeight) {
  const std::string err =
      parse_error_of(read_metis_graph, "2 1 1\n2 -4\n1 -4\n");
  EXPECT_NE(err.find("negative weight -4 on edge (1, 2)"), std::string::npos)
      << err;
}

TEST(Io, GraphRoundTrip) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 4);
  b.add_edge(1, 2, 6);
  b.set_vertex_weight(1, 8);
  const Graph g = b.finalize();

  std::stringstream ss;
  write_metis_graph(g, ss);
  const Graph back = read_metis_graph(ss);
  EXPECT_EQ(back.num_vertices(), 3);
  EXPECT_EQ(back.num_edges(), 2);
  EXPECT_EQ(back.vertex_weight(1), 8);
  back.validate();
}

TEST(Io, GraphFileMissingThrows) {
  EXPECT_THROW(read_metis_graph_file("/nonexistent/path.graph"),
               std::runtime_error);
  EXPECT_THROW(read_hmetis_file("/nonexistent/path.hgr"),
               std::runtime_error);
}

TEST(Io, MatrixMarketGeneralPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "% a comment\n"
      "3 3 4\n"
      "1 2\n"
      "2 1\n"
      "2 3\n"
      "3 3\n");
  const Graph g = read_matrix_market(ss);
  EXPECT_EQ(g.num_vertices(), 3);
  // (1,2)+(2,1) merge; (3,3) diagonal dropped; (2,3) kept.
  EXPECT_EQ(g.num_edges(), 2);
  for (Index v = 0; v < 3; ++v)
    for (const Weight w : g.edge_weights(v)) EXPECT_EQ(w, 1);
  g.validate();
}

TEST(Io, MatrixMarketSymmetricReal) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "4 4 3\n"
      "2 1 0.5\n"
      "3 2 -1.0\n"
      "4 4 9.0\n");
  const Graph g = read_matrix_market(ss);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.degree(1), 2);
}

TEST(Io, MatrixMarketRejectsNonSquare) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "3 4 1\n"
      "1 2\n");
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(Io, MatrixMarketRejectsOversizedDimension) {
  // 2^32 + 2 rows would wrap to 2 if narrowed to a 32-bit vertex count.
  const std::string err = parse_error_of(
      read_matrix_market,
      "%%MatrixMarket matrix coordinate pattern general\n"
      "4294967298 4294967298 1\n"
      "1 3\n");
  EXPECT_NE(err.find("vertex count 4294967298 exceeds"), std::string::npos)
      << err;
}

TEST(Io, MatrixMarketRejectsBadBanner) {
  std::stringstream ss("%%NotMatrixMarket whatever\n1 1 0\n");
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(Io, MatrixMarketRejectsArrayFormat) {
  std::stringstream ss("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(read_matrix_market(ss), std::runtime_error);
}

TEST(Io, FileRoundTripViaTmp) {
  const Hypergraph h = testing::make_hypergraph(3, {{0, 1}, {1, 2}});
  const std::string path = ::testing::TempDir() + "/hgr_io_test.hgr";
  write_hmetis_file(h, path);
  const Hypergraph back = read_hmetis_file(path);
  EXPECT_EQ(back.num_nets(), 2);
}

}  // namespace
}  // namespace hgr
