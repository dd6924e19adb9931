// Protocol parsing (src/serve/request.hpp): every verb's happy path, the
// optional LOAD parameters, and — because parse_request guards the daemon
// against arbitrary client input — a battery of malformed lines that must
// come back kInvalid with a diagnostic instead of throwing.
#include "serve/request.hpp"

#include <gtest/gtest.h>

#include <string>

namespace hgr::serve {
namespace {

TEST(ServeRequest, LoadMinimal) {
  const Request r = parse_request("LOAD mesh /tmp/mesh.hgr");
  ASSERT_EQ(r.kind, RequestKind::kLoad) << r.error;
  EXPECT_EQ(r.graph, "mesh");
  EXPECT_EQ(r.path, "/tmp/mesh.hgr");
  EXPECT_EQ(r.k, 0);           // 0 = take the server default
  EXPECT_EQ(r.alpha, -1);      // -1 = take the server default
  EXPECT_EQ(r.epsilon, -1.0);  // -1 = take the server default
}

TEST(ServeRequest, LoadWithOverrides) {
  const Request r =
      parse_request("LOAD mesh data/m.hgr k=8 alpha=50 eps=0.03");
  ASSERT_EQ(r.kind, RequestKind::kLoad) << r.error;
  EXPECT_EQ(r.k, 8);
  EXPECT_EQ(r.alpha, 50);
  EXPECT_DOUBLE_EQ(r.epsilon, 0.03);
  // The accepted range's upper ends.
  const Request top = parse_request("LOAD mesh m.hgr k=2147483647 eps=1");
  ASSERT_EQ(top.kind, RequestKind::kLoad) << top.error;
  EXPECT_EQ(top.k, 2147483647);
  EXPECT_DOUBLE_EQ(top.epsilon, 1.0);
}

TEST(ServeRequest, DeltaParsesUpdatePairs) {
  const Request r = parse_request("DELTA mesh 0:5 17:3 2:0");
  ASSERT_EQ(r.kind, RequestKind::kDelta) << r.error;
  EXPECT_EQ(r.graph, "mesh");
  ASSERT_EQ(r.updates.size(), 3u);
  EXPECT_EQ(r.updates[0].v, VertexId{0});
  EXPECT_EQ(r.updates[0].w, 5);
  EXPECT_EQ(r.updates[1].v, VertexId{17});
  EXPECT_EQ(r.updates[1].w, 3);
  EXPECT_EQ(r.updates[2].v, VertexId{2});
  EXPECT_EQ(r.updates[2].w, 0);
}

TEST(ServeRequest, AddParsesWeights) {
  const Request r = parse_request("ADD mesh 3 1 7");
  ASSERT_EQ(r.kind, RequestKind::kAdd) << r.error;
  ASSERT_EQ(r.add_weights.size(), 3u);
  EXPECT_EQ(r.add_weights[0], 3);
  EXPECT_EQ(r.add_weights[2], 7);
}

TEST(ServeRequest, RemoveParsesVertexIds) {
  const Request r = parse_request("REMOVE mesh 4 9");
  ASSERT_EQ(r.kind, RequestKind::kRemove) << r.error;
  ASSERT_EQ(r.remove.size(), 2u);
  EXPECT_EQ(r.remove[0], VertexId{4});
  EXPECT_EQ(r.remove[1], VertexId{9});
  const Request top = parse_request("REMOVE mesh 2147483647");
  ASSERT_EQ(top.kind, RequestKind::kRemove) << top.error;
  EXPECT_EQ(top.remove[0], VertexId{2147483647});
}

TEST(ServeRequest, SwapAndRepart) {
  const Request s = parse_request("SWAP mesh /tmp/next.hgr");
  ASSERT_EQ(s.kind, RequestKind::kSwap) << s.error;
  EXPECT_EQ(s.path, "/tmp/next.hgr");
  const Request f = parse_request("REPART mesh");
  ASSERT_EQ(f.kind, RequestKind::kRepart) << f.error;
  EXPECT_EQ(f.graph, "mesh");
}

TEST(ServeRequest, BlankAndCommentLinesAreSilentlyInvalid) {
  for (const char* line : {"", "   ", "# a comment", "  # indented"}) {
    const Request r = parse_request(line);
    EXPECT_EQ(r.kind, RequestKind::kInvalid) << line;
    EXPECT_TRUE(r.error.empty()) << line << " -> " << r.error;
  }
}

TEST(ServeRequest, MalformedLinesReportErrorsWithoutThrowing) {
  const char* bad[] = {
      "FROB mesh",              // unknown verb
      "LOAD",                   // missing graph + path
      "LOAD mesh",              // missing path
      "LOAD mesh a.hgr k=1",    // k < 2
      "LOAD mesh a.hgr k=abc",  // non-numeric k
      "LOAD mesh a.hgr eps=0",  // eps must be > 0
      "LOAD mesh a.hgr k=4294967298",  // would wrap to k=2
      "LOAD mesh a.hgr k=2147483648",  // would wrap negative
      "LOAD mesh a.hgr eps=inf",       // unbounded part weight
      "LOAD mesh a.hgr eps=nan",
      "LOAD mesh a.hgr eps=1.5",       // eps above 1
      "LOAD mesh a.hgr bogus=1",
      "DELTA mesh",             // no updates
      "DELTA mesh 5",           // missing :w
      "DELTA mesh a:b",         // non-numeric pair
      "DELTA mesh -1:4",        // negative vertex
      "DELTA mesh 1:-4",        // negative weight
      "DELTA mesh 4294967296:9",  // would wrap to vertex 0
      "ADD mesh",               // no weights
      "ADD mesh -2",            // negative weight
      "REMOVE mesh",            // no vertices
      "REMOVE mesh -3",         // negative vertex
      "REMOVE mesh 4294967296",  // would wrap to vertex 0
      "SWAP mesh",              // missing path
      "REPART",                 // missing graph
  };
  for (const char* line : bad) {
    const Request r = parse_request(line);
    EXPECT_EQ(r.kind, RequestKind::kInvalid) << line;
    EXPECT_FALSE(r.error.empty()) << line;
  }
}

TEST(ServeRequest, KindToString) {
  EXPECT_STREQ(to_string(RequestKind::kLoad), "LOAD");
  EXPECT_STREQ(to_string(RequestKind::kDelta), "DELTA");
  EXPECT_STREQ(to_string(RequestKind::kAdd), "ADD");
  EXPECT_STREQ(to_string(RequestKind::kRemove), "REMOVE");
  EXPECT_STREQ(to_string(RequestKind::kSwap), "SWAP");
  EXPECT_STREQ(to_string(RequestKind::kRepart), "REPART");
  EXPECT_STREQ(to_string(RequestKind::kInvalid), "INVALID");
}

}  // namespace
}  // namespace hgr::serve
