// The serving phases' request lists and latency aggregate: each key's
// share of a request list is fixed by the workload, whatever the seed,
// and the aggregate weights keys by those shares.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "phases.hpp"

namespace perfbench {
namespace {

Workload two_by_two(double zipf_s) {
  Workload w;
  w.name = "test";
  w.matrices = {{"cant", 0.01}, {"dw4096", 0.1}};
  w.serve_formats = {spmm::Format::kCsr, spmm::Format::kEll};
  w.serve_k = 4;
  w.rate_rps = 100.0;
  w.zipf_s = zipf_s;
  return w;
}

TEST(RoundCounts, UniformHoldsEachKeyOnce) {
  EXPECT_EQ(round_counts(two_by_two(0.0)), (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(RoundCounts, ZipfFollowsKeyOrder) {
  Workload w = two_by_two(1.0);
  EXPECT_EQ(round_counts(w), (std::vector<std::size_t>{4, 2, 1, 1}));
  w.matrices.push_back({"torso1", 0.01});
  w.matrices.push_back({"cop20k_A", 0.01});
  w.matrices.push_back({"x104", 0.01});
  w.serve_formats.push_back(spmm::Format::kHyb);
  // 15 keys: round(15 / i) for i = 1..15.
  EXPECT_EQ(round_counts(w), (std::vector<std::size_t>{15, 8, 5, 4, 3, 3, 2, 2, 2,
                                                        2, 1, 1, 1, 1, 1}));
}

TEST(RunPlan, PacedRequestsAreWholeRounds) {
  const Workload w = two_by_two(1.0);  // rounds of 8
  for (const double seconds : {1.0, 7.0, 25.0}) {
    EXPECT_EQ(plan_for(w, seconds).paced_requests % 8, 0u) << seconds;
  }
}

std::map<std::string, std::size_t> count_keys(
    const std::vector<spmm::serve::Request>& requests, std::size_t first,
    std::size_t count) {
  std::map<std::string, std::size_t> counts;
  for (std::size_t i = first; i < first + count; ++i) {
    counts[requests[i].matrix + "/" +
           std::string(spmm::format_name(requests[i].format))]++;
  }
  return counts;
}

TEST(MakeRequests, EveryRoundHasTheSameCountsAndSeedsOnlyReorder) {
  const Workload w = two_by_two(1.0);
  Tracer tracer(false);
  Problems problems;
  std::vector<std::vector<spmm::serve::Request>> lists;
  for (const std::uint64_t seed : {1u, 2u}) {
    Context ctx{w, seed, "", tracer, problems, {"cant", "dw4096"}, {}, {}, {}};
    lists.push_back(make_requests(ctx, 80));
  }
  const std::map<std::string, std::size_t> expected = {
      {"cant/CSR", 4}, {"cant/ELL", 2}, {"dw4096/CSR", 1}, {"dw4096/ELL", 1}};
  bool orders_differ = false;
  for (const auto& list : lists) {
    ASSERT_EQ(list.size(), 80u);
    for (std::size_t round = 0; round < 10; ++round) {
      EXPECT_EQ(count_keys(list, round * 8, 8), expected) << round;
    }
    EXPECT_DOUBLE_EQ(list[10].arrival_ms, 100.0);
  }
  for (std::size_t i = 0; i < 80; ++i) {
    orders_differ = orders_differ || lists[0][i].matrix != lists[1][i].matrix ||
                    lists[0][i].format != lists[1][i].format;
  }
  EXPECT_TRUE(orders_differ);
}

TEST(WeightedGeomean, WeighsKeysByShareAndSkipsKeysWithoutRequests) {
  EXPECT_DOUBLE_EQ(weighted_geomean({2.0, 8.0}, {0.5, 0.5}), 4.0);
  EXPECT_NEAR(weighted_geomean({1.0, 8.0}, {2.0 / 3.0, 1.0 / 3.0}), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(weighted_geomean({3.0, 0.0}, {0.25, 0.75}), 3.0);
  EXPECT_EQ(weighted_geomean({0.0, 0.0}, {0.5, 0.5}), 0.0);
}

}  // namespace
}  // namespace perfbench
