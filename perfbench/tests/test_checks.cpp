// Each of the benchmark's own checks must catch the fault it exists for:
// a perturbed C entry, a dropped or duplicated serving outcome, wrong
// engine counters, and a changed matrix entry.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <unistd.h>

#include "checks.hpp"
#include "gen/suite.hpp"
#include "io/matrix_market.hpp"

namespace perfbench {
namespace {

Matrix small_matrix() {
  return spmm::gen::generate<double, std::int32_t>(
      spmm::gen::suite_spec("bcsstk13", 0.05, 7));
}

std::vector<double> dense_b(std::int64_t rows, std::int64_t k) {
  std::vector<double> b(static_cast<std::size_t>(rows * k));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<double>((i * 37) % 101) / 50.0 - 1.0;
  }
  return b;
}

// C computed the way a kernel would: row by row over the COO entries.
std::vector<double> multiply(const Matrix& a, const std::vector<double>& b,
                             std::int64_t k) {
  std::vector<double> c(static_cast<std::size_t>(a.rows() * k), 0.0);
  for (std::size_t e = 0; e < a.nnz(); ++e) {
    for (std::int64_t j = 0; j < k; ++j) {
      c[static_cast<std::size_t>(a.row(e) * k + j)] +=
          a.value(e) * b[static_cast<std::size_t>(a.col(e) * k + j)];
    }
  }
  return c;
}

TEST(ReferenceCheck, AcceptsAKernelResultAndCatchesAPerturbedEntry) {
  const Matrix a = small_matrix();
  const std::int64_t k = 8;
  const std::vector<double> b = dense_b(a.cols(), k);
  std::vector<double> c = multiply(a, b, k);
  const Reference ref = reference_multiply(triplets_of(a), b.data(), k);
  EXPECT_EQ(compare_product(ref, c.data(), a.rows(), k), "");

  c[static_cast<std::size_t>(a.row(a.nnz() / 2) * k + 3)] += 1e-9;
  EXPECT_NE(compare_product(ref, c.data(), a.rows(), k), "");
}

TEST(ReferenceCheck, CatchesNaNAndShapeMismatch) {
  const Matrix a = small_matrix();
  const std::int64_t k = 4;
  const std::vector<double> b = dense_b(a.cols(), k);
  std::vector<double> c = multiply(a, b, k);
  const Reference ref = reference_multiply(triplets_of(a), b.data(), k);
  EXPECT_NE(compare_product(ref, c.data(), a.rows(), k - 1), "");
  c[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(compare_product(ref, c.data(), a.rows(), k), "");
}

spmm::serve::RequestOutcome ok_outcome(std::uint64_t id) {
  spmm::serve::RequestOutcome o;
  o.id = id;
  o.status = spmm::serve::RequestStatus::kOk;
  return o;
}

TEST(OutcomeCheck, OneOutcomePerIdPasses) {
  const std::vector<std::uint64_t> ids = {1, 2, 3};
  std::size_t not_ok = 99;
  EXPECT_EQ(check_outcomes(ids, {ok_outcome(3), ok_outcome(1), ok_outcome(2)}, not_ok), "");
  EXPECT_EQ(not_ok, 0u);
}

TEST(OutcomeCheck, CatchesDroppedDuplicatedAndUnknownOutcomes) {
  const std::vector<std::uint64_t> ids = {1, 2, 3};
  std::size_t not_ok = 0;
  EXPECT_NE(check_outcomes(ids, {ok_outcome(1), ok_outcome(2)}, not_ok), "");
  EXPECT_NE(check_outcomes(ids, {ok_outcome(1), ok_outcome(2), ok_outcome(2),
                                 ok_outcome(3)},
                           not_ok),
            "");
  EXPECT_NE(check_outcomes(ids, {ok_outcome(1), ok_outcome(2), ok_outcome(3),
                                 ok_outcome(4)},
                           not_ok),
            "");
}

TEST(OutcomeCheck, CountsOutcomesThatAreNotOk) {
  const std::vector<std::uint64_t> ids = {1, 2};
  auto failed = ok_outcome(2);
  failed.status = spmm::serve::RequestStatus::kFailed;
  std::size_t not_ok = 0;
  EXPECT_EQ(check_outcomes(ids, {ok_outcome(1), failed}, not_ok), "");
  EXPECT_EQ(not_ok, 1u);
}

spmm::serve::EngineStats consistent_stats() {
  spmm::serve::EngineStats s;
  s.batches = 10;
  s.batch_size_sum = 25.0;
  s.cache.hits = 7;
  s.cache.misses = 2;
  s.cache.singleflight_waits = 1;
  s.cache.formats = 2;
  return s;
}

TEST(EngineCounterCheck, ConsistentCountersPass) {
  EXPECT_EQ(check_engine_counters(consistent_stats(), 25, true), "");
}

TEST(EngineCounterCheck, CatchesEachBrokenInvariant) {
  EXPECT_NE(check_engine_counters(consistent_stats(), 26, true), "");
  auto lookups = consistent_stats();
  lookups.cache.hits = 6;
  EXPECT_NE(check_engine_counters(lookups, 25, true), "");
  auto double_format = consistent_stats();
  double_format.cache.formats = 3;
  EXPECT_NE(check_engine_counters(double_format, 25, true), "");
  auto evicted = consistent_stats();
  evicted.cache.evictions = 1;
  EXPECT_NE(check_engine_counters(evicted, 25, true), "");
  EXPECT_EQ(check_engine_counters(evicted, 25, false), "");
}

class RoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "perfbench_roundtrip_" + std::to_string(::getpid()) + ".mtx";
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path_;
};

TEST_F(RoundTrip, WrittenMatrixReadsBackEntryForEntry) {
  const Matrix a = small_matrix();
  spmm::io::write_matrix_market_file(path_, a);
  EXPECT_EQ(compare_entries(triplets_of(a), parse_mtx(path_)), "");
}

TEST_F(RoundTrip, CatchesAChangedEntry) {
  const Matrix a = small_matrix();
  spmm::io::write_matrix_market_file(path_, a);
  Triplets changed = parse_mtx(path_);
  changed.value[changed.value.size() / 2] = std::nextafter(
      changed.value[changed.value.size() / 2], 2.0);
  EXPECT_NE(compare_entries(triplets_of(a), changed), "");
  Triplets moved = parse_mtx(path_);
  moved.col[0] = (moved.col[0] + 1) % moved.cols;
  EXPECT_NE(compare_entries(triplets_of(a), moved), "");
}

TEST_F(RoundTrip, RejectsATruncatedFile) {
  const Matrix a = small_matrix();
  spmm::io::write_matrix_market_file(path_, a);
  std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);
  EXPECT_THROW(parse_mtx(path_), std::runtime_error);
}

}  // namespace
}  // namespace perfbench
