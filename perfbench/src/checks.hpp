// Output checks made apart from the program.
//
// Nothing here calls the program's reference multiply, its verifier or
// its Matrix Market reader: the .mtx parser, the reference product and
// the serving invariants are the benchmark's own. Each check returns an
// empty string when it passes and a description of the first violation
// otherwise. The time spent in checks is excluded from every timing
// metric.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace perfbench {

using Matrix = spmm::serve::ServeMatrix;

/// A sparse matrix as (row, col, value) triplets, 0-based.
struct Triplets {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::int64_t> row;
  std::vector<std::int64_t> col;
  std::vector<double> value;
};

/// Parse a "coordinate real general" Matrix Market file. Throws
/// std::runtime_error on anything else or on malformed input.
Triplets parse_mtx(const std::string& path);

/// The triplets of a COO matrix, in its stored order.
Triplets triplets_of(const Matrix& m);

/// Entry-for-entry equality, in order, values compared exactly.
std::string compare_entries(const Triplets& expected, const Triplets& actual);

/// C = A·B computed from the triplets, with a per-row error tolerance.
struct Reference {
  std::int64_t rows = 0;
  std::int64_t k = 0;
  std::vector<double> c;    ///< rows × k, row-major
  std::vector<double> tol;  ///< per row
};

/// `b` is cols × k, row-major. The tolerance of row i is
/// 4·ε·len_i·Σ_j|a_ij|·max|B|, a bound on the rounding error of any
/// summation order of that row's len_i products, so it grows with the
/// row's length.
Reference reference_multiply(const Triplets& a, const double* b,
                             std::int64_t k);

/// Compare a computed C (rows × k, row-major) with the reference.
std::string compare_product(const Reference& ref, const double* c,
                            std::int64_t rows, std::int64_t k);

/// Exactly one terminal outcome per submitted id, no outcome for an id
/// never submitted. Outcomes that are not ok are counted in `not_ok`
/// (they are failures, not check violations).
std::string check_outcomes(const std::vector<std::uint64_t>& submitted,
                           const std::vector<spmm::serve::RequestOutcome>& outcomes,
                           std::size_t& not_ok);

/// The engine's counters against the number of requests it was given:
/// batch sizes sum to the request count; every batch looked the cache
/// up once (a hit, a miss, or a wait on another worker's conversion of
/// the same key); conversions equal misses (singleflight); and, when
/// `cache_holds_all`, nothing was evicted.
std::string check_engine_counters(const spmm::serve::EngineStats& stats,
                                  std::uint64_t requests,
                                  bool cache_holds_all);

}  // namespace perfbench
