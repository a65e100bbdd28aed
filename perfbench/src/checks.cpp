#include "checks.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

[[noreturn]] void parse_error(const std::string& path, const std::string& what) {
  throw std::runtime_error("perfbench: " + path + ": " + what);
}

// Advance past the current line.
const char* next_line(const char* p, const char* end) {
  while (p < end && *p != '\n') ++p;
  return p < end ? p + 1 : end;
}

std::int64_t parse_int(const char*& p, const std::string& path) {
  char* stop = nullptr;
  errno = 0;
  const long long v = std::strtoll(p, &stop, 10);
  if (stop == p || errno != 0) parse_error(path, "malformed integer");
  p = stop;
  return v;
}

double parse_double(const char*& p, const std::string& path) {
  char* stop = nullptr;
  const double v = std::strtod(p, &stop);
  if (stop == p || !std::isfinite(v)) parse_error(path, "malformed value");
  p = stop;
  return v;
}

}  // namespace

Triplets parse_mtx(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) parse_error(path, "cannot open");
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const char* p = text.c_str();
  const char* end = p + text.size();

  const std::string banner = "%%MatrixMarket matrix coordinate real general";
  if (text.compare(0, banner.size(), banner) != 0) {
    parse_error(path, "not a coordinate real general Matrix Market file");
  }
  while (p < end && *p == '%') p = next_line(p, end);

  Triplets t;
  t.rows = parse_int(p, path);
  t.cols = parse_int(p, path);
  const std::int64_t nnz = parse_int(p, path);
  if (t.rows <= 0 || t.cols <= 0 || nnz < 0) parse_error(path, "bad size line");
  t.row.reserve(static_cast<std::size_t>(nnz));
  t.col.reserve(static_cast<std::size_t>(nnz));
  t.value.reserve(static_cast<std::size_t>(nnz));
  for (std::int64_t i = 0; i < nnz; ++i) {
    const std::int64_t r = parse_int(p, path);
    const std::int64_t c = parse_int(p, path);
    const double v = parse_double(p, path);
    if (r < 1 || r > t.rows || c < 1 || c > t.cols) {
      parse_error(path, "entry " + std::to_string(i) + " out of range");
    }
    t.row.push_back(r - 1);
    t.col.push_back(c - 1);
    t.value.push_back(v);
  }
  while (p < end && (*p == ' ' || *p == '\n' || *p == '\r' || *p == '\t')) ++p;
  if (p != end) parse_error(path, "trailing data after the last entry");
  return t;
}

Triplets triplets_of(const Matrix& m) {
  Triplets t;
  t.rows = m.rows();
  t.cols = m.cols();
  t.row.reserve(m.nnz());
  t.col.reserve(m.nnz());
  t.value.reserve(m.nnz());
  for (std::size_t i = 0; i < m.nnz(); ++i) {
    t.row.push_back(m.row(i));
    t.col.push_back(m.col(i));
    t.value.push_back(m.value(i));
  }
  return t;
}

std::string compare_entries(const Triplets& expected, const Triplets& actual) {
  if (expected.rows != actual.rows || expected.cols != actual.cols) {
    return "shape " + std::to_string(actual.rows) + "x" +
           std::to_string(actual.cols) + ", expected " +
           std::to_string(expected.rows) + "x" + std::to_string(expected.cols);
  }
  if (expected.value.size() != actual.value.size()) {
    return std::to_string(actual.value.size()) + " entries, expected " +
           std::to_string(expected.value.size());
  }
  for (std::size_t i = 0; i < expected.value.size(); ++i) {
    if (expected.row[i] != actual.row[i] || expected.col[i] != actual.col[i] ||
        expected.value[i] != actual.value[i]) {
      std::ostringstream os;
      os.precision(17);
      os << "entry " << i << " is (" << actual.row[i] << ", " << actual.col[i]
         << ", " << actual.value[i] << "), expected (" << expected.row[i]
         << ", " << expected.col[i] << ", " << expected.value[i] << ")";
      return os.str();
    }
  }
  return {};
}

Reference reference_multiply(const Triplets& a, const double* b,
                             std::int64_t k) {
  Reference ref;
  ref.rows = a.rows;
  ref.k = k;
  ref.c.assign(static_cast<std::size_t>(a.rows * k), 0.0);
  std::vector<std::int64_t> len(static_cast<std::size_t>(a.rows), 0);
  std::vector<double> abs_sum(static_cast<std::size_t>(a.rows), 0.0);
  for (std::size_t e = 0; e < a.value.size(); ++e) {
    const std::int64_t r = a.row[e];
    const double v = a.value[e];
    const double* brow = b + a.col[e] * k;
    double* crow = ref.c.data() + r * k;
    for (std::int64_t j = 0; j < k; ++j) crow[j] += v * brow[j];
    ++len[static_cast<std::size_t>(r)];
    abs_sum[static_cast<std::size_t>(r)] += std::abs(v);
  }
  double bmax = 0.0;
  for (std::int64_t i = 0; i < a.cols * k; ++i) bmax = std::max(bmax, std::abs(b[i]));
  const double eps = std::numeric_limits<double>::epsilon();
  ref.tol.resize(static_cast<std::size_t>(a.rows));
  for (std::size_t r = 0; r < ref.tol.size(); ++r) {
    ref.tol[r] = 4.0 * eps * static_cast<double>(std::max<std::int64_t>(len[r], 1)) *
                 abs_sum[r] * bmax;
  }
  return ref;
}

std::string compare_product(const Reference& ref, const double* c,
                            std::int64_t rows, std::int64_t k) {
  if (rows != ref.rows || k != ref.k) {
    return "C is " + std::to_string(rows) + "x" + std::to_string(k) +
           ", expected " + std::to_string(ref.rows) + "x" +
           std::to_string(ref.k);
  }
  for (std::int64_t r = 0; r < rows; ++r) {
    const double tol = ref.tol[static_cast<std::size_t>(r)];
    for (std::int64_t j = 0; j < k; ++j) {
      const double got = c[r * k + j];
      const double want = ref.c[static_cast<std::size_t>(r * k + j)];
      // Written so that a NaN in C fails the check.
      if (!(std::abs(got - want) <= tol)) {
        std::ostringstream os;
        os.precision(17);
        os << "C(" << r << ", " << j << ") = " << got << ", reference "
           << want << ", tolerance " << tol;
        return os.str();
      }
    }
  }
  return {};
}

std::string check_outcomes(
    const std::vector<std::uint64_t>& submitted,
    const std::vector<spmm::serve::RequestOutcome>& outcomes,
    std::size_t& not_ok) {
  std::map<std::uint64_t, int> seen;
  for (const std::uint64_t id : submitted) {
    if (!seen.emplace(id, 0).second) {
      return "request id " + std::to_string(id) + " submitted twice";
    }
  }
  not_ok = 0;
  for (const auto& o : outcomes) {
    auto it = seen.find(o.id);
    if (it == seen.end()) {
      return "outcome for request id " + std::to_string(o.id) +
             ", which was never submitted";
    }
    if (++it->second > 1) {
      return "request id " + std::to_string(o.id) + " has " +
             std::to_string(it->second) + " outcomes";
    }
    if (o.status != spmm::serve::RequestStatus::kOk) ++not_ok;
  }
  for (const auto& [id, count] : seen) {
    if (count == 0) {
      return "request id " + std::to_string(id) + " has no outcome";
    }
  }
  return {};
}

std::string check_engine_counters(const spmm::serve::EngineStats& s,
                                  std::uint64_t requests,
                                  bool cache_holds_all) {
  const auto batched = static_cast<std::uint64_t>(std::llround(s.batch_size_sum));
  if (batched != requests) {
    return "batch sizes sum to " + std::to_string(batched) + ", expected " +
           std::to_string(requests) + " requests";
  }
  const std::uint64_t lookups =
      s.cache.hits + s.cache.misses + s.cache.singleflight_waits;
  if (lookups != s.batches) {
    return "cache hits " + std::to_string(s.cache.hits) + " + misses " +
           std::to_string(s.cache.misses) + " + singleflight waits " +
           std::to_string(s.cache.singleflight_waits) + " = " +
           std::to_string(lookups) + ", expected one per batch (" +
           std::to_string(s.batches) + ")";
  }
  if (s.cache.formats != s.cache.misses) {
    return std::to_string(s.cache.formats) + " conversions for " +
           std::to_string(s.cache.misses) + " cache misses";
  }
  if (cache_holds_all && s.cache.evictions != 0) {
    return std::to_string(s.cache.evictions) +
           " evictions from a cache sized to hold every instance";
  }
  return {};
}

}  // namespace perfbench
