#include "workloads.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {
namespace {

using spmm::Format;

// Shares of the run length given to the campaign and to the paced phase;
// the burst replays the paced phase's requests unpaced in what is left.
constexpr double kCampaignShare = 0.40;
constexpr double kPacedShare = 0.40;
constexpr double kBurstShare = 0.20;
// Set-ups per run; set-up time is reported as their median.
constexpr int kSetups = 3;
// The paced phase keeps at least this many requests, so its median rests
// on a large sample.
constexpr std::size_t kMinPacedRequests = 200;

std::vector<Workload> build() {
  std::vector<Workload> w;

  // Clustered-FEM and banded profiles whose operands spill the 2 MiB L2
  // at k = 128: kernels dominate every phase.
  Workload wide;
  wide.name = "wide_hot";
  wide.matrices = {{"cant", 0.05}, {"af23560", 0.2}, {"pdb1HYS", 0.05},
                   {"bcsstk17", 0.4}};
  wide.campaign_k = 128;
  wide.iterations = 5;
  wide.warmup = 1;
  wide.campaign_round_s = 3.4;
  wide.serve_formats = {Format::kCsr, Format::kSellC};
  wide.serve_k = 64;
  wide.rate_rps = 100.0;
  wide.burst_rps = 640.0;
  wide.zipf_s = 0.0;
  wide.cache_budget_mb = 1024;
  wide.hot = true;
  w.push_back(wide);

  // Scattered, power-law and short-row profiles at narrow k: the cost of
  // each call outside the kernel rivals the kernel itself.
  Workload narrow;
  narrow.name = "narrow_hot";
  narrow.matrices = {{"torso1", 0.01},
                     {"cop20k_A", 0.02},
                     {"2cubes_sphere", 0.02},
                     {"shallow_water1", 0.05},
                     {"dw4096", 0.5}};
  narrow.campaign_k = 8;
  narrow.iterations = 20;
  narrow.warmup = 2;
  narrow.campaign_round_s = 1.4;
  narrow.serve_formats = {Format::kCoo, Format::kCsr, Format::kCsr5};
  narrow.serve_k = 4;
  narrow.rate_rps = 500.0;
  narrow.burst_rps = 20000.0;
  narrow.zipf_s = 1.0;
  narrow.cache_budget_mb = 1024;
  narrow.hot = true;
  w.push_back(narrow);

  // Every suite profile at small scale, few timed iterations, uniform
  // popularity and a cache budget below the working set: parsing,
  // conversion and the cache's miss path dominate.
  Workload churn;
  churn.name = "churn";
  churn.matrices = {{"2cubes_sphere", 0.01}, {"af23560", 0.02},
                    {"bcsstk13", 0.2},       {"bcsstk17", 0.05},
                    {"cant", 0.005},         {"cop20k_A", 0.005},
                    {"crankseg_2", 0.002},   {"dw4096", 0.2},
                    {"nd24k", 0.001},        {"pdb1HYS", 0.005},
                    {"rma10", 0.005},        {"shallow_water1", 0.05},
                    {"torso1", 0.002},       {"x104", 0.002}};
  churn.campaign_k = 16;
  churn.iterations = 3;
  churn.warmup = 1;
  churn.campaign_round_s = 0.5;
  churn.serve_formats = {Format::kCsr, Format::kEll, Format::kHyb};
  churn.serve_k = 16;
  churn.rate_rps = 60.0;
  churn.burst_rps = 1080.0;
  churn.zipf_s = 0.0;
  churn.cache_budget_mb = 1;
  churn.hot = false;
  w.push_back(churn);

  return w;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = build();
  return w;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::size_t> round_counts(const Workload& w) {
  const std::size_t n = w.matrices.size() * w.serve_formats.size();
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < n; ++i) {
    const double c = std::pow(static_cast<double>(n) / static_cast<double>(i + 1),
                              w.zipf_s);
    counts.push_back(std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(c))));
  }
  return counts;
}

RunPlan plan_for(const Workload& w, double seconds) {
  RunPlan p;
  p.setups = kSetups;
  p.campaign_rounds = std::max(
      1, static_cast<int>(std::lround(seconds * kCampaignShare / w.campaign_round_s)));
  std::size_t round = 0;
  for (const std::size_t c : round_counts(w)) round += c;
  const std::size_t wanted = std::max<std::size_t>(
      kMinPacedRequests,
      static_cast<std::size_t>(std::llround(seconds * kPacedShare * w.rate_rps)));
  p.paced_requests = (wanted + round - 1) / round * round;
  p.burst_repeats = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(
             seconds * kBurstShare * w.burst_rps / static_cast<double>(p.paced_requests))));
  return p;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of the pair, so every stream of every seed differs.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
