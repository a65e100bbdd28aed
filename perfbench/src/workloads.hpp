// The benchmark's workloads: each is one traffic mix run through the same
// three phases (campaign, paced serving, unpaced burst). README.md gives
// the reasons for each choice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "formats/format_id.hpp"

namespace perfbench {

/// A suite profile (src/gen/suite.cpp) at a row scale.
struct MatrixUse {
  std::string profile;
  double scale = 1.0;
};

struct Workload {
  std::string name;
  std::vector<MatrixUse> matrices;

  // Campaign: every matrix × every format, cells serial and omp at 2
  // threads.
  int campaign_k = 0;
  int iterations = 0;  ///< timed iterations per cell
  int warmup = 0;      ///< untimed iterations per cell
  /// Nominal wall time of one campaign round; with the run length it
  /// fixes how many whole rounds a run makes.
  double campaign_round_s = 1.0;

  // Serving: requests over (matrix, format) keys.
  std::vector<spmm::Format> serve_formats;
  int serve_k = 0;
  double rate_rps = 0.0;  ///< paced phase's offered rate (open loop)
  /// Nominal unpaced capacity; with the run length it fixes how many
  /// times the burst replays the paced phase's request list.
  double burst_rps = 0.0;
  /// Popularity exponent over the keys: 0 = uniform, s > 0 = Zipf(s)
  /// (see round_counts).
  double zipf_s = 0.0;
  std::size_t cache_budget_mb = 0;
  /// The cache budget holds every instance, and set-up warms it with one
  /// request per key, so every measured lookup is a hit.
  bool hot = false;
};

/// The engine every workload serves with: two workers running one kernel
/// thread each, so the burst keeps at most four threads busy (submitter,
/// dispatcher, two workers). The batch limit stays the engine's default.
inline constexpr int kWorkers = 2;
inline constexpr int kKernelThreads = 1;

const std::vector<Workload>& workloads();

/// How often each serving key (matrices in order, each with its formats
/// in order) occurs in one round of a request list: key i of n occurs
/// round((n / (i + 1))^zipf_s) times, at least once. A request list is
/// made of whole rounds, so each key's share of it is fixed by the
/// workload; the seed only orders each round.
std::vector<std::size_t> round_counts(const Workload& w);

/// The workload named `name`, or nullptr.
const Workload* find_workload(std::string_view name);

/// How much work a run of `seconds` makes. Fixed by the workload and the
/// run length alone, never by how fast the host is, so two runs of the
/// same length attempt exactly the same operations.
struct RunPlan {
  int setups = 0;
  int campaign_rounds = 0;
  std::size_t paced_requests = 0;  ///< whole rounds of round_counts()
  std::size_t burst_repeats = 0;
};

RunPlan plan_for(const Workload& w, double seconds);

/// What a run draws from its seed; each use gets its own stream.
enum SeedStream : std::uint64_t {
  kCampaignOperands = 1,  ///< the campaign instances' BenchParams::seed
  kServeOperands = 2,     ///< the serving instances' BenchParams::seed
  kRequests = 3,          ///< the request list
  kMatrices = 100,        ///< + matrix index: the matrix's generator seed
};

/// A seed for one use (`stream`) of the run's seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Threads a run keeps busy at once: the serving phases' submitter and
/// dispatcher plus workers × kernel threads (the campaign's two-thread
/// cells keep fewer busy).
inline constexpr int kBusyThreads = 2 + kWorkers * kKernelThreads;

}  // namespace perfbench
