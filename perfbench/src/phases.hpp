// The three phases every workload runs, and the set-up before them.
//
// Each phase drives the program only through its public functions and
// wraps every call into a layer in a span (trace.hpp). Checks run between
// the calls, on the outputs, and their time is excluded from the phase's
// timing.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "serve/engine.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Check violations found during a run, each with where it was found.
struct Problems {
  std::vector<std::string> list;
  void add(const std::string& where, const std::string& what) {
    if (!what.empty()) list.push_back(where + ": " + what);
  }
};

/// Splits one repetition of a phase (a set-up, a campaign round) into
/// steps that recur in every repetition, so that each step's time can be
/// compared across repetitions. Check time added to excluded() is left
/// out of the step it falls in.
class StepTimer {
 public:
  StepTimer() : last_ns_(now_ns()) {}
  /// End the current step here.
  void lap() {
    const std::int64_t t = now_ns();
    steps_.push_back(static_cast<double>(t - last_ns_) * 1e-9 - excluded_);
    last_ns_ = t;
    excluded_ = 0.0;
  }
  [[nodiscard]] double& excluded() { return excluded_; }
  [[nodiscard]] const std::vector<double>& steps() const { return steps_; }

 private:
  std::int64_t last_ns_;
  double excluded_ = 0.0;
  std::vector<double> steps_;
};

/// The sum over steps of each step's median across repetitions: the wall
/// time of one repetition, with a stall that hit one repetition's step
/// filtered out. Every repetition must have the same steps.
double sum_of_step_medians(const std::vector<std::vector<double>>& repetitions);

/// Everything a phase needs about the run.
struct Context {
  const Workload& workload;
  std::uint64_t seed = 0;
  std::string dir;  ///< the run's own directory for .mtx, journal, CSV
  Tracer& tracer;
  Problems& problems;

  std::vector<std::string> names;  ///< matrix names, one per MatrixUse
  std::vector<std::string> paths;  ///< their .mtx files
  /// From the last set-up: the generated matrices, and the triplets the
  /// benchmark's own parser read back from their files.
  std::vector<Matrix> generated;
  std::vector<Triplets> triplets;
};

// ---------------------------------------------------------------- serving

/// The engine of a run and what the benchmark submitted to it.
struct Serving {
  std::unique_ptr<spmm::serve::ServeEngine> engine;
  spmm::serve::ServeEngine::Producer* producer = nullptr;
  std::vector<std::uint64_t> submitted;
  /// When each submit() call began, indexed by request id - 1 (ids run
  /// from 1 in submission order).
  std::vector<std::int64_t> submit_ns;
  std::uint64_t next_id = 1;
};

/// The (matrix, format) keys a workload's requests address.
struct Key {
  std::string matrix;
  spmm::Format format = spmm::Format::kCsr;
};
std::vector<Key> serve_keys(const Context& ctx);

/// Construct and start an engine whose provider loads the workload's
/// .mtx files.
std::unique_ptr<Serving> start_engine(Context& ctx);

/// Submit one request per key, each after the previous one's outcome
/// (the cache warm-up of the hot workloads); one step of `steps` per key.
void warm_cache(Context& ctx, Serving& serving, StepTimer& steps);

struct PacedResult {
  /// Scheduled send → terminal outcome of every ok request, in schedule
  /// order.
  std::vector<double> latency_ms;
  /// Index into serve_keys() of each entry of latency_ms.
  std::vector<std::size_t> key_of;
  std::vector<double> late_ms;     ///< submit start − scheduled send
  std::vector<double> submit_us;   ///< time inside Producer::submit
};

/// Submit `requests` at the workload's fixed rate (open loop) and wait
/// for every outcome.
PacedResult run_paced(Context& ctx, Serving& serving,
                      const std::vector<spmm::serve::Request>& requests);

struct BurstResult {
  std::int64_t start_ns = 0;  ///< first submit
  double seconds = 0.0;  ///< first submit → drain() returned
  double drain_s = 0.0;
  std::vector<double> submit_us;
};

/// Submit `requests` back to back `repeats` times, then drain the engine.
BurstResult run_burst(Context& ctx, Serving& serving,
                      const std::vector<spmm::serve::Request>& requests,
                      std::size_t repeats);

/// Each key's share of a workload's request lists (round_counts,
/// normalised to sum to 1).
std::vector<double> key_shares(const Context& ctx);

/// The `q`-quantile of each key's paced latencies, in serve_keys() order
/// (0 for a key that drew no request).
std::vector<double> key_quantiles(const Context& ctx, const PacedResult& paced,
                                  double q);

/// The geometric mean of per-key figures, weighted by the keys' shares:
/// a typical request's figure, independent of how many requests the seed
/// happened to draw for each key. Keys without a figure (0) are left out
/// and the other shares renormalised.
double weighted_geomean(const std::vector<double>& per_key,
                        const std::vector<double>& shares);

/// Completion rate of the burst's requests (ids from `first_id`) in
/// `windows` consecutive windows of equal request count, ordered by
/// completion time; returns the median window's rate in requests/s.
double burst_window_rps(const Serving& serving, const BurstResult& burst,
                        std::uint64_t first_id, int windows);

/// Record one synthetic span per request outcome of the engine, from the
/// start of its submit() to its terminal outcome, under its request id.
void trace_requests(Context& ctx, const Serving& serving);

/// The request list of a phase: `count` requests (whole rounds of
/// round_counts), each round in an order drawn from the seed.
std::vector<spmm::serve::Request> make_requests(const Context& ctx,
                                                std::size_t count);

/// Check an engine's outcomes and counters against what was submitted
/// to it. Returns the number of outcomes that were not ok.
std::size_t check_engine(Context& ctx, const Serving& serving,
                         const std::string& where);

// --------------------------------------------------------------- campaign

struct CellRecord {
  std::size_t cell = 0;  ///< position in the round: same cell, same index
  spmm::Format format = spmm::Format::kCoo;
  bool omp = false;
  double gflops = 0.0;   ///< 2·nnz·k / median timed iteration
  double timed_s = 0.0;  ///< sum of the timed iterations
  double gflop = 0.0;    ///< work done in the timed iterations
  double model_bytes = 0.0;  ///< computed bytes moved by the timed iterations
};

struct CampaignResult {
  std::vector<double> round_seconds;
  /// Per round: loading, one step per instance (build, convert, its two
  /// cells, release), publishing, and the remainder.
  std::vector<std::vector<double>> round_steps;
  std::vector<double> round_gflops;  ///< geometric mean over the round's cells
  /// Geometric mean over the cells of each cell's median rate across rounds.
  double gflops = 0.0;
  std::vector<CellRecord> cells;     ///< ok cells of every round
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double format_bytes = 0.0;  ///< formatted bytes of one round's instances
};

CampaignResult run_campaign(Context& ctx, int rounds);

}  // namespace perfbench
