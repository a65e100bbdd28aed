#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/report.hpp"
#include "core/runner.hpp"
#include "hwprof/roofline.hpp"
#include "io/matrix_market.hpp"
#include "phases.hpp"
#include "resilience/campaign_journal.hpp"
#include "support/atomic_file.hpp"
#include "support/stats.hpp"

namespace perfbench {
namespace {

using spmm::Format;
using spmm::Variant;

// Adds the time of a check to `excluded` when it goes out of scope.
class CheckTime {
 public:
  explicit CheckTime(double& excluded) : excluded_(excluded), start_(now_ns()) {}
  ~CheckTime() { excluded_ += static_cast<double>(now_ns() - start_) * 1e-9; }
  CheckTime(const CheckTime&) = delete;
  CheckTime& operator=(const CheckTime&) = delete;

 private:
  double& excluded_;
  std::int64_t start_;
};

// The benchmark's reference product of one matrix, and the B it was
// computed with (recomputed if a later instance's B differs).
struct CachedReference {
  std::vector<double> b;
  Reference ref;
};

const Reference& reference_for(CachedReference& cache, const Triplets& a,
                               const spmm::Dense<double>& b) {
  const std::size_t n = b.size();
  if (cache.b.size() != n || !std::equal(cache.b.begin(), cache.b.end(), b.data())) {
    cache.b.assign(b.data(), b.data() + n);
    cache.ref = reference_multiply(a, cache.b.data(),
                                   static_cast<std::int64_t>(b.cols()));
  }
  return cache.ref;
}

}  // namespace

double sum_of_step_medians(const std::vector<std::vector<double>>& repetitions) {
  if (repetitions.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < repetitions.front().size(); ++j) {
    std::vector<double> step;
    for (const auto& rep : repetitions) step.push_back(rep.at(j));
    total += spmm::percentile(step, 0.5);
  }
  return total;
}

namespace {

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<std::size_t>(
      std::count(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>(), '\n'));
}

}  // namespace

CampaignResult run_campaign(Context& ctx, int rounds) {
  const Workload& w = ctx.workload;
  spmm::BenchParams params;
  params.iterations = w.iterations;
  params.warmup = w.warmup;
  params.k = w.campaign_k;
  params.threads = 1;
  params.seed = derive_seed(ctx.seed, kCampaignOperands);
  params.on_error = spmm::OnError::kContinue;

  std::vector<spmm::bench::PlanCell> cells(2);
  cells[0].variant = Variant::kSerial;
  cells[0].threads = 1;
  cells[1].variant = Variant::kParallel;
  cells[1].threads = 2;

  const std::string journal_path = ctx.dir + "/campaign.journal";
  const std::string csv_path = ctx.dir + "/campaign.csv";
  std::vector<CachedReference> references(ctx.names.size());

  CampaignResult out;
  for (int round = 0; round < rounds; ++round) {
    std::filesystem::remove(journal_path);
    std::vector<double> rates;
    StepTimer steps;
    {
      const Scope round_span(ctx.tracer, "campaign.round");
      auto journal = spmm::resilience::CampaignJournal::open(journal_path, false);

      std::vector<Matrix> loaded;
      for (std::size_t i = 0; i < ctx.paths.size(); ++i) {
        const Scope span(ctx.tracer, "io.read", ctx.names[i]);
        loaded.push_back(
            spmm::io::read_matrix_market_file<double, std::int32_t>(ctx.paths[i]));
      }
      {
        const CheckTime ct(steps.excluded());
        for (std::size_t i = 0; i < loaded.size(); ++i) {
          ctx.problems.add("campaign load " + ctx.names[i],
                           compare_entries(triplets_of(ctx.generated[i]),
                                           triplets_of(loaded[i])));
        }
      }
      steps.lap();

      std::vector<std::vector<std::string>> rows;
      std::size_t cell_index = 0;
      for (std::size_t i = 0; i < loaded.size(); ++i) {
        const Matrix& m = loaded[i];
        for (const Format f : spmm::kAllFormats) {
          const std::string fname(spmm::format_name(f));
          auto bench = spmm::bench::make_benchmark<double, std::int32_t>(f);
          {
            const Scope span(ctx.tracer, "core.setup", fname);
            bench->setup(m, params, ctx.names[i]);
          }
          {
            const Scope span(ctx.tracer, "formats.convert", fname);
            bench->ensure_formatted();
          }
          if (round == 0) out.format_bytes += static_cast<double>(bench->format_bytes());

          spmm::bench::CampaignOptions opts;
          opts.journal = &journal;
          opts.key_prefix = ctx.names[i] + "|" + fname;
          opts.encode = [](const spmm::bench::BenchResult& r) {
            return spmm::bench::csv_cells(r);
          };
          for (const spmm::bench::PlanCell& cell : cells) {
            const std::size_t this_cell = cell_index++;
            const bool omp = cell.variant == Variant::kParallel;
            const std::uint64_t span_id =
                ctx.tracer.begin("core.cell", fname + (omp ? "/omp2" : "/serial"));
            spmm::bench::PlanRun run =
                spmm::bench::run_plan_campaign(*bench, {cell}, opts);
            const std::int64_t call_end = now_ns();
            ctx.tracer.end(span_id);

            ++out.attempted;
            const spmm::bench::BenchResult& r = run.results.front();
            rows.push_back(std::move(run.rows.front()));
            if (r.status != spmm::bench::RunStatus::kOk || !r.verified) {
              ++out.failed;
              continue;
            }
            double timed = 0.0;
            for (const double s : r.iteration_seconds) timed += s;
            const auto timed_ns = static_cast<std::int64_t>(timed * 1e9);
            // The timed loop's length, as the call's per-iteration samples
            // report it, placed at the end of the call.
            ctx.tracer.add("kernels.timed", fname, span_id, 0,
                           call_end - timed_ns, call_end, true);
            {
              const CheckTime ct(steps.excluded());
              const Reference& ref =
                  reference_for(references[i], ctx.triplets[i], bench->b());
              ctx.problems.add(
                  "campaign " + ctx.names[i] + " " + fname + (omp ? " omp2" : " serial"),
                  compare_product(ref, bench->c().data(),
                                  static_cast<std::int64_t>(bench->c().rows()),
                                  static_cast<std::int64_t>(bench->c().cols())));
            }
            CellRecord rec;
            rec.cell = this_cell;
            rec.format = f;
            rec.omp = omp;
            const double median = spmm::percentile(r.iteration_seconds, 0.5);
            rec.gflops = median > 0.0 ? r.flops / median * 1e-9 : 0.0;
            rec.timed_s = timed;
            rec.gflop = r.flops * static_cast<double>(r.iterations) * 1e-9;
            rec.model_bytes =
                spmm::hwprof::model_bytes(r.format_bytes, m.rows(), m.cols(),
                                          r.k, sizeof(double)) *
                static_cast<double>(r.iterations);
            rates.push_back(rec.gflops);
            out.cells.push_back(rec);
          }
          bench.reset();
          steps.lap();
        }
      }

      {
        const Scope span(ctx.tracer, "core.publish");
        std::ostringstream csv;
        spmm::bench::write_csv_rows(csv, rows);
        spmm::support::write_file_atomic(csv_path, csv.str());
      }
      {
        const CheckTime ct(steps.excluded());
        const std::size_t lines = count_lines(csv_path);
        if (lines != rows.size() + 1) {
          ctx.problems.add("campaign publish",
                           "CSV has " + std::to_string(lines) + " lines for " +
                               std::to_string(rows.size()) + " cells");
        }
      }
      steps.lap();
    }
    steps.lap();
    double round_s = 0.0;
    for (const double step : steps.steps()) round_s += step;
    out.round_seconds.push_back(round_s);
    out.round_steps.push_back(steps.steps());
    double log_sum = 0.0;
    for (const double g : rates) log_sum += std::log(g);
    out.round_gflops.push_back(
        rates.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(rates.size())));
  }
  std::map<std::size_t, std::vector<double>> by_cell;
  for (const CellRecord& c : out.cells) by_cell[c.cell].push_back(c.gflops);
  double log_sum = 0.0;
  for (const auto& [cell, rates] : by_cell) {
    log_sum += std::log(spmm::percentile(rates, 0.5));
  }
  out.gflops = by_cell.empty()
                   ? 0.0
                   : std::exp(log_sum / static_cast<double>(by_cell.size()));
  return out;
}

}  // namespace perfbench
