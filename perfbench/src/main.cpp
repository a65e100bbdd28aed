// spmm_perfbench: one workload of the suite's end-to-end benchmark.
//
//   spmm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs set-up, a campaign, a paced serving phase and an unpaced burst in
// this process, checks every output against the benchmark's own
// computations, and prints as the last line of stdout one JSON object:
// the end-to-end metrics with --trace 0, the per-layer metrics (from
// in-memory spans) with --trace 1. README.md defines every metric.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "build_info.hpp"
#include "gen/suite.hpp"
#include "host.hpp"
#include "io/matrix_market.hpp"
#include "phases.hpp"
#include "support/stats.hpp"

namespace perfbench {
namespace {

// The burst's rate is the median over this many windows of the phase, so
// one stall moves one window, not the figure.
constexpr int kWindows = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "spmm_perfbench: " << why << "\n"
            << "usage: spmm_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:";
  for (const Workload& w : workloads()) std::cerr << ' ' << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed " + value);
      have[1] = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 600.0) {
        usage("bad --seconds " + value);
      }
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      a.trace = value == "1";
      have[3] = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) {
    usage("--workload, --seed, --seconds and --trace are all required");
  }
  return a;
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

double median(std::vector<double> v) { return spmm::percentile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

std::string lower_format(spmm::Format f) {
  std::string s(spmm::format_name(f));
  std::string out;
  for (const char c : s) {
    if (c != '-') out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Removes the run's directory however the run ends.
struct RunDir {
  std::string path;
  ~RunDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

// One set-up: generate every matrix, write it as Matrix Market, start the
// engine, and (hot workloads) warm its cache. Returns its steps' wall
// times; the round-trip check after it is not included.
std::vector<double> set_up(Context& ctx, std::unique_ptr<Serving>& serving) {
  const Workload& w = ctx.workload;
  std::vector<Matrix> generated;
  StepTimer steps;
  {
    const Scope span(ctx.tracer, "setup");
    for (std::size_t i = 0; i < w.matrices.size(); ++i) {
      const Scope gen(ctx.tracer, "gen.generate", ctx.names[i]);
      generated.push_back(spmm::gen::generate<double, std::int32_t>(
          spmm::gen::suite_spec(w.matrices[i].profile, w.matrices[i].scale,
                                derive_seed(ctx.seed, kMatrices + i))));
      steps.lap();
    }
    for (std::size_t i = 0; i < generated.size(); ++i) {
      const Scope write(ctx.tracer, "io.write", ctx.names[i]);
      spmm::io::write_matrix_market_file(ctx.paths[i], generated[i]);
      steps.lap();
    }
    serving = start_engine(ctx);
    steps.lap();
    if (w.hot) warm_cache(ctx, *serving, steps);
  }
  steps.lap();

  ctx.triplets.clear();
  for (std::size_t i = 0; i < generated.size(); ++i) {
    ctx.triplets.push_back(parse_mtx(ctx.paths[i]));
    ctx.problems.add(".mtx round trip " + ctx.names[i],
                     compare_entries(triplets_of(generated[i]), ctx.triplets[i]));
  }
  ctx.generated = std::move(generated);
  return steps.steps();
}

void print_json(const std::vector<Metric>& metrics, bool correct,
                std::size_t attempted, std::size_t failed) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& args) {
  const std::int64_t process_t0 = now_ns();
  const Workload* found = find_workload(args.workload);
  if (found == nullptr) usage("unknown workload " + args.workload);
  const Workload& w = *found;

  const int cpus = usable_cpus();
  if (kBusyThreads > cpus) {
    std::cerr << "spmm_perfbench: a run keeps " << kBusyThreads
              << " threads busy (submitter + dispatcher + " << kWorkers
              << " workers x " << kKernelThreads
              << " kernel threads) but this process may use only " << cpus
              << " CPUs; refusing to run\n";
    return 2;
  }

  const std::int64_t steal0 = steal_ticks();
  std::cout << "perfbench: workload=" << w.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << "\n";
  std::cout << "host: cpu=\"" << cpu_model() << "\" nproc=" << cpus
            << " compiler=\"" << build_info::kCompiler << "\" build="
            << build_info::kBuildType << " flags=\"" << build_info::kFlags
            << "\" commit=" << build_info::kCommit
            << " src_digest=" << build_info::kSrcDigest << "\n";
  std::cout << "threads: " << kBusyThreads << " busy at most (1 submitter, 1 dispatcher, "
            << kWorkers << " worker(s) x " << kKernelThreads
            << " kernel thread(s)) of " << cpus << " CPUs\n";

  RunDir run_dir{".bench_build/runs/" + w.name + "-" + std::to_string(args.seed) +
                 "-" + std::to_string(::getpid())};
  std::filesystem::remove_all(run_dir.path);
  std::filesystem::create_directories(run_dir.path);

  Tracer tracer(args.trace);
  Problems problems;
  Context ctx{w, args.seed, run_dir.path, tracer, problems, {}, {}, {}, {}};
  for (const MatrixUse& m : w.matrices) {
    ctx.names.push_back(m.profile);
    ctx.paths.push_back(run_dir.path + "/" + m.profile + ".mtx");
  }
  const RunPlan plan = plan_for(w, args.seconds);

  std::size_t attempted = 0;
  std::size_t failed = 0;

  // Set-up, several times; the last one's engine serves the phases.
  std::vector<std::vector<double>> setup_steps;
  std::vector<double> setup_seconds;
  std::unique_ptr<Serving> serving;
  std::int64_t final_engine_ns = 0;
  for (int s = 0; s < plan.setups; ++s) {
    if (serving) {
      serving->engine->drain();
      failed += check_engine(ctx, *serving, "set-up engine");
      attempted += serving->submitted.size();
      serving.reset();
    }
    final_engine_ns = now_ns();
    setup_steps.push_back(set_up(ctx, serving));
    double total = 0.0;
    for (const double step : setup_steps.back()) total += step;
    setup_seconds.push_back(total);
  }
  const double first_call_s = seconds_since(process_t0);
  std::cout << "matrices:";
  for (std::size_t i = 0; i < ctx.names.size(); ++i) {
    std::cout << ' ' << ctx.names[i] << '=' << ctx.generated[i].rows() << 'x'
              << ctx.generated[i].cols() << '/' << ctx.generated[i].nnz();
  }
  std::cout << " (rows x cols / nnz)\n";
  const double rss_after_setup = peak_rss_mib();

  // Campaign.
  const CampaignResult campaign = run_campaign(ctx, plan.campaign_rounds);
  attempted += campaign.attempted;
  failed += campaign.failed;
  const double rss_after_campaign = peak_rss_mib();

  // Paced serving, then the same requests unpaced.
  const std::vector<spmm::serve::Request> requests =
      make_requests(ctx, plan.paced_requests);
  const PacedResult paced = run_paced(ctx, *serving, requests);
  const std::uint64_t burst_first_id = serving->next_id;
  const BurstResult burst = run_burst(ctx, *serving, requests, plan.burst_repeats);
  const std::size_t serve_not_ok = check_engine(ctx, *serving, "serving engine");
  failed += serve_not_ok;
  attempted += serving->submitted.size();
  const spmm::serve::EngineStats stats = serving->engine->stats();
  const std::vector<spmm::serve::RequestOutcome> outcomes =
      serving->engine->outcomes();

  const std::size_t burst_requests = requests.size() * plan.burst_repeats;
  const double serve_rps =
      burst_window_rps(*serving, burst, burst_first_id, kWindows);
  const std::vector<Key> keys = serve_keys(ctx);
  const std::vector<double> shares = key_shares(ctx);
  const std::vector<double> key_p25 = key_quantiles(ctx, paced, 0.25);
  const std::vector<double> key_p50 = key_quantiles(ctx, paced, 0.50);
  std::vector<std::size_t> key_counts(keys.size(), 0);
  for (const std::size_t k : paced.key_of) ++key_counts[k];
  std::vector<Metric> e2e = {
      {"setup_s", sum_of_step_medians(setup_steps), "s"},
      {"campaign_s", sum_of_step_medians(campaign.round_steps), "s"},
      {"campaign_gflops", campaign.gflops, "GFLOP/s"},
      {"serve_p25_ms", weighted_geomean(key_p25, shares), "ms"},
      {"serve_rps", serve_rps, "req/s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };

  // Human-readable record of the run.
  std::cout << "setup: " << plan.setups << " set-ups, seconds:";
  for (const double s : setup_seconds) std::cout << ' ' << s;
  std::cout << " (process start to first measured call " << first_call_s << " s)\n";
  std::cout << "campaign: " << plan.campaign_rounds << " rounds of "
            << campaign.attempted / static_cast<std::size_t>(plan.campaign_rounds)
            << " cells, seconds:";
  for (const double s : campaign.round_seconds) std::cout << ' ' << s;
  std::cout << "; GFLOP/s:";
  for (const double g : campaign.round_gflops) std::cout << ' ' << g;
  std::cout << "\n";
  std::cout << "paced: " << requests.size() << " requests at " << w.rate_rps
            << " req/s, " << paced.latency_ms.size()
            << " ok latencies; not metrics, too unsteady on a shared host: "
               "per-key p50 weighted "
            << weighted_geomean(key_p50, shares) << " ms, p50 over all "
            << spmm::percentile(paced.latency_ms, 0.50) << " ms, p90 over all "
            << spmm::percentile(paced.latency_ms, 0.90)
            << " ms; generator late p50 " << spmm::percentile(paced.late_ms, 0.5)
            << " ms p90 " << spmm::percentile(paced.late_ms, 0.9) << " ms\n";
  std::cout << "paced per key (requests, p25 ms, p50 ms):";
  for (std::size_t k = 0; k < keys.size(); ++k) {
    std::cout << ' ' << keys[k].matrix << '/' << spmm::format_name(keys[k].format)
              << '=' << key_counts[k] << ',' << key_p25[k] << ',' << key_p50[k];
  }
  std::cout << "\n";
  std::cout << "burst: " << burst_requests << " requests (" << plan.burst_repeats
            << " x the paced list) in " << burst.seconds << " s, "
            << static_cast<double>(burst_requests) / burst.seconds
            << " req/s over the whole burst (drain " << burst.drain_s << " s)\n";
  std::cout << "engine: " << serving->submitted.size() << " requests, "
            << stats.batches << " batches (mean size " << stats.avg_batch()
            << "), cache hit ratio " << stats.cache.hit_rate() << " of "
            << stats.cache.hits + stats.cache.misses << " lookups ("
            << stats.cache.hits << " hits, " << stats.cache.misses
            << " misses, " << stats.cache.singleflight_waits
            << " singleflight waits), " << stats.cache.formats
            << " conversions, " << stats.cache.evictions << " evictions\n";
  std::cout << "operations: " << attempted << " attempted ("
            << campaign.attempted << " campaign cells, "
            << attempted - campaign.attempted << " requests), " << failed
            << " failed\n";
  for (const std::string& p : problems.list) std::cout << "CHECK FAILED: " << p << "\n";
  std::cout << "peak rss: " << rss_after_setup << " MiB after set-up, "
            << rss_after_campaign << " MiB after the campaign, "
            << peak_rss_mib() << " MiB at the end\n";
  const std::int64_t steal1 = steal_ticks();
  std::cout << "steal_ticks: " << (steal0 >= 0 && steal1 >= 0 ? steal1 - steal0 : -1)
            << " during the run\n";

  if (!args.trace) {
    print_json(e2e, problems.list.empty(), attempted, failed);
    return 0;
  }

  for (const Metric& m : e2e) {
    std::cout << "traced end-to-end: " << m.name << " = " << m.value << " " << m.unit
              << "\n";
  }

  // Per-layer metrics from the spans.
  trace_requests(ctx, *serving);
  const std::vector<Span> spans = tracer.spans();
  const std::map<std::string, SpanTotals> totals = totals_by_name(spans);
  const auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.seconds;
  };
  std::map<std::string, std::uintmax_t> file_bytes;
  for (std::size_t i = 0; i < ctx.names.size(); ++i) {
    file_bytes[ctx.names[i]] = std::filesystem::file_size(ctx.paths[i]);
  }
  double read_bytes = 0.0;
  double provider_s = 0.0;
  std::map<std::string, double> convert_s;
  for (const Span& s : spans) {
    if (s.name == "io.read") read_bytes += static_cast<double>(file_bytes[s.detail]);
    if (s.name == "formats.convert") convert_s[s.detail] += s.seconds();
    if (s.name == "serve.provider" && s.start_ns >= final_engine_ns) {
      provider_s += s.seconds();
    }
  }
  const double read_s = total("io.read");

  std::vector<Metric> layer;
  layer.push_back({"gen.generate_s", total("gen.generate"), "s"});
  layer.push_back({"io.write_s", total("io.write"), "s"});
  layer.push_back({"io.read_s", read_s, "s"});
  layer.push_back({"io.read_mb_per_s", read_s > 0.0 ? read_bytes / read_s / 1e6 : 0.0,
                   "MB/s"});
  layer.push_back({"formats.convert_s", total("formats.convert"), "s"});
  for (const spmm::Format f : spmm::kAllFormats) {
    layer.push_back({"formats." + lower_format(f) + ".convert_s",
                     convert_s[std::string(spmm::format_name(f))], "s"});
  }
  layer.push_back({"formats.bytes_mb", campaign.format_bytes / (1024.0 * 1024.0), "MiB"});

  double timed_s = 0.0;
  double gflop = 0.0;
  double model_bytes = 0.0;
  std::map<std::pair<spmm::Format, bool>, std::vector<double>> rates;
  for (const CellRecord& c : campaign.cells) {
    timed_s += c.timed_s;
    gflop += c.gflop;
    model_bytes += c.model_bytes;
    rates[{c.format, c.omp}].push_back(c.gflops);
  }
  layer.push_back({"kernels.timed_s", total("kernels.timed"), "s"});
  for (const spmm::Format f : spmm::kAllFormats) {
    layer.push_back({"kernels." + lower_format(f) + ".serial_gflops",
                     geomean(rates[{f, false}]), "GFLOP/s"});
    layer.push_back({"kernels." + lower_format(f) + ".omp2_gflops",
                     geomean(rates[{f, true}]), "GFLOP/s"});
  }
  layer.push_back({"kernels.gflop", gflop, "GFLOP"});
  layer.push_back({"kernels.model_gb_per_s",
                   timed_s > 0.0 ? model_bytes / timed_s / 1e9 : 0.0, "GB/s"});

  layer.push_back({"core.setup_s", total("core.setup"), "s"});
  const auto cell = totals.find("core.cell");
  layer.push_back({"core.harness_s",
                   cell == totals.end() ? 0.0 : cell->second.self_seconds, "s"});
  layer.push_back({"core.publish_s", total("core.publish"), "s"});

  std::vector<double> submit_us = paced.submit_us;
  submit_us.insert(submit_us.end(), burst.submit_us.begin(), burst.submit_us.end());
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  for (const auto& o : outcomes) {
    // The burst's latencies measure its own backlog; the split covers the
    // warm-up and the paced phase.
    if (o.status != spmm::serve::RequestStatus::kOk || o.id >= burst_first_id) continue;
    (o.cache_hit ? hit_ms : miss_ms).push_back(o.latency_ms);
  }
  layer.push_back({"serve.submit_us", median(submit_us), "us"});
  layer.push_back({"serve.batches", static_cast<double>(stats.batches), "count"});
  layer.push_back({"serve.batch_size", stats.avg_batch(), "req/batch"});
  layer.push_back({"serve.cache_hits", static_cast<double>(stats.cache.hits), "count"});
  layer.push_back({"serve.cache_misses", static_cast<double>(stats.cache.misses), "count"});
  layer.push_back({"serve.cache_hit_ratio", stats.cache.hit_rate(), "ratio"});
  layer.push_back({"serve.cache_formats", static_cast<double>(stats.cache.formats), "count"});
  layer.push_back({"serve.cache_evictions", static_cast<double>(stats.cache.evictions),
                   "count"});
  layer.push_back({"serve.cache_mb",
                   static_cast<double>(stats.cache.bytes_in_use) / (1024.0 * 1024.0),
                   "MiB"});
  layer.push_back({"serve.provider_s", provider_s, "s"});
  layer.push_back({"serve.hit_p50_ms", median(hit_ms), "ms"});
  layer.push_back({"serve.miss_p50_ms", median(miss_ms), "ms"});
  layer.push_back({"serve.drain_s", burst.drain_s, "s"});
  layer.push_back({"serve.generator_late_ms", spmm::percentile(paced.late_ms, 0.9), "ms"});

  std::filesystem::create_directories(".bench_build/traces");
  const std::string trace_path = ".bench_build/traces/" + w.name + "-seed" +
                                 std::to_string(args.seed) + ".jsonl";
  {
    std::ofstream out(trace_path);
    write_jsonl(out, spans);
  }
  std::cout << "trace: " << spans.size() << " spans written to " << trace_path << "\n";
  for (const Metric& m : layer) {
    std::cout << "layer: " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  print_json(layer, problems.list.empty(), attempted, failed);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cout.flush();
    std::cerr << "spmm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
