#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "io/matrix_market.hpp"
#include "phases.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace perfbench {
namespace {

using spmm::serve::Request;
using spmm::serve::RequestOutcome;
using spmm::serve::RequestStatus;

// Longest wait for a phase's outcomes before the run gives up.
constexpr double kOutcomeWaitLimitS = 120.0;
constexpr auto kPollInterval = std::chrono::milliseconds(2);
constexpr auto kSpinBeforeSend = std::chrono::microseconds(100);

double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Submit one request under a fresh id; returns the nanoseconds spent in
// Producer::submit.
std::int64_t submit(Context& ctx, Serving& s, Request req,
                    std::int64_t& begin_ns) {
  req.id = s.next_id++;
  s.submitted.push_back(req.id);
  const Scope span(ctx.tracer, "serve.submit", req.matrix, req.id);
  begin_ns = now_ns();
  s.submit_ns.push_back(begin_ns);
  s.producer->submit(std::move(req));
  return now_ns() - begin_ns;
}

// Block until every request submitted to the engine has an outcome.
void wait_for_outcomes(const Serving& s) {
  const std::int64_t give_up =
      now_ns() + static_cast<std::int64_t>(kOutcomeWaitLimitS * 1e9);
  for (;;) {
    const spmm::serve::EngineStats st = s.engine->stats();
    if (st.completed + st.rejected + st.expired + st.failed >=
        s.submitted.size()) {
      return;
    }
    if (now_ns() > give_up) {
      throw std::runtime_error("perfbench: serving outcomes still missing after " +
                               std::to_string(kOutcomeWaitLimitS) + " s");
    }
    std::this_thread::sleep_for(kPollInterval);
  }
}

}  // namespace

std::vector<Key> serve_keys(const Context& ctx) {
  std::vector<Key> keys;
  for (const std::string& name : ctx.names) {
    for (const spmm::Format f : ctx.workload.serve_formats) {
      keys.push_back({name, f});
    }
  }
  return keys;
}

std::unique_ptr<Serving> start_engine(Context& ctx) {
  const Workload& w = ctx.workload;
  spmm::serve::EngineConfig cfg;
  cfg.workers = kWorkers;
  cfg.queue_capacity = 4096;
  cfg.cache_budget_bytes = w.cache_budget_mb << 20;
  cfg.params.threads = kKernelThreads;
  cfg.params.k = w.serve_k;
  cfg.params.seed = derive_seed(ctx.seed, kServeOperands);
  // Serving runs one unverified kernel invocation per batch, as the
  // program's spmm_serve tool configures it.
  cfg.params.iterations = 1;
  cfg.params.warmup = 0;
  cfg.params.verify = false;

  std::map<std::string, std::string> files;
  for (std::size_t i = 0; i < ctx.names.size(); ++i) {
    files.emplace(ctx.names[i], ctx.paths[i]);
  }
  Tracer* tracer = &ctx.tracer;
  cfg.provider = [files = std::move(files), tracer](const std::string& name) {
    const Scope span(*tracer, "serve.provider", name);
    const auto it = files.find(name);
    if (it == files.end()) {
      throw std::runtime_error("perfbench: no matrix named " + name);
    }
    const Scope read(*tracer, "io.read", name);
    return spmm::io::read_matrix_market_file<double, std::int32_t>(it->second);
  };

  auto s = std::make_unique<Serving>();
  const Scope span(ctx.tracer, "serve.start");
  s->engine = std::make_unique<spmm::serve::ServeEngine>(std::move(cfg));
  s->producer = &s->engine->add_producer();
  s->engine->start();
  return s;
}

void warm_cache(Context& ctx, Serving& serving, StepTimer& steps) {
  const Scope span(ctx.tracer, "serve.warm");
  for (const Key& key : serve_keys(ctx)) {
    Request req;
    req.tenant = "warm";
    req.matrix = key.matrix;
    req.format = key.format;
    req.k = ctx.workload.serve_k;
    std::int64_t begin_ns = 0;
    submit(ctx, serving, std::move(req), begin_ns);
    wait_for_outcomes(serving);
    steps.lap();
  }
}

std::vector<Request> make_requests(const Context& ctx, std::size_t count) {
  const Workload& w = ctx.workload;
  const std::vector<Key> keys = serve_keys(ctx);
  std::vector<std::size_t> round;
  const std::vector<std::size_t> counts = round_counts(w);
  for (std::size_t i = 0; i < counts.size(); ++i) round.insert(round.end(), counts[i], i);
  spmm::Rng rng(derive_seed(ctx.seed, kRequests));
  std::vector<Request> out;
  out.reserve(count);
  while (out.size() < count) {
    // Fisher-Yates: the seed orders the round; the counts stay fixed.
    for (std::size_t i = round.size() - 1; i > 0; --i) {
      std::swap(round[i], round[static_cast<std::size_t>(rng() % (i + 1))]);
    }
    for (std::size_t r = 0; r < round.size() && out.size() < count; ++r) {
      const Key& key = keys[round[r]];
      Request req;
      req.tenant = "bench";
      req.matrix = key.matrix;
      req.format = key.format;
      req.k = w.serve_k;
      req.arrival_ms = static_cast<double>(out.size()) * 1e3 / w.rate_rps;
      out.push_back(std::move(req));
    }
  }
  return out;
}

PacedResult run_paced(Context& ctx, Serving& serving,
                      const std::vector<Request>& requests) {
  // A sleeping thread normally wakes up to 50 µs late (timer slack); ask
  // for 1 µs. The setting applies to this thread only.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
  PacedResult r;
  r.late_ms.reserve(requests.size());
  r.submit_us.reserve(requests.size());
  const std::size_t first = serving.submitted.size();
  {
    const Scope span(ctx.tracer, "serve.paced");
    const auto start = std::chrono::steady_clock::now();
    const std::int64_t start_ns = now_ns();
    for (const Request& req : requests) {
      const auto offset = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double, std::milli>(req.arrival_ms));
      // Sleep to just before the send time, then wait on the clock: the
      // wake-up from a sleep can be late, and lateness counts in every
      // latency measured from the schedule.
      const auto due = start + offset;
      std::this_thread::sleep_until(due - kSpinBeforeSend);
      while (std::chrono::steady_clock::now() < due) {
      }
      std::int64_t begin_ns = 0;
      const std::int64_t in_submit = submit(ctx, serving, req, begin_ns);
      r.late_ms.push_back(ns_to_ms(begin_ns - (start_ns + offset.count())));
      r.submit_us.push_back(static_cast<double>(in_submit) * 1e-3);
    }
    wait_for_outcomes(serving);
  }

  // An outcome's latency runs from the engine's enqueue stamp, taken at
  // the start of submit(); adding how late the submit started gives the
  // latency from the scheduled send time.
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    index.emplace(serving.submitted[first + i], i);
  }
  std::vector<double> by_schedule(requests.size(), -1.0);
  for (const RequestOutcome& o : serving.engine->outcomes()) {
    const auto it = index.find(o.id);
    if (it == index.end() || o.status != RequestStatus::kOk) continue;
    by_schedule[it->second] = r.late_ms[it->second] + o.latency_ms;
  }
  const std::vector<Key> keys = serve_keys(ctx);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (by_schedule[i] < 0.0) continue;
    r.latency_ms.push_back(by_schedule[i]);
    const auto key = std::find_if(keys.begin(), keys.end(), [&](const Key& k) {
      return k.matrix == requests[i].matrix && k.format == requests[i].format;
    });
    r.key_of.push_back(static_cast<std::size_t>(key - keys.begin()));
  }
  return r;
}

BurstResult run_burst(Context& ctx, Serving& serving,
                      const std::vector<Request>& requests,
                      std::size_t repeats) {
  BurstResult r;
  r.submit_us.reserve(requests.size() * repeats);
  const Scope span(ctx.tracer, "serve.burst");
  const std::int64_t t0 = now_ns();
  r.start_ns = t0;
  for (std::size_t round = 0; round < repeats; ++round) {
    for (const Request& req : requests) {
      std::int64_t begin_ns = 0;
      r.submit_us.push_back(
          static_cast<double>(submit(ctx, serving, req, begin_ns)) * 1e-3);
    }
  }
  const std::int64_t d0 = now_ns();
  {
    const Scope drain(ctx.tracer, "serve.drain");
    serving.engine->drain();
  }
  const std::int64_t t1 = now_ns();
  r.drain_s = static_cast<double>(t1 - d0) * 1e-9;
  r.seconds = static_cast<double>(t1 - t0) * 1e-9;
  return r;
}

std::vector<double> key_shares(const Context& ctx) {
  const std::vector<std::size_t> counts = round_counts(ctx.workload);
  double total = 0.0;
  for (const std::size_t c : counts) total += static_cast<double>(c);
  std::vector<double> shares;
  for (const std::size_t c : counts) shares.push_back(static_cast<double>(c) / total);
  return shares;
}

std::vector<double> key_quantiles(const Context& ctx, const PacedResult& paced,
                                  double q) {
  std::vector<std::vector<double>> per_key(serve_keys(ctx).size());
  for (std::size_t i = 0; i < paced.latency_ms.size(); ++i) {
    per_key[paced.key_of[i]].push_back(paced.latency_ms[i]);
  }
  std::vector<double> out;
  for (std::vector<double>& v : per_key) {
    out.push_back(v.empty() ? 0.0 : spmm::percentile(v, q));
  }
  return out;
}

double weighted_geomean(const std::vector<double>& per_key,
                        const std::vector<double>& shares) {
  double log_sum = 0.0;
  double weight = 0.0;
  for (std::size_t i = 0; i < per_key.size() && i < shares.size(); ++i) {
    if (!(per_key[i] > 0.0)) continue;
    log_sum += shares[i] * std::log(per_key[i]);
    weight += shares[i];
  }
  return weight > 0.0 ? std::exp(log_sum / weight) : 0.0;
}

double burst_window_rps(const Serving& serving, const BurstResult& burst,
                        std::uint64_t first_id, int windows) {
  std::vector<std::int64_t> done;
  for (const RequestOutcome& o : serving.engine->outcomes()) {
    if (o.id < first_id || o.id > serving.submit_ns.size()) continue;
    done.push_back(serving.submit_ns[o.id - 1] +
                   static_cast<std::int64_t>(o.latency_ms * 1e6));
  }
  std::sort(done.begin(), done.end());
  if (done.empty() || windows < 1) return 0.0;
  std::vector<double> rates;
  std::int64_t prev = burst.start_ns;
  for (int w = 0; w < windows; ++w) {
    const std::size_t lo = done.size() * static_cast<std::size_t>(w) /
                           static_cast<std::size_t>(windows);
    const std::size_t hi = done.size() * static_cast<std::size_t>(w + 1) /
                           static_cast<std::size_t>(windows);
    if (hi <= lo) continue;
    const std::int64_t end = done[hi - 1];
    if (end > prev) {
      rates.push_back(static_cast<double>(hi - lo) /
                      (static_cast<double>(end - prev) * 1e-9));
    }
    prev = end;
  }
  return spmm::percentile(rates, 0.5);
}

void trace_requests(Context& ctx, const Serving& serving) {
  if (!ctx.tracer.enabled()) return;
  for (const RequestOutcome& o : serving.engine->outcomes()) {
    if (o.id == 0 || o.id > serving.submit_ns.size()) continue;
    const std::int64_t begin = serving.submit_ns[o.id - 1];
    ctx.tracer.add("serve.request", o.matrix, 0, o.id, begin,
                   begin + static_cast<std::int64_t>(o.latency_ms * 1e6), true);
  }
}

std::size_t check_engine(Context& ctx, const Serving& serving,
                         const std::string& where) {
  std::size_t not_ok = 0;
  ctx.problems.add(where, check_outcomes(serving.submitted,
                                         serving.engine->outcomes(), not_ok));
  ctx.problems.add(where, check_engine_counters(serving.engine->stats(),
                                                serving.submitted.size(),
                                                ctx.workload.hot));
  return not_ok;
}

}  // namespace perfbench
