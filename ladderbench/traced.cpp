// Traced run: the layer ladder and the tracing overhead.
//
// For each workload it replays the same seeded requests through every
// rung - serial gemm, plan create/execute, plan cache (shalom::gemm),
// fork-join parallel, C API, batch, engine - one request at a time with
// the rungs interleaved in a seeded order, so host drift and neighbour
// effects hit every layer alike. Each call
// leaves a span in an in-memory ring; the spans are written out when the
// run ends. A layer's self time is its median minus the median of the
// rung below on the same shape.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "bench_util/peak.h"
#include "common/rng.h"
#include "core/batch.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "ladder.h"

namespace ladder {

namespace {

// Sample columns: one per span layer, plus the engine's submit + wait.
constexpr int kEngineTotal = static_cast<int>(Layer::kCount);
constexpr int kColumns = kEngineTotal + 1;
constexpr int kParallelThreads = 2;

/// Per-shape duration samples (µs) of every rung.
struct LadderSamples {
  explicit LadderSamples(std::size_t shapes) : cols(shapes) {}
  std::vector<std::array<std::vector<double>, kColumns>> cols;
};

struct ReplayTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Runs one request through every rung, recording a span and a sample
/// per rung and checking every rung's output (C is NaN-filled before
/// each rung, so a rung that writes nothing is caught).
template <typename T>
void replay(Slot<T>& s, int threads, shalom::engine::GemmStream& stream,
            SpanLog& log, std::uint64_t request, LadderSamples& samples,
            ReplayTally& tally) {
  T* c = s.c[0].data();
  auto& col = samples.cols[static_cast<std::size_t>(s.shape)];
  auto rung = [&](Layer layer, auto&& call) {
    std::fill(s.c[0].begin(), s.c[0].end(),
              std::numeric_limits<T>::quiet_NaN());
    ++tally.attempted;
    int status = SHALOM_OK;
    const std::int64_t t0 = now_ns();
    try {
      status = call();
    } catch (...) {
      status = SHALOM_ERR_INTERNAL;
    }
    const std::int64_t t1 = now_ns();
    log.record(request, layer, Layer::kRequest, t0, t1);
    col[static_cast<int>(layer)].push_back(static_cast<double>(t1 - t0) *
                                           1e-3);
    if (status != SHALOM_OK ||
        count_misses(s.ref, s.m, s.n, c, s.ldc) != 0)
      ++tally.failed;
  };
  shalom::Config uncached;
  uncached.use_plan_cache = false;
  shalom::Config cfg;
  cfg.threads = threads;
  shalom::Config par = uncached;
  par.threads = kParallelThreads;
  std::vector<shalom::BatchEntry<T>> batch(1);
  batch[0] = {s.m, s.n, s.k, s.alpha, s.a, s.lda, s.b, s.ldb, T{0}, c, s.ldc};
  const shalom::Config serial_batch;

  auto serial = [&] {
    rung(Layer::kSerial, [&] {
      shalom::gemm_serial<T>(s.mode, s.m, s.n, s.k, s.alpha, s.a, s.lda, s.b,
                             s.ldb, T{0}, c, s.ldc, uncached);
      return SHALOM_OK;
    });
  };
  auto plan = [&] {
    // plan.create writes no output; it is timed without a check.
    const std::int64_t t0 = now_ns();
    const shalom::GemmPlan<T> p =
        shalom::plan_create<T>(s.mode, s.m, s.n, s.k, cfg);
    const std::int64_t t1 = now_ns();
    log.record(request, Layer::kPlanCreate, Layer::kRequest, t0, t1);
    col[static_cast<int>(Layer::kPlanCreate)].push_back(
        static_cast<double>(t1 - t0) * 1e-3);
    rung(Layer::kPlanExecute, [&] {
      shalom::plan_execute<T>(p, s.alpha, s.a, s.lda, s.b, s.ldb, T{0}, c,
                              s.ldc);
      return SHALOM_OK;
    });
  };
  auto plan_cache = [&] {
    rung(Layer::kPlanCache, [&] {
      shalom::gemm<T>(s.mode.a, s.mode.b, s.m, s.n, s.k, s.alpha, s.a, s.lda,
                      s.b, s.ldb, T{0}, c, s.ldc, cfg);
      return SHALOM_OK;
    });
  };
  auto parallel = [&] {
    rung(Layer::kParallel, [&] {
      shalom::gemm_parallel<T>(s.mode, s.m, s.n, s.k, s.alpha, s.a, s.lda,
                               s.b, s.ldb, T{0}, c, s.ldc, par);
      return SHALOM_OK;
    });
  };
  auto capi = [&] { rung(Layer::kCapi, [&] { return capi_gemm(s, c, threads); }); };
  auto batched = [&] {
    rung(Layer::kBatch, [&] {
      shalom::gemm_batch<T>(s.mode, batch, serial_batch);
      return SHALOM_OK;
    });
  };
  // Engine: submit and wait are separate spans; their sum is one sample.
  auto engine = [&] {
    std::fill(s.c[0].begin(), s.c[0].end(),
              std::numeric_limits<T>::quiet_NaN());
    ++tally.attempted;
    int status = SHALOM_ERR_INTERNAL;
    const std::int64_t e0 = now_ns();
    std::int64_t e1 = e0;
    try {
      shalom::engine::TicketPtr ticket = stream.submit<T>(
          s.mode, s.m, s.n, s.k, s.alpha, s.a, s.lda, s.b, s.ldb, T{0}, c,
          s.ldc);
      e1 = now_ns();
      status = ticket->wait();
    } catch (...) {
    }
    const std::int64_t e2 = now_ns();
    log.record(request, Layer::kEngineSubmit, Layer::kRequest, e0, e1);
    log.record(request, Layer::kEngineWait, Layer::kRequest, e1, e2);
    col[static_cast<int>(Layer::kEngineSubmit)].push_back((e1 - e0) * 1e-3);
    col[static_cast<int>(Layer::kEngineWait)].push_back((e2 - e1) * 1e-3);
    col[kEngineTotal].push_back((e2 - e0) * 1e-3);
    if (status != SHALOM_OK || count_misses(s.ref, s.m, s.n, c, s.ldc) != 0)
      ++tally.failed;
  };

  // The rungs run in a fresh seeded order per request, so no rung always
  // follows the same neighbour (cache, allocator and predictor state).
  constexpr int kRungs = 7;
  int order[kRungs] = {0, 1, 2, 3, 4, 5, 6};
  shalom::SplitMix64 rng(request);
  for (int i = kRungs; i > 1; --i)
    std::swap(order[i - 1], order[rng.next_u64() % static_cast<unsigned>(i)]);
  const std::int64_t r0 = now_ns();
  for (int unit : order) {
    switch (unit) {
      case 0: serial(); break;
      case 1: plan(); break;
      case 2: plan_cache(); break;
      case 3: parallel(); break;
      case 4: capi(); break;
      case 5: batched(); break;
      case 6: engine(); break;
    }
  }
  log.record(request, Layer::kRequest, Layer::kCount, r0, now_ns());
}

/// Replays `mix` (client 0's buffers) in its seeded order until `seconds`
/// pass or `max_replays` requests ran.
void run_ladder(Mix& mix, int threads, shalom::engine::GemmStream& stream,
                SpanLog& log, std::uint64_t seed, double seconds,
                std::uint64_t max_replays, std::uint64_t* next_request,
                LadderSamples& samples, ReplayTally& tally) {
  Order order(mix, seed);
  const std::int64_t stop = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0; i < max_replays && now_ns() < stop; ++i) {
    with_slot(mix, order.next(), [&](auto& s) {
      replay(s, threads, stream, log, (*next_request)++, samples, tally);
    });
  }
}

/// Per-shape medians of every column; shapes never replayed get NaN.
std::vector<std::array<double, kColumns>> shape_medians(
    const LadderSamples& samples) {
  std::vector<std::array<double, kColumns>> out(samples.cols.size());
  for (std::size_t s = 0; s < samples.cols.size(); ++s)
    for (int c = 0; c < kColumns; ++c)
      out[s][c] = samples.cols[s][c].empty()
                      ? std::numeric_limits<double>::quiet_NaN()
                      : median(samples.cols[s][c]);
  return out;
}

}  // namespace

int run_traced(Workload w, std::uint64_t seed, double seconds,
               const std::string& out_dir) {
  // The eager kernel sweep, as the process's first library call, times
  // what the lazy probes add to set-up.
  const std::int64_t sweep0 = now_ns();
  const int quarantined = shalom_selftest();
  const double selftest_ms = static_cast<double>(now_ns() - sweep0) * 1e-6;

  Mix mix = make_mix(w, seed);
  Mix probe = make_probe_mix(seed);
  const int threads = workload_threads(w);
  std::unique_ptr<shalom::engine::GemmStream> serve;
  if (w == Workload::kSmallServe)
    serve = std::make_unique<shalom::engine::GemmStream>();
  shalom::engine::GemmStream ladder_stream;

  ReplayTally tally;
  const std::vector<SlotId> warmed = warm_up(mix, serve.get(), &tally.failed);
  tally.attempted += warmed.size();
  compute_references(mix, 4);
  compute_references(probe, 1);
  for (SlotId id : warmed)
    if (check_slot(mix, id, 0) != 0) ++tally.failed;
  const double peak_f32 = shalom::bench::calibrated_peak_gflops_f32();
  const double peak_f64 = shalom::bench::calibrated_peak_gflops_f64();

  // Tracing overhead: alternate untraced and traced blocks of the
  // end-to-end loop, so drift lands on both halves alike.
  std::vector<std::unique_ptr<SpanLog>> e2e_logs;
  std::vector<SpanLog*> e2e_ptrs;
  for (int c = 0; c < mix.clients; ++c) {
    e2e_logs.push_back(std::make_unique<SpanLog>(std::size_t{1} << 15));
    e2e_ptrs.push_back(e2e_logs.back().get());
  }
  constexpr int kBlocks = 8;
  const double block_s = 0.35 * seconds / kBlocks;
  Latencies lat_plain(std::size_t{1} << 19), lat_traced(std::size_t{1} << 19);
  for (int b = 0; b < kBlocks; ++b) {
    const bool traced = b % 2 == 1;
    Latencies& lat = traced ? lat_traced : lat_plain;
    const LoopResult r = run_closed_loop(
        mix, serve.get(), block_s, seed + b, &lat,
        lat.ns.size() / (kBlocks / 2),
        traced ? e2e_ptrs : std::vector<SpanLog*>{});
    tally.attempted += r.completed + r.failed;
    tally.failed += r.failed;
  }
  const double p50_plain = lat_plain.quantile(0.5) * 1e-3;
  const double p50_traced = lat_traced.quantile(0.5) * 1e-3;

  // The ladder: first the fixed 16^3 fp32 NN probe, then the workload.
  SpanLog ladder_log(std::size_t{1} << 16);
  std::uint64_t request = 0;
  const shalom::PlanCacheStats f0 = shalom::PlanCache<float>::global().stats();
  const shalom::PlanCacheStats d0 =
      shalom::PlanCache<double>::global().stats();
  LadderSamples probe_samples(probe.shapes.size());
  run_ladder(probe, 1, ladder_stream, ladder_log, seed, 0.1 * seconds, 4000,
             &request, probe_samples, tally);
  LadderSamples samples(mix.shapes.size());
  run_ladder(mix, threads, ladder_stream, ladder_log, seed, 0.55 * seconds,
             std::numeric_limits<std::uint64_t>::max(), &request, samples,
             tally);
  const shalom::PlanCacheStats f1 = shalom::PlanCache<float>::global().stats();
  const shalom::PlanCacheStats d1 =
      shalom::PlanCache<double>::global().stats();

  // Mix-weighted means over shapes (weight = slots of the shape).
  const auto med = shape_medians(samples);
  std::vector<double> weight(mix.shapes.size(), 0);
  for (SlotId id : mix.slots)
    with_slot(mix, id, [&](auto& s) { weight[s.shape] += 1; });
  auto mean = [&](auto&& value) {
    double num = 0, den = 0;
    for (std::size_t s = 0; s < med.size(); ++s) {
      const double v = value(s);
      if (std::isnan(v)) continue;
      num += weight[s] * v;
      den += weight[s];
    }
    return den > 0 ? num / den : 0.0;
  };
  auto col = [&](Layer l) {
    return [&, c = static_cast<int>(l)](std::size_t s) { return med[s][c]; };
  };
  auto self = [&](int upper, Layer lower) {
    return mean([&, lo = static_cast<int>(lower)](std::size_t s) {
      return med[s][upper] - med[s][lo];
    });
  };
  auto flops = [&](std::size_t s) { return mix.shapes[s].flops; };
  auto peak = [&](std::size_t s) {
    return mix.shapes[s].f64 ? peak_f64 : peak_f32;
  };
  const double t_serial = mean(col(Layer::kSerial));
  const double t_parallel = mean(col(Layer::kParallel));
  const double mean_flops = mean(flops);
  const double serial_peak_us =
      mean([&](std::size_t s) { return med[s][static_cast<int>(Layer::kSerial)] * peak(s); });

  const double hits = static_cast<double>((f1.hits - f0.hits) + (d1.hits - d0.hits));
  const double misses =
      static_cast<double>((f1.misses - f0.misses) + (d1.misses - d0.misses));

  shalom::engine::StreamStats es = ladder_stream.stats();
  if (serve) {
    const shalom::engine::StreamStats ss = serve->stats();
    es.executed += ss.executed;
    es.batches += ss.batches;
    es.retries += ss.retries;
    es.queue_peak = std::max(es.queue_peak, ss.queue_peak);
  }

  const auto pmed = shape_medians(probe_samples)[0];
  const double l16_pc = pmed[static_cast<int>(Layer::kPlanCache)];
  const double l16_capi = pmed[static_cast<int>(Layer::kCapi)];
  const double l16_engine = pmed[kEngineTotal];
  // Re-anchor ordering: gemm() < C API << stream (taken as 4x).
  const bool order_ok = l16_pc < l16_capi && l16_engine > 4 * l16_capi;

  serve.reset();
  const Sentinels sen = collect_sentinels();

  // Spans: one CSV per workload, overwritten by each traced run.
  std::string csv = "phase,request,layer,parent,start_ns,end_ns\n";
  for (const SpanLog* l : e2e_ptrs) l->append_csv(&csv, "e2e");
  ladder_log.append_csv(&csv, "ladder");
  const std::string spans_path =
      out_dir + "/spans-" + workload_name(w) + ".csv";
  if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
    std::fwrite(csv.data(), 1, csv.size(), f);
    std::fclose(f);
  } else {
    std::fprintf(stderr, "ladder: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  std::string m = "{";
  json_number(&m, "peak.f32_gflops", peak_f32);
  json_number(&m, "peak.f64_gflops", peak_f64);
  json_number(&m, "serial.call_us", t_serial);
  json_number(&m, "serial.gflops", mean_flops / t_serial * 1e-3);
  json_number(&m, "serial.frac_peak", mean_flops / (serial_peak_us * 1e3));
  json_number(&m, "plan.create_us", mean(col(Layer::kPlanCreate)));
  json_number(&m, "plan.execute_us", mean(col(Layer::kPlanExecute)));
  json_number(&m, "plan_cache.call_us", mean(col(Layer::kPlanCache)));
  json_number(&m, "plan_cache.overhead_us",
              self(static_cast<int>(Layer::kPlanCache), Layer::kPlanExecute));
  json_number(&m, "plan_cache.hit_ratio",
              hits + misses > 0 ? hits / (hits + misses) : 0);
  json_number(&m, "parallel.gflops", mean_flops / t_parallel * 1e-3);
  json_number(&m, "parallel.speedup", t_serial / t_parallel);
  json_number(&m, "parallel.efficiency",
              t_serial / t_parallel / kParallelThreads);
  json_number(&m, "batch.entry_us", mean(col(Layer::kBatch)));
  json_number(&m, "capi.call_us", mean(col(Layer::kCapi)));
  json_number(&m, "capi.overhead_us",
              self(static_cast<int>(Layer::kCapi), Layer::kPlanCache));
  json_number(&m, "engine.submit_us", mean(col(Layer::kEngineSubmit)));
  json_number(&m, "engine.wait_us", mean(col(Layer::kEngineWait)));
  json_number(&m, "engine.overhead_us", self(kEngineTotal, Layer::kPlanCache));
  json_number(&m, "engine.batch_size",
              es.batches > 0 ? static_cast<double>(es.executed) /
                                   static_cast<double>(es.batches)
                             : 0);
  json_number(&m, "engine.queue_peak", static_cast<double>(es.queue_peak));
  json_number(&m, "engine.retries", static_cast<double>(es.retries));
  json_number(&m, "selfcheck.selftest_ms", selftest_ms);
  json_number(&m, "health.unhealthy", sen.unhealthy);
  json_number(&m, "robustness.degradations",
              static_cast<double>(sen.degradations));
  json_number(&m, "trace.overhead_us", p50_traced - p50_plain);
  json_number(&m, "ladder16.plan_cache_us", l16_pc);
  json_number(&m, "ladder16.capi_us", l16_capi);
  json_number(&m, "ladder16.engine_us", l16_engine);
  json_number(&m, "ladder16.order_ok", order_ok ? 1 : 0);
  m += "}";

  char head[512];
  std::snprintf(head, sizeof head,
                "{\"workload\": \"%s\", \"trace\": 1, \"attempted\": %llu, "
                "\"failed\": %llu, \"quarantined_at_sweep\": %d, "
                "\"ladder_replays\": %llu, \"trace_p50_us\": "
                "{\"untraced\": %.17g, \"traced\": %.17g}, \"spans\": \"%s\", ",
                workload_name(w),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed), quarantined,
                static_cast<unsigned long long>(request), p50_plain,
                p50_traced, spans_path.c_str());
  char peaks[160];
  std::snprintf(peaks, sizeof peaks,
                "\"peaks\": {\"f32_gflops\": %.17g, \"f64_gflops\": %.17g}, ",
                peak_f32, peak_f64);
  std::printf("%s%s\"sentinels\": %s, \"metrics\": %s}\n", head, peaks,
              sen.json.c_str(), m.c_str());
  return 0;
}

}  // namespace ladder
