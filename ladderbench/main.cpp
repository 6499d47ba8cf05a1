// ladder: one process of the layer-ladder benchmark.
//
//   ladder --mode run|setup|trace|selftest --workload W --seed N
//          --seconds S --out-dir DIR
//
// `run` times the workload's closed loop for S seconds and prints its
// end-to-end metrics; `setup` stops after set-up and prints setup_s;
// `trace` runs the layer ladder (traced.cpp); `selftest` proves that the
// oracle catches a corrupted output. The last stdout line is one JSON
// object; diagnostics go to stderr. ladderbench/run.py drives it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/peak.h"
#include "ladder.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ladder --mode run|setup|trace|selftest --workload "
               "small_direct|small_serve|irregular_parallel --seed N "
               "--seconds S --out-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ladder;
  const std::int64_t t_main = now_ns();

  std::string mode = "run", workload = "small_direct", out_dir = ".";
  std::uint64_t seed = 1;
  double seconds = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (!std::strcmp(key, "--mode")) mode = val;
    else if (!std::strcmp(key, "--workload")) workload = val;
    else if (!std::strcmp(key, "--seed")) seed = std::strtoull(val, nullptr, 10);
    else if (!std::strcmp(key, "--seconds")) seconds = std::strtod(val, nullptr);
    else if (!std::strcmp(key, "--out-dir")) out_dir = val;
    else return usage();
  }
  if (argc % 2 != 1) return usage();
  Workload w{};
  if (!parse_workload(workload, &w) || !(seconds > 0)) return usage();

  if (mode == "selftest") {
    const bool ok = oracle_selftest();
    std::printf("{\"selftest\": %s}\n", ok ? "true" : "false");
    return ok ? 0 : 1;
  }
  if (mode == "trace") return run_traced(w, seed, seconds, out_dir);
  if (mode != "run" && mode != "setup") return usage();

  // Set-up: process start to the first timed request, less the time the
  // benchmark spends generating its own inputs.
  const std::int64_t gen0 = now_ns();
  Mix mix = make_mix(w, seed);
  const std::int64_t gen_ns = now_ns() - gen0;
  std::unique_ptr<shalom::engine::GemmStream> stream;
  if (w == Workload::kSmallServe)
    stream = std::make_unique<shalom::engine::GemmStream>();
  std::uint64_t warm_failed = 0;
  const std::vector<SlotId> warmed = warm_up(mix, stream.get(), &warm_failed);
  const double setup_s =
      static_cast<double>(now_ns() - t_main - gen_ns) * 1e-9;
  if (mode == "setup") {
    std::printf("{\"setup_s\": %.17g, \"failed\": %llu}\n", setup_s,
                static_cast<unsigned long long>(warm_failed));
    return 0;
  }

  // The set-up calls' outputs are the first check of every shape.
  compute_references(mix, 4);
  const std::uint64_t warm_calls = warmed.size();
  std::uint64_t warm_bad = warm_failed;
  for (SlotId id : warmed)
    if (check_slot(mix, id, 0) != 0) ++warm_bad;

  // The window is cut into short blocks (workload_block_s), each with
  // fresh client threads and, for small_serve, a fresh stream (drainer),
  // so the scheduler's thread placement is drawn again per block. On a
  // shared host, other tenants only ever add time, in bursts far shorter
  // than the window, so every timing metric is the block value at the
  // best decile (the 10th percentile of block latencies, the 90th of block
  // rates): what the program does when the host leaves it alone. The
  // block medians go to the run record.
  const int blocks =
      std::max(1, static_cast<int>(std::lround(seconds / workload_block_s(w))));
  Latencies lat(std::size_t{1} << 16);
  LoopResult total;
  std::uint64_t timed = 0;
  std::size_t min_block_samples = lat.ns.size();
  std::vector<double> block_ops, block_gflops, block_p50, block_p99;
  for (int b = 0; b < blocks; ++b) {
    if (w == Workload::kSmallServe)
      stream = std::make_unique<shalom::engine::GemmStream>();
    lat.kept = 0;
    lat.seen = 0;
    const LoopResult r = run_closed_loop(mix, stream.get(), seconds / blocks,
                                         seed + b, &lat, lat.ns.size(), {});
    total.completed += r.completed;
    total.failed += r.failed;
    total.checked += r.checked;
    total.flops += r.flops;
    total.wall_s += r.wall_s;
    timed += lat.seen;
    min_block_samples = std::min(min_block_samples, lat.kept);
    block_ops.push_back(static_cast<double>(r.completed) / r.wall_s);
    block_gflops.push_back(r.flops / r.wall_s * 1e-9);
    block_p50.push_back(lat.quantile(0.50) * 1e-3);
    block_p99.push_back(lat.quantile(0.99) * 1e-3);
  }
  stream.reset();

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const double peak_f32 = shalom::bench::calibrated_peak_gflops_f32();
  const double peak_f64 = shalom::bench::calibrated_peak_gflops_f64();
  const Sentinels sen = collect_sentinels();

  const std::uint64_t attempted = warm_calls + total.completed + total.failed;
  const std::uint64_t failed = warm_bad + total.failed;
  std::string m = "{";
  json_number(&m, "throughput_ops", quantile(block_ops, 0.90));
  json_number(&m, "gflops", quantile(block_gflops, 0.90));
  json_number(&m, "latency_p50_us", quantile(block_p50, 0.10));
  json_number(&m, "latency_p99_us", quantile(block_p99, 0.10));
  json_number(&m, "block_median_throughput_ops", median(block_ops));
  json_number(&m, "block_median_p50_us", median(block_p50));
  json_number(&m, "block_median_p99_us", median(block_p99));
  json_number(&m, "setup_s", setup_s);
  json_number(&m, "peak_rss_mib", rss_mib);
  json_number(&m, "failed_ratio",
              static_cast<double>(failed) / static_cast<double>(attempted));
  m += "}";
  auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (double x : v) s += (s.size() > 1 ? ", " : "") + std::to_string(x);
    return s + "]";
  };
  const std::string block_list = list(block_ops);
  const std::string block_p99_list = list(block_p99);
  const std::string block_p50_list = list(block_p50);
  std::printf(
      "{\"workload\": \"%s\", \"trace\": 0, \"block_ops\": %s, "
      "\"block_p50_us\": %s, \"block_p99_us\": %s, \"attempted\": %llu, "
      "\"failed\": %llu, \"checked\": %llu, \"requests_timed\": %llu, "
      "\"blocks\": %d, \"min_block_samples\": %llu, "
      "\"min_block_samples_beyond_p99\": %llu, "
      "\"window_s\": %.17g, "
      "\"peaks\": {\"f32_gflops\": %.17g, \"f64_gflops\": %.17g}, "
      "\"sentinels\": %s, \"metrics\": %s}\n",
      workload_name(w), block_list.c_str(), block_p50_list.c_str(),
      block_p99_list.c_str(),
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(total.checked + warm_calls),
      static_cast<unsigned long long>(timed), blocks,
      static_cast<unsigned long long>(min_block_samples),
      static_cast<unsigned long long>(min_block_samples / 100), total.wall_s,
      peak_f32,
      peak_f64, sen.json.c_str(), m.c_str());
  return 0;
}
