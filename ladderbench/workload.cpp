// Workload generation, the closed-loop runner, span log and sentinels.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "common/rng.h"
#include "core/shalom.h"
#include "core/shalom_c.h"
#include "ladder.h"
#include "workloads/sizes.h"

extern char** environ;

namespace ladder {

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kSmallDirect, Workload::kSmallServe,
                     Workload::kIrregularParallel}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSmallDirect: return "small_direct";
    case Workload::kSmallServe: return "small_serve";
    case Workload::kIrregularParallel: return "irregular_parallel";
  }
  return "?";
}

// Two serving clients: with four, throughput stayed flat while latency
// doubled, so two keep the scheduler out of the number.
int workload_clients(Workload w) {
  return w == Workload::kSmallServe ? 2 : 1;
}

// Two GEMM threads for the irregular shapes: on a shared 4-vCPU host,
// 4 threads spread far more from run to run than 2.
int workload_threads(Workload w) {
  return w == Workload::kIrregularParallel ? 2 : 1;
}

// Timing blocks: a tenth of a second holds thousands of small requests
// (dozens beyond p99); an irregular block needs a whole second for about
// a hundred.
double workload_block_s(Workload w) {
  return w == Workload::kIrregularParallel ? 1.0 : 0.1;
}

// ---------------------------------------------------------------------------
// Mix

namespace {

constexpr int kSmallVariants = 3;  // seeded operand sets per small shape

template <typename T>
std::vector<T>& pool_of(Mix& mix) {
  if constexpr (sizeof(T) == 4) {
    return mix.pool_f32.emplace_back();
  } else {
    return mix.pool_f64.emplace_back();
  }
}

template <typename T>
const T* make_operand(Mix& mix, index_t elems, shalom::SplitMix64& rng) {
  std::vector<T>& v = pool_of<T>(mix);
  v.resize(static_cast<std::size_t>(elems));
  for (auto& x : v) x = static_cast<T>(rng.next_unit());
  return v.data();
}

int add_shape(Mix& mix, bool f64, Mode mode, index_t m, index_t n,
              index_t k) {
  char label[96];
  std::snprintf(label, sizeof label, "%s.%c%c.%lldx%lldx%lld",
                f64 ? "f64" : "f32", mode.a == Trans::N ? 'N' : 'T',
                mode.b == Trans::N ? 'N' : 'T', static_cast<long long>(m),
                static_cast<long long>(n), static_cast<long long>(k));
  mix.shapes.push_back({label, f64, 2.0 * m * n * k});
  return static_cast<int>(mix.shapes.size()) - 1;
}

template <typename T>
void add_slot(Mix& mix, int shape, Mode mode, index_t m, index_t n,
              index_t k, const T* a, index_t lda, const T* b, index_t ldb,
              shalom::SplitMix64& rng) {
  Slot<T> s;
  s.shape = shape;
  s.mode = mode;
  s.m = m;
  s.n = n;
  s.k = k;
  s.lda = lda;
  s.ldb = ldb;
  s.ldc = n;
  s.alpha = static_cast<T>(0.5 + rng.next_unit());
  s.a = a;
  s.b = b;
  // NaN-filled outputs: beta == 0 never reads C, so an element the library
  // failed to write shows up as a miss.
  s.c.assign(static_cast<std::size_t>(mix.clients),
             std::vector<T>(static_cast<std::size_t>(m * n),
                            std::numeric_limits<T>::quiet_NaN()));
  if constexpr (sizeof(T) == 4) {
    mix.slots.push_back({false, static_cast<std::uint32_t>(mix.f32.size())});
    mix.f32.push_back(std::move(s));
  } else {
    mix.slots.push_back({true, static_cast<std::uint32_t>(mix.f64.size())});
    mix.f64.push_back(std::move(s));
  }
}

template <typename T>
void add_small(Mix& mix, bool f64, Mode mode, index_t s_m, index_t s_n,
               index_t s_k, shalom::SplitMix64& rng) {
  const int shape = add_shape(mix, f64, mode, s_m, s_n, s_k);
  for (int v = 0; v < kSmallVariants; ++v) {
    const T* a = make_operand<T>(mix, s_m * s_k, rng);
    const T* b = make_operand<T>(mix, s_k * s_n, rng);
    add_slot<T>(mix, shape, mode, s_m, s_n, s_k, a, s_k, b,
                mode.b == Trans::N ? s_n : s_k, rng);
  }
}

}  // namespace

Mix make_mix(Workload w, std::uint64_t seed) {
  namespace wl = shalom::workloads;
  Mix mix;
  mix.workload = w;
  mix.clients = workload_clients(w);
  shalom::SplitMix64 rng(seed * 0x2545F4914F6CDD1Dull + 0x1adde5);
  const Mode nn{Trans::N, Trans::N}, nt{Trans::N, Trans::T};
  if (w != Workload::kIrregularParallel) {
    // Paper Figs. 7/8 fp32 squares up to 64, NN and NT, plus the Fig. 14
    // CP2K fp64 blocks: 21 shapes, an odd count so the median request
    // sits inside one shape's latency cluster.
    for (const auto& s : wl::small_square_sizes()) {
      if (s.m > 64) continue;
      add_small<float>(mix, false, nn, s.m, s.n, s.k, rng);
      add_small<float>(mix, false, nt, s.m, s.n, s.k, rng);
    }
    for (const auto& s : wl::cp2k_sizes())
      add_small<double>(mix, true, nn, s.m, s.n, s.k, rng);
    return mix;
  }
  // Irregular: the Fig. 13 breakdown (NN, M = 20..100, edge-heavy) and
  // the Fig. 11 VGG shape share one K x N operand; an NT column of the
  // Fig. 9 sweep (N = 1536, M = 32..128) shares another. Nine shapes.
  std::vector<wl::GemmShape> nn_shapes = wl::breakdown_sizes(false);
  nn_shapes.push_back(wl::vgg_scalability_shape(false));
  std::vector<wl::GemmShape> nt_shapes;
  for (const auto& s : wl::irregular_sweep_m(false))
    if (s.n == 1536 && s.m <= 128) nt_shapes.push_back(s);
  auto max_of = [](const std::vector<wl::GemmShape>& v, index_t wl::GemmShape::*f) {
    index_t r = 0;
    for (const auto& s : v) r = std::max(r, s.*f);
    return r;
  };
  {
    const index_t M = max_of(nn_shapes, &wl::GemmShape::m);
    const index_t N = max_of(nn_shapes, &wl::GemmShape::n);
    const index_t K = max_of(nn_shapes, &wl::GemmShape::k);
    const float* a = make_operand<float>(mix, M * K, rng);
    const float* b = make_operand<float>(mix, K * N, rng);
    for (const auto& s : nn_shapes) {
      if (s.n != N || s.k != K) continue;
      const int shape = add_shape(mix, false, nn, s.m, s.n, s.k);
      add_slot<float>(mix, shape, nn, s.m, s.n, s.k, a, K, b, N, rng);
    }
  }
  {
    const index_t M = max_of(nt_shapes, &wl::GemmShape::m);
    const index_t N = max_of(nt_shapes, &wl::GemmShape::n);
    const index_t K = max_of(nt_shapes, &wl::GemmShape::k);
    const float* a = make_operand<float>(mix, M * K, rng);
    const float* b = make_operand<float>(mix, N * K, rng);
    for (const auto& s : nt_shapes) {
      if (s.n != N || s.k != K) continue;
      const int shape = add_shape(mix, false, nt, s.m, s.n, s.k);
      add_slot<float>(mix, shape, nt, s.m, s.n, s.k, a, K, b, K, rng);
    }
  }
  return mix;
}

Mix make_probe_mix(std::uint64_t seed) {
  Mix mix;
  mix.workload = Workload::kSmallDirect;
  mix.clients = 1;
  shalom::SplitMix64 rng(seed ^ 0x16161616ull);
  const Mode nn{Trans::N, Trans::N};
  const int shape = add_shape(mix, false, nn, 16, 16, 16);
  const float* a = make_operand<float>(mix, 16 * 16, rng);
  const float* b = make_operand<float>(mix, 16 * 16, rng);
  add_slot<float>(mix, shape, nn, 16, 16, 16, a, 16, b, 16, rng);
  return mix;
}

void compute_references(Mix& mix, int threads) {
  for (SlotId id : mix.slots) {
    with_slot(mix, id, [&](auto& s) {
      using T = std::remove_reference_t<decltype(s.alpha)>;
      s.ref = make_reference<T>(s.mode, s.m, s.n, s.k, s.alpha, s.a, s.lda,
                                s.b, s.ldb, T{0}, nullptr, 0, threads);
    });
  }
}

std::uint64_t check_slot(Mix& mix, SlotId id, int client) {
  return with_slot(mix, id, [&](auto& s) {
    return count_misses(s.ref, s.m, s.n, s.c[client].data(), s.ldc);
  });
}

Order::Order(const Mix& mix, std::uint64_t seed)
    : perm_(mix.slots), pos_(mix.slots.size()), state_(seed) {}

SlotId Order::next() {
  if (pos_ == perm_.size()) {
    shalom::SplitMix64 rng(state_);
    state_ = rng.next_u64();
    for (std::size_t i = perm_.size(); i > 1; --i)
      std::swap(perm_[i - 1], perm_[rng.next_u64() % i]);
    pos_ = 0;
  }
  return perm_[pos_++];
}

// ---------------------------------------------------------------------------
// Entry points

template <typename T>
int capi_gemm(const Slot<T>& s, T* c, int threads) {
  const char ta = s.mode.a == Trans::N ? 'N' : 'T';
  const char tb = s.mode.b == Trans::N ? 'N' : 'T';
  if constexpr (sizeof(T) == 4) {
    return shalom_sgemm(ta, tb, s.m, s.n, s.k, s.alpha, s.a, s.lda, s.b,
                        s.ldb, 0.0f, c, s.ldc, threads);
  } else {
    return shalom_dgemm(ta, tb, s.m, s.n, s.k, s.alpha, s.a, s.lda, s.b,
                        s.ldb, 0.0, c, s.ldc, threads);
  }
}
template int capi_gemm<float>(const Slot<float>&, float*, int);
template int capi_gemm<double>(const Slot<double>&, double*, int);

int run_request(Mix& mix, SlotId id, int client,
                shalom::engine::GemmStream* stream, SpanLog* spans,
                std::uint64_t request) {
  return with_slot(mix, id, [&](auto& s) -> int {
    using T = std::remove_reference_t<decltype(s.alpha)>;
    T* c = s.c[client].data();
    try {
      switch (mix.workload) {
        case Workload::kSmallDirect:
          return capi_gemm(s, c, 1);
        case Workload::kSmallServe: {
          const std::int64_t t0 = spans ? now_ns() : 0;
          shalom::engine::TicketPtr ticket = stream->submit<T>(
              s.mode, s.m, s.n, s.k, s.alpha, s.a, s.lda, s.b, s.ldb, T{0},
              c, s.ldc);
          const std::int64_t t1 = spans ? now_ns() : 0;
          const int status = ticket->wait();
          if (spans) {
            const std::int64_t t2 = now_ns();
            spans->record(request, Layer::kEngineSubmit, Layer::kRequest, t0,
                          t1);
            spans->record(request, Layer::kEngineWait, Layer::kRequest, t1,
                          t2);
          }
          return status;
        }
        case Workload::kIrregularParallel: {
          shalom::Config cfg;
          cfg.threads = workload_threads(mix.workload);
          shalom::gemm<T>(s.mode.a, s.mode.b, s.m, s.n, s.k, s.alpha, s.a,
                          s.lda, s.b, s.ldb, T{0}, c, s.ldc, cfg);
          return SHALOM_OK;
        }
      }
    } catch (...) {
    }
    return SHALOM_ERR_INTERNAL;
  });
}

std::vector<SlotId> warm_up(Mix& mix, shalom::engine::GemmStream* stream,
                            std::uint64_t* failed) {
  std::vector<SlotId> first;
  std::vector<bool> seen(mix.shapes.size(), false);
  for (SlotId id : mix.slots) {
    const int shape = with_slot(mix, id, [](auto& s) { return s.shape; });
    if (seen[static_cast<std::size_t>(shape)]) continue;
    seen[static_cast<std::size_t>(shape)] = true;
    first.push_back(id);
    if (run_request(mix, id, 0, stream, nullptr, 0) != SHALOM_OK) ++*failed;
  }
  return first;
}

// ---------------------------------------------------------------------------
// Statistics

namespace {

/// Algorithm R over caller-owned storage.
class Reservoir {
 public:
  Reservoir(std::int64_t* storage, std::size_t capacity, std::uint64_t seed)
      : storage_(storage), capacity_(capacity), state_(seed) {}

  void add(std::int64_t ns) {
    if (seen_ < capacity_) {
      storage_[seen_] = ns;
    } else {
      state_ += 0x9E3779B97F4A7C15ull;
      std::uint64_t z = state_;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      z ^= z >> 31;
      const std::uint64_t j = z % (seen_ + 1);
      if (j < capacity_) storage_[j] = ns;
    }
    ++seen_;
  }
  std::uint64_t seen() const { return seen_; }
  std::size_t kept() const {
    return static_cast<std::size_t>(std::min<std::uint64_t>(seen_, capacity_));
  }
  const std::int64_t* data() const { return storage_; }

 private:
  std::int64_t* storage_;
  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t seen_ = 0;
};

}  // namespace

double Latencies::quantile(double q) const {
  const auto end = ns.begin() + static_cast<std::ptrdiff_t>(kept);
  return ladder::quantile(std::vector<double>(ns.begin(), end), q);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------------------------
// Spans

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kRequest: return "request";
    case Layer::kSerial: return "serial";
    case Layer::kPlanCreate: return "plan.create";
    case Layer::kPlanExecute: return "plan.execute";
    case Layer::kPlanCache: return "plan_cache";
    case Layer::kParallel: return "parallel";
    case Layer::kCapi: return "capi";
    case Layer::kBatch: return "batch";
    case Layer::kEngineSubmit: return "engine.submit";
    case Layer::kEngineWait: return "engine.wait";
    case Layer::kCount: break;
  }
  return "";
}

SpanLog::SpanLog(std::size_t capacity_pow2)
    : spans_(capacity_pow2), mask_(capacity_pow2 - 1) {}

void SpanLog::append_csv(std::string* out, const char* phase) const {
  const std::uint64_t cap = mask_ + 1;
  const std::uint64_t first = recorded_ > cap ? recorded_ - cap : 0;
  char line[160];
  for (std::uint64_t i = first; i < recorded_; ++i) {
    const Span& s = spans_[i & mask_];
    std::snprintf(line, sizeof line, "%s,%llu,%s,%s,%lld,%lld\n", phase,
                  static_cast<unsigned long long>(s.request),
                  layer_name(s.layer), layer_name(s.parent),
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out->append(line);
  }
}

// ---------------------------------------------------------------------------
// Closed loop

constexpr std::uint64_t kCheckStride = 16;

LoopResult run_closed_loop(Mix& mix, shalom::engine::GemmStream* stream,
                           double seconds, std::uint64_t seed,
                           Latencies* lat, std::size_t samples,
                           const std::vector<SpanLog*>& spans) {
  struct Client {
    std::uint64_t completed = 0, failed = 0, checked = 0;
    double flops = 0;
    std::int64_t end_ns = 0;
    Reservoir lat{nullptr, 0, 0};
  };
  const int clients = mix.clients;
  samples = std::min(samples, lat->ns.size() - lat->kept);
  const std::size_t per_client = samples / static_cast<std::size_t>(clients);
  std::vector<Client> out(static_cast<std::size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::int64_t> deadline{0};

  auto body = [&](int client) {
    Client& me = out[static_cast<std::size_t>(client)];
    me.lat = Reservoir(
        lat->ns.data() + lat->kept + per_client * static_cast<std::size_t>(client),
        per_client, seed + 77 * static_cast<std::uint64_t>(client));
    Order order(mix, seed ^ (0xC0FFEEull * (client + 1)));
    SpanLog* log = spans.empty() ? nullptr : spans[client];
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    const std::int64_t stop = deadline.load(std::memory_order_relaxed);
    for (std::uint64_t i = 0;; ++i) {
      const SlotId id = order.next();
      const std::uint64_t request = (std::uint64_t(client) << 48) | i;
      const std::int64_t t0 = now_ns();
      const int status = run_request(mix, id, client, stream, log, request);
      const std::int64_t t1 = now_ns();
      if (log) log->record(request, Layer::kRequest, Layer::kCount, t0, t1);
      me.lat.add(t1 - t0);
      bool bad = status != SHALOM_OK;
      if (!bad && i % kCheckStride == 0) {
        ++me.checked;
        bad = check_slot(mix, id, client) != 0;
      }
      if (bad) {
        ++me.failed;
      } else {
        ++me.completed;
        me.flops += with_slot(mix, id, [&](auto& s) {
          return mix.shapes[static_cast<std::size_t>(s.shape)].flops;
        });
      }
      if (t1 >= stop) {
        me.end_ns = t1;
        break;
      }
    }
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(body, c);
  while (ready.load() != clients) std::this_thread::yield();
  const std::int64_t start = now_ns();
  deadline.store(start + static_cast<std::int64_t>(seconds * 1e9));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  LoopResult r;
  std::int64_t end = start;
  for (auto& c : out) {
    r.completed += c.completed;
    r.failed += c.failed;
    r.checked += c.checked;
    r.flops += c.flops;
    end = std::max(end, c.end_ns);
    // Compact this client's kept samples behind the earlier ones.
    std::copy(c.lat.data(), c.lat.data() + c.lat.kept(),
              lat->ns.begin() + static_cast<std::ptrdiff_t>(lat->kept));
    lat->kept += c.lat.kept();
    lat->seen += c.lat.seen();
  }
  r.wall_s = static_cast<double>(end - start) * 1e-9;
  // The last output of every slot: a miss turns that slot's final
  // request from completed into failed.
  for (int client = 0; client < clients; ++client) {
    for (SlotId id : mix.slots) {
      ++r.checked;
      if (check_slot(mix, id, client) != 0) {
        ++r.failed;
        if (r.completed > 0) --r.completed;
      }
    }
  }
  return r;
}

// ---------------------------------------------------------------------------
// Sentinels

void json_number(std::string* out, const char* name, double value) {
  char buf[96];
  if (!std::isfinite(value)) value = 0;
  std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g",
                out->back() == '{' ? "" : ", ", name, value);
  out->append(buf);
}

Sentinels collect_sentinels() {
  Sentinels s;
  std::string reasons;
  auto reason = [&](const std::string& r) {
    reasons += (reasons.empty() ? "\"" : ", \"") + r + "\"";
    s.valid = false;
  };

  shalom_health h{};
  shalom_health_report(&h);
  static const char* const kComponents[SHALOM_HEALTH_COMPONENT_COUNT] = {
      "kernels", "threadpool", "stream_breaker", "plan_cache", "tuned_table"};
  std::string health = "{";
  for (int i = 0; i < SHALOM_HEALTH_COMPONENT_COUNT; ++i) {
    json_number(&health, kComponents[i], h.components[i].state);
    if (h.components[i].state != SHALOM_HEALTH_HEALTHY) {
      ++s.unhealthy;
      reason(std::string("component ") + kComponents[i] + " not healthy");
    }
  }
  health += "}";

  shalom_stats st{};
  shalom_get_stats(&st);
  const std::pair<const char*, std::uint64_t> degradations[] = {
      {"fallback_nopack", st.fallback_nopack},
      {"threads_degraded", st.threads_degraded},
      {"plan_cache_bypassed", st.plan_cache_bypassed},
      {"faults_injected", st.faults_injected},
      {"kernels_quarantined", st.kernels_quarantined},
      {"kernels_trapped", st.kernels_trapped},
      {"watchdog_trips", st.watchdog_trips},
      {"arena_corruptions", st.arena_corruptions},
      {"requests_shed", st.requests_shed},
      {"requests_expired", st.requests_expired},
      {"submit_retries", st.submit_retries},
      {"breaker_trips", st.breaker_trips},
      {"probation_failures", st.probation_failures},
  };
  std::string stats = "{";
  for (const auto& [name, value] : degradations) {
    json_number(&stats, name, static_cast<double>(value));
    s.degradations += value;
    if (value != 0) reason(std::string("degradation counter ") + name);
  }
  json_number(&stats, "selfchecks_run", static_cast<double>(st.selfchecks_run));
  stats += "}";

  std::string env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "SHALOM_", 7) != 0) continue;
    const std::string var(*e, std::strcspn(*e, "="));
    env += (env.empty() ? "\"" : ", \"") + var + "\"";
    reason("knob " + var + " set");
  }

  s.json = "{\"valid\": " + std::string(s.valid ? "true" : "false") +
           ", \"health\": " + health + ", \"stats\": " + stats +
           ", \"env\": [" + env + "], \"reasons\": [" + reasons + "]}";
  return s;
}

}  // namespace ladder
