// Layer-ladder benchmark: shared request model, oracle, closed-loop
// runner and span log.
//
// The benchmark reaches the library only through its public entry points
// (core/shalom.h, gemm.h, plan.h, plan_cache.h, parallel.h, batch.h,
// shalom_c.h, engine.h, the health/stats C API and bench_util/peak.h), so
// internals can be rewritten or deleted without breaking it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/types.h"

namespace ladder {

using shalom::index_t;
using shalom::Mode;
using shalom::Trans;

enum class Workload { kSmallDirect, kSmallServe, kIrregularParallel };

/// Parses a workload name; returns false for an unknown one.
bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);
/// Closed-loop client threads the workload runs with.
int workload_clients(Workload w);
/// Config::threads the workload's GEMM calls use.
int workload_threads(Workload w);
/// Length in seconds of one timing block of the workload's window.
double workload_block_s(Workload w);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Oracle (oracle.cpp)

/// Expected output of one request plus the elementwise error bound
/// |C - value| <= bound, from the baselines/naive reference.
template <typename T>
struct Reference {
  std::vector<T> value;
  std::vector<T> bound;
};

/// Computes the reference of C = alpha*op(A)*op(B) + beta*C0 (C0 may be
/// null when beta == 0), M x N dense. The bound is
///   2 * gamma_{K+2} * (|alpha| (|A||B|) + |beta| |C0|),
/// gamma_n = n eps / (1 - n eps): one gamma for the library's rounding and
/// one for the same-precision reference's. Rows are split over up to
/// `threads` threads, each calling naive_gemm on its row block.
template <typename T>
Reference<T> make_reference(Mode mode, index_t M, index_t N, index_t K,
                            T alpha, const T* A, index_t lda, const T* B,
                            index_t ldb, T beta, const T* C0, index_t ldc0,
                            int threads);

/// Elements of C outside the reference bound (NaN counts as outside).
template <typename T>
std::uint64_t count_misses(const Reference<T>& ref, index_t M, index_t N,
                           const T* C, index_t ldc);

/// Proves the oracle on signed data with beta != 0: a library result
/// passes, and a deliberately corrupted element (perturbed just past its
/// bound, or NaN) is caught. Prints what it checked; false on failure.
bool oracle_selftest();

// ---------------------------------------------------------------------------
// Requests

/// One distinct request: a shape with its own seeded operands and one
/// output buffer per client (clients never share an output).
template <typename T>
struct Slot {
  int shape = 0;  // index into Mix::shapes
  Mode mode{};
  index_t m = 0, n = 0, k = 0, lda = 0, ldb = 0, ldc = 0;
  T alpha = T{1};
  const T* a = nullptr;
  const T* b = nullptr;
  std::vector<std::vector<T>> c;
  Reference<T> ref;
};

struct ShapeInfo {
  std::string label;  // e.g. "f32.NT.48x48x48"
  bool f64 = false;
  double flops = 0;   // 2mnk
};

/// Identifies a slot: dtype plus index into Mix::f32 / Mix::f64.
struct SlotId {
  bool f64 = false;
  std::uint32_t index = 0;
};

/// Every input of one workload, generated from the seed. The shape
/// multiset is fixed per workload; the seed picks operand values, alphas
/// and the visiting order, so any seed measures the same work.
struct Mix {
  Workload workload{};
  int clients = 1;
  std::vector<ShapeInfo> shapes;
  std::vector<Slot<float>> f32;
  std::vector<Slot<double>> f64;
  std::vector<SlotId> slots;  // all slots, f32 first
  // Operand storage the slots point into (inner buffers never resize).
  std::vector<std::vector<float>> pool_f32;
  std::vector<std::vector<double>> pool_f64;
};

/// Builds the workload's requests. Deterministic in (workload, seed).
Mix make_mix(Workload w, std::uint64_t seed);

/// A 16x16x16 fp32 NN single-request mix: the fixed cross-check probe of
/// the traced run.
Mix make_probe_mix(std::uint64_t seed);

template <typename F>
decltype(auto) with_slot(Mix& mix, SlotId id, F&& f) {
  if (id.f64) return f(mix.f64[id.index]);
  return f(mix.f32[id.index]);
}

/// Computes the reference of every slot (after set-up, before timing).
void compute_references(Mix& mix, int threads);

/// Checks client `client`'s current output of a slot; returns misses.
std::uint64_t check_slot(Mix& mix, SlotId id, int client);

/// Seeded endless visiting order: each cycle is a fresh permutation of
/// all slots, so every window sees the mix's fixed shape proportions.
class Order {
 public:
  Order(const Mix& mix, std::uint64_t seed);
  SlotId next();

 private:
  std::vector<SlotId> perm_;
  std::size_t pos_ = 0;
  std::uint64_t state_;
};

// ---------------------------------------------------------------------------
// Entry points of the end-to-end workloads

/// Runs one request through the workload's entry point: the C API
/// (small_direct), the shared stream (small_serve) or shalom::gemm with
/// threads=2 (irregular_parallel). Returns a shalom_status; exceptions
/// map to SHALOM_ERR_INTERNAL. Spans, when a log is given, mark the
/// engine's submit and wait.
class SpanLog;
int run_request(Mix& mix, SlotId id, int client,
                shalom::engine::GemmStream* stream, SpanLog* spans,
                std::uint64_t request);

/// The C API call (shalom_sgemm / shalom_dgemm) for a slot, beta = 0.
template <typename T>
int capi_gemm(const Slot<T>& s, T* c, int threads);

/// Library set-up for the workload: one call per distinct shape (its first
/// slot, client 0's buffer), the way the timed loop will call it. Counts
/// calls that failed in `failed`; returns the slots it called.
std::vector<SlotId> warm_up(Mix& mix, shalom::engine::GemmStream* stream,
                            std::uint64_t* failed);

// ---------------------------------------------------------------------------
// Latency samples

/// Latency samples of one or more closed-loop windows. The storage is
/// allocated and touched before timing starts, and each window keeps a
/// fixed-size uniform sample (Vitter's algorithm R) of its requests, so
/// neither memory use nor peak RSS depends on how many requests complete.
struct Latencies {
  explicit Latencies(std::size_t capacity) : ns(capacity, 0) {}
  std::vector<std::int64_t> ns;
  std::size_t kept = 0;    // samples in ns[0, kept)
  std::uint64_t seen = 0;  // requests timed
  /// Linear-interpolated quantile q in [0,1] of the kept samples.
  double quantile(double q) const;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile q in [0,1] of v.
double quantile(std::vector<double> v, double q);

// ---------------------------------------------------------------------------
// Spans

enum class Layer : std::uint16_t {
  kRequest,
  kSerial,
  kPlanCreate,
  kPlanExecute,
  kPlanCache,
  kParallel,
  kCapi,
  kBatch,
  kEngineSubmit,
  kEngineWait,
  kCount,
};
const char* layer_name(Layer l);

struct Span {
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Layer layer = Layer::kRequest;
  Layer parent = Layer::kCount;  // kCount = root
};

/// In-memory span ring of fixed capacity (a power of two) that keeps the
/// most recent spans: recording costs the same on the millionth span as on
/// the first, and memory stays bounded. Written out once, when the run
/// ends.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity_pow2);
  void record(std::uint64_t request, Layer layer, Layer parent,
              std::int64_t start_ns, std::int64_t end_ns) {
    spans_[recorded_++ & mask_] = {request, start_ns, end_ns, layer, parent};
  }
  /// Appends the retained spans, oldest first, as CSV rows.
  void append_csv(std::string* out, const char* phase) const;

 private:
  std::vector<Span> spans_;
  std::uint64_t mask_;
  std::uint64_t recorded_ = 0;
};

// ---------------------------------------------------------------------------
// Closed loop

struct LoopResult {
  std::uint64_t completed = 0;  // requests resolved OK
  std::uint64_t failed = 0;     // non-OK status or output outside bound
  std::uint64_t checked = 0;    // outputs compared against the oracle
  double flops = 0;             // 2mnk over completed requests
  double wall_s = 0;
};

/// Runs mix.clients closed-loop clients, each on a new thread, for
/// `seconds`: each sends its next request only after the previous one
/// resolved. Every 16th request of a client is checked against the oracle
/// (outside its latency span), and so is the final output of every slot
/// after the window. Up to `samples` latencies (split evenly over the
/// clients) are appended to `lat`. `spans` (one log per client, or empty)
/// turns tracing on.
LoopResult run_closed_loop(Mix& mix, shalom::engine::GemmStream* stream,
                           double seconds, std::uint64_t seed,
                           Latencies* lat, std::size_t samples,
                           const std::vector<SpanLog*>& spans);

// ---------------------------------------------------------------------------
// Validity sentinels and output

/// Health and degradation state after a run, plus any SHALOM_* knobs in
/// the environment. `valid` is false when either could change the timed
/// code path.
struct Sentinels {
  bool valid = true;
  int unhealthy = 0;
  std::uint64_t degradations = 0;
  std::string json;  // {"health":...,"stats":...,"env":...,"reasons":[...]}
};
Sentinels collect_sentinels();

/// Appends `"name": value` (with a leading comma unless first) to a JSON
/// object under construction.
void json_number(std::string* out, const char* name, double value);

/// Traced mode (traced.cpp): prints the per-layer result line.
int run_traced(Workload w, std::uint64_t seed, double seconds,
               const std::string& out_dir);

}  // namespace ladder
