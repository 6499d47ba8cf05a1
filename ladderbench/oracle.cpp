// Error-bounded oracle against the baselines/naive reference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "baselines/naive.h"
#include "common/rng.h"
#include "core/shalom.h"
#include "ladder.h"

namespace ladder {

namespace {

/// Offset of row i of op(X) for an operand stored row-major with `ld`.
index_t row_offset(Trans t, index_t i, index_t ld) {
  return t == Trans::N ? i * ld : i;
}

/// Runs naive_gemm over row blocks of C on up to `threads` threads.
template <typename T>
void naive_rows(Mode mode, index_t M, index_t N, index_t K, T alpha,
                const T* A, index_t lda, const T* B, index_t ldb, T* C,
                int threads) {
  const double work = static_cast<double>(M) * N * K;
  const int parts = static_cast<int>(
      std::clamp<double>(std::min<double>(threads, M), 1, work / 4e6 + 1));
  auto block = [&](int p) {
    const index_t i0 = M * p / parts, i1 = M * (p + 1) / parts;
    shalom::baselines::naive_gemm<T>(mode, i1 - i0, N, K, alpha,
                                     A + row_offset(mode.a, i0, lda), lda, B,
                                     ldb, T{0}, C + i0 * N, N);
  };
  std::vector<std::thread> pool;
  for (int p = 1; p < parts; ++p) pool.emplace_back(block, p);
  block(0);
  for (auto& t : pool) t.join();
}

template <typename T>
bool any_negative(const T* X, index_t rows, index_t cols, index_t ld) {
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j)
      if (X[i * ld + j] < T{0}) return true;
  return false;
}

template <typename T>
std::vector<T> abs_copy(const T* X, index_t rows, index_t cols, index_t ld) {
  std::vector<T> out(static_cast<std::size_t>(rows * ld));
  for (index_t i = 0; i < rows; ++i)
    for (index_t j = 0; j < cols; ++j) out[i * ld + j] = std::abs(X[i * ld + j]);
  return out;
}

}  // namespace

template <typename T>
Reference<T> make_reference(Mode mode, index_t M, index_t N, index_t K,
                            T alpha, const T* A, index_t lda, const T* B,
                            index_t ldb, T beta, const T* C0, index_t ldc0,
                            int threads) {
  Reference<T> ref;
  ref.value.assign(static_cast<std::size_t>(M * N), T{0});
  naive_rows(mode, M, N, K, T{1}, A, lda, B, ldb, ref.value.data(), threads);

  // |A||B|: the product itself when both operands are nonnegative.
  const index_t a_rows = mode.a == Trans::N ? M : K;
  const index_t a_cols = mode.a == Trans::N ? K : M;
  const index_t b_rows = mode.b == Trans::N ? K : N;
  const index_t b_cols = mode.b == Trans::N ? N : K;
  std::vector<T> absprod;
  const std::vector<T>* abs_ab = &ref.value;
  if (any_negative(A, a_rows, a_cols, lda) ||
      any_negative(B, b_rows, b_cols, ldb)) {
    const std::vector<T> aa = abs_copy(A, a_rows, a_cols, lda);
    const std::vector<T> bb = abs_copy(B, b_rows, b_cols, ldb);
    absprod.assign(static_cast<std::size_t>(M * N), T{0});
    naive_rows(mode, M, N, K, T{1}, aa.data(), lda, bb.data(), ldb,
               absprod.data(), threads);
    abs_ab = &absprod;
  }

  const double eps = std::numeric_limits<T>::epsilon();
  const double n_eps = static_cast<double>(K + 2) * eps;
  const double gamma = n_eps / (1.0 - n_eps);
  ref.bound.resize(ref.value.size());
  for (index_t i = 0; i < M; ++i) {
    for (index_t j = 0; j < N; ++j) {
      const std::size_t e = static_cast<std::size_t>(i * N + j);
      const double c0 = beta == T{0} ? 0.0 : C0[i * ldc0 + j];
      const double scale = std::abs(static_cast<double>(alpha)) *
                               static_cast<double>((*abs_ab)[e]) +
                           std::abs(static_cast<double>(beta) * c0);
      // The smallest normal keeps an all-zero row's bound from being 0,
      // where a correct kernel may still leave a signed zero.
      ref.bound[e] = static_cast<T>(2.0 * gamma * scale +
                                    std::numeric_limits<T>::min());
      ref.value[e] = static_cast<T>(static_cast<double>(alpha) *
                                        static_cast<double>(ref.value[e]) +
                                    static_cast<double>(beta) * c0);
    }
  }
  return ref;
}

template <typename T>
std::uint64_t count_misses(const Reference<T>& ref, index_t M, index_t N,
                           const T* C, index_t ldc) {
  std::uint64_t misses = 0;
  for (index_t i = 0; i < M; ++i) {
    const T* row = C + i * ldc;
    const T* want = ref.value.data() + i * N;
    const T* tol = ref.bound.data() + i * N;
    for (index_t j = 0; j < N; ++j) {
      const double d = std::abs(static_cast<double>(row[j]) -
                                static_cast<double>(want[j]));
      if (!(d <= static_cast<double>(tol[j]))) ++misses;
    }
  }
  return misses;
}

namespace {

template <typename T>
bool selftest_one(const char* dtype) {
  const Mode mode{Trans::N, Trans::T};
  const index_t M = 37, N = 29, K = 41;
  shalom::SplitMix64 rng(0x5eed);
  auto fill = [&](std::vector<T>& v) {
    for (auto& x : v) x = static_cast<T>(2.0 * rng.next_unit() - 1.0);
  };
  std::vector<T> a(M * K), b(N * K), c0(M * N);
  fill(a);
  fill(b);
  fill(c0);
  const T alpha = T(-0.75), beta = T(0.5);
  const Reference<T> ref = make_reference<T>(mode, M, N, K, alpha, a.data(),
                                             K, b.data(), K, beta, c0.data(),
                                             N, 2);
  std::vector<T> c = c0;
  shalom::gemm<T>(mode.a, mode.b, M, N, K, alpha, a.data(), K, b.data(), K,
                  beta, c.data(), N);
  const std::uint64_t clean = count_misses(ref, M, N, c.data(), N);

  // Perturb one element by three times its bound, another to NaN.
  const std::size_t e1 = 5 * N + 7, e2 = 30 * N + 3;
  c[e1] = static_cast<T>(static_cast<double>(ref.value[e1]) +
                         3.0 * static_cast<double>(ref.bound[e1]));
  c[e2] = std::numeric_limits<T>::quiet_NaN();
  const std::uint64_t corrupted = count_misses(ref, M, N, c.data(), N);
  const bool ok = clean == 0 && corrupted == 2;
  std::fprintf(stderr,
               "oracle selftest %s: clean output %llu misses (want 0), "
               "corrupted output %llu misses (want 2): %s\n",
               dtype, static_cast<unsigned long long>(clean),
               static_cast<unsigned long long>(corrupted),
               ok ? "ok" : "FAILED");
  return ok;
}

}  // namespace

bool oracle_selftest() {
  const bool f = selftest_one<float>("f32");
  const bool d = selftest_one<double>("f64");
  return f && d;
}

template Reference<float> make_reference<float>(Mode, index_t, index_t,
                                                index_t, float, const float*,
                                                index_t, const float*, index_t,
                                                float, const float*, index_t,
                                                int);
template Reference<double> make_reference<double>(
    Mode, index_t, index_t, index_t, double, const double*, index_t,
    const double*, index_t, double, const double*, index_t, int);
template std::uint64_t count_misses<float>(const Reference<float>&, index_t,
                                           index_t, const float*, index_t);
template std::uint64_t count_misses<double>(const Reference<double>&, index_t,
                                            index_t, const double*, index_t);

}  // namespace ladder
