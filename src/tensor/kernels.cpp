#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "obs/registry.hpp"
#include "tensor/kern_math.hpp"
#include "util/affinity.hpp"

namespace easz::tensor::kern {

// ---- thread pool ----------------------------------------------------------

namespace {

// One idle-spin step: keep the core's pipeline polite while watching the
// job epoch, without yielding the timeslice (the whole point of spinning
// is sub-microsecond wakeup for the next GEMM burst).
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Pool telemetry (obs::Registry::global(), DESIGN.md §8.2). References are
// resolved once — recording is a single relaxed atomic add, cheap enough
// for the per-chunk path.
//   kern.pool.jobs           parallel_for calls dispatched to the pool
//   kern.pool.inline_jobs    parallel_for calls run inline (1 lane / 1 chunk)
//   kern.pool.chunks_stolen  chunks executed by worker lanes (the rest ran
//                            on the calling lane — steal ratio gauges how
//                            well GEMM panels actually spread)
//   kern.pool.idle_waits     times a worker found the queue empty and slept
//   kern.pool.parked         workers currently parked on the cv (gauge) —
//                            lanes_-1 at rest, dipping toward 0 under load;
//                            spinning lanes are NOT parked, so a steady
//                            nonzero dip with no jobs means the spin window
//                            is too long
struct PoolMetrics {
  obs::Counter& jobs = obs::Registry::global().counter("kern.pool.jobs");
  obs::Counter& inline_jobs =
      obs::Registry::global().counter("kern.pool.inline_jobs");
  obs::Counter& chunks_stolen =
      obs::Registry::global().counter("kern.pool.chunks_stolen");
  obs::Counter& idle_waits =
      obs::Registry::global().counter("kern.pool.idle_waits");
  obs::Gauge& parked = obs::Registry::global().gauge("kern.pool.parked");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

struct Job {
  void (*fn)(void*, int) = nullptr;
  void* ctx = nullptr;
  int count = 0;
  int next_claim = 0;  // guarded by the pool mutex
  std::atomic<int> remaining{0};
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  Job* link = nullptr;  // FIFO queue, guarded by the pool mutex
};

// Persistent pool. Jobs live on their caller's stack; workers reach them
// only through the queue, and a caller unlinks its job before destroying
// it, so no heap allocation happens per parallel_for.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  ~Pool() { stop_workers(); }

  int lanes() const { return lanes_.load(std::memory_order_relaxed); }

  void resize(int n) {
    // Serialized against concurrent resizes (e.g. two servers constructed
    // on different threads); still must not overlap an in-flight
    // parallel_for, per the header contract.
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    n = std::max(1, n);
    if (n == lanes()) return;
    stop_workers();
    lanes_.store(n, std::memory_order_relaxed);
    spawn_workers();
  }

  void set_pin(bool pin) {
    std::lock_guard<std::mutex> resize_lock(resize_mu_);
    if (pin == pin_.load(std::memory_order_relaxed)) return;
    stop_workers();
    pin_.store(pin, std::memory_order_relaxed);
    spawn_workers();
  }

  bool pinned() const { return pin_.load(std::memory_order_relaxed); }

  void run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (tail_ != nullptr) {
        tail_->link = &job;
      } else {
        head_ = &job;
      }
      tail_ = &job;
    }
    // Release-publish the enqueue to spinning lanes: a spinner that sees
    // the new epoch relocks and finds the job without a cv round trip.
    job_epoch_.fetch_add(1, std::memory_order_release);
    cv_.notify_all();

    // The caller is a lane too: claim panels from its own job until none
    // are left. This guarantees completion even with zero workers.
    work(job);

    // Unlink before the stack frame dies; a worker that saw the exhausted
    // job pops it itself, so the job may or may not still be queued.
    {
      std::lock_guard<std::mutex> lock(mu_);
      unlink_locked(job);
    }
    std::unique_lock<std::mutex> lock(job.done_mu);
    job.done_cv.wait(lock, [&job] { return job.done; });
  }

 private:
  // The metrics (and the obs registry behind them) are created before any
  // worker exists, so they finish construction first and are destroyed
  // after ~Pool has joined every worker. Created lazily by the first
  // worker instead, they died first and ~Pool's wakeups wrote to a freed
  // gauge at exit.
  Pool() : lanes_(default_threads()) {
    pool_metrics();
    spawn_workers();
  }

  void spawn_workers() {
    stop_.store(false, std::memory_order_relaxed);
    const int n = lanes() - 1;
    workers_.reserve(static_cast<std::size_t>(std::max(0, n)));
    for (int i = 0; i < n; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true, std::memory_order_release);
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
    workers_.clear();
  }

  void unlink_locked(Job& job) {
    Job** pp = &head_;
    while (*pp != nullptr && *pp != &job) pp = &(*pp)->link;
    if (*pp == &job) *pp = job.link;
    tail_ = nullptr;
    for (Job* j = head_; j != nullptr; j = j->link) tail_ = j;
  }

  static void finish_chunk(Job& job) {
    if (job.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(job.done_mu);
      job.done = true;
      job.done_cv.notify_all();
    }
  }

  void work(Job& job) {
    for (;;) {
      int i;
      {
        std::lock_guard<std::mutex> lock(mu_);
        i = job.next_claim++;
      }
      if (i >= job.count) return;
      job.fn(job.ctx, i);
      finish_chunk(job);
    }
  }

  // A lane with no queued work spins this many relax iterations watching
  // the job epoch before parking on the cv. GEMM jobs arrive in bursts a
  // few microseconds apart during a pooled forward; a parked lane pays a
  // futex wake + scheduler hop per job, a spinning lane picks the next one
  // up in nanoseconds. The bound keeps a stage-idle pipeline worker's
  // lanes (serve, DESIGN.md §9.1) from burning cycles the busy stage needs:
  // ~4k pauses is a handful of microseconds, then the lane parks for real.
  static constexpr int kIdleSpins = 4096;

  void worker_loop(int lane_index) {
    if (pin_.load(std::memory_order_relaxed)) {
      // Lane 0 is whatever thread calls run(); offset so dedicated lanes
      // spread over the remaining allowed CPUs. Best-effort by contract.
      util::pin_current_thread_to_cpu(lane_index + 1);
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (head_ == nullptr && !stop_.load(std::memory_order_relaxed)) {
        // Bounded spin-then-park: drop the lock, watch the epoch.
        const std::uint64_t epoch =
            job_epoch_.load(std::memory_order_relaxed);
        lock.unlock();
        bool signalled = false;
        for (int spin = 0; spin < kIdleSpins; ++spin) {
          if (job_epoch_.load(std::memory_order_acquire) != epoch ||
              stop_.load(std::memory_order_acquire)) {
            signalled = true;
            break;
          }
          cpu_relax();
        }
        lock.lock();
        if (!signalled && head_ == nullptr &&
            !stop_.load(std::memory_order_relaxed)) {
          pool_metrics().idle_waits.add();
          pool_metrics().parked.add(1);
          cv_.wait(lock, [this] {
            return stop_.load(std::memory_order_relaxed) || head_ != nullptr;
          });
          pool_metrics().parked.add(-1);
        }
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      Job* job = head_;
      if (job == nullptr) continue;
      const int i = job->next_claim++;
      if (i >= job->count) {
        // Exhausted: pop and look for the next job. In-flight chunks of
        // this job finish on the lanes that claimed them.
        head_ = job->link;
        if (head_ == nullptr) tail_ = nullptr;
        continue;
      }
      lock.unlock();
      job->fn(job->ctx, i);
      pool_metrics().chunks_stolen.add();
      finish_chunk(*job);
      lock.lock();
    }
  }

  std::atomic<int> lanes_;
  std::atomic<bool> pin_{false};
  // Bumped (release) on every enqueue so spinning lanes detect new work
  // without taking mu_; stop_ is atomic for the same lock-free spin reads.
  std::atomic<std::uint64_t> job_epoch_{0};
  std::atomic<bool> stop_{false};
  std::mutex resize_mu_;
  std::mutex mu_;
  std::condition_variable cv_;
  Job* head_ = nullptr;
  Job* tail_ = nullptr;
  std::vector<std::thread> workers_;
};

}  // namespace

int default_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

void set_threads(int n) { Pool::instance().resize(n); }

int threads() { return Pool::instance().lanes(); }

void set_pin_threads(bool pin) { Pool::instance().set_pin(pin); }

bool pin_threads() { return Pool::instance().pinned(); }

namespace detail {

void parallel_for_impl(int count, void (*fn)(void*, int), void* ctx) {
  if (count <= 0) return;
  Pool& pool = Pool::instance();
  if (count == 1 || pool.lanes() <= 1) {
    pool_metrics().inline_jobs.add();
    for (int i = 0; i < count; ++i) fn(ctx, i);
    return;
  }
  pool_metrics().jobs.add();
  Job job;
  job.fn = fn;
  job.ctx = ctx;
  job.count = count;
  job.remaining.store(count, std::memory_order_relaxed);
  pool.run(job);
}

}  // namespace detail

// ---- workspace ------------------------------------------------------------

float* Workspace::alloc(std::size_t n) {
  if (n == 0) n = 1;
  for (Block& block : blocks_) {
    if (block.data.size() - block.used >= n) {
      float* p = block.data.data() + block.used;
      block.used += n;
      return p;
    }
  }
  ++grows_;
  blocks_.emplace_back();
  Block& block = blocks_.back();
  block.data.resize(std::max(n, kMinBlockFloats));
  block.used = n;
  return block.data.data();
}

void Workspace::reset() {
  for (Block& block : blocks_) block.used = 0;
}

std::size_t Workspace::capacity_floats() const {
  std::size_t total = 0;
  for (const Block& block : blocks_) total += block.data.size();
  return total;
}

Workspace& Workspace::for_this_thread() {
  static thread_local Workspace ws;
  return ws;
}

// ---- transcendental approximations ----------------------------------------
//
// fast_exp / gelu_approx and their 8-lane AVX2 twins fast_exp_v8 / gelu_v8
// live in kern_math.hpp (shared with the int8 epilogue in
// kernels_int8.cpp). The scalar functions do not autovectorise, so the
// GELU and softmax exp passes below call the twins explicitly, from
// target("avx2") functions without FMA so the twins stay bit-identical to
// the baseline scalar build (kern_math.hpp says why).

namespace {

using detail::fast_exp;
using detail::gelu_approx;

}  // namespace

float gelu_scalar(float x) { return gelu_approx(x); }

// ---- GEMM -----------------------------------------------------------------

namespace {

// Micro-tile: kMr row accumulator strips of kNc floats (3 AVX2 registers
// each) live across the whole k loop, so each output element is one
// ascending-k accumulation chain — the same per-element summation order as
// the autograd matmul, just held in registers instead of memory.
constexpr int kMr = 4;
constexpr int kNc = 24;

// Work below this m*n*k stays on the calling thread (panel dispatch costs
// more than it saves). Matches the OpenMP gate the autograd matmul used.
constexpr std::size_t kParallelMinFlops = 65536;

// In-place GELU over `rows` rows of `n` floats, row stride ldc. Runs once
// per stored row strip, while the strip is still in L1.
using GeluRowsFn = void (*)(float* c, std::size_t ldc, int rows, int n);

void gelu_rows_base(float* c, std::size_t ldc, int rows, int n) {
  for (int r = 0; r < rows; ++r) {
    float* row = c + static_cast<std::size_t>(r) * ldc;
    for (int j = 0; j < n; ++j) row[j] = gelu_approx(row[j]);
  }
}

#ifdef EASZ_KERN_X86_AVX2
// avx2 WITHOUT fma, and never inlined into the avx2+fma GEMM: the twin and
// the scalar tail then round exactly like gelu_rows_base.
__attribute__((target("avx2"), noinline)) void gelu_rows_avx2(
    float* c, std::size_t ldc, int rows, int n) {
  for (int r = 0; r < rows; ++r) {
    float* row = c + static_cast<std::size_t>(r) * ldc;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm256_storeu_ps(row + j, detail::gelu_v8(_mm256_loadu_ps(row + j)));
    }
    for (; j < n; ++j) row[j] = gelu_approx(row[j]);
  }
}
#endif

// Tile store epilogue: scale, then bias. The bias test is hoisted out of
// the column loop, so both loops are branch-free and vectorise.
__attribute__((always_inline)) inline void store_row(float* crow,
                                                     const float* acc,
                                                     int cols,
                                                     const float* bias,
                                                     float scale) {
  if (bias != nullptr) {
    for (int cc = 0; cc < cols; ++cc) crow[cc] = acc[cc] * scale + bias[cc];
  } else {
    for (int cc = 0; cc < cols; ++cc) crow[cc] = acc[cc] * scale;
  }
}

// The body is ISA-neutral and always_inline: each dispatch wrapper below
// pulls it in and compiles it for its own target, which is what makes the
// cc loops vectorise with AVX2+FMA where available. `gelu_rows` (null: no
// GELU) runs over each finished strip of kMr rows.
__attribute__((always_inline)) inline void gemm_rows_body(
    const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
    std::size_t ldc, int m, int k, int n, const float* bias,
    GeluRowsFn gelu_rows, float scale) {
  const auto bias_at = [bias](int j) {
    return bias == nullptr ? nullptr : bias + j;
  };
  int i = 0;
  for (; i + kMr <= m; i += kMr) {
    int j = 0;
    for (; j + kNc <= n; j += kNc) {
      float acc[kMr][kNc] = {};
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<std::size_t>(p) * ldb + j;
        for (int r = 0; r < kMr; ++r) {
          const float ar = a[static_cast<std::size_t>(i + r) * lda + p];
          for (int cc = 0; cc < kNc; ++cc) acc[r][cc] += ar * brow[cc];
        }
      }
      for (int r = 0; r < kMr; ++r) {
        store_row(c + static_cast<std::size_t>(i + r) * ldc + j, acc[r], kNc,
                  bias_at(j), scale);
      }
    }
    if (j < n) {  // column remainder, nr < kNc (runtime bound vectorises)
      const int nr = n - j;
      float acc[kMr][kNc] = {};
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<std::size_t>(p) * ldb + j;
        for (int r = 0; r < kMr; ++r) {
          const float ar = a[static_cast<std::size_t>(i + r) * lda + p];
          for (int cc = 0; cc < nr; ++cc) acc[r][cc] += ar * brow[cc];
        }
      }
      for (int r = 0; r < kMr; ++r) {
        store_row(c + static_cast<std::size_t>(i + r) * ldc + j, acc[r], nr,
                  bias_at(j), scale);
      }
    }
    if (gelu_rows != nullptr) {
      gelu_rows(c + static_cast<std::size_t>(i) * ldc, ldc, kMr, n);
    }
  }
  if (i < m) {  // row remainder, mr < kMr
    const int mr = m - i;
    for (int j = 0; j < n; j += kNc) {
      const int nr = std::min(kNc, n - j);
      float acc[kMr][kNc] = {};
      for (int p = 0; p < k; ++p) {
        const float* brow = b + static_cast<std::size_t>(p) * ldb + j;
        for (int r = 0; r < mr; ++r) {
          const float ar = a[static_cast<std::size_t>(i + r) * lda + p];
          for (int cc = 0; cc < nr; ++cc) acc[r][cc] += ar * brow[cc];
        }
      }
      for (int r = 0; r < mr; ++r) {
        store_row(c + static_cast<std::size_t>(i + r) * ldc + j, acc[r], nr,
                  bias_at(j), scale);
      }
    }
    if (gelu_rows != nullptr) {
      gelu_rows(c + static_cast<std::size_t>(i) * ldc, ldc, mr, n);
    }
  }
}

#ifdef EASZ_KERN_X86_AVX2
__attribute__((target("avx2,fma"))) void gemm_rows_avx2(
    const float* a, std::size_t lda, const float* b, std::size_t ldb, float* c,
    std::size_t ldc, int m, int k, int n, const float* bias, bool gelu,
    float scale) {
  gemm_rows_body(a, lda, b, ldb, c, ldc, m, k, n, bias,
                 gelu ? gelu_rows_avx2 : nullptr, scale);
}
#endif

void gemm_rows_base(const float* a, std::size_t lda, const float* b,
                    std::size_t ldb, float* c, std::size_t ldc, int m, int k,
                    int n, const float* bias, bool gelu, float scale) {
  gemm_rows_body(a, lda, b, ldb, c, ldc, m, k, n, bias,
                 gelu ? gelu_rows_base : nullptr, scale);
}

void gemm_rows(const float* a, std::size_t lda, const float* b,
               std::size_t ldb, float* c, std::size_t ldc, int m, int k, int n,
               const GemmOpts& o) {
#ifdef EASZ_KERN_X86_AVX2
  static const bool use_avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (use_avx2) {
    gemm_rows_avx2(a, lda, b, ldb, c, ldc, m, k, n, o.bias, o.gelu, o.scale);
    return;
  }
#endif
  gemm_rows_base(a, lda, b, ldb, c, ldc, m, k, n, o.bias, o.gelu, o.scale);
}

// Grow-only per-thread scratch for the transpose-B pack. Steady state:
// zero allocations (it never shrinks).
std::vector<float>& pack_scratch() {
  static thread_local std::vector<float> scratch;
  return scratch;
}

}  // namespace

void gemm(const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, int m, int k, int n,
          const GemmOpts& opts) {
  if (m <= 0 || n <= 0 || k <= 0) return;

  GemmOpts o = opts;
  if (o.transpose_b) {
    // Pack B^T ([n, k] row-major -> [k, n]) into thread-local scratch and
    // fall through to the streaming kernel. Packing only moves data, so
    // the per-element accumulation order is untouched; the O(k*n) copy is
    // paid back by contiguous loads in the O(m*k*n) loop.
    std::vector<float>& scratch = pack_scratch();
    const std::size_t need = static_cast<std::size_t>(k) * n;
    if (scratch.size() < need) scratch.resize(need);
    for (int j = 0; j < n; ++j) {
      const float* brow = b + static_cast<std::size_t>(j) * ldb;
      for (int p = 0; p < k; ++p) {
        scratch[static_cast<std::size_t>(p) * n + j] = brow[p];
      }
    }
    b = scratch.data();
    ldb = static_cast<std::size_t>(n);
    o.transpose_b = false;
  }

  const std::size_t work = static_cast<std::size_t>(m) * n * k;
  const int lanes = threads();
  if (!o.parallel || lanes <= 1 || work < kParallelMinFlops) {
    gemm_rows(a, lda, b, ldb, c, ldc, m, k, n, o);
    return;
  }
  // Row panels, a multiple of the micro-tile height so every row keeps the
  // same full-tile/remainder classification whatever the lane count; ~4
  // panels per lane so fast lanes steal the stragglers' leftovers.
  int panel = (m + lanes * 4 - 1) / (lanes * 4);
  panel = std::max(kMr, (panel + kMr - 1) / kMr * kMr);
  const int panels = (m + panel - 1) / panel;
  parallel_for(panels, [&](int pi) {
    const int r0 = pi * panel;
    const int rows = std::min(panel, m - r0);
    gemm_rows(a + static_cast<std::size_t>(r0) * lda, lda, b, ldb,
              c + static_cast<std::size_t>(r0) * ldc, ldc, rows, k, n, o);
  });
}

// ---- fused row kernels ----------------------------------------------------

namespace {

// Eight-lane max reduction: a sequential float max loop compiles to a
// data-dependent branch (mispredicting on random scores); splitting into
// lanes is branchless and vector-friendly, and max is exact, so any
// reduction order yields the identical maximum.
__attribute__((always_inline)) inline float row_max(const float* row, int d) {
  if (d >= 8) {
    float lanes[8];
    for (int c = 0; c < 8; ++c) lanes[c] = row[c];
    int j = 8;
    for (; j + 8 <= d; j += 8) {
      for (int c = 0; c < 8; ++c) lanes[c] = std::max(lanes[c], row[j + c]);
    }
    float mx = lanes[0];
    for (int c = 1; c < 8; ++c) mx = std::max(mx, lanes[c]);
    for (; j < d; ++j) mx = std::max(mx, row[j]);
    return mx;
  }
  float mx = row[0];
  for (int j = 1; j < d; ++j) mx = std::max(mx, row[j]);
  return mx;
}

// Same shape as the autograd softmax: stable max-shift, exponentiate,
// sequentially-ordered denominator sum (keeps the summation order), scale.
// Only the exp is approximated and the max reduced in lanes.
void softmax_span_base(float* x, std::size_t rows, int d) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = x + r * static_cast<std::size_t>(d);
    const float mx = row_max(row, d);
    for (int j = 0; j < d; ++j) row[j] = fast_exp(row[j] - mx);
    float denom = 0.0F;
    for (int j = 0; j < d; ++j) denom += row[j];
    const float inv = 1.0F / denom;
    for (int j = 0; j < d; ++j) row[j] *= inv;
  }
}

#ifdef EASZ_KERN_X86_AVX2
// softmax_span_base with the exp taken 8 lanes at a time by fast_exp_v8.
// avx2 without fma, so every step rounds like the baseline build.
__attribute__((target("avx2"))) void softmax_span_avx2(float* x,
                                                       std::size_t rows,
                                                       int d) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = x + r * static_cast<std::size_t>(d);
    const float mx = row_max(row, d);
    const __m256 vmx = _mm256_set1_ps(mx);
    int j = 0;
    for (; j + 8 <= d; j += 8) {
      _mm256_storeu_ps(row + j, detail::fast_exp_v8(_mm256_sub_ps(
                                    _mm256_loadu_ps(row + j), vmx)));
    }
    for (; j < d; ++j) row[j] = fast_exp(row[j] - mx);
    float denom = 0.0F;
    for (j = 0; j < d; ++j) denom += row[j];
    const float inv = 1.0F / denom;
    for (j = 0; j < d; ++j) row[j] *= inv;
  }
}
#endif

void softmax_span(float* x, std::size_t rows, int d) {
#ifdef EASZ_KERN_X86_AVX2
  static const bool use_avx2 = __builtin_cpu_supports("avx2");
  if (use_avx2) {
    softmax_span_avx2(x, rows, d);
    return;
  }
#endif
  softmax_span_base(x, rows, d);
}

void layernorm_span(const float* x, const float* gamma, const float* beta,
                    float* y, std::size_t rows, int d, float eps) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* xr = x + r * static_cast<std::size_t>(d);
    float* yr = y + r * static_cast<std::size_t>(d);
    float mu = 0.0F;
    for (int j = 0; j < d; ++j) mu += xr[j];
    mu /= static_cast<float>(d);
    float var = 0.0F;
    for (int j = 0; j < d; ++j) {
      const float cjm = xr[j] - mu;
      var += cjm * cjm;
    }
    var /= static_cast<float>(d);
    const float inv_sd = 1.0F / std::sqrt(var + eps);
    for (int j = 0; j < d; ++j) {
      yr[j] = (xr[j] - mu) * inv_sd * gamma[j] + beta[j];
    }
  }
}

// Splits `rows` into ~4 chunks per lane and runs `fn(first, count)`.
template <typename F>
void parallel_rows(std::size_t rows, std::size_t min_rows, bool parallel,
                   F&& fn) {
  const int lanes = threads();
  if (!parallel || lanes <= 1 || rows < min_rows) {
    fn(static_cast<std::size_t>(0), rows);
    return;
  }
  const std::size_t chunk =
      std::max<std::size_t>(1, rows / (static_cast<std::size_t>(lanes) * 4));
  const int chunks = static_cast<int>((rows + chunk - 1) / chunk);
  parallel_for(chunks, [&](int ci) {
    const std::size_t first = static_cast<std::size_t>(ci) * chunk;
    fn(first, std::min(chunk, rows - first));
  });
}

}  // namespace

void softmax_rows(float* x, std::size_t rows, int d, bool parallel) {
  if (rows == 0 || d <= 0) return;
  parallel_rows(rows, 256, parallel, [&](std::size_t first, std::size_t n) {
    softmax_span(x + first * static_cast<std::size_t>(d), n, d);
  });
}

void layernorm_rows(const float* x, const float* gamma, const float* beta,
                    float* y, std::size_t rows, int d, float eps,
                    bool parallel) {
  if (rows == 0 || d <= 0) return;
  parallel_rows(rows, 256, parallel, [&](std::size_t first, std::size_t n) {
    const std::size_t off = first * static_cast<std::size_t>(d);
    layernorm_span(x + off, gamma, beta, y + off, n, d, eps);
  });
}

void add_rows(const float* a, const float* b, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

}  // namespace easz::tensor::kern
