#include "bulk/core_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/check.hpp"

namespace obx::bulk {

namespace {

struct Region;

/// One lane-tile of one region.  Tasks live in the region's tiles vector
/// (stable addresses — the vector is sized before any task is published),
/// so deques only move pointers.
struct TileTask {
  Region* region = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Chase–Lev work-stealing deque of TileTask pointers (the weak-memory
/// formulation of Lê/Pop/Cohen/Nardelli).  push/pop are owner-only; steal
/// is any-thread.  Cells are atomic pointers: after the owner wraps bottom
/// past a slot a lagging thief may still read it, and the subsequent top
/// CAS tells it the value was stale — a torn non-atomic read there would be
/// UB, an atomic relaxed read is merely discarded.
class WsDeque {
 public:
  explicit WsDeque(std::size_t capacity = 512) : array_(new Array(capacity)) {}
  WsDeque(const WsDeque&) = delete;
  WsDeque& operator=(const WsDeque&) = delete;
  ~WsDeque() {
    delete array_.load(std::memory_order_relaxed);
    for (Array* a : retired_) delete a;
  }

  /// Owner only.  Every owner store to bottom_ is a release store rather than
  /// Lê et al.'s release fence plus relaxed store: a thief's acquire load of
  /// bottom_ then synchronizes with whichever owner store it reads, which
  /// publishes the task contents written before the push.  ThreadSanitizer
  /// does not model atomic_thread_fence, so the fence form reads to it as a
  /// race on the stolen task.
  void push(TileTask* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    Array* a = array_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<std::int64_t>(a->capacity)) a = grow(a, t, b);
    a->put(b, task);
    bottom_.store(b + 1, std::memory_order_release);
  }

  /// Owner only; nullptr when empty (or lost the last-element race).
  TileTask* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Array* a = array_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t > b) {
      bottom_.store(b + 1, std::memory_order_release);
      return nullptr;
    }
    TileTask* task = a->get(b);
    if (t == b) {
      // Last element: race the thieves for it via top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        task = nullptr;
      }
      bottom_.store(b + 1, std::memory_order_release);
    }
    return task;
  }

  /// Any thread; nullptr when empty or on CAS contention (caller retries
  /// elsewhere).
  TileTask* steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return nullptr;
    Array* a = array_.load(std::memory_order_acquire);
    TileTask* task = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;
    }
    return task;
  }

  bool looks_empty() const {
    return top_.load(std::memory_order_acquire) >=
           bottom_.load(std::memory_order_acquire);
  }

 private:
  struct Array {
    explicit Array(std::size_t c)
        : capacity(c), mask(c - 1), cells(new std::atomic<TileTask*>[c]) {}
    ~Array() { delete[] cells; }
    const std::size_t capacity;
    const std::size_t mask;
    std::atomic<TileTask*>* const cells;

    TileTask* get(std::int64_t i) const {
      return cells[static_cast<std::size_t>(i) & mask].load(std::memory_order_relaxed);
    }
    void put(std::int64_t i, TileTask* task) {
      cells[static_cast<std::size_t>(i) & mask].store(task, std::memory_order_relaxed);
    }
  };

  Array* grow(Array* a, std::int64_t t, std::int64_t b) {
    Array* bigger = new Array(a->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, a->get(i));
    // The old array stays readable until the deque dies: a thief that loaded
    // it pre-grow may still index it, and every live index maps to the same
    // task in the new array (or to a stale cell its top CAS will reject).
    retired_.push_back(a);
    array_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<Array*> array_;
  std::vector<Array*> retired_;  // owner-only (mutated under push)
};

/// One fork-join submission, living on the submitter's stack for its whole
/// region (parallel_for does not return until finished() is true, so tasks
/// and body stay valid for every thief).
///
/// Destruction protocol: unfinished hitting 0 is NOT the destruction
/// barrier — the thread that performs the final decrement still has to
/// notify the condvar, i.e. it keeps touching the region after the count
/// reaches zero.  Its very last access is the release store to finished_,
/// and the submitter must observe finished() before returning (and thereby
/// destroying the stack-allocated mutex/condvar).
struct Region {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::vector<TileTask> tiles;
  std::atomic<std::size_t> unfinished{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<bool> failed{false};
  std::atomic<bool> finished_{false};
  std::mutex mutex;  // guards error; also the done-signal rendezvous
  std::condition_variable done;
  std::exception_ptr error;

  bool completed() const { return unfinished.load(std::memory_order_acquire) == 0; }
  /// True once the final completer is done with its last access; only after
  /// this may the submitter destroy the region.
  bool finished() const { return finished_.load(std::memory_order_acquire); }
};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// xorshift64* — cheap per-thread victim selection.
inline std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545f4914f6cdd1dull;
}

bool env_flag_disabled(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return false;
  return std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
         std::strcmp(v, "false") == 0 || std::strcmp(v, "no") == 0;
}

}  // namespace

// ---------------------------------------------------------------------------

struct CorePool::Impl {
  /// Victim table entry.  Worker slots hold their deque for the pool's
  /// lifetime; external-submitter slots hold a stack-allocated deque only
  /// while its region runs, protected by a pin count so a thief never
  /// dereferences a deque whose frame unwound (unregister spins until
  /// pins == 0 *after* nulling the pointer; seq_cst on both sides orders
  /// the thief's pin before its pointer load).
  struct Slot {
    std::atomic<WsDeque*> deque{nullptr};
    std::atomic<std::uint32_t> pins{0};
  };

  struct Worker {
    WsDeque deque;
    std::atomic<std::uint64_t> busy_ns{0};
    std::thread thread;
    unsigned index = 0;
    Impl* pool = nullptr;
  };

  /// The worker this thread is (and whose pool), when it is one: routes
  /// nested submissions to the worker's own deque and keeps nested waits
  /// from parking the worker.
  static thread_local Impl* tls_pool;
  static thread_local Worker* tls_worker;

  Config config;
  unsigned worker_count = 1;
  bool pin = false;

  std::vector<std::unique_ptr<Worker>> workers;

  /// Slots [0, worker_count) are the workers' deques; the rest are claimed
  /// by concurrent external submitters.  slot_high_ is the scan horizon.
  static constexpr std::size_t kExternalSlots = 64;
  std::vector<Slot> slots;
  std::atomic<std::size_t> slot_high{0};

  // Parking (epoch / eventcount): a worker records the epoch under the
  // mutex, re-checks for work, then waits for the epoch to move.  Wakers
  // bump the epoch under the mutex after publishing tasks, so the re-check
  // and the bump cannot interleave into a lost wakeup.
  std::mutex park_mutex;
  std::condition_variable park_cv;
  std::uint64_t park_epoch = 0;  // guarded by park_mutex
  std::atomic<unsigned> sleepers{0};

  // Lifecycle.
  std::once_flag start_once;
  std::atomic<bool> started{false};
  std::atomic<bool> shutdown{false};
  std::mutex region_mutex;
  std::condition_variable regions_done;
  std::size_t active_regions = 0;  // guarded by region_mutex
  bool draining = false;           // guarded by region_mutex

  // Pool-lifetime counters.
  std::atomic<std::uint64_t> tasks_executed{0};
  std::atomic<std::uint64_t> steals{0};
  std::atomic<std::uint64_t> parks{0};
  std::atomic<std::uint64_t> unparks{0};

  // -- submission-side helpers ---------------------------------------------

  void ensure_started() {
    std::call_once(start_once, [this] {
      for (unsigned i = 0; i < worker_count; ++i) {
        auto w = std::make_unique<Worker>();
        w->index = i;
        w->pool = this;
        slots[i].deque.store(&w->deque, std::memory_order_release);
        workers.push_back(std::move(w));
      }
      std::size_t high = worker_count;
      slot_high.store(high, std::memory_order_release);
      for (auto& w : workers) {
        Worker* raw = w.get();
        raw->thread = std::thread([this, raw] { worker_main(*raw); });
      }
      started.store(true, std::memory_order_release);
    });
  }

  Slot* register_external(WsDeque* deque) {
    for (;;) {
      const std::size_t limit = worker_count + kExternalSlots;
      for (std::size_t i = worker_count; i < limit; ++i) {
        WsDeque* expected = nullptr;
        if (slots[i].deque.load(std::memory_order_relaxed) == nullptr &&
            slots[i].deque.compare_exchange_strong(expected, deque,
                                                   std::memory_order_seq_cst)) {
          // Extend the scan horizon to cover this slot.
          std::size_t high = slot_high.load(std::memory_order_relaxed);
          while (high < i + 1 &&
                 !slot_high.compare_exchange_weak(high, i + 1,
                                                  std::memory_order_release)) {
          }
          return &slots[i];
        }
      }
      // More concurrent external submitters than slots: rare and harmless —
      // wait for one to finish.
      std::this_thread::yield();
    }
  }

  void unregister_external(Slot* slot) {
    slot->deque.store(nullptr, std::memory_order_seq_cst);
    while (slot->pins.load(std::memory_order_seq_cst) != 0) cpu_relax();
  }

  // -- stealing -------------------------------------------------------------

  TileTask* steal_from(Slot& slot, const WsDeque* self) {
    slot.pins.fetch_add(1, std::memory_order_seq_cst);
    WsDeque* d = slot.deque.load(std::memory_order_seq_cst);
    TileTask* task = (d != nullptr && d != self) ? d->steal() : nullptr;
    slot.pins.fetch_sub(1, std::memory_order_seq_cst);
    return task;
  }

  TileTask* try_steal(const WsDeque* self, std::uint64_t& rng) {
    const std::size_t high = slot_high.load(std::memory_order_acquire);
    if (high == 0) return nullptr;
    const std::size_t start = static_cast<std::size_t>(next_rand(rng)) % high;
    for (std::size_t k = 0; k < high; ++k) {
      if (TileTask* t = steal_from(slots[(start + k) % high], self)) return t;
    }
    return nullptr;
  }

  bool any_work() {
    const std::size_t high = slot_high.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < high; ++i) {
      Slot& s = slots[i];
      s.pins.fetch_add(1, std::memory_order_seq_cst);
      WsDeque* d = s.deque.load(std::memory_order_seq_cst);
      const bool nonempty = d != nullptr && !d->looks_empty();
      s.pins.fetch_sub(1, std::memory_order_seq_cst);
      if (nonempty) return true;
    }
    return false;
  }

  // -- execution ------------------------------------------------------------

  void run_task(TileTask* task, Worker* self, bool stolen) {
    Region* r = task->region;
    if (stolen) {
      steals.fetch_add(1, std::memory_order_relaxed);
      r->steals.fetch_add(1, std::memory_order_relaxed);
    }
    if (!r->failed.load(std::memory_order_acquire)) {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        (*r->body)(task->begin, task->end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(r->mutex);
        if (!r->failed.load(std::memory_order_relaxed)) {
          r->error = std::current_exception();
          r->failed.store(true, std::memory_order_release);
        }
      }
      if (self != nullptr) {
        const auto t1 = std::chrono::steady_clock::now();
        self->busy_ns.fetch_add(
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()),
            std::memory_order_relaxed);
      }
    }
    tasks_executed.fetch_add(1, std::memory_order_relaxed);
    if (r->unfinished.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last tile: rendezvous through the mutex so a submitter that checked
      // completed() and decided to sleep cannot miss this notify.  The
      // submitter does not return until finished() is true, so the region
      // (mutex + condvar) stays alive through the notify; the finished_
      // store is our very last access and releases it for destruction.
      {
        std::lock_guard<std::mutex> lock(r->mutex);
        r->done.notify_all();
      }
      r->finished_.store(true, std::memory_order_release);
    }
  }

  // -- worker loop ----------------------------------------------------------

  void pin_worker(unsigned index) {
#if defined(__linux__)
    cpu_set_t available;
    CPU_ZERO(&available);
    if (sched_getaffinity(0, sizeof(available), &available) != 0) return;
    std::vector<std::size_t> cpus;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &available)) cpus.push_back(cpu);
    }
    if (cpus.empty()) return;
    cpu_set_t target;
    CPU_ZERO(&target);
    CPU_SET(cpus[index % cpus.size()], &target);
    // Best effort: a failure (restrictive cgroup, exotic libc) just leaves
    // the worker floating.
    (void)pthread_setaffinity_np(pthread_self(), sizeof(target), &target);
#else
    (void)index;
#endif
  }

  void worker_main(Worker& w) {
    tls_pool = this;
    tls_worker = &w;
    if (pin) pin_worker(w.index);
    std::uint64_t rng = 0x9e3779b97f4a7c15ull ^ (w.index + 1);
    while (!shutdown.load(std::memory_order_acquire)) {
      TileTask* task = w.deque.pop();
      bool stolen = false;
      if (task == nullptr) {
        task = try_steal(&w.deque, rng);
        stolen = task != nullptr;
      }
      if (task != nullptr) {
        run_task(task, &w, stolen);
        continue;
      }
      // Idle: bounded spin with periodic steal probes, then park.
      bool found = false;
      for (std::size_t i = 0; i < config.spin_iterations; ++i) {
        cpu_relax();
        if ((i & 63u) == 63u) {
          if ((task = try_steal(&w.deque, rng)) != nullptr) {
            found = true;
            break;
          }
          if (shutdown.load(std::memory_order_acquire)) break;
        }
      }
      if (found) {
        run_task(task, &w, /*stolen=*/true);
        continue;
      }
      park();
    }
  }

  void park() {
    std::unique_lock<std::mutex> lock(park_mutex);
    const std::uint64_t epoch = park_epoch;
    lock.unlock();
    sleepers.fetch_add(1, std::memory_order_seq_cst);
    // Pairs with the fence in wake_workers(): orders the sleepers increment
    // before the any_work() scan in the seq_cst total order.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Re-check after announcing ourselves: a submitter that pushed before
    // seeing sleepers > 0 left its tasks visible here.
    if (any_work() || shutdown.load(std::memory_order_seq_cst)) {
      sleepers.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    parks.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    park_cv.wait(lock, [&] {
      return park_epoch != epoch || shutdown.load(std::memory_order_relaxed);
    });
    lock.unlock();
    sleepers.fetch_sub(1, std::memory_order_relaxed);
  }

  void wake_workers(unsigned want) {
    if (want == 0) return;
    // Dekker handshake with park(): the task pushes above us are relaxed
    // bottom_ stores behind a release fence, which the parker's acquire
    // loads in any_work() can miss while we simultaneously miss its
    // sleepers increment (store-buffer litmus).  This fence pairs with the
    // seq_cst fetch_add in park() so one side must see the other: either
    // we observe sleepers > 0, or the parker observes our tasks.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) == 0) return;
    {
      std::lock_guard<std::mutex> lock(park_mutex);
      ++park_epoch;
    }
    unparks.fetch_add(want, std::memory_order_relaxed);
    if (want >= worker_count) {
      park_cv.notify_all();
    } else {
      for (unsigned i = 0; i < want; ++i) park_cv.notify_one();
    }
  }
};

// ---------------------------------------------------------------------------

thread_local CorePool::Impl* CorePool::Impl::tls_pool = nullptr;
thread_local CorePool::Impl::Worker* CorePool::Impl::tls_worker = nullptr;

CorePool::CorePool(Config config) : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  impl_->worker_count =
      config.workers == 0 ? default_worker_count() : std::max(1u, config.workers);
  impl_->pin = config.pin < 0 ? pinning_enabled() : config.pin != 0;
  impl_->slots =
      std::vector<Impl::Slot>(impl_->worker_count + Impl::kExternalSlots);
}

CorePool::~CorePool() {
  {
    // Refuse new regions, then wait for in-flight ones: their tasks point
    // into stacks we are about to stop servicing.
    std::unique_lock<std::mutex> lock(impl_->region_mutex);
    impl_->draining = true;
    impl_->regions_done.wait(lock, [&] { return impl_->active_regions == 0; });
  }
  impl_->shutdown.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(impl_->park_mutex);
    ++impl_->park_epoch;
  }
  impl_->park_cv.notify_all();
  for (auto& w : impl_->workers) {
    if (w->thread.joinable()) w->thread.join();
  }
}

unsigned CorePool::worker_count() const { return impl_->worker_count; }

bool CorePool::pinning() const { return impl_->pin; }

SchedulerStats CorePool::parallel_for(
    std::size_t count, std::size_t align, std::size_t grain, unsigned max_workers,
    const std::function<void(std::size_t, std::size_t)>& body) {
  OBX_CHECK(align > 0, "alignment must be positive");
  SchedulerStats stats;
  if (count == 0) return stats;

  // Tile grain: a positive align-multiple, clamped to the region.
  std::size_t g = std::max(grain, align);
  g -= g % align;
  g = std::min(g, count);
  const std::size_t tiles = (count + g - 1) / g;

  const unsigned used = static_cast<unsigned>(
      std::min<std::size_t>(std::max(1u, max_workers), tiles));
  if (used == 1) {
    body(0, count);
    stats.tasks = 1;
    return stats;
  }

  Impl& impl = *impl_;
  impl.ensure_started();
  {
    std::lock_guard<std::mutex> lock(impl.region_mutex);
    OBX_CHECK(!impl.draining, "CorePool is shutting down");
    ++impl.active_regions;
  }

  Region region;
  region.body = &body;
  region.tiles.reserve(tiles);
  for (std::size_t base = 0; base < count; base += g) {
    region.tiles.push_back(TileTask{&region, base, std::min(base + g, count)});
  }
  region.unfinished.store(region.tiles.size(), std::memory_order_relaxed);

  // Home deque: a worker submits into its own; an external thread registers
  // a stack-local deque as a steal victim for the duration of the region.
  const bool nested = Impl::tls_pool == &impl && Impl::tls_worker != nullptr;
  Impl::Worker* self = nested ? Impl::tls_worker : nullptr;
  WsDeque* home = nullptr;
  WsDeque local;
  Impl::Slot* slot = nullptr;
  if (nested) {
    home = &self->deque;
  } else {
    home = &local;
    slot = impl.register_external(&local);
  }
  for (TileTask& t : region.tiles) home->push(&t);
  impl.wake_workers(std::min(used - 1, impl.worker_count));

  // Participate: drain our own deque.  Tiles that were stolen finish on the
  // thief; we spin briefly for them, then (external submitters only) park on
  // the region condvar.  A worker submitter never parks — its condvar wait
  // could deadlock the pool — it yields until the thief finishes.  The exit
  // condition is finished(), not completed(): the final completer still
  // locks and notifies the condvar after the count hits zero, so returning
  // on completed() alone could destroy the stack-allocated mutex under it.
  std::size_t spins = 0;
  while (!region.finished()) {
    if (TileTask* t = home->pop()) {
      impl.run_task(t, self, /*stolen=*/false);
      spins = 0;
      continue;
    }
    if (region.finished()) break;
    if (++spins < impl.config.spin_iterations) {
      cpu_relax();
      continue;
    }
    if (nested) {
      std::this_thread::yield();
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(region.mutex);
      if (!region.completed()) {
        ++stats.parks;
        // Predicate stays completed(): finished_ is set only after the
        // notify, so waiting on it could sleep through the one wakeup.
        region.done.wait(lock, [&] { return region.completed(); });
      }
    }
    // completed() precedes finished() by a few completer instructions
    // (notify + unlock + store); wait them out before the region unwinds.
    while (!region.finished()) cpu_relax();
    break;
  }

  if (slot != nullptr) impl.unregister_external(slot);
  {
    std::lock_guard<std::mutex> lock(impl.region_mutex);
    if (--impl.active_regions == 0) impl.regions_done.notify_all();
  }

  stats.tasks = region.tiles.size();
  stats.steals = region.steals.load(std::memory_order_relaxed);
  if (region.error != nullptr) std::rethrow_exception(region.error);
  return stats;
}

CorePool::CountersSnapshot CorePool::counters() const {
  const Impl& impl = *impl_;
  CountersSnapshot snap;
  snap.tasks = impl.tasks_executed.load(std::memory_order_relaxed);
  snap.steals = impl.steals.load(std::memory_order_relaxed);
  snap.parks = impl.parks.load(std::memory_order_relaxed);
  snap.unparks = impl.unparks.load(std::memory_order_relaxed);
  snap.pinned = impl.pin;
  if (impl.started.load(std::memory_order_acquire)) {
    snap.worker_busy_ns.reserve(impl.workers.size());
    for (const auto& w : impl.workers) {
      snap.worker_busy_ns.push_back(w->busy_ns.load(std::memory_order_relaxed));
    }
  } else {
    snap.worker_busy_ns.assign(impl.worker_count, 0);
  }
  return snap;
}

CorePool& CorePool::instance() {
  // Function-local static: destroyed at exit after main's executors, joining
  // the workers so LeakSanitizer sees a clean shutdown.
  static CorePool pool;
  return pool;
}

bool CorePool::pinning_enabled() {
#if defined(__linux__)
  static const bool enabled = !env_flag_disabled("OBX_PIN");
  return enabled;
#else
  return false;
#endif
}

unsigned default_worker_count() {
  // Latched once: the shared pool sizes itself from this, so a mid-process
  // env change must not make plans and pool topology disagree.
  static const unsigned count = [] {
    if (const char* env = std::getenv("OBX_WORKERS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) {
        return static_cast<unsigned>(std::min<long>(v, 1024));
      }
    }
    unsigned n = 0;
#if defined(__linux__)
    // The CPUs this process may actually run on (taskset / cgroup cpusets),
    // not the machine total: oversubscribing a container quota just adds
    // context switches.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      n = static_cast<unsigned>(CPU_COUNT(&set));
    }
#endif
    if (n == 0) n = std::thread::hardware_concurrency();
    return std::max(1u, n);
  }();
  return count;
}

std::size_t chunk_grain(std::size_t count, std::size_t align, unsigned workers) {
  const std::size_t blocks = std::max<std::size_t>(count / std::max<std::size_t>(align, 1), 1);
  const std::size_t per = std::max<std::size_t>(
      blocks / (std::size_t{std::max(1u, workers)} * 4), 1);
  return per * std::max<std::size_t>(align, 1);
}

}  // namespace obx::bulk
