#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace alsmf {

/// One parallel_for call; lives on its caller's stack.
struct ThreadPool::Job {
  const std::function<void(std::size_t, std::size_t, unsigned)>* fn = nullptr;
  std::size_t end = 0;
  std::size_t chunk = 0;          // indices per claimed chunk
  std::atomic<std::size_t> next;  // next unclaimed begin; never passes end
  unsigned helpers = 0;           // workers inside run_chunks (guarded by m_)
  std::condition_variable done;   // signalled when helpers drops to 0
  std::exception_ptr error;       // first exception (guarded by m_)
};

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads ? threads : std::thread::hardware_concurrency();
  n = std::max(1u, n);
  workers_.reserve(n - 1);
  // Index 0 belongs to whichever thread calls parallel_for.
  for (unsigned i = 1; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lk(m_);
    stop_ = true;
  }
  cv_work_.notify_all();
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, unsigned)>& fn) {
  if (begin >= end) return;  // empty/reversed ranges: documented no-op
  const std::size_t n = end - begin;
  // Small ranges: run inline, skip synchronization entirely.
  if (n == 1 || workers_.empty()) {
    fn(begin, end, 0);
    return;
  }

  Job job;
  job.fn = &fn;
  job.end = end;
  job.chunk = std::max<std::size_t>(1, n / (size() * 8));
  job.next = begin;
  {
    std::scoped_lock lk(m_);
    open_.push_back(&job);
  }
  cv_work_.notify_all();

  run_chunks(job, 0);

  std::unique_lock lk(m_);
  std::erase(open_, &job);
  job.done.wait(lk, [&] { return job.helpers == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::run_chunks(Job& job, unsigned index) {
  std::size_t b = job.next.load();
  while (b < job.end) {
    // Claim [b, e) only if nobody moved the cursor; e never passes end, so
    // the cursor cannot wrap even when end is SIZE_MAX.
    const std::size_t e = b + std::min(job.chunk, job.end - b);
    if (!job.next.compare_exchange_weak(b, e)) continue;
    try {
      (*job.fn)(b, e, index);
    } catch (...) {
      std::scoped_lock lk(m_);
      if (!job.error) job.error = std::current_exception();
    }
    b = job.next.load();
  }
}

void ThreadPool::worker_loop(unsigned index) {
  std::unique_lock lk(m_);
  while (true) {
    cv_work_.wait(lk, [&] { return stop_ || !open_.empty(); });
    if (stop_) return;
    Job& job = *open_.front();
    ++job.helpers;
    lk.unlock();
    run_chunks(job, index);
    lk.lock();
    // Every chunk is claimed: close the job so no worker picks it again.
    std::erase(open_, &job);
    // Notify under the lock: the caller's job lives until it reacquires m_.
    if (--job.helpers == 0) job.done.notify_one();
  }
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace alsmf
