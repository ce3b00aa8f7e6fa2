// A small fixed-size thread pool with a blocking parallel_for that any
// thread may call, including from inside a chunk of another call.
//
// Follows CP.4 (think in tasks), CP.41 (minimize thread creation): one pool
// of std::jthread workers lives for the lifetime of the pool object; loops
// are divided into contiguous chunks so each worker touches a dense index
// range (Per.19: access memory predictably).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alsmf {

class ThreadPool {
 public:
  /// Creates a pool of `threads`-way parallelism: the calling thread plus
  /// threads - 1 workers. 0 means hardware_concurrency(); 1 runs every call
  /// inline on the caller.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Parallelism of one call: the caller plus every worker.
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(begin..end) partitioned into contiguous chunks and blocks until
  /// every chunk completes. fn receives (chunk_begin, chunk_end,
  /// worker_index). An exception thrown by fn is rethrown on the thread that
  /// made this call, and on no other; the call's remaining chunks still run.
  ///
  /// Any number of threads may call parallel_for at once, and fn may call it
  /// again (nested calls). Each call is a job whose chunks are claimed from
  /// an atomic cursor. The caller runs chunks of its own job as worker index
  /// 0, so every call makes progress even when all workers are busy; idle
  /// workers help the oldest job that still has unclaimed chunks. A caller
  /// whose chunks are all claimed, and an idle worker, sleep on a condition
  /// variable; neither spins.
  ///
  /// Worker-index contract: every index is below size(), and no two chunks
  /// of one call run at the same time under the same index, so per-index
  /// scratch sized by size() needs no lock. An index names a slot of one
  /// call, not a thread: a nested call's caller is index 0 of that call.
  ///
  /// Degenerate ranges are safe by contract, not caller discipline: an
  /// empty range (begin == end) and a reversed one (end < begin) are both
  /// no-ops — fn is never invoked and no worker synchronization happens.
  /// Callers that batch variable-size work (e.g. the serve micro-batcher
  /// draining zero fold-ins) rely on this.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t, unsigned)>& fn);

  /// Process-wide default pool (lazily constructed).
  static ThreadPool& global();

 private:
  struct Job;

  /// Claims and runs chunks of `job` under `index` until none is left.
  void run_chunks(Job& job, unsigned index);
  void worker_loop(unsigned index);

  std::mutex m_;  // guards open_, stop_, and each Job's helpers and error
  std::condition_variable cv_work_;  // a job was opened, or stop_ was set
  std::vector<Job*> open_;  // oldest first; a job leaves once fully claimed
  bool stop_ = false;
  // Declared last so the workers are joined before the state they use is
  // destroyed.
  std::vector<std::jthread> workers_;
};

}  // namespace alsmf
