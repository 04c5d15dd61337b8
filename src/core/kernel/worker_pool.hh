/**
 * @file
 * A small persistent worker pool for row-parallel kernel execution.
 *
 * The compiled execution path parallelizes across a tile's row blocks
 * (see compiled_layer.hh): each block owns a contiguous range of
 * output rows, so concurrent blocks never write the same accumulator —
 * races are impossible by construction, as with the hardware's per-PE
 * register files. The pool exists so a multi-layer batched inference
 * spawns its threads once, not once per layer call.
 */

#ifndef EIE_CORE_KERNEL_WORKER_POOL_HH
#define EIE_CORE_KERNEL_WORKER_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace eie::core::kernel {

/** Persistent thread pool executing index-space parallel-for jobs. */
class WorkerPool
{
  public:
    /**
     * @param threads total workers including the calling thread; the
     *                pool spawns threads-1 helpers. 0 is treated as 1
     *                (purely caller-executed, no threads spawned).
     */
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Total workers including the caller. */
    unsigned threads() const
    {
        return static_cast<unsigned>(workers_.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [0, count). The caller participates;
     * indices are claimed dynamically so unbalanced row blocks spread
     * across workers. Returns when every index has finished.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

    /** Hardware concurrency with a floor of 1. */
    static unsigned hardwareThreads();

  private:
    void workerLoop();
    void drain(const std::function<void(std::size_t)> &fn,
               std::size_t count);

    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable start_cv_;
    std::condition_variable done_cv_;
    const std::function<void(std::size_t)> *job_ = nullptr;
    std::size_t job_count_ = 0;
    std::size_t next_index_ = 0; ///< guarded by mutex_
    std::uint64_t generation_ = 0;
    unsigned active_ = 0;
    bool stop_ = false;
};

} // namespace eie::core::kernel

#endif // EIE_CORE_KERNEL_WORKER_POOL_HH
