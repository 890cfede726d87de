/**
 * @file
 * The process-wide worker pool the sweep engine (and smt::measure)
 * schedule simulation runs onto.
 *
 * One pool, sized to the hardware, outlives every measurement: a whole
 * figure's worth of rotation runs queues up at once and saturates the
 * machine, instead of each data point spawning and joining its own
 * eight std::async threads. Waiters help: wait() executes queued tasks
 * on the calling thread while its future is unready, so tasks that
 * submit and await subtasks (a sweep point awaiting its rotation runs)
 * can never deadlock the pool, whatever its size.
 */

#ifndef SMT_SWEEP_THREAD_POOL_HH
#define SMT_SWEEP_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace smt::sweep
{

/** A fixed-size worker pool over a FIFO task queue. */
class ThreadPool
{
  public:
    /** @param workers worker-thread count; 0 means hardware concurrency. */
    explicit ThreadPool(unsigned workers = 0);

    /** Drains nothing: outstanding tasks are completed before joining. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The shared process-wide pool. Sized to hardware concurrency
     * unless requestGlobalWorkers() asked for another count first.
     */
    static ThreadPool &global();

    /**
     * Request the worker count global() is built with (the --jobs
     * flag). Takes effect only before the first global() use — a
     * disagreeing later request is ignored with a warning, because a
     * live pool cannot be resized.
     */
    static void requestGlobalWorkers(unsigned workers);

    unsigned workerCount() const { return workers_; }

    /** Schedule a callable; returns a future for its result. */
    template <typename F>
    auto
    submit(F fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
        std::future<R> result = task->get_future();
        enqueue([task] { (*task)(); });
        return result;
    }

    /**
     * Block on a future, executing queued pool tasks on this thread
     * while it is unready.
     */
    template <typename T>
    T
    wait(std::future<T> fut)
    {
        using namespace std::chrono_literals;
        while (fut.wait_for(0s) != std::future_status::ready) {
            if (!runOne())
                fut.wait_for(200us);
        }
        return fut.get();
    }

    /** Pop and execute one queued task, if any; false when idle. */
    bool runOne();

  private:
    void enqueue(std::function<void()> task);
    void workerLoop();

    unsigned workers_;
    std::mutex mutex_;
    std::condition_variable ready_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace smt::sweep

#endif // SMT_SWEEP_THREAD_POOL_HH
