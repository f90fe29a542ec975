// JobScheduler: a shared worker pool running many preemptible jobs with
// per-tenant admission control — the execution substrate of the chase
// daemon (src/service/), kept in util/ because nothing in it knows about
// chases: it schedules anything implementing PreemptibleJob.
//
// Model: a job is a sequence of cooperative SEGMENTS. A worker calls
// RunSegment(), which blocks until the job either finishes (kCompleted /
// kFailed) or honours a pause request and stops at an internal consistent
// boundary (kPaused). A paused job goes to the back of the queue and a
// later RunSegment() continues it — for a chase job that means checkpoint
// on pause, replay-resume on the next segment, which the engine guarantees
// is bit-identical to an uninterrupted run. The job keeps its admission
// slot across pauses (preemption must never cause its own tenant a 429).
//
// Admission: Submit admits at most `per_tenant_quota` in-flight (queued,
// running or paused-requeued) jobs per tenant and rejects the rest with
// ResourceExhausted, which the daemon maps to HTTP 429. Rejection never
// perturbs admitted jobs.
//
// Preemption: an optional monitor thread watches running segments; when
// jobs are waiting in the queue and a segment has run longer than
// `preempt_after_ms`, the job is asked to pause, freeing its worker for the
// queue. Cancellation needs no scheduler API — callers request it on the
// job itself, whose next segment returns terminally and frees the slot.
#ifndef TWCHASE_UTIL_JOB_SCHEDULER_H_
#define TWCHASE_UTIL_JOB_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace twchase {

/// A unit of schedulable, pausable work. Implementations must make
/// RequestPause/RequestCancel safe to call from any thread while a segment
/// runs; RunSegment is only ever called by one worker at a time.
class PreemptibleJob {
 public:
  enum class Outcome {
    kCompleted,  // terminal: done (including cancelled or budget-stopped)
    kPaused,     // honoured a pause request; call RunSegment again to resume
    kFailed,     // terminal: the job errored; it records its own status
  };

  virtual ~PreemptibleJob() = default;

  /// Runs until the next stop boundary on the calling worker thread.
  virtual Outcome RunSegment() = 0;

  /// Asks the current segment to stop pausably at its next boundary.
  /// Harmless when the job is not running (the request may be consumed by
  /// the next segment or ignored by a terminal one).
  virtual void RequestPause() = 0;

  /// Asks the job to stop for good; the next (or current) segment returns
  /// a terminal outcome.
  virtual void RequestCancel() = 0;
};

class JobScheduler {
 public:
  struct Options {
    /// Worker threads executing segments.
    size_t workers = 4;

    /// Max in-flight jobs per tenant; Submit beyond it is ResourceExhausted.
    size_t per_tenant_quota = 4;

    /// Preempt a running segment once it has run this long AND other jobs
    /// are queued. nullopt disables the monitor (jobs run to completion).
    /// The effective threshold doubles with every pause a job has already
    /// taken (capped at x1024) — resuming replays the job's whole prefix,
    /// so repeated preemption must back off or a job whose replay alone
    /// exceeds the base threshold would never progress.
    std::optional<uint64_t> preempt_after_ms;
  };

  /// Counters for the fleet metrics endpoint; monotone over the scheduler's
  /// lifetime except the instantaneous queue/running gauges.
  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t preemptions = 0;  // segments that returned kPaused
    size_t queued_now = 0;
    size_t running_now = 0;
  };

  /// Called exactly once per admitted job, on a worker thread, after its
  /// terminal segment; never with kPaused.
  using FinishCallback = std::function<void(PreemptibleJob::Outcome)>;

  explicit JobScheduler(const Options& options);
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Spawns workers and (if configured) the preemption monitor.
  Status Start();

  /// Cancels every in-flight job, drains the queue and joins all threads.
  /// Pending FinishCallbacks still fire (with the terminal outcome of the
  /// cancelled segment). Idempotent.
  void Stop();

  /// Admits `job` under `tenant`'s quota and queues it. The scheduler
  /// shares ownership until the terminal segment returns.
  Status Submit(const std::string& tenant, std::shared_ptr<PreemptibleJob> job,
                FinishCallback done);

  /// Total in-flight jobs — the daemon's shutdown leak check.
  size_t InFlight() const;

  Stats GetStats() const;

  const Options& options() const { return options_; }

 private:
  struct Entry {
    std::string tenant;
    std::shared_ptr<PreemptibleJob> job;
    FinishCallback done;
    std::chrono::steady_clock::time_point segment_start{};
    bool pause_sent = false;    // one pause request per segment
    uint32_t pause_count = 0;   // doubles the preempt threshold (backoff)
  };

  void WorkerLoop();
  void MonitorLoop();

  const Options options_;

  mutable std::mutex mu_;
  // Only workers wait on work_ready_ — the monitor has its own cv so a
  // Submit/requeue notify_one can never be consumed by the monitor while a
  // worker sleeps (which would strand a queued job until the next Submit).
  std::condition_variable work_ready_;
  std::condition_variable monitor_wake_;
  std::deque<std::shared_ptr<Entry>> queue_;          // guarded by mu_
  std::vector<std::shared_ptr<Entry>> running_;       // guarded by mu_
  std::unordered_map<std::string, size_t> in_flight_; // guarded by mu_
  Stats stats_;                                       // guarded by mu_
  bool shutdown_ = false;                             // guarded by mu_
  bool started_ = false;                              // guarded by mu_

  std::vector<std::thread> workers_;
  std::thread monitor_;
};

}  // namespace twchase

#endif  // TWCHASE_UTIL_JOB_SCHEDULER_H_
