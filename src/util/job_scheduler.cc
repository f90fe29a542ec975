#include "util/job_scheduler.h"

#include <algorithm>

namespace twchase {

JobScheduler::JobScheduler(const Options& options) : options_(options) {}

JobScheduler::~JobScheduler() { Stop(); }

Status JobScheduler::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) return Status::FailedPrecondition("scheduler already started");
    started_ = true;
    shutdown_ = false;
  }
  size_t workers = std::max<size_t>(1, options_.workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  if (options_.preempt_after_ms.has_value()) {
    monitor_ = std::thread([this] { MonitorLoop(); });
  }
  return Status::OK();
}

void JobScheduler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) return;
    shutdown_ = true;
    // Every in-flight job is told to stop; cancelled segments return
    // terminally, so the workers drain the whole queue before exiting.
    for (const auto& entry : queue_) entry->job->RequestCancel();
    for (const auto& entry : running_) entry->job->RequestCancel();
  }
  work_ready_.notify_all();
  monitor_wake_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (monitor_.joinable()) monitor_.join();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

Status JobScheduler::Submit(const std::string& tenant,
                            std::shared_ptr<PreemptibleJob> job,
                            FinishCallback done) {
  if (tenant.empty()) return Status::InvalidArgument("tenant must be non-empty");
  if (job == nullptr) return Status::InvalidArgument("job must be non-null");
  auto entry = std::make_shared<Entry>();
  entry->tenant = tenant;
  entry->job = std::move(job);
  entry->done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || shutdown_) {
      return Status::FailedPrecondition("scheduler is not running");
    }
    size_t& in_flight = in_flight_[tenant];
    if (in_flight >= options_.per_tenant_quota) {
      ++stats_.rejected;
      return Status::ResourceExhausted(
          "tenant '" + tenant + "' has " + std::to_string(in_flight) +
          " jobs in flight (quota " +
          std::to_string(options_.per_tenant_quota) + ")");
    }
    ++in_flight;
    ++stats_.admitted;
    queue_.push_back(std::move(entry));
  }
  work_ready_.notify_one();
  return Status::OK();
}

size_t JobScheduler::InFlight() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [tenant, count] : in_flight_) total += count;
  return total;
}

JobScheduler::Stats JobScheduler::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.queued_now = queue_.size();
  stats.running_now = running_.size();
  return stats;
}

void JobScheduler::WorkerLoop() {
  while (true) {
    std::shared_ptr<Entry> entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      // On shutdown the queue is still drained: every queued job was
      // cancelled, so its one remaining segment returns immediately and the
      // FinishCallback contract (exactly once per admitted job) holds.
      if (queue_.empty()) return;
      entry = queue_.front();
      queue_.pop_front();
      entry->segment_start = std::chrono::steady_clock::now();
      entry->pause_sent = false;
      running_.push_back(entry);
    }

    PreemptibleJob::Outcome outcome = entry->job->RunSegment();

    bool terminal = outcome != PreemptibleJob::Outcome::kPaused;
    FinishCallback done;
    {
      std::lock_guard<std::mutex> lock(mu_);
      running_.erase(std::find(running_.begin(), running_.end(), entry));
      if (!terminal) {
        ++stats_.preemptions;
        ++entry->pause_count;
        // Back of the queue, slot retained: round-robin progress without
        // re-admission.
        queue_.push_back(entry);
      } else {
        if (outcome == PreemptibleJob::Outcome::kFailed) {
          ++stats_.failed;
        } else {
          ++stats_.completed;
        }
        size_t& in_flight = in_flight_[entry->tenant];
        if (in_flight > 0) --in_flight;
        done = std::move(entry->done);
      }
    }
    if (!terminal) {
      work_ready_.notify_one();
    } else if (done) {
      done(outcome);
    }
  }
}

void JobScheduler::MonitorLoop() {
  const auto threshold = std::chrono::milliseconds(*options_.preempt_after_ms);
  // Poll at a fraction of the threshold so preemption latency stays
  // proportional to the configured horizon, floored for CPU sanity.
  const auto poll = std::max(std::chrono::milliseconds(5), threshold / 4);
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutdown_) {
    // Dedicated cv: waiting on work_ready_ here would let the monitor eat a
    // Submit's notify_one and leave every worker asleep over a queued job.
    monitor_wake_.wait_for(lock, poll);
    if (shutdown_) return;
    if (queue_.empty()) continue;  // nobody waiting: let long jobs run
    auto now = std::chrono::steady_clock::now();
    for (const auto& entry : running_) {
      // Exponential per-job backoff: every preemption costs the next
      // segment a replay of the whole prefix, so a job that keeps getting
      // paused earns a doubled threshold each time. Without this a slow
      // host (or sanitizer build) can livelock a job whose replay alone
      // exceeds the base threshold — it would be re-paused before making
      // any progress past its own checkpoint.
      const auto job_threshold =
          threshold * (uint64_t{1} << std::min<uint32_t>(entry->pause_count, 10));
      if (!entry->pause_sent && now - entry->segment_start >= job_threshold) {
        entry->pause_sent = true;
        entry->job->RequestPause();
      }
    }
  }
}

}  // namespace twchase
