#include "service/daemon.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/preflight.h"
#include "core/checkpoint.h"
#include "core/session.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "parser/printer.h"
#include "util/stopwatch.h"

namespace twchase {
namespace {

std::string Sprintf(const char* format, ...) {
  // Sized exactly: the result text is diffed byte-for-byte against the
  // CLI's (untruncated) printf output, so a fixed buffer would silently
  // diverge on long query lines.
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  int needed = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed) + 1);
    std::vsnprintf(&out[0], out.size(), format, args);
    out.resize(static_cast<size_t>(needed));
  }
  va_end(args);
  return out;
}

HttpResponse JsonResponse(int status, const Json& body) {
  HttpResponse response;
  response.status = status;
  response.body = body.Dump() + "\n";
  return response;
}

HttpResponse StatusResponse(const Status& status,
                            const std::vector<FieldError>& fields = {}) {
  return JsonResponse(HttpStatusForStatus(status), ErrorJson(status, fields));
}

// Inverse of StatusCodeName, for rehydrating persisted structured errors.
StatusCode StatusCodeFromName(const std::string& name) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kOutOfRange, StatusCode::kInternal,
        StatusCode::kUnimplemented}) {
    if (name == StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

}  // namespace

/// One chase job: a program run as a sequence of scheduler segments. Every
/// segment re-parses the program text (a resume needs the vocabulary in
/// start state) and Start()s or Resume()s a fresh ChaseSession; preemption
/// turns the paused session into a serialized checkpoint carried to the
/// next segment. All cross-thread state (the live session pointer for
/// Pause/Cancel, the rendered result for the HTTP handlers) sits behind
/// one mutex; the chase itself runs outside it.
class ChaseDaemon::ChaseJob : public PreemptibleJob {
 public:
  ChaseJob(std::string id, JobRequest request, ChaseDaemon* daemon)
      : id_(std::move(id)), request_(std::move(request)), daemon_(daemon) {}

  /// Rehydrates a job that finished before a restart: the retained outcome
  /// (terminal result or structured error) is served again, no segment
  /// ever runs.
  static std::shared_ptr<ChaseJob> Recovered(ChaseDaemon* daemon,
                                             const RecoveredJob& record) {
    auto job = std::make_shared<ChaseJob>(record.id, record.request, daemon);
    std::lock_guard<std::mutex> lock(job->mu_);
    job->state_ = record.terminal_state;
    if (record.terminal_state == "failed") {
      job->error_ = Status(StatusCodeFromName(record.error_code),
                           record.error_message);
    } else {
      job->result_ = record.result;
      job->has_result_ = true;
    }
    return job;
  }

  const std::string& id() const { return id_; }
  const std::string& tenant() const { return request_.tenant; }

  std::string state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  bool terminal() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == "done" || state_ == "cancelled" || state_ == "failed";
  }

  /// Startup-recovery failure: records the structured error. The caller
  /// appends the durable failed record itself (the persist hook is not
  /// used, to keep recovery's write in one place).
  void MarkUnrecoverable(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    error_ = status;
    state_ = "failed";
  }

  /// Replaces the first segment's resume source with the recovered
  /// snapshot. Only before Submit (no concurrent segment yet).
  void SeedResumeCheckpoint(std::string checkpoint_text) {
    request_.resume_checkpoint = std::move(checkpoint_text);
  }

  /// Seeds an auto-variant resolution made outside the job (startup
  /// recovery resolves against the re-parsed program before re-admission).
  /// Only before Submit (no concurrent segment yet).
  void SeedResolvedPreflight(const ChaseOptions& resolved,
                             std::string summary) {
    request_.options = resolved;
    preflight_summary_ = std::move(summary);
  }

  Outcome RunSegment() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      state_ = "running";
      ++segments_;
    }
    Stopwatch stopwatch;

    // Fresh parse: term ids and the null counter must be in start state for
    // both Start and Resume (the checkpoint fingerprint pins the text).
    auto program = ParseProgram(request_.program);
    if (!program.ok()) {
      return Terminal(Status::Internal("program re-parse failed: " +
                                       program.status().message()));
    }

    // --variant=auto: resolve once, on the first segment, and pin the
    // decision into the job's options — every later segment (and the
    // checkpoint fingerprint, which folds the verdict) must see the same
    // resolution rather than re-running the preflight.
    if (request_.options.preflight.auto_variant &&
        !request_.options.preflight.resolved) {
      ChaseOptions resolved = request_.options;
      auto report =
          ResolveAutoVariant(program->kb, PreflightOptions{}, &resolved);
      if (!report.ok()) return Terminal(report.status());
      std::lock_guard<std::mutex> lock(mu_);
      request_.options = resolved;
      preflight_summary_ = report->Summary();
    }

    // Preemption needs the resume log; forcing it on changes memory, never
    // results.
    ChaseOptions options = request_.options;
    options.resume.record_log = true;

    std::ostringstream events;
    ObserverList observers;
    std::optional<EventLogObserver> event_log;
    if (request_.capture_events) {
      event_log.emplace(&events);
      observers.Add(&*event_log);
      options.observer = &observers;
    }

    auto session = ChaseSession::Create(program->kb, options);
    if (!session.ok()) return Terminal(session.status());

    // The segment's resume source: our own pause checkpoint wins over the
    // caller-supplied one (which only seeds the first segment).
    std::string checkpoint_text;
    {
      std::lock_guard<std::mutex> lock(mu_);
      live_session_ = session->get();
      checkpoint_text = saved_checkpoint_.empty() ? request_.resume_checkpoint
                                                  : saved_checkpoint_;
      if (cancel_requested_) live_session_->Cancel();
    }

    Status run = Status::OK();
    if (checkpoint_text.empty()) {
      run = (*session)->Start();
    } else {
      auto checkpoint = ParseCheckpoint(checkpoint_text);
      if (!checkpoint.ok()) {
        // Already holding mu_: Terminal() would re-lock and deadlock.
        std::lock_guard<std::mutex> lock(mu_);
        live_session_ = nullptr;
        return TerminalLocked(checkpoint.status());
      }
      run = (*session)->Resume(*checkpoint);
    }

    std::lock_guard<std::mutex> lock(mu_);
    live_session_ = nullptr;
    elapsed_seconds_ += stopwatch.ElapsedSeconds();
    if (!run.ok()) return TerminalLocked(run);

    if ((*session)->state() == ChaseSession::State::kPaused) {
      auto checkpoint = (*session)->Checkpoint();
      if (!checkpoint.ok()) return TerminalLocked(checkpoint.status());
      saved_checkpoint_ = SerializeCheckpoint(*checkpoint);
      state_ = "paused";
      // Every preemption boundary is a durability boundary: a SIGKILL
      // after this line resumes from exactly here.
      daemon_->PersistSnapshot(id_, SerializeCheckpointSealed(*checkpoint));
      return Outcome::kPaused;
    }

    if ((*session)->stop_reason() == StopReason::kCancelled &&
        daemon_->WantShutdownSnapshot()) {
      // Graceful shutdown cancelled this run, not a client: snapshot the
      // stopped prefix instead of recording a cancelled terminal, so the
      // restarted daemon re-admits and resumes it. The session is
      // kDone-with-log, which Checkpoint() accepts.
      auto checkpoint = (*session)->Checkpoint();
      if (checkpoint.ok()) {
        saved_checkpoint_ = SerializeCheckpoint(*checkpoint);
        daemon_->PersistSnapshot(id_,
                                 SerializeCheckpointSealed(*checkpoint));
        state_ = "paused";
        return Outcome::kCompleted;  // drains the scheduler slot cleanly
      }
      // Checkpoint unavailable: fall through to the cancelled terminal.
    }

    RenderResultLocked(**session, *program, events.str());
    state_ = (*session)->stop_reason() == StopReason::kCancelled
                 ? "cancelled"
                 : "done";
    // A terminal job never resumes: its last preemption checkpoint has no
    // reader left.
    std::string().swap(saved_checkpoint_);
    result_.Set("state", Json::String(state_));
    FoldMetricsLocked();
    daemon_->PersistTerminal(id_, state_, result_);
    return Outcome::kCompleted;
  }

  void RequestPause() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (live_session_ == nullptr) return;
    // FailedPrecondition cannot happen: every session records a log, and
    // pausing a finished session is a no-op.
    (void)live_session_->Pause();
  }

  void RequestCancel() override {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_requested_ = true;
    if (live_session_ != nullptr) live_session_->Cancel();
  }

  Json StatusJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    Json json = Json::Object();
    json.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
    json.Set("id", Json::String(id_));
    json.Set("tenant", Json::String(request_.tenant));
    json.Set("state", Json::String(state_));
    json.Set("segments", Json::Number(segments_));
    json.Set("cancel_requested", Json::Bool(cancel_requested_));
    if (request_.options.preflight.auto_variant) {
      json.Set("preflight", PreflightJsonLocked());
    }
    if (state_ == "failed") {
      json.Set("error", Json::String(error_.ToString()));
    }
    return json;
  }

  /// FailedPrecondition while the job is still in flight.
  StatusOr<Json> ResultJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ == "failed") {
      return ErrorJson(error_);
    }
    if (!has_result_) {
      return Status::FailedPrecondition("job " + id_ + " is " + state_ +
                                        "; the result exists once it is "
                                        "done or cancelled");
    }
    return result_;
  }

  bool failed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == "failed";
  }

 private:
  /// Marks the job failed; both overloads return kFailed for RunSegment.
  Outcome Terminal(const Status& status) {
    std::lock_guard<std::mutex> lock(mu_);
    return TerminalLocked(status);
  }
  Outcome TerminalLocked(const Status& status) {
    error_ = status;
    state_ = "failed";
    std::string().swap(saved_checkpoint_);
    daemon_->PersistFailed(id_, status);
    return Outcome::kFailed;
  }

  /// Renders the terminal payload. Holds mu_; the program (and its
  /// vocabulary, which the printed atoms reference) is alive only for this
  /// call, so everything is rendered to strings now. `events` is the
  /// segment's event capture (empty unless requested).
  void RenderResultLocked(ChaseSession& session, const ParsedProgram& program,
                          std::string_view events);
  void FoldMetricsLocked();

  /// The --variant=auto provenance payload for status and result bodies.
  Json PreflightJsonLocked() const {
    Json preflight = Json::Object();
    preflight.Set("resolved", Json::Bool(request_.options.preflight.resolved));
    if (request_.options.preflight.resolved) {
      preflight.Set("variant",
                    Json::String(ChaseVariantName(request_.options.variant)));
      preflight.Set("verdict",
                    Json::String(TerminationClassName(
                        static_cast<TerminationClass>(
                            request_.options.preflight.verdict))));
      if (!preflight_summary_.empty()) {
        preflight.Set("summary", Json::String(preflight_summary_));
      }
    }
    return preflight;
  }

  mutable std::mutex mu_;
  const std::string id_;
  JobRequest request_;
  ChaseDaemon* daemon_;

  std::string state_ = "queued";  // queued|running|paused|done|cancelled|failed
  bool cancel_requested_ = false;
  uint64_t segments_ = 0;
  double elapsed_seconds_ = 0;
  std::string saved_checkpoint_;  // the last preemption's, until terminal
  std::string preflight_summary_;
  ChaseSession* live_session_ = nullptr;

  Status error_;
  Json result_;
  bool has_result_ = false;
};

void ChaseDaemon::ChaseJob::RenderResultLocked(ChaseSession& session,
                                               const ParsedProgram& program,
                                               std::string_view events) {
  const ChaseResult& run = session.Result();
  const bool terminated = run.stop_reason == StopReason::kFixpoint;
  const KnowledgeBase& kb = program.kb;
  const AtomSet& instance = run.derivation.Last();

  // CLI-identical text first — the smoke gate diffs this against the CLI's
  // stdout (timings normalized), so every byte matters.
  std::string text;
  text += Sprintf("program: %zu facts, %zu rules, %zu queries\n",
                  kb.facts.size(), kb.rules.size(), program.queries.size());
  if (request_.options.preflight.auto_variant &&
      !preflight_summary_.empty()) {
    // Mirrors the CLI's --variant=auto output (the smoke gate diffs auto
    // jobs too; explicit-variant jobs never print this line).
    text += Sprintf("preflight: %s\n", preflight_summary_.c_str());
  }
  text += Sprintf(
      "%s chase: %zu steps in %zu rounds, %.3fs, stop: %s; |result| = %zu\n",
      ChaseVariantName(request_.options.variant), run.steps, run.rounds,
      elapsed_seconds_, StopReasonName(run.stop_reason), instance.size());

  QueryVerdicts verdicts =
      EvaluateQueries(program.queries, instance, terminated, *kb.vocab);
  text += verdicts.text;
  Json queries = Json::Array();
  for (size_t q = 0; q < program.queries.size(); ++q) {
    const QueryVerdict& verdict = verdicts.verdicts[q];
    Json entry = Json::Object();
    entry.Set("query", Json::String(verdict.query));
    if (program.queries[q].answer_vars.empty()) {
      entry.Set("entailed", Json::Bool(verdict.entailed));
      entry.Set("certain", Json::Bool(verdict.certain));
    } else {
      Json tuples = Json::Array();
      for (const std::vector<Term>& tuple : verdict.answers) {
        Json rendered = Json::Array();
        for (Term term : tuple) {
          rendered.Append(Json::String(kb.vocab->TermName(term)));
        }
        tuples.Append(std::move(rendered));
      }
      entry.Set("answers", std::move(tuples));
    }
    queries.Append(std::move(entry));
  }

  result_ = Json::Object();
  result_.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  result_.Set("id", Json::String(id_));
  result_.Set("tenant", Json::String(request_.tenant));
  result_.Set("state", Json::String("done"));  // overwritten by the caller
  result_.Set("stop_reason",
              Json::String(StopReasonName(run.stop_reason)));
  result_.Set("terminated", Json::Bool(terminated));
  result_.Set("steps", Json::Number(uint64_t{run.steps}));
  result_.Set("rounds", Json::Number(uint64_t{run.rounds}));
  result_.Set("segments", Json::Number(segments_));
  result_.Set("elapsed_seconds", Json::Number(elapsed_seconds_));
  Json program_info = Json::Object();
  program_info.Set("facts", Json::Number(uint64_t{kb.facts.size()}));
  program_info.Set("rules", Json::Number(uint64_t{kb.rules.size()}));
  program_info.Set("queries", Json::Number(uint64_t{program.queries.size()}));
  result_.Set("program", std::move(program_info));
  result_.Set("instance_size", Json::Number(uint64_t{instance.size()}));
  // Hex string: ContentHash spans all 64 bits, which double cannot carry.
  result_.Set("instance_hash",
              Json::String(Sprintf("%016" PRIx64, instance.ContentHash())));
  result_.Set("queries", std::move(queries));
  if (request_.options.preflight.auto_variant) {
    result_.Set("preflight", PreflightJsonLocked());
  }
  result_.Set("text", Json::String(text));
  if (request_.capture_events) {
    // (Filled by RunSegment's capture; a resumed segment re-emits the full
    // stream, so the last segment's capture is the complete one.)
    result_.Set("events", Json::String(events));
  }
  if (request_.return_checkpoint) {
    // Submission rejected return_checkpoint on unrecordable jobs, so the
    // run was executed with the resume log on — mirror that here.
    ChaseOptions recorded = request_.options;
    recorded.resume.record_log = true;
    result_.Set("checkpoint", Json::String(SerializeCheckpoint(
                                  MakeCheckpoint(kb, recorded, run))));
  }
  has_result_ = true;
}

void ChaseDaemon::ChaseJob::FoldMetricsLocked() {
  MetricsRegistry job_metrics;
  job_metrics.GetCounter("service.jobs.steps")
      ->Increment(static_cast<uint64_t>(result_.Get("steps").number_value()));
  job_metrics.GetCounter("service.jobs.rounds")
      ->Increment(static_cast<uint64_t>(result_.Get("rounds").number_value()));
  job_metrics.GetCounter("service.jobs.segments")->Increment(segments_);
  job_metrics.GetHistogram("service.job.steps")
      ->Observe(result_.Get("steps").number_value());
  job_metrics.GetHistogram("service.job.elapsed_seconds")
      ->Observe(elapsed_seconds_);
  job_metrics.GetHistogram("service.job.instance_size")
      ->Observe(result_.Get("instance_size").number_value());
  daemon_->FoldJobMetrics(job_metrics);
}

ChaseDaemon::ChaseDaemon(const DaemonOptions& options)
    : options_(options),
      scheduler_([&options] {
        JobScheduler::Options scheduler_options;
        scheduler_options.workers = options.workers;
        scheduler_options.per_tenant_quota = options.per_tenant_quota;
        scheduler_options.preempt_after_ms = options.preempt_after_ms;
        return scheduler_options;
      }()) {}

ChaseDaemon::~ChaseDaemon() { Stop(); }

Status ChaseDaemon::Start() {
  start_time_ = std::chrono::steady_clock::now();
  if (!options_.state_dir.empty()) {
    JobStoreOptions store_options;
    store_options.state_dir = options_.state_dir;
    auto store = JobStore::Open(store_options);
    if (store.ok()) {
      store_ = std::move(*store);
    } else {
      // Unusable state dir: degrade to the in-memory mode and say so via
      // health rather than refusing to serve.
      store_open_error_ = store.status().message();
    }
  }
  TWCHASE_RETURN_IF_ERROR(scheduler_.Start());
  if (store_ != nullptr) RecoverFromStore();
  Status http = server_.Start(
      options_.port,
      [this](const HttpRequest& request) { return Handle(request); },
      options_.http_threads, options_.http_io_timeout_ms);
  if (!http.ok()) scheduler_.Stop();
  return http;
}

void ChaseDaemon::Stop() {
  // The flag flips the meaning of the cancellations Stop() is about to
  // issue: with a healthy store, a cancelled-by-shutdown job checkpoints
  // and stays resumable instead of landing in "cancelled".
  shutting_down_.store(true);
  server_.Stop();     // no new submissions
  scheduler_.Stop();  // cancel + drain everything admitted
}

bool ChaseDaemon::WantShutdownSnapshot() const {
  return shutting_down_.load() && store_ != nullptr && store_->healthy();
}

std::string ChaseDaemon::PersistenceStatus() const {
  if (options_.state_dir.empty()) return "disabled";
  if (store_ == nullptr) return "degraded:" + store_open_error_;
  if (!store_->healthy()) return "degraded:" + store_->degraded_reason();
  return "durable";
}

void ChaseDaemon::PersistSnapshot(const std::string& id,
                                  const std::string& sealed) {
  if (store_ != nullptr) (void)store_->WriteSnapshot(id, sealed);
}

void ChaseDaemon::PersistTerminal(const std::string& id,
                                  const std::string& state,
                                  const Json& result) {
  if (store_ != nullptr) (void)store_->AppendTerminal(id, state, result);
}

void ChaseDaemon::PersistFailed(const std::string& id, const Status& error) {
  if (store_ != nullptr) {
    (void)store_->AppendFailed(id, StatusCodeName(error.code()),
                               error.message());
  }
}

void ChaseDaemon::RecoverFromStore() {
  std::vector<RecoveredJob> recovered = store_->TakeRecovered();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    // Ids never collide with anything ever admitted, even tombstoned.
    next_job_number_ = store_->max_job_number() + 1;
  }
  for (RecoveredJob& record : recovered) {
    if (record.terminal) {
      auto job = ChaseJob::Recovered(this, record);
      {
        std::lock_guard<std::mutex> lock(jobs_mu_);
        jobs_.emplace(record.id, std::move(job));
      }
      OnJobFinished(record.id);  // retention applies to recovered jobs too
      continue;
    }

    // Interrupted mid-run: validate program and snapshot, then resume
    // through the front door. Anything that does not check out becomes a
    // structured, durable terminal failure — never a silent drop.
    Status unrecoverable = Status::OK();
    std::string resume_text;
    std::string preflight_summary;
    auto program = ParseProgram(record.request.program);
    if (!record.request_error.ok()) {
      unrecoverable = Status::FailedPrecondition(
          "unrecoverable after restart: admitted job request is no longer "
          "accepted: " +
          record.request_error.message());
    } else if (!program.ok()) {
      unrecoverable = Status::FailedPrecondition(
          "unrecoverable after restart: program re-parse failed: " +
          program.status().message());
    } else if (ProgramFingerprint(program->kb) != record.program_fingerprint) {
      unrecoverable = Status::FailedPrecondition(
          "unrecoverable after restart: program fingerprint mismatch "
          "(manifest admit record vs re-parsed program)");
    } else {
      // The admit record stores --variant=auto unresolved; resolve it here,
      // against the re-parsed program, before any fingerprint involving the
      // options is computed. A snapshot taken under a different
      // classification then fails the fingerprint check below — resume after
      // a re-classification change is rejected, never silently continued
      // under another variant.
      if (record.request.options.preflight.auto_variant &&
          !record.request.options.preflight.resolved) {
        auto report = ResolveAutoVariant(program->kb, PreflightOptions{},
                                         &record.request.options);
        if (!report.ok()) {
          unrecoverable = Status::FailedPrecondition(
              "unrecoverable after restart: preflight resolution failed: " +
              report.status().message());
        } else {
          preflight_summary = report->Summary();
        }
      }
      std::string sealed;
      Status snapshot = unrecoverable.ok()
                            ? store_->ReadSnapshot(record.id, &sealed)
                            : Status::NotFound("preflight resolution failed");
      if (snapshot.ok()) {
        auto checkpoint = ParseSealedCheckpoint(sealed);
        if (!checkpoint.ok()) {
          unrecoverable = Status::FailedPrecondition(
              "unrecoverable after restart: checkpoint snapshot invalid: " +
              checkpoint.status().message());
        } else {
          ChaseOptions recorded = record.request.options;
          recorded.resume.record_log = true;
          if (checkpoint->program_fingerprint !=
              CheckpointFingerprint(program->kb, recorded)) {
            unrecoverable = Status::FailedPrecondition(
                "unrecoverable after restart: checkpoint fingerprint "
                "mismatch (snapshot vs program/configuration)");
          } else {
            resume_text = SerializeCheckpoint(*checkpoint);
          }
        }
      } else if (snapshot.code() != StatusCode::kNotFound) {
        unrecoverable = Status::FailedPrecondition(
            "unrecoverable after restart: checkpoint snapshot unreadable: " +
            snapshot.message());
      }
      // NotFound: admitted but never checkpointed — restart from the
      // original submission (including its own resume_checkpoint, if any).
    }

    auto job = std::make_shared<ChaseJob>(record.id, record.request, this);
    if (unrecoverable.ok() && !preflight_summary.empty()) {
      job->SeedResolvedPreflight(record.request.options,
                                 std::move(preflight_summary));
    }
    if (unrecoverable.ok() && !resume_text.empty()) {
      job->SeedResumeCheckpoint(std::move(resume_text));
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.emplace(record.id, job);
    }
    if (unrecoverable.ok()) {
      const std::string id = record.id;
      Status admitted = scheduler_.Submit(
          job->tenant(), job,
          [this, id](PreemptibleJob::Outcome) { OnJobFinished(id); });
      if (!admitted.ok()) {
        unrecoverable = Status::FailedPrecondition(
            "unrecoverable after restart: re-admission rejected: " +
            admitted.message());
      }
    }
    if (!unrecoverable.ok()) {
      job->MarkUnrecoverable(unrecoverable);
      (void)store_->AppendFailed(record.id,
                                 StatusCodeName(unrecoverable.code()),
                                 unrecoverable.message());
      OnJobFinished(record.id);
    }
  }
}

Json ChaseDaemon::MetricsJson() const {
  Json root = Json::Object();
  root.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  JobScheduler::Stats stats = scheduler_.GetStats();
  Json scheduler = Json::Object();
  scheduler.Set("admitted", Json::Number(stats.admitted));
  scheduler.Set("rejected", Json::Number(stats.rejected));
  scheduler.Set("completed", Json::Number(stats.completed));
  scheduler.Set("failed", Json::Number(stats.failed));
  scheduler.Set("preemptions", Json::Number(stats.preemptions));
  scheduler.Set("queued_now", Json::Number(uint64_t{stats.queued_now}));
  scheduler.Set("running_now", Json::Number(uint64_t{stats.running_now}));
  root.Set("scheduler", std::move(scheduler));
  {
    std::lock_guard<std::mutex> lock(fleet_mu_);
    // The registry renders itself; round-trip through the parser to embed
    // it as a structured member instead of a string.
    auto fleet = Json::Parse(fleet_metrics_.ToJson(0));
    root.Set("fleet", fleet.ok() ? std::move(*fleet) : Json::Object());
  }
  return root;
}

void ChaseDaemon::FoldJobMetrics(const MetricsRegistry& job_metrics) {
  std::lock_guard<std::mutex> lock(fleet_mu_);
  fleet_metrics_.MergeFrom(job_metrics);
}

void ChaseDaemon::OnJobFinished(const std::string& id) {
  // During shutdown the drain completes jobs that are really interrupted
  // (snapshot-at-cancel); evicting or tombstoning them here would destroy
  // exactly the state the restart needs.
  if (shutting_down_.load()) return;
  std::vector<std::string> evicted;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    finished_order_.push_back(id);
    if (options_.finished_job_retention != 0) {
      while (finished_order_.size() > options_.finished_job_retention) {
        // Oldest-finished first; in-flight jobs are never in
        // finished_order_, so running work is untouched. Handlers holding
        // the shared_ptr keep an evicted job alive for the duration of
        // their request.
        evicted.push_back(finished_order_.front());
        jobs_.erase(finished_order_.front());
        finished_order_.pop_front();
      }
    }
  }
  if (store_ != nullptr) {
    for (const std::string& old : evicted) (void)store_->AppendTombstone(old);
  }
}

std::shared_ptr<ChaseDaemon::ChaseJob> ChaseDaemon::FindJob(
    const std::string& id) const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

HttpResponse ChaseDaemon::Handle(const HttpRequest& request) {
  const std::string path = request.path();
  if (path == "/v1/healthz" && request.method == "GET") {
    return HandleHealthz();
  }
  if (path == "/v1/metrics" && request.method == "GET") {
    return JsonResponse(200, MetricsJson());
  }
  if (path == "/v1/jobs") {
    if (request.method != "POST") {
      HttpResponse response = JsonResponse(
          405, ErrorJson(Status::InvalidArgument("use POST to submit a job")));
      return response;
    }
    return HandleSubmit(request);
  }
  const std::string jobs_prefix = "/v1/jobs/";
  if (path.rfind(jobs_prefix, 0) == 0) {
    std::string rest = path.substr(jobs_prefix.size());
    const std::string result_suffix = "/result";
    bool want_result = false;
    if (rest.size() > result_suffix.size() &&
        rest.compare(rest.size() - result_suffix.size(), result_suffix.size(),
                     result_suffix) == 0) {
      want_result = true;
      rest = rest.substr(0, rest.size() - result_suffix.size());
    }
    if (rest.empty() || rest.find('/') != std::string::npos) {
      return StatusResponse(Status::NotFound("no such route: " + path));
    }
    if (want_result && request.method == "GET") return HandleJobResult(rest);
    if (!want_result && request.method == "GET") return HandleJobStatus(rest);
    if (!want_result && request.method == "DELETE") {
      return HandleJobCancel(rest);
    }
    return JsonResponse(405, ErrorJson(Status::InvalidArgument(
                                 "method " + request.method +
                                 " not supported on " + path)));
  }
  return StatusResponse(Status::NotFound("no such route: " + path));
}

HttpResponse ChaseDaemon::HandleHealthz() {
  Json body = Json::Object();
  body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  body.Set("status", Json::String("ok"));
  uint64_t uptime = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  body.Set("uptime_seconds", Json::Number(uptime));
  body.Set("jobs_in_flight", Json::Number(uint64_t{scheduler_.InFlight()}));
  // Job counts by state across the whole retained table.
  const char* kStates[] = {"queued", "running", "paused",
                           "done",   "cancelled", "failed"};
  size_t counts[6] = {};
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (const auto& [id, job] : jobs_) {
      std::string state = job->state();
      for (size_t i = 0; i < 6; ++i) {
        if (state == kStates[i]) {
          ++counts[i];
          break;
        }
      }
    }
  }
  Json jobs = Json::Object();
  for (size_t i = 0; i < 6; ++i) {
    jobs.Set(kStates[i], Json::Number(uint64_t{counts[i]}));
  }
  body.Set("jobs", std::move(jobs));
  body.Set("persistence", Json::String(PersistenceStatus()));
  return JsonResponse(200, body);
}

HttpResponse ChaseDaemon::HandleSubmit(const HttpRequest& request) {
  auto body = Json::Parse(request.body);
  if (!body.ok()) return StatusResponse(body.status());

  JobRequest job_request;
  std::vector<FieldError> errors;
  Status parsed = JobRequestFromJson(*body, &job_request, &errors);
  if (!parsed.ok()) return StatusResponse(parsed, errors);

  // Reject inconsistent options now, as a structured 400, instead of a
  // failed job later. The message's leading field path becomes the error's
  // field entry. An unresolved --variant=auto is legal HERE (the job's
  // first segment resolves it before the engine validates again), so that
  // one check is masked for the submission-time pass.
  ChaseOptions submitted = job_request.options;
  if (submitted.preflight.auto_variant) submitted.preflight.resolved = true;
  Status valid = submitted.Validate();
  if (!valid.ok()) {
    return StatusResponse(valid, {FieldErrorFromValidate(valid, "options")});
  }

  // Syntax-check the program up front (the job re-parses per segment).
  auto program = ParseProgram(job_request.program);
  if (!program.ok()) {
    Status status = Status::InvalidArgument("program parse error: " +
                                            program.status().message());
    return StatusResponse(status,
                          {{"program", program.status().message()}});
  }
  if (!job_request.resume_checkpoint.empty()) {
    auto checkpoint = ParseCheckpoint(job_request.resume_checkpoint);
    if (!checkpoint.ok()) {
      return StatusResponse(
          checkpoint.status(),
          {{"resume_checkpoint", checkpoint.status().message()}});
    }
  }

  std::string id;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    id = "j-" + std::to_string(next_job_number_++);
  }
  if (store_ != nullptr) {
    // Durable before acknowledged: the admit record hits the disk before
    // the scheduler (and so the client) ever sees the job. A persistence
    // failure degrades the store; the job still runs in memory.
    (void)store_->AppendAdmit(id, job_request, ProgramFingerprint(program->kb));
  }
  auto job = std::make_shared<ChaseJob>(id, std::move(job_request), this);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.emplace(id, job);
  }

  Status admitted = scheduler_.Submit(
      job->tenant(), job,
      [this, id](PreemptibleJob::Outcome) { OnJobFinished(id); });
  if (!admitted.ok()) {
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.erase(id);
    }
    // The admit record is already durable; without the tombstone a restart
    // would resurrect a job the client was told never got in.
    if (store_ != nullptr) (void)store_->AppendTombstone(id);
    return StatusResponse(admitted);  // quota exhaustion → 429
  }

  Json response = Json::Object();
  response.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  Json job_info = Json::Object();
  job_info.Set("id", Json::String(id));
  job_info.Set("tenant", Json::String(job->tenant()));
  job_info.Set("state", Json::String("queued"));
  response.Set("job", std::move(job_info));
  return JsonResponse(202, response);
}

HttpResponse ChaseDaemon::HandleJobStatus(const std::string& id) {
  auto job = FindJob(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no such job: " + id));
  }
  return JsonResponse(200, job->StatusJson());
}

HttpResponse ChaseDaemon::HandleJobResult(const std::string& id) {
  auto job = FindJob(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no such job: " + id));
  }
  auto result = job->ResultJson();
  if (!result.ok()) return StatusResponse(result.status());
  // A failed job's "result" is its error payload with the error's own code.
  if (job->failed()) {
    return JsonResponse(500, *result);
  }
  return JsonResponse(200, *result);
}

HttpResponse ChaseDaemon::HandleJobCancel(const std::string& id) {
  auto job = FindJob(id);
  if (job == nullptr) {
    return StatusResponse(Status::NotFound("no such job: " + id));
  }
  if (job->terminal()) {
    // Nothing left to cancel: DELETE on a finished job evicts its retained
    // outcome (and tombstones the durable store), after which the id
    // answers 404.
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      jobs_.erase(id);
      for (auto it = finished_order_.begin(); it != finished_order_.end();
           ++it) {
        if (*it == id) {
          finished_order_.erase(it);
          break;
        }
      }
    }
    if (store_ != nullptr) (void)store_->AppendTombstone(id);
    Json body = Json::Object();
    body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
    body.Set("id", Json::String(id));
    body.Set("deleted", Json::Bool(true));
    return JsonResponse(200, body);
  }
  job->RequestCancel();
  return JsonResponse(200, job->StatusJson());
}

}  // namespace twchase
