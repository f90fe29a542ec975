#include "service/job_store.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <unistd.h>

#include "util/fs.h"

namespace twchase {
namespace {

constexpr char kManifestName[] = "manifest.wal";
constexpr char kCheckpointDir[] = "checkpoints";

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

bool ParseFingerprintHex(const std::string& hex, uint64_t* out) {
  if (hex.empty() || hex.size() > 16) return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long value = std::strtoull(hex.c_str(), &end, 16);
  if (errno != 0 || end != hex.c_str() + hex.size()) return false;
  *out = value;
  return true;
}

// Frames one payload as a manifest line: "M1 <crc-hex> <len> <payload>\n".
std::string FrameRecord(const std::string& payload) {
  char header[32];
  std::snprintf(header, sizeof header, "M1 %08x %zu ", Crc32(payload),
                payload.size());
  return header + payload + "\n";
}

// Parses "j-<N>" into N; 0 for anything else.
uint64_t JobNumber(const std::string& id) {
  if (id.size() < 3 || id[0] != 'j' || id[1] != '-') return 0;
  char* end = nullptr;
  errno = 0;
  unsigned long long n = std::strtoull(id.c_str() + 2, &end, 10);
  if (errno != 0 || end != id.c_str() + id.size()) return 0;
  return n;
}

struct ReplayState {
  std::vector<RecoveredJob>* jobs;
  std::map<std::string, std::vector<std::string>>* lines;
  std::vector<std::string>* order;
  size_t* dead;
  uint64_t* max_number;
};

// Finds the replayed job with `id`, or nullptr.
RecoveredJob* FindJob(std::vector<RecoveredJob>* jobs, const std::string& id) {
  if (jobs == nullptr) return nullptr;
  for (RecoveredJob& job : *jobs) {
    if (job.id == id) return &job;
  }
  return nullptr;
}

void CountDead(const ReplayState& state, size_t n) {
  if (state.dead != nullptr) *state.dead += n;
}

// Applies one CRC-valid payload. Returns false when the record's schema is
// unintelligible — replay then stops as if the tail were torn.
bool ApplyRecord(const Json& payload, const std::string& framed_line,
                 const ReplayState& state) {
  if (!payload.is_object() || !payload.Get("type").is_string() ||
      !payload.Get("id").is_string()) {
    return false;
  }
  const std::string_view type = payload.Get("type").string_value();
  const std::string id(payload.Get("id").string_value());
  if (id.empty()) return false;

  if (type == "admit") {
    if (!payload.Get("fingerprint").is_string() ||
        !payload.Has("job")) {
      return false;
    }
    uint64_t fingerprint = 0;
    if (!ParseFingerprintHex(
            std::string(payload.Get("fingerprint").string_value()),
            &fingerprint)) {
      return false;
    }
    if (!payload.Get("job").is_object()) return false;
    JobRequest request;
    std::vector<FieldError> errors;
    Status parsed = JobRequestFromJson(payload.Get("job"), &request, &errors);
    if (FindJob(state.jobs, id) != nullptr) return false;  // duplicate admit
    if (state.jobs != nullptr) {
      RecoveredJob job;
      job.id = id;
      job.request = std::move(request);
      job.request_error = std::move(parsed);
      job.program_fingerprint = fingerprint;
      state.jobs->push_back(std::move(job));
    }
    if (state.lines != nullptr) {
      (*state.lines)[id].push_back(framed_line);
      state.order->push_back(id);
    }
    if (state.max_number != nullptr) {
      *state.max_number = std::max(*state.max_number, JobNumber(id));
    }
    return true;
  }

  if (type == "terminal" || type == "failed") {
    RecoveredJob* job = FindJob(state.jobs, id);
    if (job == nullptr || job->terminal) {
      // Orphaned or duplicate terminal: tolerated garbage (a tombstone may
      // have outrun it), not a torn tail.
      CountDead(state, 1);
      return true;
    }
    if (type == "terminal") {
      if (!payload.Get("state").is_string() || !payload.Has("result")) {
        return false;
      }
      job->terminal_state = payload.Get("state").string_value();
      job->result = payload.Get("result");
    } else {
      if (!payload.Get("error_code").is_string() ||
          !payload.Get("error_message").is_string()) {
        return false;
      }
      job->terminal_state = "failed";
      job->error_code = payload.Get("error_code").string_value();
      job->error_message = payload.Get("error_message").string_value();
    }
    job->terminal = true;
    if (state.lines != nullptr) (*state.lines)[id].push_back(framed_line);
    return true;
  }

  if (type == "tombstone") {
    if (state.jobs != nullptr) {
      for (size_t i = 0; i < state.jobs->size(); ++i) {
        if ((*state.jobs)[i].id == id) {
          state.jobs->erase(state.jobs->begin() + i);
          break;
        }
      }
    }
    if (state.lines != nullptr) {
      auto it = state.lines->find(id);
      size_t killed = it == state.lines->end() ? 0 : it->second.size();
      if (it != state.lines->end()) state.lines->erase(it);
      for (size_t i = 0; i < state.order->size(); ++i) {
        if ((*state.order)[i] == id) {
          state.order->erase(state.order->begin() + i);
          break;
        }
      }
      CountDead(state, killed + 1);
    } else {
      CountDead(state, 1);
    }
    return true;
  }

  return false;  // record type from the future
}

JobStore::ReplayStats ReplayInternal(std::string_view manifest,
                                     const ReplayState& state) {
  JobStore::ReplayStats stats;
  size_t pos = 0;
  while (pos < manifest.size()) {
    size_t record_start = pos;
    // Header: "M1 " + 8 hex + ' ' + decimal length + ' '.
    if (manifest.size() - pos < 14 || manifest.compare(pos, 3, "M1 ") != 0) {
      break;
    }
    pos += 3;
    uint32_t crc = 0;
    bool ok = true;
    for (int i = 0; i < 8; ++i) {
      char c = manifest[pos + i];
      uint32_t digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
      else { ok = false; break; }
      crc = (crc << 4) | digit;
    }
    if (!ok || manifest[pos + 8] != ' ') break;
    pos += 9;
    size_t len = 0;
    size_t digits = 0;
    while (pos < manifest.size() && manifest[pos] >= '0' &&
           manifest[pos] <= '9') {
      if (len > manifest.size()) { ok = false; break; }
      len = len * 10 + static_cast<size_t>(manifest[pos] - '0');
      ++pos;
      ++digits;
    }
    if (!ok || digits == 0 || pos >= manifest.size() ||
        manifest[pos] != ' ') {
      break;
    }
    ++pos;
    if (len > manifest.size() - pos || pos + len >= manifest.size() ||
        manifest[pos + len] != '\n') {
      break;  // torn tail: payload or terminator missing
    }
    std::string_view payload = manifest.substr(pos, len);
    if (Crc32(payload) != crc) break;
    auto json = Json::Parse(payload);
    if (!json.ok()) break;
    std::string framed_line(manifest.substr(record_start,
                                            pos + len + 1 - record_start));
    if (!ApplyRecord(*json, framed_line, state)) break;
    pos += len + 1;
    ++stats.records;
    stats.valid_bytes = pos;
  }
  if (state.lines != nullptr) stats.live_jobs = state.lines->size();
  else if (state.jobs != nullptr) stats.live_jobs = state.jobs->size();
  return stats;
}

}  // namespace

JobStore::JobStore(JobStoreOptions options) : options_(std::move(options)) {}

JobStore::~JobStore() {
  if (manifest_fd_ >= 0) ::close(manifest_fd_);
}

std::string JobStore::ManifestPath() const {
  return options_.state_dir + "/" + kManifestName;
}

std::string JobStore::SnapshotPath(const std::string& id) const {
  return options_.state_dir + "/" + kCheckpointDir + "/" + id + ".ckpt";
}

StatusOr<std::unique_ptr<JobStore>> JobStore::Open(
    const JobStoreOptions& options) {
  if (options.state_dir.empty()) {
    return Status::InvalidArgument("job store: state_dir must be non-empty");
  }
  std::unique_ptr<JobStore> store(new JobStore(options));
  TWCHASE_RETURN_IF_ERROR(EnsureDirectory(options.state_dir));
  TWCHASE_RETURN_IF_ERROR(
      EnsureDirectory(options.state_dir + "/" + kCheckpointDir));

  std::string manifest;
  Status read = ReadFileToString(store->ManifestPath(), &manifest);
  if (!read.ok() && read.code() != StatusCode::kNotFound) return read;

  ReplayState state{&store->recovered_, &store->live_lines_, &store->order_,
                    &store->dead_records_, &store->max_job_number_};
  ReplayStats stats = ReplayInternal(manifest, state);

  int fd = ::open(store->ManifestPath().c_str(),
                  O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return Status::Internal(std::string("open ") + store->ManifestPath() +
                            ": " + std::strerror(errno));
  }
  store->manifest_fd_ = fd;
  if (stats.valid_bytes < manifest.size()) {
    // Torn tail from a crash mid-append: discard it so the next append
    // starts a well-framed record.
    if (::ftruncate(fd, static_cast<off_t>(stats.valid_bytes)) != 0) {
      return Status::Internal(std::string("ftruncate ") +
                              store->ManifestPath() + ": " +
                              std::strerror(errno));
    }
    TWCHASE_RETURN_IF_ERROR(FsFsync(fd, kManifestName));
  }
  TWCHASE_RETURN_IF_ERROR(FsSyncDir(options.state_dir));
  return store;
}

std::vector<RecoveredJob> JobStore::TakeRecovered() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(recovered_);
}

void JobStore::LatchDegradedLocked(const Status& status) {
  if (degraded_) return;
  degraded_ = true;
  degraded_status_ = status;
}

Status JobStore::AppendRecordLocked(const std::string& id,
                                    const Json& payload, bool tombstone) {
  if (degraded_) return degraded_status_;
  std::string line = FrameRecord(payload.Dump());
  Status written = FsWriteAll(manifest_fd_, line, kManifestName);
  if (written.ok()) written = FsFsync(manifest_fd_, kManifestName);
  if (!written.ok()) {
    LatchDegradedLocked(written);
    return written;
  }
  if (tombstone) {
    auto it = live_lines_.find(id);
    size_t killed = it == live_lines_.end() ? 0 : it->second.size();
    if (it != live_lines_.end()) live_lines_.erase(it);
    for (size_t i = 0; i < order_.size(); ++i) {
      if (order_[i] == id) {
        order_.erase(order_.begin() + i);
        break;
      }
    }
    dead_records_ += killed + 1;
  } else {
    if (live_lines_.find(id) == live_lines_.end()) order_.push_back(id);
    live_lines_[id].push_back(line);
  }
  return Status::OK();
}

Status JobStore::AppendAdmit(const std::string& id, const JobRequest& request,
                             uint64_t program_fingerprint) {
  Json payload = Json::Object();
  payload.Set("type", Json::String("admit"));
  payload.Set("id", Json::String(id));
  payload.Set("fingerprint", Json::String(FingerprintHex(program_fingerprint)));
  payload.Set("job", JobRequestToJson(request));
  std::lock_guard<std::mutex> lock(mu_);
  max_job_number_ = std::max(max_job_number_, JobNumber(id));
  return AppendRecordLocked(id, payload, /*tombstone=*/false);
}

Status JobStore::AppendTerminal(const std::string& id, const std::string& state,
                                const Json& result) {
  Json payload = Json::Object();
  payload.Set("type", Json::String("terminal"));
  payload.Set("id", Json::String(id));
  payload.Set("state", Json::String(state));
  payload.Set("result", result);
  std::lock_guard<std::mutex> lock(mu_);
  return AppendRecordLocked(id, payload, /*tombstone=*/false);
}

Status JobStore::AppendFailed(const std::string& id,
                              const std::string& error_code,
                              const std::string& error_message) {
  Json payload = Json::Object();
  payload.Set("type", Json::String("failed"));
  payload.Set("id", Json::String(id));
  payload.Set("error_code", Json::String(error_code));
  payload.Set("error_message", Json::String(error_message));
  std::lock_guard<std::mutex> lock(mu_);
  return AppendRecordLocked(id, payload, /*tombstone=*/false);
}

Status JobStore::AppendTombstone(const std::string& id) {
  Json payload = Json::Object();
  payload.Set("type", Json::String("tombstone"));
  payload.Set("id", Json::String(id));
  std::lock_guard<std::mutex> lock(mu_);
  Status appended = AppendRecordLocked(id, payload, /*tombstone=*/true);
  if (!appended.ok()) return appended;
  // The snapshot is dead weight once the job is tombstoned; removal
  // failures degrade quietly (the manifest, the source of truth, is fine).
  (void)RemoveFileDurable(SnapshotPath(id));
  if (dead_records_ >= options_.compact_min_garbage) {
    return CompactLocked();
  }
  return Status::OK();
}

Status JobStore::CompactLocked() {
  std::string content;
  for (const std::string& id : order_) {
    auto it = live_lines_.find(id);
    if (it == live_lines_.end()) continue;
    for (const std::string& line : it->second) content += line;
  }
  Status written = WriteFileDurable(ManifestPath(), content);
  if (!written.ok()) {
    LatchDegradedLocked(written);
    return written;
  }
  // The old fd points at the unlinked inode; reopen the fresh manifest.
  int fd = ::open(ManifestPath().c_str(), O_WRONLY | O_APPEND, 0644);
  if (fd < 0) {
    Status failed = Status::Internal(std::string("reopen ") + ManifestPath() +
                                     ": " + std::strerror(errno));
    LatchDegradedLocked(failed);
    return failed;
  }
  ::close(manifest_fd_);
  manifest_fd_ = fd;
  dead_records_ = 0;
  return Status::OK();
}

Status JobStore::WriteSnapshot(const std::string& id,
                               std::string_view sealed_text) {
  std::lock_guard<std::mutex> lock(mu_);
  if (degraded_) return degraded_status_;
  Status written = WriteFileDurable(SnapshotPath(id), sealed_text);
  if (!written.ok()) LatchDegradedLocked(written);
  return written;
}

Status JobStore::ReadSnapshot(const std::string& id, std::string* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  return ReadFileToString(SnapshotPath(id), out);
}

bool JobStore::healthy() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !degraded_;
}

std::string JobStore::degraded_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_ ? degraded_status_.message() : std::string();
}

JobStore::ReplayStats JobStore::ReplayManifest(std::string_view manifest,
                                               std::vector<RecoveredJob>* jobs) {
  std::map<std::string, std::vector<std::string>> lines;
  std::vector<std::string> order;
  size_t dead = 0;
  uint64_t max_number = 0;
  ReplayState state{jobs, &lines, &order, &dead, &max_number};
  return ReplayInternal(manifest, state);
}

}  // namespace twchase
