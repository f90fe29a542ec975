// Durable job store: the daemon's crash-safe memory.
//
// Layout of a state directory (--state-dir):
//   <dir>/manifest.wal         append-only job manifest
//   <dir>/checkpoints/<id>.ckpt  latest checkpoint snapshot per job
//
// The manifest is a WAL of framed records, one per line:
//   M1 <crc32-hex> <payload-length> <payload>\n
// where the CRC covers exactly the payload bytes. The payload is one
// compact JSON object:
//   {"type":"admit","id":"j-1","fingerprint":"<u64 hex>","job":{...}}
//   {"type":"terminal","id":"j-1","state":"done"|"cancelled","result":{...}}
//   {"type":"failed","id":"j-1","error_code":"...","error_message":"..."}
//   {"type":"tombstone","id":"j-1"}
// The "job" object is a verbatim /v1/jobs submission body, so recovery
// re-admits it through the same strict JobRequestFromJson path a live
// client goes through. Appends are fsynced before the daemon acknowledges
// the job (durable-before-acknowledged).
//
// Replay stops at the first record whose framing, CRC, or schema does not
// check out — everything after a torn tail is discarded and Open()
// truncates the file back to the valid prefix, so one torn append can
// never corrupt earlier history. An intact admit record whose job this
// build no longer accepts is not a torn tail: it replays as a job that
// recovery fails (RecoveredJob::request_error). Tombstones (DELETE, retention eviction)
// mark records dead; when dead records outnumber compact_min_garbage the
// manifest is rewritten atomically from the live set. The store keeps no
// copy of a live record, only where it lies in the manifest: compaction
// streams each live record from the old file into the new one, job by job
// in admit order (admit record first).
//
// Checkpoint snapshots are sealed checkpoint text (CRC/length footer,
// core/checkpoint.h) written with the write-temp → fsync → rename
// discipline, so a reader sees the previous snapshot or the new one,
// never a torn mixture. The store treats snapshot bytes as opaque.
//
// Any filesystem failure latches the store into a degraded state: further
// persistence calls return the latched error without touching the disk,
// and the daemon keeps serving from memory (reported via /v1/healthz).
// Chase results are never affected by persistence failures.
#ifndef TWCHASE_SERVICE_JOB_STORE_H_
#define TWCHASE_SERVICE_JOB_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "service/json.h"
#include "service/wire.h"
#include "util/status.h"

namespace twchase {

struct JobStoreOptions {
  std::string state_dir;

  /// Rewrite the manifest once this many dead records (tombstoned jobs'
  /// admit/terminal lines plus the tombstones themselves) accumulate.
  size_t compact_min_garbage = 64;
};

/// One job reconstructed from the manifest during Open().
struct RecoveredJob {
  std::string id;
  JobRequest request;
  uint64_t program_fingerprint = 0;

  /// Not OK when the admit record's job no longer parses under this build
  /// (it asks for an option that was removed since it was written). The
  /// record itself is intact, so replay goes on; recovery fails the job
  /// with this error unless a terminal record already settled it.
  Status request_error;

  /// True when a terminal or failed record was replayed: the job finished
  /// before the crash and only its retained outcome needs serving.
  bool terminal = false;
  std::string terminal_state;  // "done" | "cancelled" | "failed"
  Json result;                 // terminal record's result object
  std::string error_code;      // failed record's structured error
  std::string error_message;
};

class JobStore {
 public:
  /// Opens (creating if needed) the state directory, replays the manifest,
  /// and truncates any torn tail. Fails when the directory cannot be
  /// created/read — the daemon then degrades to in-memory mode.
  static StatusOr<std::unique_ptr<JobStore>> Open(
      const JobStoreOptions& options);

  ~JobStore();

  JobStore(const JobStore&) = delete;
  JobStore& operator=(const JobStore&) = delete;

  /// The jobs replayed by Open(), in admit order. Call once at startup.
  std::vector<RecoveredJob> TakeRecovered();

  /// Highest N across replayed "j-N" ids (0 when none): the daemon resumes
  /// its id sequence above every id ever admitted, so recovered and new
  /// jobs never collide.
  uint64_t max_job_number() const { return max_job_number_; }

  /// WAL appends. Each is fsynced before returning OK. Once a filesystem
  /// error latches the store degraded, they return the latched error
  /// without touching the disk.
  Status AppendAdmit(const std::string& id, const JobRequest& request,
                     uint64_t program_fingerprint);
  /// `result_body` is the result object as compact JSON (Json::Dump); the
  /// record embeds it verbatim.
  Status AppendTerminal(const std::string& id, const std::string& state,
                        std::string_view result_body);
  Status AppendFailed(const std::string& id, const std::string& error_code,
                      const std::string& error_message);
  /// Tombstones `id`, removes its snapshot, and compacts the manifest when
  /// the garbage threshold is crossed.
  Status AppendTombstone(const std::string& id);

  /// Atomically replaces the job's checkpoint snapshot (opaque bytes; the
  /// daemon passes sealed checkpoint text).
  Status WriteSnapshot(const std::string& id, std::string_view sealed_text);

  /// Reads the job's snapshot. NotFound when none was ever written.
  Status ReadSnapshot(const std::string& id, std::string* out) const;

  /// False once a filesystem failure latched the store degraded.
  bool healthy() const;
  std::string degraded_reason() const;

  /// Replay statistics, exposed for tests and the recovery fuzzer.
  struct ReplayStats {
    size_t records = 0;      // well-formed records consumed
    size_t valid_bytes = 0;  // length of the valid prefix
    size_t live_jobs = 0;    // jobs alive (admitted, not tombstoned)
  };

  /// Where one framed record (its line, newline included) lies in the
  /// manifest.
  struct RecordSpan {
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  /// Pure replay of manifest bytes: parses records up to the first torn or
  /// malformed one, applies admits/terminals/tombstones, and (when `jobs`
  /// is non-null) returns the live set in admit order. Never crashes on
  /// hostile bytes.
  static ReplayStats ReplayManifest(std::string_view manifest,
                                    std::vector<RecoveredJob>* jobs);

 private:
  JobStore(JobStoreOptions options);

  std::string ManifestPath() const;
  std::string SnapshotPath(const std::string& id) const;
  Status AppendRecordLocked(const std::string& id, std::string_view payload,
                            bool tombstone);
  Status CompactLocked();
  void LatchDegradedLocked(const Status& status);

  const JobStoreOptions options_;

  mutable std::mutex mu_;
  int manifest_fd_ = -1;
  std::vector<RecoveredJob> recovered_;
  uint64_t max_job_number_ = 0;

  // Where each live job's framed lines lie in the manifest (admit line,
  // then terminal line if any), for compaction; `order_` preserves admit
  // order. `manifest_bytes_` is the manifest's length, where the next
  // append lands.
  std::map<std::string, std::vector<RecordSpan>> live_records_;
  std::vector<std::string> order_;
  uint64_t manifest_bytes_ = 0;
  size_t dead_records_ = 0;

  bool degraded_ = false;
  Status degraded_status_;
};

}  // namespace twchase

#endif  // TWCHASE_SERVICE_JOB_STORE_H_
