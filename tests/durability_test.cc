// Durability suite: the crash-safe persistence stack from the filesystem
// primitives up through daemon restart recovery.
//
//   - util/fs.h: CRC vectors, the write-temp → fsync → rename discipline,
//     and the injected torn-write/EIO/ENOSPC failure modes
//   - service/job_store.h: manifest WAL round-trips, torn-tail truncation,
//     bit-flip rejection, tombstones and compaction, the degraded latch
//   - the daemon: results served again after restart, interrupted jobs
//     resumed bit-identically from their durable snapshots, corrupted or
//     mismatched state surfacing as structured unrecoverable errors, and a
//     kill-at-any-fault-point sweep proving that no single filesystem
//     failure can hang the daemon or silently corrupt a result
//
// Runs under `ctest -L durability`, including the ASan pass of
// tools/check.sh (torn buffers, replay of hostile bytes, recovery paths).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "core/chase.h"
#include "core/checkpoint.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "service/daemon.h"
#include "service/http.h"
#include "service/job_store.h"
#include "service/json.h"
#include "service/wire.h"
#include "util/fault.h"
#include "util/fs.h"

namespace twchase {
namespace {

// ---------------------------------------------------------------------------
// Fixtures

constexpr const char* kStaircase = R"(
f(X00), h(X00, X00).
[Rh1] h(X, Y), v(X, Xp), h(Xp, Yp), v(Y, Yp), c(Yp) :- h(X, X).
[Rh2] c(Yp), h(X, Y), v(Y, Yp) :- h(X, X), v(X, Xp), h(Xp, Xp), h(Xp, Yp).
[Rh3] f(Y), h(Y, Y) :- f(X), h(X, X), h(X, Y).
[Rh4] h(Xp, Xp) :- h(X, X), v(X, Xp), c(Xp).
? :- f(X), v(X, Y), c(Y).
)";

constexpr const char* kClosure = R"(
e(a, b), e(b, c), e(c, d).
[t] e(X, Z) :- e(X, Y), e(Y, Z).
?(X, Y) :- e(X, Y).
)";

ChaseOptions CoreOptions(size_t max_steps) {
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = max_steps;
  return options;
}

// A fresh unique state directory under TMPDIR, removed with everything in
// it when the holder goes out of scope — tests never reuse each other's
// state, and a test run leaves none behind. Declare it before any daemon
// that writes into it, so the daemon stops first.
class StateDir {
 public:
  StateDir() {
    std::string tmpl = ::testing::TempDir() + "twchase_durability_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    EXPECT_NE(::mkdtemp(buf.data()), nullptr) << std::strerror(errno);
    path_ = buf.data();
  }
  ~StateDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  StateDir(const StateDir&) = delete;
  StateDir& operator=(const StateDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileOrDie(const std::string& path) {
  std::string content;
  Status read = ReadFileToString(path, &content);
  EXPECT_TRUE(read.ok()) << read;
  return content;
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out << content;
}

JobRequest MakeRequest(const std::string& tenant, const std::string& program,
                       const ChaseOptions& options) {
  JobRequest request;
  request.tenant = tenant;
  request.program = program;
  request.options = options;
  return request;
}

uint64_t FingerprintOf(const std::string& program_text) {
  auto program = ParseProgram(program_text);
  EXPECT_TRUE(program.ok()) << program.status();
  return ProgramFingerprint(program->kb);
}

// Uninstalls the global fs injector even when an assertion bails out.
struct GlobalFsInjectorScope {
  explicit GlobalFsInjectorScope(FaultInjector* injector) {
    SetGlobalFsFaultInjector(injector);
  }
  ~GlobalFsInjectorScope() { SetGlobalFsFaultInjector(nullptr); }
};

// Minimal HTTP client mirroring service_test's, plus await helpers.
class DaemonClient {
 public:
  explicit DaemonClient(uint16_t port) : port_(port) {}

  HttpResponse Fetch(const std::string& method, const std::string& target,
                     const std::string& body = "") {
    auto response = HttpFetch("127.0.0.1", port_, method, target, body);
    EXPECT_TRUE(response.ok()) << response.status();
    return response.ok() ? *response : HttpResponse{599, "", ""};
  }

  std::string Submit(const std::string& tenant, const std::string& program,
                     const ChaseOptions& options, bool capture_events = false) {
    Json body = Json::Object();
    body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
    body.Set("tenant", Json::String(tenant));
    body.Set("program", Json::String(program));
    body.Set("options", ChaseOptionsToJson(options));
    if (capture_events) body.Set("capture_events", Json::Bool(true));
    HttpResponse response = Fetch("POST", "/v1/jobs", body.Dump());
    EXPECT_EQ(response.status, 202) << response.body;
    auto json = Json::Parse(response.body);
    EXPECT_TRUE(json.ok());
    return json.ok() ? std::string(json->Get("job").Get("id").string_value())
                   : "";
  }

  /// Polls until the job is terminal; "missing" on 404, "timeout" on stall.
  std::string AwaitTerminal(const std::string& id, int timeout_seconds = 60) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(timeout_seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      HttpResponse response = Fetch("GET", "/v1/jobs/" + id);
      if (response.status == 404) return "missing";
      auto json = Json::Parse(response.body);
      if (json.ok()) {
        std::string state(json->Get("state").string_value());
        if (state == "done" || state == "cancelled" || state == "failed") {
          return state;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ADD_FAILURE() << "job " << id << " did not reach a terminal state";
    return "timeout";
  }

  /// Waits for the job to leave "queued" (it is actually executing).
  void AwaitStarted(const std::string& id) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      auto json = Json::Parse(Fetch("GET", "/v1/jobs/" + id).body);
      if (json.ok()) {
        std::string state(json->Get("state").string_value());
        if (state != "queued") return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ADD_FAILURE() << "job " << id << " never started";
  }

  Json Result(const std::string& id, int expected_status = 200) {
    HttpResponse response = Fetch("GET", "/v1/jobs/" + id + "/result");
    EXPECT_EQ(response.status, expected_status) << response.body;
    auto json = Json::Parse(response.body);
    EXPECT_TRUE(json.ok()) << response.body;
    return json.ok() ? *json : Json();
  }

  Json Healthz() {
    HttpResponse response = Fetch("GET", "/v1/healthz");
    EXPECT_EQ(response.status, 200);
    auto json = Json::Parse(response.body);
    EXPECT_TRUE(json.ok()) << response.body;
    return json.ok() ? *json : Json();
  }

 private:
  uint16_t port_;
};

// ---------------------------------------------------------------------------
// Filesystem primitives

TEST(FsTest, Crc32MatchesKnownVectors) {
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);  // the IEEE check value
  EXPECT_EQ(Crc32(std::string_view("\x00", 1)), 0xD202EF8Du);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(FsTest, WriteFileDurableReplacesAtomicallyAndCleansUp) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  std::string path = dir + "/data";
  ASSERT_TRUE(WriteFileDurable(path, "first").ok());
  EXPECT_EQ(ReadFileOrDie(path), "first");
  ASSERT_TRUE(WriteFileDurable(path, "second, longer").ok());
  EXPECT_EQ(ReadFileOrDie(path), "second, longer");
  EXPECT_FALSE(FileExists(path + ".tmp"));
  ASSERT_TRUE(RemoveFileDurable(path).ok());
  EXPECT_FALSE(FileExists(path));
  // Removing an absent file is not an error (idempotent cleanup).
  EXPECT_TRUE(RemoveFileDurable(path).ok());
}

TEST(FsTest, InjectedShortWritePersistsATornPrefix) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  std::string path = dir + "/torn";
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  FaultInjector injector;
  injector.Arm(FaultSite::kFsWrite, 1, FaultAction::kShortWrite);
  {
    FaultInjectorScope scope(&injector);
    Status written = FsWriteAll(fd, "0123456789", path);
    EXPECT_FALSE(written.ok());
    EXPECT_NE(written.message().find("injected"), std::string::npos);
  }
  ::close(fd);
  // Exactly the torn prefix a mid-write power cut would leave.
  EXPECT_EQ(ReadFileOrDie(path), "01234");
  EXPECT_EQ(injector.fired_count(), 1u);
}

TEST(FsTest, InjectedRenameFaultLeavesTheOldFileIntact) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  std::string path = dir + "/config";
  ASSERT_TRUE(WriteFileDurable(path, "old").ok());
  FaultInjector injector;
  injector.Arm(FaultSite::kFsRename, 1, FaultAction::kIoError);
  {
    FaultInjectorScope scope(&injector);
    EXPECT_FALSE(WriteFileDurable(path, "new").ok());
  }
  // Crash-before-rename: the reader still sees the previous complete file,
  // and the failed attempt's temp file was unlinked.
  EXPECT_EQ(ReadFileOrDie(path), "old");
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST(FsTest, InjectedNoSpaceMapsToResourceExhausted) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  FaultInjector injector;
  injector.Arm(FaultSite::kFsWrite, 1, FaultAction::kNoSpace);
  FaultInjectorScope scope(&injector);
  Status written = WriteFileDurable(dir + "/full", "payload");
  EXPECT_EQ(written.code(), StatusCode::kResourceExhausted) << written;
}

// ---------------------------------------------------------------------------
// Job store

TEST(JobStoreTest, AdmitAndTerminalRoundTripAcrossReopen) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  JobStoreOptions options;
  options.state_dir = dir;

  JobRequest request = MakeRequest("alpha", kClosure, CoreOptions(100));
  request.capture_events = true;
  Json result = Json::Object();
  result.Set("state", Json::String("done"));
  result.Set("instance_hash", Json::String("00000000deadbeef"));

  {
    auto store = JobStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_TRUE((*store)->TakeRecovered().empty());
    ASSERT_TRUE((*store)->AppendAdmit("j-3", request, 0x1234).ok());
    ASSERT_TRUE((*store)->AppendAdmit("j-4", request, 0x5678).ok());
    ASSERT_TRUE((*store)->AppendTerminal("j-3", "done", result.Dump()).ok());
    ASSERT_TRUE((*store)
                    ->WriteSnapshot("j-4", "opaque snapshot bytes")
                    .ok());
  }

  auto reopened = JobStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->max_job_number(), 4u);
  std::vector<RecoveredJob> jobs = (*reopened)->TakeRecovered();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "j-3");
  EXPECT_TRUE(jobs[0].terminal);
  EXPECT_EQ(jobs[0].terminal_state, "done");
  EXPECT_EQ(jobs[0].result.Get("instance_hash").string_value(),
            "00000000deadbeef");
  EXPECT_EQ(jobs[0].program_fingerprint, 0x1234u);
  EXPECT_EQ(jobs[0].request.tenant, "alpha");
  EXPECT_EQ(jobs[0].request.program, kClosure);
  EXPECT_TRUE(jobs[0].request.capture_events);
  EXPECT_EQ(jobs[0].request.options.limits.max_steps, 100u);
  EXPECT_EQ(jobs[1].id, "j-4");
  EXPECT_FALSE(jobs[1].terminal);
  std::string snapshot;
  ASSERT_TRUE((*reopened)->ReadSnapshot("j-4", &snapshot).ok());
  EXPECT_EQ(snapshot, "opaque snapshot bytes");
  EXPECT_EQ((*reopened)->ReadSnapshot("j-3", &snapshot).code(),
            StatusCode::kNotFound);
}

TEST(JobStoreTest, FailedRecordRoundTripsStructuredError) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  JobStoreOptions options;
  options.state_dir = dir;
  {
    auto store = JobStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendAdmit("j-1",
                                  MakeRequest("t", kClosure, CoreOptions(10)),
                                  7)
                    .ok());
    ASSERT_TRUE((*store)
                    ->AppendFailed("j-1", "FailedPrecondition",
                                   "unrecoverable after restart: boom")
                    .ok());
  }
  auto reopened = JobStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  std::vector<RecoveredJob> jobs = (*reopened)->TakeRecovered();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_TRUE(jobs[0].terminal);
  EXPECT_EQ(jobs[0].terminal_state, "failed");
  EXPECT_EQ(jobs[0].error_code, "FailedPrecondition");
  EXPECT_EQ(jobs[0].error_message, "unrecoverable after restart: boom");
}

TEST(JobStoreTest, TornTailIsDiscardedAndTruncatedOnOpen) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  JobStoreOptions options;
  options.state_dir = dir;
  {
    auto store = JobStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendAdmit("j-1",
                                  MakeRequest("t", kClosure, CoreOptions(10)),
                                  1)
                    .ok());
  }
  const std::string manifest_path = dir + "/manifest.wal";
  const std::string intact = ReadFileOrDie(manifest_path);
  // A crash mid-append leaves a half-written record after the good one.
  WriteFileOrDie(manifest_path, intact + "M1 0badc0de 57 {\"type\":\"adm");

  auto reopened = JobStore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  std::vector<RecoveredJob> jobs = (*reopened)->TakeRecovered();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, "j-1");
  // Open() truncated the torn tail so the next append is well-framed.
  EXPECT_EQ(ReadFileOrDie(manifest_path), intact);
  ASSERT_TRUE((*reopened)
                  ->AppendAdmit("j-2",
                                MakeRequest("t", kClosure, CoreOptions(10)),
                                2)
                  .ok());
  std::vector<RecoveredJob> again;
  JobStore::ReplayStats stats =
      JobStore::ReplayManifest(ReadFileOrDie(manifest_path), &again);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(again.size(), 2u);
}

TEST(JobStoreTest, BitFlippedRecordStopsReplayAtTheValidPrefix) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  JobStoreOptions options;
  options.state_dir = dir;
  {
    auto store = JobStore::Open(options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)
                    ->AppendAdmit("j-1",
                                  MakeRequest("t", kClosure, CoreOptions(10)),
                                  1)
                    .ok());
    ASSERT_TRUE((*store)
                    ->AppendAdmit("j-2",
                                  MakeRequest("t", kClosure, CoreOptions(10)),
                                  2)
                    .ok());
  }
  const std::string manifest_path = dir + "/manifest.wal";
  std::string manifest = ReadFileOrDie(manifest_path);
  // Flip one payload byte in the second record: its CRC no longer matches,
  // so replay keeps the first record and discards everything after.
  size_t second = manifest.find("M1 ", 3);
  ASSERT_NE(second, std::string::npos);
  manifest[second + 20] ^= 0x01;
  WriteFileOrDie(manifest_path, manifest);

  std::vector<RecoveredJob> jobs;
  JobStore::ReplayStats stats = JobStore::ReplayManifest(manifest, &jobs);
  EXPECT_EQ(stats.records, 1u);
  EXPECT_EQ(stats.valid_bytes, second);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, "j-1");

  auto reopened = JobStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->TakeRecovered().size(), 1u);
  EXPECT_EQ(ReadFileOrDie(manifest_path).size(), second);
}

TEST(JobStoreTest, TombstonesEvictAndCrossingThresholdCompacts) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  JobStoreOptions options;
  options.state_dir = dir;
  options.compact_min_garbage = 4;
  {
    auto store = JobStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (int i = 1; i <= 3; ++i) {
      std::string id = "j-" + std::to_string(i);
      ASSERT_TRUE((*store)
                      ->AppendAdmit(id,
                                    MakeRequest("t", kClosure, CoreOptions(10)),
                                    static_cast<uint64_t>(i))
                      .ok());
      ASSERT_TRUE((*store)->WriteSnapshot(id, "snap-" + id).ok());
    }
    // j-1's tombstone (2 dead records) stays below the threshold; j-2's
    // (4 dead) crosses it and compacts the manifest down to j-3 alone.
    ASSERT_TRUE((*store)->AppendTombstone("j-1").ok());
    EXPECT_TRUE(FileExists(dir + "/checkpoints/j-2.ckpt"));
    EXPECT_FALSE(FileExists(dir + "/checkpoints/j-1.ckpt"));
    ASSERT_TRUE((*store)->AppendTombstone("j-2").ok());
  }
  std::string manifest = ReadFileOrDie(dir + "/manifest.wal");
  EXPECT_EQ(manifest.find("j-1"), std::string::npos);
  EXPECT_EQ(manifest.find("tombstone"), std::string::npos);
  EXPECT_NE(manifest.find("j-3"), std::string::npos);

  auto reopened = JobStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  std::vector<RecoveredJob> jobs = (*reopened)->TakeRecovered();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, "j-3");
  // Ids never recycle: the tombstoned j-2 still counts toward the maximum.
  EXPECT_EQ((*reopened)->max_job_number(), 3u);
  // The store stays appendable after compaction reopened the manifest fd.
  ASSERT_TRUE((*reopened)
                  ->AppendAdmit("j-9",
                                MakeRequest("t", kClosure, CoreOptions(10)),
                                9)
                  .ok());
  std::vector<RecoveredJob> after;
  JobStore::ReplayManifest(ReadFileOrDie(dir + "/manifest.wal"), &after);
  EXPECT_EQ(after.size(), 2u);
}

// Compaction streams each live record from the manifest file into the
// new one, job by job in admit order. The manifests below are the bytes
// the store wrote when it cached every live line in memory, for this
// sequence of admits, terminals and tombstones.
constexpr const char* kAdmit1 =
    R"pin(M1 d68237f3 428 {"type":"admit","id":"j-1","fingerprint":"0000000000000001","job":{"schema_version":1,"tenant":"t","program":"\ne(a, b), e(b, c), e(c, d).\n[t] e(X, Z) :- e(X, Y), e(Y, Z).\n?(X, Y) :- e(X, Y).\n","options":{"variant":"core","limits":{"max_steps":10,"max_instance_size":0,"memory_budget_bytes":0},"core":{"core_every":1,"core_at_round_end":false},"resume":{"record_log":false}},"capture_events":false,"return_checkpoint":false}})pin" "\n";
constexpr const char* kTerminal1 =
    R"pin(M1 87b1f78e 115 {"type":"terminal","id":"j-1","state":"cancelled","result":{"state":"cancelled","steps":1,"text":"line \"one\"\n"}})pin" "\n";
constexpr const char* kAdmit2 =
    R"pin(M1 a6509b85 428 {"type":"admit","id":"j-2","fingerprint":"0000000000000002","job":{"schema_version":1,"tenant":"t","program":"\ne(a, b), e(b, c), e(c, d).\n[t] e(X, Z) :- e(X, Y), e(Y, Z).\n?(X, Y) :- e(X, Y).\n","options":{"variant":"core","limits":{"max_steps":10,"max_instance_size":0,"memory_budget_bytes":0},"core":{"core_every":1,"core_at_round_end":false},"resume":{"record_log":false}},"capture_events":false,"return_checkpoint":false}})pin" "\n";
constexpr const char* kTerminal2 =
    R"pin(M1 696e94a2 105 {"type":"terminal","id":"j-2","state":"done","result":{"state":"done","steps":2,"text":"line \"one\"\n"}})pin" "\n";
constexpr const char* kAdmit4 =
    R"pin(M1 47f5c369 428 {"type":"admit","id":"j-4","fingerprint":"0000000000000004","job":{"schema_version":1,"tenant":"t","program":"\ne(a, b), e(b, c), e(c, d).\n[t] e(X, Z) :- e(X, Y), e(Y, Z).\n?(X, Y) :- e(X, Y).\n","options":{"variant":"core","limits":{"max_steps":10,"max_instance_size":0,"memory_budget_bytes":0},"core":{"core_every":1,"core_at_round_end":false},"resume":{"record_log":false}},"capture_events":false,"return_checkpoint":false}})pin" "\n";
constexpr const char* kTerminal4 =
    R"pin(M1 b56eb778 105 {"type":"terminal","id":"j-4","state":"done","result":{"state":"done","steps":4,"text":"line \"one\"\n"}})pin" "\n";

TEST(JobStoreTest, CompactionStreamsLiveRecordsJobByJobInAdmitOrder) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  JobStoreOptions options;
  options.state_dir = dir;
  options.compact_min_garbage = 2;
  auto store = JobStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status();
  const JobRequest request = MakeRequest("t", kClosure, CoreOptions(10));
  auto result = [](const char* state, int steps) {
    Json json = Json::Object();
    json.Set("state", Json::String(state));
    json.Set("steps", Json::Number(uint64_t(steps)));
    json.Set("text", Json::String("line \"one\"\n"));
    return json.Dump();
  };
  ASSERT_TRUE((*store)->AppendAdmit("j-1", request, 1).ok());
  ASSERT_TRUE((*store)->AppendAdmit("j-2", request, 2).ok());
  ASSERT_TRUE((*store)->AppendAdmit("j-3", request, 3).ok());
  ASSERT_TRUE((*store)->AppendTerminal("j-2", "done", result("done", 2)).ok());
  ASSERT_TRUE(
      (*store)->AppendTerminal("j-1", "cancelled", result("cancelled", 1))
          .ok());
  ASSERT_TRUE((*store)->AppendAdmit("j-4", request, 4).ok());
  // Two dead records (j-3's admit and its tombstone) compact.
  ASSERT_TRUE((*store)->AppendTombstone("j-3").ok());
  const std::string manifest_path = dir + "/manifest.wal";
  EXPECT_EQ(ReadFileOrDie(manifest_path), std::string(kAdmit1) + kTerminal1 +
                                              kAdmit2 + kTerminal2 + kAdmit4);
  // Appends land after the compacted records, and a second compaction
  // streams from the compacted file.
  ASSERT_TRUE((*store)->AppendTerminal("j-4", "done", result("done", 4)).ok());
  ASSERT_TRUE((*store)->AppendTombstone("j-1").ok());
  EXPECT_EQ(ReadFileOrDie(manifest_path),
            std::string(kAdmit2) + kTerminal2 + kAdmit4 + kTerminal4);
  EXPECT_TRUE((*store)->healthy());
  EXPECT_FALSE(FileExists(manifest_path + ".tmp"));
}

TEST(JobStoreTest, FirstFsFailureLatchesDegradedWithoutFurtherDiskIo) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  JobStoreOptions options;
  options.state_dir = dir;
  auto store = JobStore::Open(options);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)
                  ->AppendAdmit("j-1",
                                MakeRequest("t", kClosure, CoreOptions(10)),
                                1)
                  .ok());
  EXPECT_TRUE((*store)->healthy());
  const size_t size_before = ReadFileOrDie(dir + "/manifest.wal").size();

  FaultInjector injector;
  injector.Arm(FaultSite::kFsWrite, 1, FaultAction::kIoError);
  {
    FaultInjectorScope scope(&injector);
    Status failed = (*store)->AppendTerminal("j-1", "done", "{}");
    EXPECT_FALSE(failed.ok());
  }
  EXPECT_FALSE((*store)->healthy());
  EXPECT_NE((*store)->degraded_reason().find("injected"), std::string::npos);

  // Latched: later appends return the original error without touching the
  // disk (the injector is gone, so any write would now succeed).
  Status still_failed =
      (*store)->AppendAdmit("j-2", MakeRequest("t", kClosure, CoreOptions(10)),
                            2);
  EXPECT_FALSE(still_failed.ok());
  EXPECT_EQ(ReadFileOrDie(dir + "/manifest.wal").size(), size_before);

  // The valid prefix written before the failure still replays.
  auto reopened = JobStore::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->TakeRecovered().size(), 1u);
}

TEST(JobStoreTest, ReplayNeverCrashesOnHostileBytes) {
  const std::string hostile[] = {
      "",
      "not a manifest",
      "M1 ",
      "M1 zzzzzzzz 5 abcde\n",
      "M1 00000000 99999999999999999999 x\n",
      "M1 00000000 5 abc",            // payload shorter than length
      "M1 00000000 3 abc",            // missing terminator
      "M1 e8b7be43 1 a",              // valid CRC, no newline
      std::string("M1 00000000 2 \0\0\n", 18),
      "M1 5b3a2f26 26 {\"type\":\"warp\",\"id\":\"j-1\"}\n",
  };
  for (const std::string& bytes : hostile) {
    std::vector<RecoveredJob> jobs;
    JobStore::ReplayStats stats = JobStore::ReplayManifest(bytes, &jobs);
    EXPECT_EQ(jobs.size(), stats.live_jobs);
    EXPECT_LE(stats.valid_bytes, bytes.size());
  }
}

// ---------------------------------------------------------------------------
// Daemon: restart recovery

TEST(DurableDaemonTest, HealthzReportsDurableAndCountsJobs) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.state_dir = dir;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  Json health = client.Healthz();
  EXPECT_EQ(health.Get("status").string_value(), "ok");
  EXPECT_EQ(health.Get("persistence").string_value(), "durable");
  EXPECT_TRUE(health.Get("uptime_seconds").is_number());
  EXPECT_TRUE(health.Get("jobs_in_flight").is_number());
  EXPECT_EQ(health.Get("jobs").Get("done").number_value(), 0);

  std::string id = client.Submit("t", kClosure, CoreOptions(100));
  EXPECT_EQ(client.AwaitTerminal(id), "done");
  health = client.Healthz();
  EXPECT_EQ(health.Get("jobs").Get("done").number_value(), 1);
  EXPECT_EQ(health.Get("persistence").string_value(), "durable");
  daemon.Stop();
}

TEST(DurableDaemonTest, UnusableStateDirDegradesButStillServes) {
  // The state dir path points at a regular file: the store cannot open.
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  std::string not_a_dir = dir + "/occupied";
  WriteFileOrDie(not_a_dir, "in the way");
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.state_dir = not_a_dir;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  Json health = client.Healthz();
  EXPECT_EQ(health.Get("status").string_value(), "ok");
  EXPECT_EQ(health.Get("persistence").string_value().rfind("degraded:", 0), 0u)
      << health.Get("persistence").string_value();

  // In-memory service is unimpaired.
  std::string id = client.Submit("t", kClosure, CoreOptions(100));
  EXPECT_EQ(client.AwaitTerminal(id), "done");
  daemon.Stop();
}

TEST(DurableDaemonTest, TerminalResultsAreServedAgainAfterRestart) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.state_dir = dir;

  std::string id;
  Json first_result;
  {
    ChaseDaemon daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    DaemonClient client(daemon.port());
    id = client.Submit("alpha", kStaircase, CoreOptions(40), true);
    ASSERT_EQ(client.AwaitTerminal(id), "done");
    first_result = client.Result(id);
    daemon.Stop();
  }

  ChaseDaemon restarted(options);
  ASSERT_TRUE(restarted.Start().ok());
  DaemonClient client(restarted.port());
  Json again = client.Result(id);
  // The retained outcome is byte-identical: same JSON payload.
  EXPECT_EQ(again.Dump(), first_result.Dump());
  Json health = client.Healthz();
  EXPECT_EQ(health.Get("jobs").Get("done").number_value(), 1);
  // New submissions never collide with recovered ids.
  std::string fresh = client.Submit("alpha", kClosure, CoreOptions(100));
  EXPECT_NE(fresh, id);
  EXPECT_EQ(client.AwaitTerminal(fresh), "done");
  restarted.Stop();
}

TEST(DurableDaemonTest, InterruptedJobResumesBitIdenticallyAfterRestart) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  DaemonOptions options;
  options.workers = 1;
  options.per_tenant_quota = 8;
  options.preempt_after_ms = 25;
  options.state_dir = dir;

  // Long enough to still be running at Stop(): 200 steps now finish in
  // about the 60 ms this test waits.
  ChaseOptions chase = CoreOptions(600);
  std::string id;
  {
    ChaseDaemon daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    DaemonClient client(daemon.port());
    id = client.Submit("alpha", kStaircase, chase, true);
    // Let the job get well into its run, then shut the daemon down under
    // it: the shutdown cancellation snapshots the stopped prefix.
    client.AwaitStarted(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    daemon.Stop();
  }
  // The state directory holds an admitted, non-terminal job.
  std::vector<RecoveredJob> jobs;
  JobStore::ReplayManifest(ReadFileOrDie(dir + "/manifest.wal"), &jobs);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_FALSE(jobs[0].terminal);

  ChaseDaemon restarted(options);
  ASSERT_TRUE(restarted.Start().ok());
  DaemonClient client(restarted.port());
  ASSERT_EQ(client.AwaitTerminal(id, 120), "done");
  Json result = client.Result(id);

  // Bit-identical to the uninterrupted in-process reference: same step and
  // round counts, same final instance, same full observer event stream.
  auto program = ParseProgram(kStaircase);
  ASSERT_TRUE(program.ok());
  std::ostringstream events;
  EventLogObserver event_log(&events);
  ObserverList observers;
  observers.Add(&event_log);
  ChaseOptions golden_options = chase;
  golden_options.observer = &observers;
  auto golden = RunChase(program->kb, golden_options);
  ASSERT_TRUE(golden.ok());
  char hash[32];
  std::snprintf(hash, sizeof hash, "%016llx",
                static_cast<unsigned long long>(
                    golden->derivation.Last().ContentHash()));
  EXPECT_EQ(result.Get("steps").number_value(), golden->steps);
  EXPECT_EQ(result.Get("rounds").number_value(), golden->rounds);
  EXPECT_EQ(result.Get("instance_hash").string_value(), hash);
  EXPECT_EQ(result.Get("events").string_value(), events.str());
  restarted.Stop();
}

TEST(DurableDaemonTest, CorruptSnapshotFailsStructurallyAndDurably) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms = 25;
  options.per_tenant_quota = 8;
  options.state_dir = dir;

  std::string id;
  {
    ChaseDaemon daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    DaemonClient client(daemon.port());
    // Long enough to still be running at Stop(): 200 steps now finish in
    // about the 60 ms this test waits.
    id = client.Submit("alpha", kStaircase, CoreOptions(600));
    client.AwaitStarted(id);
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    daemon.Stop();
  }
  const std::string snapshot_path = dir + "/checkpoints/" + id + ".ckpt";
  ASSERT_TRUE(FileExists(snapshot_path)) << "shutdown wrote no snapshot";
  std::string sealed = ReadFileOrDie(snapshot_path);
  sealed[sealed.size() / 2] ^= 0x20;  // one flipped bit in the body
  WriteFileOrDie(snapshot_path, sealed);

  ChaseDaemon restarted(options);
  ASSERT_TRUE(restarted.Start().ok());
  {
    DaemonClient client(restarted.port());
    EXPECT_EQ(client.AwaitTerminal(id), "failed");
    Json error = client.Result(id, 500);
    EXPECT_EQ(error.Get("error").Get("code").string_value(),
              "FailedPrecondition");
    EXPECT_NE(error.Get("error").Get("message").string_value().find(
                  "unrecoverable after restart"),
              std::string::npos)
        << error.Dump();
    restarted.Stop();
  }

  // The failure is durable: a third start serves the same structured error
  // without re-running anything.
  ChaseDaemon third(options);
  ASSERT_TRUE(third.Start().ok());
  DaemonClient client(third.port());
  EXPECT_EQ(client.AwaitTerminal(id), "failed");
  Json error = client.Result(id, 500);
  EXPECT_NE(error.Get("error").Get("message").string_value().find(
                "unrecoverable after restart"),
            std::string::npos);
  third.Stop();
}

TEST(DurableDaemonTest, FingerprintMismatchIsUnrecoverable) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  {
    JobStoreOptions store_options;
    store_options.state_dir = dir;
    auto store = JobStore::Open(store_options);
    ASSERT_TRUE(store.ok());
    // An admit whose recorded fingerprint does not match its own program —
    // as if the program text had been tampered with on disk.
    ASSERT_TRUE((*store)
                    ->AppendAdmit("j-5",
                                  MakeRequest("t", kClosure, CoreOptions(50)),
                                  FingerprintOf(kClosure) ^ 1)
                    .ok());
  }
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.state_dir = dir;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());
  EXPECT_EQ(client.AwaitTerminal("j-5"), "failed");
  Json error = client.Result("j-5", 500);
  EXPECT_NE(error.Get("error").Get("message").string_value().find(
                "fingerprint mismatch"),
            std::string::npos)
      << error.Dump();
  // The id sequence resumed above the recovered id.
  std::string fresh = client.Submit("t", kClosure, CoreOptions(50));
  EXPECT_EQ(fresh, "j-6");
  daemon.Stop();
}

// Frames one payload as a manifest line, exactly as JobStore writes it.
std::string FramedLine(const std::string& payload) {
  char header[48];
  std::snprintf(header, sizeof header, "M1 %08x %zu ", Crc32(payload),
                payload.size());
  return header + payload + "\n";
}

// A manifest as an earlier release wrote it: every admit record carries
// that release's full options object, including the since-removed
// core.incremental_core, core.dirty_radius and parallel.threads keys and the
// since-fixed datalog_first, core.core_every and core.core_initial.
std::string LegacyAdmitLine(const std::string& id, const std::string& program,
                            size_t max_steps, bool incremental_core,
                            bool datalog_first = true,
                            bool core_initial = true, size_t core_every = 1) {
  char fingerprint[24];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(FingerprintOf(program)));
  std::string payload =
      R"({"type":"admit","id":")" + id + R"(","fingerprint":")" +
      fingerprint +
      R"(","job":{"schema_version":1,"tenant":"acme","program":)" +
      Json::String(program).Dump() +
      R"(,"options":{"variant":"core","datalog_first":)" +
      (datalog_first ? "true" : "false") +
      R"(,"keep_snapshots":true,"limits":{"max_steps":)" +
      std::to_string(max_steps) +
      R"(,"max_instance_size":0,"memory_budget_bytes":0},)"
      R"("core":{"core_every":)" + std::to_string(core_every) +
      R"(,"core_at_round_end":false,"core_initial":)" +
      (core_initial ? "true" : "false") +
      R"(,"incremental_core":)" +
      (incremental_core ? "true" : "false") +
      R"(,"dirty_radius":2},"delta":{"enabled":true},)"
      R"("plan":{"enabled":true,"skip_dormant":true,"core_guard":true},)"
      R"("parallel":{"threads":4},"resume":{"record_log":true}},)"
      R"("capture_events":false,"return_checkpoint":false}})";
  return FramedLine(payload);
}

// Result bodies as the daemon served them before it kept each terminal
// result as one rendered string: an elevator core job and a
// --variant=auto job, submitted as j-1 and j-2 to a fresh daemon, and the
// manifest that daemon wrote for them.
constexpr const char* kParentElevatorBody =
    R"pin({"schema_version":1,"id":"j-1","tenant":"t","state":"done","stop_reason":"step-budget","terminated":false,"steps":12,"rounds":7,"segments":1,"elapsed_seconds":0.000691749,"program":{"facts":4,"rules":7,"queries":2},"instance_size":28,"instance_hash":"c497380f72958f2c","queries":[{"query":"? :- c(V1), d(V1), f(V1)","entailed":true,"certain":true},{"query":"? :- h(V1, V2), v(V1, V1), v(V2, V2)","entailed":false,"certain":false}],"text":"program: 4 facts, 7 rules, 2 queries\ncore chase: 12 steps in 7 rounds, 0.001s, stop: step-budget; |result| = 28\nquery 1: ? :- c(V1), d(V1), f(V1)                 -> entailed\nquery 2: ? :- h(V1, V2), v(V1, V1), v(V2, V2)     -> not entailed (within budget)\n"})pin";
constexpr const char* kParentAutoBody =
    R"pin({"schema_version":1,"id":"j-2","tenant":"t","state":"done","stop_reason":"fixpoint","terminated":true,"steps":2,"rounds":2,"segments":1,"elapsed_seconds":0.00030831,"program":{"facts":3,"rules":5,"queries":1},"instance_size":6,"instance_hash":"a7c4b5c0f9518480","queries":[{"query":"?(V1) :- p3(V1, V2, V3)","answers":[]}],"preflight":{"resolved":true,"variant":"semi-oblivious","verdict":"fes","summary":"fes (weakly acyclic); variant=semi-oblivious"},"text":"program: 3 facts, 5 rules, 1 queries\npreflight: fes (weakly acyclic); variant=semi-oblivious\nsemi-oblivious chase: 2 steps in 2 rounds, 0.000s, stop: fixpoint; |result| = 6\nquery 1: ?(V1) :- p3(V1, V2, V3)                  -> 0 certain answer(s)\n"})pin";
constexpr const char* kParentManifest =
    R"pin(M1 977d0eb8 797 {"type":"admit","id":"j-1","fingerprint":"fda42c54eb80a108","job":{"schema_version":1,"tenant":"t","program":"% The inflating elevator KB (Definition 9 of the paper).\nc(X00), d(X00), h(X00, X10), f(X10).\n[Rv1] v(Y, Yp), v(Yp, Ypp), c(Ypp) :- c(X), h(X, Y).\n[Rv2] h(Xp, Yp), f(Yp) :- d(X), f(X), v(X, Xp).\n[Rv3] v(Y, Yp), h(Xp, Yp) :- v(X, Xp), h(X, Y).\n[Rv4] d(X) :- c(X).\n[Rv5] d(X) :- v(X, Xp), d(Xp).\n[Rv6] f(X), v(X, X) :- h(X, Y), d(Y), f(Y).\n[Rv7] h(X, Yp) :- c(X), h(X, Y), v(Y, Yp), f(Yp).\n? :- c(X), d(X), f(X).\n? :- v(X, X), h(X, Y), v(Y, Y).\n","options":{"variant":"core","limits":{"max_steps":12,"max_instance_size":0,"memory_budget_bytes":0},"core":{"core_every":1,"core_at_round_end":false},"resume":{"record_log":false}},"capture_events":false,"return_checkpoint":false}})pin" "\n"
    R"pin(M1 d533c1c6 756 {"type":"terminal","id":"j-1","state":"done","result":{"schema_version":1,"id":"j-1","tenant":"t","state":"done","stop_reason":"step-budget","terminated":false,"steps":12,"rounds":7,"segments":1,"elapsed_seconds":0.000691749,"program":{"facts":4,"rules":7,"queries":2},"instance_size":28,"instance_hash":"c497380f72958f2c","queries":[{"query":"? :- c(V1), d(V1), f(V1)","entailed":true,"certain":true},{"query":"? :- h(V1, V2), v(V1, V1), v(V2, V2)","entailed":false,"certain":false}],"text":"program: 4 facts, 7 rules, 2 queries\ncore chase: 12 steps in 7 rounds, 0.001s, stop: step-budget; |result| = 28\nquery 1: ? :- c(V1), d(V1), f(V1)                 -> entailed\nquery 2: ? :- h(V1, V2), v(V1, V1), v(V2, V2)     -> not entailed (within budget)\n"}})pin" "\n"
    R"pin(M1 f181f838 759 {"type":"admit","id":"j-2","fingerprint":"d23727aaf8f1021f","job":{"schema_version":1,"tenant":"t","program":"% twgen class=fes seed=1\np0(c1, c4, c1), p0(c1, c4, c3), p1(c2).\n[fes_r0] p3(V1, V2, c4) :- p0(V1, c4, V1), p2(V1, V2, V2).\n[fes_r1] p4(V1, V2, V3) :- p2(V4, V1, V1), p2(V1, V4, c4).\n[fes_r2] p4(V1, V1, V2) :- p1(V2).\n[fes_r3] p4(V1, c2, V2) :- p2(V2, c1, V3).\n[fes_r4] p2(V1, V2, V3), p2(V3, V4, V1) :- p1(V2), p1(V1).\n?(V1) :- p3(V1, V2, V3).\n","options":{"variant":"auto","limits":{"max_steps":40,"max_instance_size":0,"memory_budget_bytes":0},"core":{"core_every":1,"core_at_round_end":false},"resume":{"record_log":false},"preflight":{"auto_variant":true,"resolved":false,"verdict":0}},"capture_events":false,"return_checkpoint":false}})pin" "\n"
    R"pin(M1 fde902f7 768 {"type":"terminal","id":"j-2","state":"done","result":{"schema_version":1,"id":"j-2","tenant":"t","state":"done","stop_reason":"fixpoint","terminated":true,"steps":2,"rounds":2,"segments":1,"elapsed_seconds":0.00030831,"program":{"facts":3,"rules":5,"queries":1},"instance_size":6,"instance_hash":"a7c4b5c0f9518480","queries":[{"query":"?(V1) :- p3(V1, V2, V3)","answers":[]}],"preflight":{"resolved":true,"variant":"semi-oblivious","verdict":"fes","summary":"fes (weakly acyclic); variant=semi-oblivious"},"text":"program: 3 facts, 5 rules, 1 queries\npreflight: fes (weakly acyclic); variant=semi-oblivious\nsemi-oblivious chase: 2 steps in 2 rounds, 0.000s, stop: fixpoint; |result| = 6\nquery 1: ?(V1) :- p3(V1, V2, V3)                  -> 0 certain answer(s)\n"}})pin" "\n";

// Zeroes the wall-clock fields of a result body: "elapsed_seconds" and the
// seconds in the text's chase line.
std::string WithoutTimings(std::string body) {
  auto zero = [&](std::string_view before, std::string_view after) {
    size_t at = body.find(before);
    if (at == std::string::npos) return;
    at += before.size();
    body.replace(at, body.find(after, at) - at, "0");
  };
  zero("\"elapsed_seconds\":", ",");
  zero(" rounds, ", "s, stop");
  return body;
}

ChaseOptions AutoOptions(size_t max_steps) {
  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  options.preflight.auto_variant = true;
  options.limits.max_steps = max_steps;
  return options;
}

std::string DataFile(const std::string& name) {
  return ReadFileOrDie(std::string(TWCHASE_DATA_DIR) + "/" + name);
}

TEST(DurableDaemonTest, FreshResultBodiesMatchThePinnedBytes) {
  const StateDir state_dir;
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.state_dir = state_dir.path();
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());
  const std::string elevator =
      client.Submit("t", DataFile("elevator.twc"), CoreOptions(12));
  ASSERT_EQ(client.AwaitTerminal(elevator), "done");
  const std::string automatic =
      client.Submit("t", DataFile("corpus/fes_1.twc"), AutoOptions(40));
  ASSERT_EQ(client.AwaitTerminal(automatic), "done");
  ASSERT_EQ(elevator, "j-1");
  ASSERT_EQ(automatic, "j-2");
  HttpResponse got = client.Fetch("GET", "/v1/jobs/j-1/result");
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(WithoutTimings(got.body),
            WithoutTimings(std::string(kParentElevatorBody) + "\n"));
  got = client.Fetch("GET", "/v1/jobs/j-2/result");
  EXPECT_EQ(got.status, 200);
  EXPECT_EQ(WithoutTimings(got.body),
            WithoutTimings(std::string(kParentAutoBody) + "\n"));
  daemon.Stop();
}

TEST(DurableDaemonTest, RecoveredResultBodiesAreThePinnedBytes) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  WriteFileOrDie(dir + "/manifest.wal", kParentManifest);
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.state_dir = dir;
  {
    ChaseDaemon daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    DaemonClient client(daemon.port());
    HttpResponse got = client.Fetch("GET", "/v1/jobs/j-1/result");
    EXPECT_EQ(got.status, 200);
    EXPECT_EQ(got.body, std::string(kParentElevatorBody) + "\n");
    got = client.Fetch("GET", "/v1/jobs/j-2/result");
    EXPECT_EQ(got.status, 200);
    EXPECT_EQ(got.body, std::string(kParentAutoBody) + "\n");
    // DELETE evicts a finished job: its id answers 404 from then on.
    EXPECT_EQ(client.Fetch("DELETE", "/v1/jobs/j-2").status, 200);
    EXPECT_EQ(client.Fetch("GET", "/v1/jobs/j-2").status, 404);
    EXPECT_EQ(client.Fetch("GET", "/v1/jobs/j-2/result").status, 404);
    daemon.Stop();
  }
  // The tombstone holds across a restart, and a retention cap of one
  // evicts the older of two finished jobs.
  options.finished_job_retention = 1;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/j-2/result").status, 404);
  const std::string fresh = client.Submit("t", kClosure, CoreOptions(10));
  ASSERT_EQ(client.AwaitTerminal(fresh), "done");
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (client.Fetch("GET", "/v1/jobs/j-1").status != 404 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/j-1").status, 404);
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/j-1/result").status, 404);
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/" + fresh + "/result").status, 200);
  daemon.Stop();
}

TEST(DurableDaemonTest, ParentFormatManifestIsServedAsBefore) {
  const StateDir state_dir;
  const std::string& dir = state_dir.path();
  const std::string retained = R"({"state":"done","steps":5})";
  // j-1 finished before the restart, j-2 was admitted but never ran, j-3
  // asked for the removed incremental core, j-4 was queued behind it, j-5,
  // j-6 and j-7 asked for the fixed schedule off (existential rules first,
  // F_0 left uncored, coring after every third application).
  std::string manifest =
      LegacyAdmitLine("j-1", kClosure, 5, false) +
      FramedLine(R"({"type":"terminal","id":"j-1","state":"done","result":)" +
                 retained + "}") +
      LegacyAdmitLine("j-2", kStaircase, 40, false) +
      LegacyAdmitLine("j-3", kClosure, 5, true) +
      LegacyAdmitLine("j-4", kClosure, 50, false) +
      LegacyAdmitLine("j-5", kClosure, 5, false, /*datalog_first=*/false) +
      LegacyAdmitLine("j-6", kClosure, 5, false, true,
                      /*core_initial=*/false) +
      LegacyAdmitLine("j-7", kClosure, 5, false, true, true,
                      /*core_every=*/3);
  WriteFileOrDie(dir + "/manifest.wal", manifest);

  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.state_dir = dir;
  {
    ChaseDaemon daemon(options);
    ASSERT_TRUE(daemon.Start().ok());
    DaemonClient client(daemon.port());
    EXPECT_EQ(client.Healthz().Get("persistence").string_value(), "durable");

    // The retained result is served byte for byte.
    EXPECT_EQ(client.Result("j-1").Dump(), Json::Parse(retained)->Dump());

    // The interrupted jobs run to the same result an in-process run gives.
    for (const auto& [id, text, steps] :
         {std::tuple<const char*, const char*, size_t>{"j-2", kStaircase, 40},
          {"j-4", kClosure, 50}}) {
      ASSERT_EQ(client.AwaitTerminal(id), "done") << id;
      Json result = client.Result(id);
      auto program = ParseProgram(text);
      ASSERT_TRUE(program.ok());
      auto golden = RunChase(program->kb, CoreOptions(steps));
      ASSERT_TRUE(golden.ok());
      char hash[32];
      std::snprintf(hash, sizeof hash, "%016llx",
                    static_cast<unsigned long long>(
                        golden->derivation.Last().ContentHash()));
      EXPECT_EQ(result.Get("steps").number_value(), golden->steps) << id;
      EXPECT_EQ(result.Get("rounds").number_value(), golden->rounds) << id;
      EXPECT_EQ(result.Get("instance_hash").string_value(), hash) << id;
    }

    // The incremental-core job fails with a structured error; recovery of
    // the jobs around it went on.
    EXPECT_EQ(client.AwaitTerminal("j-3"), "failed");
    Json error = client.Result("j-3", 500);
    EXPECT_EQ(error.Get("error").Get("code").string_value(),
              "FailedPrecondition");
    EXPECT_NE(error.Get("error").Get("message").string_value().find(
                  "core.incremental_core"),
              std::string::npos)
        << error.Dump();
    // So do the jobs recorded off the fixed schedule, each naming its key.
    for (const auto& [id, key] :
         {std::pair<const char*, const char*>{"j-5", "options.datalog_first"},
          {"j-6", "options.core.core_initial"},
          {"j-7", "options.core.core_every"}}) {
      EXPECT_EQ(client.AwaitTerminal(id), "failed") << id;
      Json failed = client.Result(id, 500);
      EXPECT_EQ(failed.Get("error").Get("code").string_value(),
                "FailedPrecondition")
          << id;
      EXPECT_EQ(failed.Get("error").Get("message").string_value().rfind(
                    "unrecoverable after restart: ", 0),
                0u)
          << failed.Dump();
      EXPECT_NE(failed.Get("error").Get("message").string_value().find(key),
                std::string::npos)
          << failed.Dump();
    }

    // A fresh submission asking for it is a structured 400 on its path.
    auto body = Json::Parse(
        R"({"schema_version":1,"tenant":"acme","program":"e(a, b).",)"
        R"("options":{"core":{"incremental_core":true}}})");
    ASSERT_TRUE(body.ok());
    HttpResponse rejected = client.Fetch("POST", "/v1/jobs", body->Dump());
    EXPECT_EQ(rejected.status, 400) << rejected.body;
    auto rejection = Json::Parse(rejected.body);
    ASSERT_TRUE(rejection.ok()) << rejected.body;
    const Json& fields = rejection->Get("error").Get("fields");
    ASSERT_EQ(fields.items().size(), 1u) << rejected.body;
    EXPECT_EQ(fields.items()[0].Get("path").string_value(),
              "options.core.incremental_core");
    daemon.Stop();
  }

  // The failure was persisted: a second restart serves it without
  // re-running anything, next to the finished jobs.
  ChaseDaemon again(options);
  ASSERT_TRUE(again.Start().ok());
  DaemonClient client(again.port());
  EXPECT_EQ(client.AwaitTerminal("j-3"), "failed");
  EXPECT_EQ(client.AwaitTerminal("j-5"), "failed");
  EXPECT_EQ(client.AwaitTerminal("j-6"), "failed");
  EXPECT_EQ(client.AwaitTerminal("j-7"), "failed");
  EXPECT_EQ(client.AwaitTerminal("j-2"), "done");
  EXPECT_EQ(client.AwaitTerminal("j-4"), "done");
  again.Stop();
}

// ---------------------------------------------------------------------------
// Kill-at-any-fault-point sweep

// The durability contract under a single injected filesystem failure at
// every reachable persistence step: the live daemon's results are never
// perturbed (persistence degrades, the chase does not), and a restart on
// whatever the failure left behind either serves/recomputes the correct
// result, reports a structured unrecoverable error, or has no record of the
// job — never a hang, a crash, or a silently wrong answer.
TEST(DurabilityFaultSweepTest, AnySingleFsFaultDegradesGracefully) {
  struct Combo {
    FaultSite site;
    FaultAction action;
  };
  const Combo combos[] = {
      {FaultSite::kFsWrite, FaultAction::kShortWrite},
      {FaultSite::kFsWrite, FaultAction::kIoError},
      {FaultSite::kFsWrite, FaultAction::kNoSpace},
      {FaultSite::kFsFsync, FaultAction::kIoError},
      {FaultSite::kFsRename, FaultAction::kIoError},
  };
  constexpr uint64_t kMaxVisit = 4;

  // Golden hashes computed once.
  ChaseOptions long_chase = CoreOptions(60);
  ChaseOptions short_chase = CoreOptions(100);
  auto hash_of = [](const std::string& program_text,
                    const ChaseOptions& options) {
    auto program = ParseProgram(program_text);
    EXPECT_TRUE(program.ok());
    auto run = RunChase(program->kb, options);
    EXPECT_TRUE(run.ok());
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      run->derivation.Last().ContentHash()));
    return std::string(hash);
  };
  const std::string stair_hash = hash_of(kStaircase, long_chase);
  const std::string closure_hash = hash_of(kClosure, short_chase);

  for (const Combo& combo : combos) {
    for (uint64_t visit = 1; visit <= kMaxVisit; ++visit) {
      SCOPED_TRACE(std::string(FaultSiteName(combo.site)) + "/" +
                   FaultActionName(combo.action) + " visit " +
                   std::to_string(visit));
      const StateDir state_dir;
      const std::string& dir = state_dir.path();
      DaemonOptions options;
      options.workers = 1;  // the short job queues → the long one preempts
      options.per_tenant_quota = 8;
      options.preempt_after_ms = 25;
      options.state_dir = dir;

      FaultInjector injector;
      injector.Arm(combo.site, visit, combo.action);
      std::string stair_id, closure_id;
      {
        GlobalFsInjectorScope global(&injector);
        ChaseDaemon daemon(options);
        ASSERT_TRUE(daemon.Start().ok());
        DaemonClient client(daemon.port());
        stair_id = client.Submit("alpha", kStaircase, long_chase);
        closure_id = client.Submit("beta", kClosure, short_chase);
        // The chase itself never fails for a persistence reason.
        ASSERT_EQ(client.AwaitTerminal(stair_id, 120), "done");
        ASSERT_EQ(client.AwaitTerminal(closure_id, 120), "done");
        EXPECT_EQ(client.Result(stair_id).Get("instance_hash").string_value(),
                  stair_hash);
        EXPECT_EQ(
            client.Result(closure_id).Get("instance_hash").string_value(),
            closure_hash);
        Json health = client.Healthz();
        const std::string_view persistence =
            health.Get("persistence").string_value();
        EXPECT_TRUE(persistence == "durable" ||
                    persistence.rfind("degraded:", 0) == 0)
            << persistence;
        daemon.Stop();
      }

      // Restart on whatever the failure left on disk.
      ChaseDaemon restarted(options);
      ASSERT_TRUE(restarted.Start().ok());
      DaemonClient client(restarted.port());
      struct Expected {
        std::string id;
        std::string hash;
      };
      for (const Expected& job : {Expected{stair_id, stair_hash},
                                  Expected{closure_id, closure_hash}}) {
        std::string state = client.AwaitTerminal(job.id, 120);
        if (state == "missing") continue;  // admit never became durable
        if (state == "done") {
          EXPECT_EQ(client.Result(job.id).Get("instance_hash").string_value(),
                    job.hash)
              << job.id;
        } else {
          ASSERT_EQ(state, "failed") << job.id;
          Json error = client.Result(job.id, 500);
          EXPECT_FALSE(
              error.Get("error").Get("message").string_value().empty())
              << job.id;
        }
      }
      EXPECT_EQ(client.Healthz().Get("status").string_value(), "ok");
      restarted.Stop();
    }
  }
}

}  // namespace
}  // namespace twchase
