// Service-layer suite: wire schemas (ChaseOptions ⇄ JSON round-trip,
// structured 400 field paths, schema_version gating) and the multi-tenant
// daemon's concurrency/robustness contract — quota rejections that never
// perturb running jobs, preempt → checkpoint → resume bit-identity against
// an uninterrupted in-process run, cancellation freeing the tenant's slot,
// and a multi-tenant sweep through real HTTP.
//
// Runs under `ctest -L service`, including the TSan pass of tools/check.sh
// (HTTP handler threads, scheduler workers and the preemption monitor all
// race-checked).
#include <gtest/gtest.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/chase.h"
#include "core/session.h"
#include "obs/observer.h"
#include "obs/stock_observers.h"
#include "parser/parser.h"
#include "service/daemon.h"
#include "service/http.h"
#include "service/json.h"
#include "service/wire.h"
#include "util/job_scheduler.h"

namespace twchase {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures

constexpr const char* kStaircase = R"(
f(X00), h(X00, X00).
[Rh1] h(X, Y), v(X, Xp), h(Xp, Yp), v(Y, Yp), c(Yp) :- h(X, X).
[Rh2] c(Yp), h(X, Y), v(Y, Yp) :- h(X, X), v(X, Xp), h(Xp, Xp), h(Xp, Yp).
[Rh3] f(Y), h(Y, Y) :- f(X), h(X, X), h(X, Y).
[Rh4] h(Xp, Xp) :- h(X, X), v(X, Xp), c(Xp).
? :- f(X), v(X, Y), c(Y).
? :- c(X), f(X).
)";

constexpr const char* kClosure = R"(
e(a, b), e(b, c), e(c, d).
[t] e(X, Z) :- e(X, Y), e(Y, Z).
?(X, Y) :- e(X, Y).
)";

ChaseOptions SmallCoreOptions(size_t max_steps) {
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  options.limits.max_steps = max_steps;
  return options;
}

struct GoldenRun {
  size_t steps = 0;
  size_t rounds = 0;
  std::string stop_reason;
  std::string instance_hash;
  std::string events;
};

// The uninterrupted in-process reference: same program text, same options,
// full event capture — what every daemon-executed run must be bit-identical
// to.
GoldenRun RunGolden(const std::string& program_text, ChaseOptions options) {
  auto program = ParseProgram(program_text);
  EXPECT_TRUE(program.ok()) << program.status();
  std::ostringstream events;
  EventLogObserver event_log(&events);
  ObserverList observers;
  observers.Add(&event_log);
  options.observer = &observers;
  auto session = ChaseSession::Create(program->kb, options);
  EXPECT_TRUE(session.ok()) << session.status();
  Status started = (*session)->Start();
  EXPECT_TRUE(started.ok()) << started;
  const ChaseResult& result = (*session)->Result();
  GoldenRun golden;
  golden.steps = result.steps;
  golden.rounds = result.rounds;
  golden.stop_reason = StopReasonName(result.stop_reason);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64,
                result.derivation.Last().ContentHash());
  golden.instance_hash = buffer;
  golden.events = events.str();
  return golden;
}

Json MakeJobBody(const std::string& tenant, const std::string& program,
                 const ChaseOptions& options, bool capture_events = false) {
  Json body = Json::Object();
  body.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  body.Set("tenant", Json::String(tenant));
  body.Set("program", Json::String(program));
  body.Set("options", ChaseOptionsToJson(options));
  if (capture_events) body.Set("capture_events", Json::Bool(true));
  return body;
}

class DaemonClient {
 public:
  explicit DaemonClient(uint16_t port) : port_(port) {}

  HttpResponse Fetch(const std::string& method, const std::string& target,
                     const std::string& body = "") {
    auto response = HttpFetch("127.0.0.1", port_, method, target, body);
    EXPECT_TRUE(response.ok()) << response.status();
    if (!response.ok()) return HttpResponse{599, "", ""};
    // Every JSON payload the daemon serves survives Parse→Dump byte for
    // byte (the writer's output is what the parser keeps).
    if (!response->body.empty() && response->body.front() == '{') {
      auto parsed = Json::Parse(response->body);
      EXPECT_TRUE(parsed.ok()) << response->body;
      if (parsed.ok()) {
        EXPECT_EQ(parsed->Dump() + "\n", response->body);
      }
    }
    return *response;
  }

  /// Submits and expects 202; returns the job id.
  std::string Submit(const Json& body) {
    HttpResponse response = Fetch("POST", "/v1/jobs", body.Dump());
    EXPECT_EQ(response.status, 202) << response.body;
    auto json = Json::Parse(response.body);
    EXPECT_TRUE(json.ok());
    return json.ok() ? std::string(json->Get("job").Get("id").string_value())
                   : "";
  }

  /// Polls the job until a terminal state (bounded), returns that state.
  std::string AwaitTerminal(const std::string& id, int timeout_seconds = 60) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(timeout_seconds);
    while (std::chrono::steady_clock::now() < deadline) {
      HttpResponse response = Fetch("GET", "/v1/jobs/" + id);
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

  Json Result(const std::string& id) {
    HttpResponse response = Fetch("GET", "/v1/jobs/" + id + "/result");
    EXPECT_EQ(response.status, 200) << response.body;
    auto json = Json::Parse(response.body);
    EXPECT_TRUE(json.ok()) << response.body;
    return json.ok() ? *json : Json();
  }

 private:
  uint16_t port_;
};

// ---------------------------------------------------------------------------
// Wire schema tests (no daemon)

TEST(WireTest, ChaseOptionsRoundTripsThroughJson) {
  ChaseOptions options;
  options.variant = ChaseVariant::kFrugal;
  options.limits.max_steps = 123;
  options.limits.max_instance_size = 456;
  options.limits.deadline_ms = 789;
  options.limits.memory_budget_bytes = 1u << 20;
  options.resume.record_log = true;

  Json wire = ChaseOptionsToJson(options);
  auto reparsed = Json::Parse(wire.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();

  ChaseOptions back;
  FieldError error;
  Status status = ChaseOptionsFromJson(*reparsed, "options", &back, &error);
  ASSERT_TRUE(status.ok()) << status << " at " << error.path;

  EXPECT_EQ(back.variant, options.variant);
  EXPECT_EQ(back.limits.max_steps, options.limits.max_steps);
  EXPECT_EQ(back.limits.max_instance_size, options.limits.max_instance_size);
  EXPECT_EQ(back.limits.deadline_ms, options.limits.deadline_ms);
  EXPECT_EQ(back.limits.memory_budget_bytes,
            options.limits.memory_budget_bytes);
  EXPECT_EQ(back.resume.record_log, options.resume.record_log);

  // Defaults round-trip too (deadline_ms omitted when unset).
  ChaseOptions defaults;
  Json wire_defaults = ChaseOptionsToJson(defaults);
  EXPECT_FALSE(wire_defaults.Get("limits").Has("deadline_ms"));
  ChaseOptions defaults_back;
  ASSERT_TRUE(
      ChaseOptionsFromJson(wire_defaults, "", &defaults_back, &error).ok());
  EXPECT_FALSE(defaults_back.limits.deadline_ms.has_value());
}

TEST(WireTest, UnknownAndMistypedFieldsReportExactPaths) {
  ChaseOptions options;
  FieldError error;

  auto bad_key = Json::Parse(R"({"core": {"core_evry": 2}})");
  ASSERT_TRUE(bad_key.ok());
  Status status = ChaseOptionsFromJson(*bad_key, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.core.core_evry");
  EXPECT_EQ(error.message, "unknown field");

  auto bad_type = Json::Parse(R"({"limits": {"max_steps": "many"}})");
  ASSERT_TRUE(bad_type.ok());
  status = ChaseOptionsFromJson(*bad_type, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.limits.max_steps");

  auto negative = Json::Parse(R"({"limits": {"max_instance_size": -2}})");
  ASSERT_TRUE(negative.ok());
  status = ChaseOptionsFromJson(*negative, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.limits.max_instance_size");
}

// Options objects written before incremental core maintenance, the
// parallel match fan-out, the delta and planner switches and per-step
// derivation snapshots were removed still parse: their keys are read (type-checked) and ignored. Only a
// request for the removed incremental mode is refused, with a field error
// on its exact path. The writer no longer emits any of them.
TEST(WireTest, LegacyOptionKeysAreReadAndIgnored) {
  auto legacy = Json::Parse(
      R"({"variant": "core", "keep_snapshots": true,)"
      R"( "core": {"core_every": 1,)"
      R"( "core_at_round_end": false, "core_initial": true,)"
      R"( "incremental_core": false, "dirty_radius": 2},)"
      R"( "delta": {"enabled": false},)"
      R"( "plan": {"enabled": false, "skip_dormant": true,)"
      R"( "core_guard": false}, "parallel": {"threads": 4}})");
  ASSERT_TRUE(legacy.ok());
  ChaseOptions options;
  FieldError error;
  Status status = ChaseOptionsFromJson(*legacy, "options", &options, &error);
  ASSERT_TRUE(status.ok()) << status << " at " << error.path;
  EXPECT_EQ(options.variant, ChaseVariant::kCore);
  EXPECT_TRUE(options.Validate().ok());

  auto no_snapshots = Json::Parse(R"({"keep_snapshots": false})");
  ASSERT_TRUE(no_snapshots.ok());
  status = ChaseOptionsFromJson(*no_snapshots, "options", &options, &error);
  EXPECT_TRUE(status.ok()) << status << " at " << error.path;

  auto mistyped_snapshots = Json::Parse(R"({"keep_snapshots": "yes"})");
  ASSERT_TRUE(mistyped_snapshots.ok());
  status =
      ChaseOptionsFromJson(*mistyped_snapshots, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.keep_snapshots");

  auto incremental = Json::Parse(R"({"core": {"incremental_core": true}})");
  ASSERT_TRUE(incremental.ok());
  status = ChaseOptionsFromJson(*incremental, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.core.incremental_core");

  auto mistyped = Json::Parse(R"({"parallel": {"threads": "four"}})");
  ASSERT_TRUE(mistyped.ok());
  status = ChaseOptionsFromJson(*mistyped, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.parallel.threads");

  auto mistyped_plan = Json::Parse(R"({"plan": {"core_guard": "yes"}})");
  ASSERT_TRUE(mistyped_plan.ok());
  status = ChaseOptionsFromJson(*mistyped_plan, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.plan.core_guard");

  auto mistyped_delta = Json::Parse(R"({"delta": {"enabled": 0}})");
  ASSERT_TRUE(mistyped_delta.ok());
  status = ChaseOptionsFromJson(*mistyped_delta, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.delta.enabled");

  auto mistyped_switch = Json::Parse(R"({"plan": {"enabled": "off"}})");
  ASSERT_TRUE(mistyped_switch.ok());
  status = ChaseOptionsFromJson(*mistyped_switch, "options", &options, &error);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(error.path, "options.plan.enabled");

  Json wire = ChaseOptionsToJson(ChaseOptions{});
  EXPECT_FALSE(wire.Has("keep_snapshots"));
  EXPECT_FALSE(wire.Has("parallel"));
  EXPECT_FALSE(wire.Has("delta"));
  EXPECT_FALSE(wire.Has("plan"));
  EXPECT_FALSE(wire.Get("core").Has("incremental_core"));
  EXPECT_FALSE(wire.Get("core").Has("dirty_radius"));
}

// datalog_first and core.core_initial name the paper's fixed schedule:
// datalog rules first, F_0 cored by the core chase. Options objects written
// while they were settable carry them; true (or a missing key) is what
// every run does, false is refused on the key's path. The writer omits both.
// core.core_at_round_end named the removed round-end coring schedule, the
// other way round: false is what every run does, true is refused, and the
// writer keeps emitting false so admit records keep their bytes.
// core.core_every named the coring spacing: 1 is what every run does, any
// other count is refused, and the writer keeps emitting 1.
TEST(WireTest, FixedScheduleKeysAcceptOnlyTrue) {
  for (const char* accepted :
       {R"({"datalog_first": true, "core": {"core_initial": true}})",
        R"({"core": {"core_every": 1}})",
        R"({"core": {"core_at_round_end": false}})"}) {
    auto json = Json::Parse(accepted);
    ASSERT_TRUE(json.ok()) << accepted;
    ChaseOptions options;
    FieldError error;
    Status status = ChaseOptionsFromJson(*json, "options", &options, &error);
    EXPECT_TRUE(status.ok()) << accepted << ": " << status << " at "
                             << error.path;
  }
  const std::pair<const char*, const char*> refused[] = {
      {R"({"datalog_first": false})", "options.datalog_first"},
      {R"({"core": {"core_initial": false}})", "options.core.core_initial"},
      {R"({"datalog_first": 1})", "options.datalog_first"},
      {R"({"core": {"core_at_round_end": true}})",
       "options.core.core_at_round_end"},
      {R"({"core": {"core_every": 0}})", "options.core.core_every"},
      {R"({"core": {"core_every": 2}})", "options.core.core_every"},
      {R"({"core": {"core_every": 3}})", "options.core.core_every"},
  };
  for (const auto& [payload, path] : refused) {
    auto json = Json::Parse(payload);
    ASSERT_TRUE(json.ok()) << payload;
    ChaseOptions options;
    FieldError error;
    Status status = ChaseOptionsFromJson(*json, "options", &options, &error);
    EXPECT_FALSE(status.ok()) << payload;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << payload;
    EXPECT_EQ(error.path, path) << payload;
  }
  Json wire = ChaseOptionsToJson(ChaseOptions{});
  EXPECT_FALSE(wire.Has("datalog_first"));
  EXPECT_FALSE(wire.Get("core").Has("core_initial"));
  ASSERT_TRUE(wire.Get("core").Has("core_at_round_end"));
  EXPECT_FALSE(wire.Get("core").Get("core_at_round_end").bool_value());
  ASSERT_TRUE(wire.Get("core").Has("core_every"));
  EXPECT_EQ(wire.Get("core").Get("core_every").number_value(), 1.0);
}

TEST(WireTest, ValidateMessagesLiftIntoFieldErrors) {
  ChaseOptions options;
  options.preflight.auto_variant = true;
  Status invalid = options.Validate();
  ASSERT_FALSE(invalid.ok());
  FieldError lifted = FieldErrorFromValidate(invalid, "options");
  EXPECT_EQ(lifted.path, "options.preflight.auto_variant");
  EXPECT_EQ(lifted.message.rfind("requires resolution", 0), 0u)
      << lifted.message;

  FieldError unprefixed =
      FieldErrorFromValidate(Status::InvalidArgument("Everything broke"), "o");
  EXPECT_EQ(unprefixed.path, "o");
  EXPECT_EQ(unprefixed.message, "Everything broke");
}

TEST(WireTest, JobRequestRequiresMatchingSchemaVersion) {
  JobRequest request;
  std::vector<FieldError> errors;

  auto missing = Json::Parse(R"({"tenant": "t", "program": "p(a)."})");
  ASSERT_TRUE(missing.ok());
  Status status = JobRequestFromJson(*missing, &request, &errors);
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].path, "schema_version");

  errors.clear();
  auto wrong = Json::Parse(
      R"({"schema_version": 999, "tenant": "t", "program": "p(a)."})");
  ASSERT_TRUE(wrong.ok());
  status = JobRequestFromJson(*wrong, &request, &errors);
  EXPECT_FALSE(status.ok());
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].path, "schema_version");
  EXPECT_NE(errors[0].message.find("version 1"), std::string::npos);

  errors.clear();
  auto good = Json::Parse(
      R"({"schema_version": 1, "tenant": "t", "program": "p(a)."})");
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(JobRequestFromJson(*good, &request, &errors).ok());
  EXPECT_EQ(request.tenant, "t");
  EXPECT_EQ(request.program, "p(a).");
}

TEST(JsonTest, StrictParserRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
  EXPECT_FALSE(Json::Parse("{\"a\": 01x}").ok());
  EXPECT_FALSE(Json::Parse(std::string(100, '[') + std::string(100, ']'))
                   .ok());  // depth bomb
  auto ok = Json::Parse(R"({"a": [1, 2.5, "x\n", true, null]})");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->Dump(), R"({"a":[1,2.5,"x\n",true,null]})");
}

// Strings up to 14 bytes live in the 16-byte node, longer ones and every
// container in one heap block; copies are deep, moves leave null behind,
// and Set keeps first-insertion order.
TEST(JsonTest, CompactNodesKeepValuesAndOrder) {
  const std::string inline_text(14, 'a');
  const std::string long_text(15, 'b');
  Json object = Json::Object();
  object.Set("inline", Json::String(inline_text));
  object.Set("long", Json::String(long_text));
  Json numbers = Json::Array();
  for (uint64_t i = 0; i < 100; ++i) numbers.Append(Json::Number(i));
  object.Set("numbers", std::move(numbers));
  EXPECT_TRUE(numbers.is_null());
  object.Set("inline", Json::String("replaced"));
  object.Set("empty", Json::Object());

  ASSERT_EQ(object.members().size(), 4u);
  EXPECT_EQ(object.members()[0].key.string_value(), "inline");
  EXPECT_EQ(object.Get("inline").string_value(), "replaced");
  EXPECT_EQ(object.Get("long").string_value(), long_text);
  ASSERT_EQ(object.Get("numbers").items().size(), 100u);
  EXPECT_EQ(object.Get("numbers").items()[99].number_value(), 99);
  EXPECT_TRUE(object.Get("empty").members().empty());
  EXPECT_TRUE(object.Get("missing").is_null());
  EXPECT_EQ(object.Get("long").items().size(), 0u);

  Json copy = object;
  copy.Set("long", Json::String(inline_text));
  EXPECT_EQ(object.Get("long").string_value(), long_text);
  EXPECT_EQ(copy.Dump(), Json::Parse(copy.Dump())->Dump());

  const std::string text = object.Dump();
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Dump(), text);
  parsed->Set("added", Json::Bool(true));
  EXPECT_TRUE(parsed->Get("added").bool_value());
  EXPECT_EQ(parsed->Get("long").string_value(), long_text);

  // A repeated key overwrites in place, as Set does.
  auto repeated = Json::Parse(R"({"k": 1, "j": 2, "k": "longer than 14 bytes"})");
  ASSERT_TRUE(repeated.ok());
  EXPECT_EQ(repeated->Dump(), R"({"k":"longer than 14 bytes","j":2})");
}

// A parsed document is one block: nested values and keys borrow from it.
// Copies taken out of it own their storage and outlive it, moving it keeps
// the block, and Set on its root copies it out first.
TEST(JsonTest, ParsedDocumentsCopyOutOfTheirBlock) {
  const std::string text =
      R"({"state":"done","a key longer than fourteen":{"nested \"q\"":)"
      R"(["a string longer than 14 bytes",1,{"text":"x"}]},"queries":[]})";
  Json nested;
  std::string dumped;
  {
    auto parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok());
    Json document = std::move(*parsed);
    dumped = document.Dump();
    EXPECT_EQ(dumped, text);
    EXPECT_EQ(document.members()[1].key.string_value(),
              "a key longer than fourteen");
    nested = document.Get("a key longer than fourteen");
    Json moved = std::move(document);
    EXPECT_EQ(moved.Dump(), text);
    moved.Set("state", Json::String("cancelled"));
    moved.Set("another key longer than fourteen", Json::Bool(true));
    EXPECT_EQ(moved.Get("a key longer than fourteen").Dump(), nested.Dump());
    EXPECT_TRUE(moved.Get("another key longer than fourteen").bool_value());
  }
  // The copy survives the document it came from.
  EXPECT_EQ(nested.members()[0].key.string_value(), "nested \"q\"");
  EXPECT_EQ(nested.Get("nested \"q\"").items()[0].string_value(),
            "a string longer than 14 bytes");
  EXPECT_EQ(nested.Get("nested \"q\"").items()[2].Get("text").string_value(),
            "x");
  nested.Set("nested \"q\"", Json::Number(uint64_t{2}));
  EXPECT_EQ(nested.Dump(), R"({"nested \"q\"":2})");
}

// Keys are shared up to a bound: a flood of distinct keys, and keys too
// long to share, are stored with their objects and read back the same.
TEST(JsonTest, KeysPastTheSharedBoundsStayWithTheirObjects) {
  std::string text = "{";
  for (int i = 0; i < 3000; ++i) {
    text += "\"flood key " + std::to_string(i) + "\":" + std::to_string(i) + ",";
  }
  const std::string long_key(100, 'k');
  text += "\"" + long_key + "\":true}";
  Json copy;
  {
    auto parsed = Json::Parse(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->Dump(), text);
    EXPECT_EQ(parsed->Get("flood key 2999").number_value(), 2999);
    EXPECT_TRUE(parsed->Get(long_key).bool_value());
    copy = *parsed;
  }
  EXPECT_EQ(copy.Dump(), text);
  copy.Set("flood key 0", Json::Number(uint64_t{7}));
  EXPECT_EQ(copy.members()[0].key.string_value(), "flood key 0");
  EXPECT_EQ(copy.Get("flood key 0").number_value(), 7);
}

// ---------------------------------------------------------------------------
// Scheduler unit tests (no HTTP)

class FakeJob : public PreemptibleJob {
 public:
  explicit FakeJob(int segments_until_done) : remaining_(segments_until_done) {}

  // Each segment sleeps briefly and self-pauses until the budget is spent,
  // exercising the requeue path; cancellation terminates at the next segment.
  Outcome RunSegment() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (cancelled_.load()) return Outcome::kCompleted;
    return --remaining_ <= 0 ? Outcome::kCompleted : Outcome::kPaused;
  }
  void RequestPause() override {}
  void RequestCancel() override { cancelled_.store(true); }

 private:
  std::atomic<int> remaining_;
  std::atomic<bool> cancelled_{false};
};

TEST(JobSchedulerTest, EnforcesPerTenantQuotaAndFreesSlots) {
  JobScheduler::Options options;
  options.workers = 2;
  options.per_tenant_quota = 2;
  JobScheduler scheduler(options);
  ASSERT_TRUE(scheduler.Start().ok());

  std::atomic<int> finished{0};
  auto done = [&](PreemptibleJob::Outcome) { ++finished; };
  ASSERT_TRUE(
      scheduler.Submit("a", std::make_shared<FakeJob>(3), done).ok());
  ASSERT_TRUE(
      scheduler.Submit("a", std::make_shared<FakeJob>(3), done).ok());
  Status third = scheduler.Submit("a", std::make_shared<FakeJob>(1), done);
  EXPECT_EQ(third.code(), StatusCode::kResourceExhausted) << third;
  // Another tenant is unaffected by a's exhaustion.
  ASSERT_TRUE(
      scheduler.Submit("b", std::make_shared<FakeJob>(1), done).ok());

  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (finished.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(finished.load(), 3);
  EXPECT_EQ(scheduler.InFlight(), 0u);
  // Slots freed: tenant a admits again.
  EXPECT_TRUE(scheduler.Submit("a", std::make_shared<FakeJob>(1), done).ok());
  scheduler.Stop();
  EXPECT_EQ(scheduler.InFlight(), 0u);
  EXPECT_GE(scheduler.GetStats().completed, 4u);
  EXPECT_EQ(scheduler.GetStats().rejected, 1u);
}

TEST(JobSchedulerTest, StopCancelsAndDrainsEverything) {
  JobScheduler::Options options;
  options.workers = 1;
  options.per_tenant_quota = 8;
  JobScheduler scheduler(options);
  ASSERT_TRUE(scheduler.Start().ok());
  std::atomic<int> finished{0};
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(scheduler
                    .Submit("t", std::make_shared<FakeJob>(1000),
                            [&](PreemptibleJob::Outcome) { ++finished; })
                    .ok());
  }
  scheduler.Stop();
  // Every admitted job got its exactly-once callback and no slot leaked.
  EXPECT_EQ(finished.load(), 6);
  EXPECT_EQ(scheduler.InFlight(), 0u);
}

// Regression: the preemption monitor used to wait on the workers' cv, so a
// Submit's notify_one could wake the monitor instead of a worker and leave
// the job stranded in the queue until some later Submit. Sequential
// submit-then-wait rounds with the monitor polling give the lost wakeup
// many chances; each round's deadline catches a stall.
TEST(JobSchedulerTest, MonitorNeverConsumesWorkerWakeups) {
  JobScheduler::Options options;
  options.workers = 1;
  options.per_tenant_quota = 1;
  options.preempt_after_ms = 20;  // 5ms monitor poll
  JobScheduler scheduler(options);
  ASSERT_TRUE(scheduler.Start().ok());

  for (int round = 0; round < 40; ++round) {
    std::atomic<bool> finished{false};
    ASSERT_TRUE(scheduler
                    .Submit("t", std::make_shared<FakeJob>(1),
                            [&](PreemptibleJob::Outcome) { finished = true; })
                    .ok());
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!finished.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(finished.load())
        << "job stalled in queue on round " << round;
  }
  scheduler.Stop();
}

// ---------------------------------------------------------------------------
// Daemon end-to-end tests

TEST(DaemonTest, ServesJobResultsIdenticalToInProcessRuns) {
  DaemonOptions options;
  options.workers = 2;
  options.preempt_after_ms.reset();
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  ChaseOptions chase = SmallCoreOptions(40);
  std::string id =
      client.Submit(MakeJobBody("alpha", kStaircase, chase, true));
  ASSERT_FALSE(id.empty());
  EXPECT_EQ(client.AwaitTerminal(id), "done");

  Json result = client.Result(id);
  GoldenRun golden = RunGolden(kStaircase, chase);
  EXPECT_EQ(result.Get("steps").number_value(), golden.steps);
  EXPECT_EQ(result.Get("rounds").number_value(), golden.rounds);
  EXPECT_EQ(result.Get("stop_reason").string_value(), golden.stop_reason);
  EXPECT_EQ(result.Get("instance_hash").string_value(), golden.instance_hash);
  EXPECT_EQ(result.Get("events").string_value(), golden.events);
  EXPECT_EQ(result.Get("schema_version").number_value(), kWireSchemaVersion);

  // Answer-variable queries come back as tuples.
  std::string closure_id =
      client.Submit(MakeJobBody("alpha", kClosure, SmallCoreOptions(100)));
  EXPECT_EQ(client.AwaitTerminal(closure_id), "done");
  Json closure = client.Result(closure_id);
  ASSERT_TRUE(closure.Get("queries").is_array());
  EXPECT_EQ(closure.Get("queries").items().size(), 1u);
  EXPECT_EQ(closure.Get("queries").items()[0].Get("answers").items().size(),
            6u);  // transitive closure of a 4-chain

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

TEST(DaemonTest, QuotaRejectionsDoNotPerturbRunningJobs) {
  DaemonOptions options;
  options.workers = 1;
  options.per_tenant_quota = 1;
  options.preempt_after_ms.reset();
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  ChaseOptions chase = SmallCoreOptions(120);
  std::string running =
      client.Submit(MakeJobBody("alpha", kStaircase, chase, true));

  // The tenant's second submission bounces with 429 while the first runs...
  HttpResponse rejected = client.Fetch(
      "POST", "/v1/jobs", MakeJobBody("alpha", kClosure, chase).Dump());
  EXPECT_EQ(rejected.status, 429) << rejected.body;
  auto rejection = Json::Parse(rejected.body);
  ASSERT_TRUE(rejection.ok());
  EXPECT_EQ(rejection->Get("error").Get("code").string_value(),
            "ResourceExhausted");

  // ...another tenant is admitted...
  std::string other =
      client.Submit(MakeJobBody("beta", kClosure, SmallCoreOptions(100)));
  EXPECT_EQ(client.AwaitTerminal(other), "done");

  // ...and the rejected submission left the running job bit-identical.
  EXPECT_EQ(client.AwaitTerminal(running), "done");
  Json result = client.Result(running);
  GoldenRun golden = RunGolden(kStaircase, chase);
  EXPECT_EQ(result.Get("steps").number_value(), golden.steps);
  EXPECT_EQ(result.Get("instance_hash").string_value(), golden.instance_hash);
  EXPECT_EQ(result.Get("events").string_value(), golden.events);

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

TEST(DaemonTest, PreemptedJobResumesBitIdentically) {
  DaemonOptions options;
  options.workers = 1;  // one worker: queued jobs force preemption
  options.per_tenant_quota = 8;
  options.preempt_after_ms = 25;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  // A long job (hundreds of core-chase steps), then short jobs arriving
  // behind it so the monitor preempts the long one repeatedly. 200 steps
  // now finish in about 60 ms, too close to the 25 ms preemption bound.
  ChaseOptions long_chase = SmallCoreOptions(600);
  std::string long_id =
      client.Submit(MakeJobBody("alpha", kStaircase, long_chase, true));
  std::vector<std::string> short_ids;
  for (int i = 0; i < 3; ++i) {
    short_ids.push_back(
        client.Submit(MakeJobBody("beta", kClosure, SmallCoreOptions(100))));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  for (const std::string& id : short_ids) {
    EXPECT_EQ(client.AwaitTerminal(id), "done");
  }
  EXPECT_EQ(client.AwaitTerminal(long_id, 120), "done");

  Json result = client.Result(long_id);
  // The run really was preempted (checkpointed and resumed)...
  EXPECT_GE(result.Get("segments").number_value(), 2)
      << "preemption monitor never fired; test lost its purpose";
  // ...and is bit-identical to the uninterrupted reference: same steps and
  // rounds, same final instance, same full observer event stream.
  GoldenRun golden = RunGolden(kStaircase, long_chase);
  EXPECT_EQ(result.Get("steps").number_value(), golden.steps);
  EXPECT_EQ(result.Get("rounds").number_value(), golden.rounds);
  EXPECT_EQ(result.Get("stop_reason").string_value(), golden.stop_reason);
  EXPECT_EQ(result.Get("instance_hash").string_value(), golden.instance_hash);
  EXPECT_EQ(result.Get("events").string_value(), golden.events);

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

TEST(DaemonTest, CancellationFreesTheTenantSlot) {
  DaemonOptions options;
  options.workers = 1;
  options.per_tenant_quota = 1;
  options.preempt_after_ms.reset();
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  // Effectively unbounded job (the step budget would take minutes).
  ChaseOptions chase = SmallCoreOptions(1000000);
  std::string id = client.Submit(MakeJobBody("alpha", kStaircase, chase));

  HttpResponse cancel = client.Fetch("DELETE", "/v1/jobs/" + id);
  EXPECT_EQ(cancel.status, 200) << cancel.body;
  EXPECT_EQ(client.AwaitTerminal(id), "cancelled");
  Json result = client.Result(id);
  EXPECT_EQ(result.Get("state").string_value(), "cancelled");
  EXPECT_EQ(result.Get("stop_reason").string_value(), "cancelled");

  // The slot is free again: the same tenant admits a fresh job (allow a
  // brief window for the scheduler to retire the cancelled one).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int admitted_status = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    HttpResponse retry = client.Fetch(
        "POST", "/v1/jobs",
        MakeJobBody("alpha", kClosure, SmallCoreOptions(100)).Dump());
    admitted_status = retry.status;
    if (admitted_status == 202) break;
    EXPECT_EQ(admitted_status, 429) << retry.body;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(admitted_status, 202);

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

TEST(DaemonTest, MultiTenantSweepCompletesAllJobs) {
  DaemonOptions options;
  options.workers = 4;
  options.per_tenant_quota = 4;
  options.preempt_after_ms = 50;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  // 12 concurrent jobs across 3 tenants, mixing both workloads.
  const std::vector<std::string> tenants = {"alpha", "beta", "gamma"};
  ChaseOptions stair = SmallCoreOptions(30);
  ChaseOptions closure = SmallCoreOptions(100);
  GoldenRun stair_golden = RunGolden(kStaircase, stair);
  GoldenRun closure_golden = RunGolden(kClosure, closure);

  struct Submitted {
    std::string id;
    bool is_stair;
  };
  std::vector<Submitted> jobs;
  for (const std::string& tenant : tenants) {
    for (int i = 0; i < 4; ++i) {
      bool is_stair = (i % 2 == 0);
      jobs.push_back({client.Submit(MakeJobBody(
                          tenant, is_stair ? kStaircase : kClosure,
                          is_stair ? stair : closure)),
                      is_stair});
    }
  }
  ASSERT_EQ(jobs.size(), 12u);
  for (const Submitted& job : jobs) {
    EXPECT_EQ(client.AwaitTerminal(job.id, 120), "done");
    Json result = client.Result(job.id);
    const GoldenRun& golden = job.is_stair ? stair_golden : closure_golden;
    EXPECT_EQ(result.Get("steps").number_value(), golden.steps) << job.id;
    EXPECT_EQ(result.Get("instance_hash").string_value(),
              golden.instance_hash)
        << job.id;
  }

  // A job's HTTP state flips to "done" inside its final segment; the
  // scheduler's completed counter increments just after that segment
  // returns. The counter is eventually consistent with the observed
  // states, so poll briefly instead of racing the last worker.
  Json parsed_metrics;
  for (int attempt = 0; attempt < 200; ++attempt) {
    HttpResponse metrics = client.Fetch("GET", "/v1/metrics");
    auto parsed = Json::Parse(metrics.body);
    ASSERT_TRUE(parsed.ok());
    parsed_metrics = *parsed;
    if (parsed_metrics.Get("scheduler").Get("completed").number_value() >= 12)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const Json& parsed = parsed_metrics;
  EXPECT_EQ(parsed.Get("scheduler").Get("admitted").number_value(), 12);
  EXPECT_EQ(parsed.Get("scheduler").Get("completed").number_value(), 12);
  EXPECT_EQ(parsed.Get("scheduler").Get("failed").number_value(), 0);
  // Fleet metrics aggregated every job's registry.
  EXPECT_EQ(parsed.Get("fleet")
                .Get("histograms")
                .Get("service.job.steps")
                .Get("count")
                .number_value(),
            12);

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

TEST(DaemonTest, PerJobDeadlinesStopOnlyTheirOwnJob) {
  DaemonOptions options;
  options.workers = 2;
  options.preempt_after_ms.reset();
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  // Two jobs with mixed budgets run side by side: one with an effectively
  // unbounded step budget but a tiny wall-clock deadline, one with a small
  // step budget and no deadline. Each stops for its own reason.
  ChaseOptions deadline_bound = SmallCoreOptions(100000000);
  deadline_bound.limits.deadline_ms = 30;
  std::string deadline_id =
      client.Submit(MakeJobBody("alpha", kStaircase, deadline_bound));
  ChaseOptions step_bound = SmallCoreOptions(20);
  std::string step_id =
      client.Submit(MakeJobBody("beta", kStaircase, step_bound));

  EXPECT_EQ(client.AwaitTerminal(deadline_id), "done");
  EXPECT_EQ(client.AwaitTerminal(step_id), "done");
  Json deadline_result = client.Result(deadline_id);
  EXPECT_EQ(deadline_result.Get("stop_reason").string_value(), "deadline");
  Json step_result = client.Result(step_id);
  EXPECT_EQ(step_result.Get("stop_reason").string_value(), "step-budget");
  // The deadline-stopped neighbour never perturbed the step-bound run.
  GoldenRun golden = RunGolden(kStaircase, step_bound);
  EXPECT_EQ(step_result.Get("steps").number_value(), golden.steps);
  EXPECT_EQ(step_result.Get("instance_hash").string_value(),
            golden.instance_hash);

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

TEST(DaemonTest, HttpErrorsAreStructuredAndVersioned) {
  DaemonOptions options;
  options.workers = 1;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  // Malformed JSON body → 400 with a parse message.
  HttpResponse bad_json = client.Fetch("POST", "/v1/jobs", "{nope");
  EXPECT_EQ(bad_json.status, 400);

  // Unknown option field → 400 with the exact dotted path.
  Json body = MakeJobBody("t", "p(a).", ChaseOptions{});
  Json opts = Json::Object();
  opts.Set("coar", Json::Object());
  body.Set("options", std::move(opts));
  HttpResponse bad_field = client.Fetch("POST", "/v1/jobs", body.Dump());
  EXPECT_EQ(bad_field.status, 400);
  auto parsed = Json::Parse(bad_field.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("error")
                .Get("fields")
                .items()[0]
                .Get("path")
                .string_value(),
            "options.coar");

  // A coring spacing other than 1 → 400 on its key.
  body = MakeJobBody("t", "p(a).", ChaseOptions{});
  auto spaced = Json::Parse(R"({"core": {"core_every": 0}})");
  ASSERT_TRUE(spaced.ok());
  body.Set("options", *spaced);
  HttpResponse bad_options = client.Fetch("POST", "/v1/jobs", body.Dump());
  EXPECT_EQ(bad_options.status, 400);
  parsed = Json::Parse(bad_options.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("error")
                .Get("fields")
                .items()[0]
                .Get("path")
                .string_value(),
            "options.core.core_every");

  // The removed round-end coring schedule → 400 on its key.
  body = MakeJobBody("t", "p(a).", ChaseOptions{});
  auto round_end = Json::Parse(R"({"core": {"core_at_round_end": true}})");
  ASSERT_TRUE(round_end.ok());
  body.Set("options", *round_end);
  HttpResponse bad_schedule = client.Fetch("POST", "/v1/jobs", body.Dump());
  EXPECT_EQ(bad_schedule.status, 400);
  parsed = Json::Parse(bad_schedule.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("error")
                .Get("fields")
                .items()[0]
                .Get("path")
                .string_value(),
            "options.core.core_at_round_end");

  // Unparseable program → 400 pointing at "program".
  HttpResponse bad_program = client.Fetch(
      "POST", "/v1/jobs",
      MakeJobBody("t", "p(a", ChaseOptions{}).Dump());
  EXPECT_EQ(bad_program.status, 400);

  // Unknown job → 404; result of an in-flight job → 409.
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/j-999").status, 404);
  ChaseOptions slow = SmallCoreOptions(1000000);
  std::string id = client.Submit(MakeJobBody("t", kStaircase, slow));
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/" + id + "/result").status, 409);
  client.Fetch("DELETE", "/v1/jobs/" + id);
  EXPECT_EQ(client.AwaitTerminal(id), "cancelled");

  // Health endpoint: schema version, uptime, job counts by state, and the
  // persistence status — "disabled" here, since no --state-dir is set.
  HttpResponse health = client.Fetch("GET", "/v1/healthz");
  EXPECT_EQ(health.status, 200);
  auto health_json = Json::Parse(health.body);
  ASSERT_TRUE(health_json.ok());
  EXPECT_EQ(health_json->Get("status").string_value(), "ok");
  EXPECT_EQ(health_json->Get("schema_version").number_value(),
            kWireSchemaVersion);
  EXPECT_TRUE(health_json->Get("uptime_seconds").is_number());
  EXPECT_TRUE(health_json->Get("jobs_in_flight").is_number());
  ASSERT_TRUE(health_json->Get("jobs").is_object());
  for (const char* state :
       {"queued", "running", "paused", "done", "cancelled", "failed"}) {
    EXPECT_TRUE(health_json->Get("jobs").Get(state).is_number()) << state;
  }
  EXPECT_EQ(health_json->Get("jobs").Get("cancelled").number_value(), 1);
  EXPECT_EQ(health_json->Get("persistence").string_value(), "disabled");

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

// A dribbling client — one byte at a time, each recv succeeding, the full
// request never arriving — used to park a handler thread forever, since the
// per-recv timeout was re-armed by every byte. The per-connection absolute
// deadline now disconnects it, and the daemon keeps serving.
TEST(DaemonTest, DribblingClientIsDisconnectedAtTheDeadline) {
  DaemonOptions options;
  options.workers = 1;
  options.http_threads = 1;  // one handler thread: a wedge would be total
  options.http_io_timeout_ms = 300;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(daemon.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  // Drip a request at ~1 byte / 50ms: never finished before the 300ms
  // deadline, but every recv on the server side succeeds.
  const std::string request = "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  auto start = std::chrono::steady_clock::now();
  bool disconnected = false;
  for (char byte : request) {
    if (::send(fd, &byte, 1, MSG_NOSIGNAL) < 0) {
      disconnected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (std::chrono::steady_clock::now() - start >
        std::chrono::seconds(20)) {
      break;  // safety net; the deadline should fire long before this
    }
  }
  if (!disconnected) {
    // The server closed the connection: recv sees EOF (or a reset).
    char buffer[256];
    ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
    disconnected = n <= 0 ||
                   std::string(buffer, static_cast<size_t>(n)).find("408") !=
                       std::string::npos;
  }
  EXPECT_TRUE(disconnected) << "dribbling client was never cut off";
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  EXPECT_LT(elapsed, 15000) << "deadline fired far too late";
  ::close(fd);

  // The single handler thread is free again: a normal request succeeds.
  DaemonClient client(daemon.port());
  HttpResponse health = client.Fetch("GET", "/v1/healthz");
  EXPECT_EQ(health.status, 200);
  daemon.Stop();
}

// Regression: the result "text" used to render through a fixed 512-byte
// buffer, silently truncating long query lines where the CLI (plain
// printf) does not — breaking the byte-for-byte CLI-identity contract.
TEST(DaemonTest, LongQueryLinesRenderUntruncated) {
  // A boolean query over 70 atoms: its rendered line far exceeds 512 bytes.
  std::string facts, body;
  for (int i = 0; i < 70; ++i) {
    std::string atom = "p(c" + std::to_string(i) + ")";
    facts += atom + ".\n";
    body += (i > 0 ? ", " : "") + atom;
  }
  std::string program = facts + "? :- " + body + ".\n";

  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  std::string id =
      client.Submit(MakeJobBody("t", program, SmallCoreOptions(100)));
  ASSERT_EQ(client.AwaitTerminal(id), "done");
  std::string text(client.Result(id).Get("text").string_value());
  // The line's tail survives: the last atom and the verdict after it.
  EXPECT_NE(text.find("p(c69)"), std::string::npos) << text;
  EXPECT_NE(text.find("-> entailed"), std::string::npos) << text;

  daemon.Stop();
}

TEST(DaemonTest, FinishedJobsAreEvictedBeyondRetentionCap) {
  DaemonOptions options;
  options.workers = 1;
  options.preempt_after_ms.reset();
  options.finished_job_retention = 2;
  ChaseDaemon daemon(options);
  ASSERT_TRUE(daemon.Start().ok());
  DaemonClient client(daemon.port());

  // Four sequential quick jobs: finishing the later ones must evict the
  // earlier ones (oldest-finished first), keeping the job table bounded.
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(
        client.Submit(MakeJobBody("t", kClosure, SmallCoreOptions(100))));
    ASSERT_EQ(client.AwaitTerminal(ids.back()), "done");
  }
  // Eviction runs in the scheduler's finish callback, which fires just
  // after the terminal state becomes visible over HTTP — poll briefly.
  auto await_evicted = [&](const std::string& id) {
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      if (client.Fetch("GET", "/v1/jobs/" + id).status == 404) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  };
  EXPECT_TRUE(await_evicted(ids[0]));
  EXPECT_TRUE(await_evicted(ids[1]));
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/" + ids[2]).status, 200);
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/" + ids[3]).status, 200);
  EXPECT_EQ(client.Fetch("GET", "/v1/jobs/" + ids[3] + "/result").status,
            200);

  daemon.Stop();
  EXPECT_EQ(daemon.InFlightJobs(), 0u);
}

}  // namespace
}  // namespace twchase
