#include "service/wire.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <initializer_list>

namespace twchase {
namespace {

/// Strict-parse helper threading the dotted path through every descent.
/// The first problem wins: Fail stores it and every later check no-ops.
struct Reader {
  std::string path;
  FieldError* error;
  bool failed = false;

  Status Fail(const std::string& at, const std::string& message) {
    if (!failed && error != nullptr) {
      error->path = at;
      error->message = message;
    }
    failed = true;
    return Status::InvalidArgument(at + ": " + message);
  }

  std::string Join(std::string_view key) const {
    return path.empty() ? std::string(key) : path + "." + std::string(key);
  }

  Status ReadBool(const Json& object, const std::string& key, bool* out) {
    if (!object.Has(key)) return Status::OK();
    const Json& value = object.Get(key);
    if (!value.is_bool()) return Fail(Join(key), "must be a boolean");
    *out = value.bool_value();
    return Status::OK();
  }

  /// A key that names a fixed part of the paper's schedule: true (what
  /// every run does) is accepted, false is refused with `why`.
  Status ReadFixedTrue(const Json& object, const std::string& key,
                       const std::string& why) {
    bool value = true;
    TWCHASE_RETURN_IF_ERROR(ReadBool(object, key, &value));
    if (!value) return Fail(Join(key), why);
    return Status::OK();
  }

  Status ReadCount(const Json& object, const std::string& key, size_t* out) {
    if (!object.Has(key)) return Status::OK();
    const Json& value = object.Get(key);
    if (!value.is_number()) {
      return Fail(Join(key), "must be a non-negative integer");
    }
    double number = value.number_value();
    if (number < 0 || number != std::floor(number) || number > 9.0e15) {
      return Fail(Join(key), "must be a non-negative integer");
    }
    *out = static_cast<size_t>(number);
    return Status::OK();
  }

  Status ReadString(const Json& object, const std::string& key,
                    std::string* out) {
    if (!object.Has(key)) return Status::OK();
    const Json& value = object.Get(key);
    if (!value.is_string()) return Fail(Join(key), "must be a string");
    *out = value.string_value();
    return Status::OK();
  }

  /// Rejects keys outside `allowed` — a misspelt option must not be
  /// silently ignored (it would run the job with a default the caller did
  /// not ask for).
  Status CheckKeys(const Json& object,
                   std::initializer_list<const char*> allowed) {
    for (const Json::Member& member : object.members()) {
      const std::string_view key = member.key.string_value();
      bool known = false;
      for (const char* name : allowed) {
        if (key == name) {
          known = true;
          break;
        }
      }
      if (!known) return Fail(Join(key), "unknown field");
    }
    return Status::OK();
  }

  Status RequireObject(const Json& object, const std::string& key,
                       const Json** out) {
    *out = nullptr;
    if (!object.Has(key)) return Status::OK();
    const Json& value = object.Get(key);
    if (!value.is_object()) return Fail(Join(key), "must be an object");
    *out = &value;
    return Status::OK();
  }
};

Status ReadOptionsInto(Reader& r, const Json& json, ChaseOptions* options) {
  if (!json.is_object()) return r.Fail(r.path, "must be an object");
  TWCHASE_RETURN_IF_ERROR(r.CheckKeys(
      json, {"variant", "datalog_first", "keep_snapshots", "limits", "core",
             "delta", "plan", "parallel", "resume", "preflight"}));

  if (json.Has("variant")) {
    const Json& value = json.Get("variant");
    // "auto" defers the choice to the termination preflight: the daemon
    // resolves it against the parsed program before the engine sees the
    // options (ChaseOptions::Validate rejects an unresolved auto).
    if (value.is_string() && value.string_value() == "auto") {
      options->preflight.auto_variant = true;
    } else if (!value.is_string() ||
               !ParseChaseVariant(std::string(value.string_value()),
                                  &options->variant)) {
      return r.Fail(r.Join("variant"),
                    "must be one of \"oblivious\", \"semi-oblivious\", "
                    "\"restricted\", \"frugal\", \"core\", \"auto\"");
    }
  }
  // Legacy key: admit records written while the rule order was settable
  // carry datalog_first. Datalog rules now always come first.
  TWCHASE_RETURN_IF_ERROR(r.ReadFixedTrue(
      json, "datalog_first",
      "is no longer supported as false: datalog rules always come first "
      "(Proposition 6)"));
  // Legacy key: admit records written while the derivation kept per-step
  // snapshots carry keep_snapshots. It is read (and type-checked) but
  // ignored: the snapshots only ever changed memory, never the run.
  bool keep_snapshots = false;
  TWCHASE_RETURN_IF_ERROR(r.ReadBool(json, "keep_snapshots", &keep_snapshots));

  const std::string base = r.path;
  const Json* group = nullptr;

  TWCHASE_RETURN_IF_ERROR(r.RequireObject(json, "limits", &group));
  if (group != nullptr) {
    r.path = r.Join("limits");
    TWCHASE_RETURN_IF_ERROR(r.CheckKeys(
        *group, {"max_steps", "max_instance_size", "deadline_ms",
                 "memory_budget_bytes"}));
    TWCHASE_RETURN_IF_ERROR(
        r.ReadCount(*group, "max_steps", &options->limits.max_steps));
    TWCHASE_RETURN_IF_ERROR(r.ReadCount(*group, "max_instance_size",
                                        &options->limits.max_instance_size));
    size_t deadline = 0;
    if (group->Has("deadline_ms")) {
      TWCHASE_RETURN_IF_ERROR(r.ReadCount(*group, "deadline_ms", &deadline));
      options->limits.deadline_ms = static_cast<uint64_t>(deadline);
    }
    TWCHASE_RETURN_IF_ERROR(r.ReadCount(*group, "memory_budget_bytes",
                                        &options->limits.memory_budget_bytes));
    r.path = base;
  }

  // Legacy keys. Admit records written before incremental core maintenance,
  // the parallel match fan-out and the delta and planner switches were
  // removed carry the full options object, so core.incremental_core,
  // core.dirty_radius, parallel.threads and every key of the delta and plan
  // groups are still read (and type-checked) but ignored. Ignoring them is
  // exact, because runs were bit-identical at any thread count and with the
  // delta and planner switches either way. The plan group's dormant-rule
  // skipping and its execution planner are gone too, and neither changed a
  // run's matches or decisions. The radius only tuned the
  // incremental mode. A request for the removed incremental mode itself
  // cannot be honoured, nor can core.core_every other than 1,
  // core.core_initial false or core.core_at_round_end true: the core chase
  // cores F_0 and then after every application.
  TWCHASE_RETURN_IF_ERROR(r.RequireObject(json, "core", &group));
  if (group != nullptr) {
    r.path = r.Join("core");
    TWCHASE_RETURN_IF_ERROR(r.CheckKeys(
        *group, {"core_every", "core_at_round_end", "core_initial",
                 "incremental_core", "dirty_radius"}));
    size_t core_every = 1;
    TWCHASE_RETURN_IF_ERROR(r.ReadCount(*group, "core_every", &core_every));
    if (core_every != 1) {
      return r.Fail(r.Join("core_every"),
                    "is no longer supported other than as 1: the core chase "
                    "cores after every application (Definition 2)");
    }
    bool core_at_round_end = false;
    TWCHASE_RETURN_IF_ERROR(
        r.ReadBool(*group, "core_at_round_end", &core_at_round_end));
    if (core_at_round_end) {
      return r.Fail(r.Join("core_at_round_end"),
                    "is no longer supported: round-end coring was removed, "
                    "the core chase cores after every application");
    }
    TWCHASE_RETURN_IF_ERROR(r.ReadFixedTrue(
        *group, "core_initial",
        "is no longer supported as false: the core chase always cores the "
        "initial fact set (Definition 1)"));
    bool incremental_core = false;
    TWCHASE_RETURN_IF_ERROR(
        r.ReadBool(*group, "incremental_core", &incremental_core));
    if (incremental_core) {
      return r.Fail(r.Join("incremental_core"),
                    "is no longer supported: incremental core maintenance "
                    "was removed, every core chase step retracts to a full "
                    "core");
    }
    size_t dirty_radius = 0;
    TWCHASE_RETURN_IF_ERROR(
        r.ReadCount(*group, "dirty_radius", &dirty_radius));
    r.path = base;
  }

  TWCHASE_RETURN_IF_ERROR(r.RequireObject(json, "delta", &group));
  if (group != nullptr) {
    r.path = r.Join("delta");
    TWCHASE_RETURN_IF_ERROR(r.CheckKeys(*group, {"enabled"}));
    bool ignored = false;
    TWCHASE_RETURN_IF_ERROR(r.ReadBool(*group, "enabled", &ignored));
    r.path = base;
  }

  TWCHASE_RETURN_IF_ERROR(r.RequireObject(json, "plan", &group));
  if (group != nullptr) {
    r.path = r.Join("plan");
    TWCHASE_RETURN_IF_ERROR(
        r.CheckKeys(*group, {"enabled", "skip_dormant", "core_guard"}));
    bool ignored = false;
    TWCHASE_RETURN_IF_ERROR(r.ReadBool(*group, "enabled", &ignored));
    TWCHASE_RETURN_IF_ERROR(r.ReadBool(*group, "skip_dormant", &ignored));
    TWCHASE_RETURN_IF_ERROR(r.ReadBool(*group, "core_guard", &ignored));
    r.path = base;
  }

  TWCHASE_RETURN_IF_ERROR(r.RequireObject(json, "parallel", &group));
  if (group != nullptr) {
    r.path = r.Join("parallel");
    TWCHASE_RETURN_IF_ERROR(r.CheckKeys(*group, {"threads"}));
    size_t threads = 0;
    TWCHASE_RETURN_IF_ERROR(r.ReadCount(*group, "threads", &threads));
    r.path = base;
  }

  TWCHASE_RETURN_IF_ERROR(r.RequireObject(json, "resume", &group));
  if (group != nullptr) {
    r.path = r.Join("resume");
    TWCHASE_RETURN_IF_ERROR(r.CheckKeys(*group, {"record_log"}));
    TWCHASE_RETURN_IF_ERROR(
        r.ReadBool(*group, "record_log", &options->resume.record_log));
    r.path = base;
  }

  // Preflight provenance group: lets an already-resolved auto decision
  // (concrete variant + verdict) round-trip, e.g. through the durable admit
  // record. Fresh submissions just say "variant": "auto" instead.
  TWCHASE_RETURN_IF_ERROR(r.RequireObject(json, "preflight", &group));
  if (group != nullptr) {
    r.path = r.Join("preflight");
    TWCHASE_RETURN_IF_ERROR(
        r.CheckKeys(*group, {"auto_variant", "resolved", "verdict"}));
    TWCHASE_RETURN_IF_ERROR(
        r.ReadBool(*group, "auto_variant", &options->preflight.auto_variant));
    TWCHASE_RETURN_IF_ERROR(
        r.ReadBool(*group, "resolved", &options->preflight.resolved));
    size_t verdict = options->preflight.verdict;
    TWCHASE_RETURN_IF_ERROR(r.ReadCount(*group, "verdict", &verdict));
    if (verdict > 3) {
      return r.Fail(r.Join("verdict"),
                    "must be a termination class (0=unknown, 1=fes, 2=bts, "
                    "3=core-bts)");
    }
    options->preflight.verdict = static_cast<uint32_t>(verdict);
    r.path = base;
  }
  return Status::OK();
}

}  // namespace

bool ParseChaseVariant(const std::string& name, ChaseVariant* out) {
  if (name == "oblivious") *out = ChaseVariant::kOblivious;
  else if (name == "semi" || name == "semi-oblivious")
    *out = ChaseVariant::kSemiOblivious;
  else if (name == "restricted") *out = ChaseVariant::kRestricted;
  else if (name == "frugal") *out = ChaseVariant::kFrugal;
  else if (name == "core") *out = ChaseVariant::kCore;
  else return false;
  return true;
}

Json ChaseOptionsToJson(const ChaseOptions& options) {
  Json root = Json::Object();
  // An unresolved auto request serializes as "auto" (the concrete variant is
  // meaningless until the preflight runs); a resolved one serializes its
  // pinned variant with the provenance in the "preflight" group below.
  if (options.preflight.auto_variant && !options.preflight.resolved) {
    root.Set("variant", Json::String("auto"));
  } else {
    root.Set("variant", Json::String(ChaseVariantName(options.variant)));
  }

  Json limits = Json::Object();
  limits.Set("max_steps", Json::Number(uint64_t{options.limits.max_steps}));
  limits.Set("max_instance_size",
             Json::Number(uint64_t{options.limits.max_instance_size}));
  if (options.limits.deadline_ms.has_value()) {
    limits.Set("deadline_ms", Json::Number(*options.limits.deadline_ms));
  }
  limits.Set("memory_budget_bytes",
             Json::Number(uint64_t{options.limits.memory_budget_bytes}));
  root.Set("limits", std::move(limits));

  Json core = Json::Object();
  // Fixed values: kept so admit records stay byte-identical.
  core.Set("core_every", Json::Number(uint64_t{1}));
  core.Set("core_at_round_end", Json::Bool(false));
  root.Set("core", std::move(core));

  Json resume = Json::Object();
  resume.Set("record_log", Json::Bool(options.resume.record_log));
  root.Set("resume", std::move(resume));

  if (options.preflight.auto_variant) {
    Json preflight = Json::Object();
    preflight.Set("auto_variant", Json::Bool(true));
    preflight.Set("resolved", Json::Bool(options.preflight.resolved));
    preflight.Set("verdict",
                  Json::Number(uint64_t{options.preflight.verdict}));
    root.Set("preflight", std::move(preflight));
  }
  return root;
}

Status ChaseOptionsFromJson(const Json& json, const std::string& path_prefix,
                            ChaseOptions* options, FieldError* error) {
  Reader reader{path_prefix, error};
  return ReadOptionsInto(reader, json, options);
}

FieldError FieldErrorFromValidate(const Status& status,
                                  const std::string& path_prefix) {
  FieldError out;
  out.path = path_prefix;
  const std::string& message = status.message();
  // A Validate() message leads with the dotted field it concerns
  // ("preflight.auto_variant requires ...") — lift it when present.
  size_t space = message.find(' ');
  if (space != std::string::npos && space > 0) {
    const std::string head = message.substr(0, space);
    bool dotted = head.find('.') != std::string::npos;
    for (char c : head) {
      if (!(std::islower(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.')) {
        dotted = false;
        break;
      }
    }
    if (dotted) {
      out.path = path_prefix.empty() ? head : path_prefix + "." + head;
      out.message = message.substr(space + 1);
      return out;
    }
  }
  out.message = message;
  return out;
}

Json JobRequestToJson(const JobRequest& request) {
  Json root = Json::Object();
  root.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  root.Set("tenant", Json::String(request.tenant));
  root.Set("program", Json::String(request.program));
  root.Set("options", ChaseOptionsToJson(request.options));
  if (!request.resume_checkpoint.empty()) {
    root.Set("resume_checkpoint", Json::String(request.resume_checkpoint));
  }
  root.Set("capture_events", Json::Bool(request.capture_events));
  root.Set("return_checkpoint", Json::Bool(request.return_checkpoint));
  return root;
}

Status JobRequestFromJson(const Json& json, JobRequest* request,
                          std::vector<FieldError>* errors) {
  FieldError error;
  Reader reader{"", &error};
  auto fail = [&](const Status& status) {
    if (errors != nullptr) errors->push_back(error);
    return status;
  };

  if (!json.is_object()) {
    return fail(reader.Fail("", "request body must be a JSON object"));
  }
  Status keys = reader.CheckKeys(
      json, {"schema_version", "tenant", "program", "options",
             "resume_checkpoint", "capture_events", "return_checkpoint"});
  if (!keys.ok()) return fail(keys);

  if (!json.Has("schema_version")) {
    return fail(reader.Fail("schema_version", "is required"));
  }
  const Json& version = json.Get("schema_version");
  if (!version.is_number() ||
      version.number_value() !=
          static_cast<double>(kWireSchemaVersion)) {
    return fail(reader.Fail(
        "schema_version",
        "unsupported version; this server speaks version " +
            std::to_string(kWireSchemaVersion)));
  }

  Status s = reader.ReadString(json, "tenant", &request->tenant);
  if (!s.ok()) return fail(s);
  if (request->tenant.empty()) {
    return fail(reader.Fail("tenant", "is required and must be non-empty"));
  }
  s = reader.ReadString(json, "program", &request->program);
  if (!s.ok()) return fail(s);
  if (request->program.empty()) {
    return fail(reader.Fail("program", "is required and must be non-empty"));
  }
  s = reader.ReadString(json, "resume_checkpoint",
                        &request->resume_checkpoint);
  if (!s.ok()) return fail(s);
  s = reader.ReadBool(json, "capture_events", &request->capture_events);
  if (!s.ok()) return fail(s);
  s = reader.ReadBool(json, "return_checkpoint", &request->return_checkpoint);
  if (!s.ok()) return fail(s);

  if (json.Has("options")) {
    s = ChaseOptionsFromJson(json.Get("options"), "options",
                             &request->options, &error);
    if (!s.ok()) return fail(s);
  }
  return Status::OK();
}

int HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidArgument: return 400;
    case StatusCode::kOutOfRange: return 400;
    case StatusCode::kNotFound: return 404;
    case StatusCode::kFailedPrecondition: return 409;
    case StatusCode::kResourceExhausted: return 429;
    default: return 500;
  }
}

Json ErrorJson(const Status& status, const std::vector<FieldError>& fields) {
  Json root = Json::Object();
  root.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
  Json error = Json::Object();
  error.Set("code", Json::String(StatusCodeName(status.code())));
  error.Set("message", Json::String(status.message()));
  if (!fields.empty()) {
    Json list = Json::Array();
    for (const FieldError& field : fields) {
      Json entry = Json::Object();
      entry.Set("path", Json::String(field.path));
      entry.Set("message", Json::String(field.message));
      list.Append(std::move(entry));
    }
    error.Set("fields", std::move(list));
  }
  root.Set("error", std::move(error));
  return root;
}

}  // namespace twchase
