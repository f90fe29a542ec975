// The daemon's versioned wire schemas: ChaseOptions ⇄ JSON, job submission
// payloads, and structured error rendering.
//
// Schema versioning: every request and response object carries
// "schema_version"; kWireSchemaVersion is the only version this build
// speaks, and a request with a different (or missing) version is rejected
// up front with a structured 400 rather than mis-parsed. The checkpoint
// text format has its own version header (core/checkpoint.h) and rides
// inside job payloads as an opaque string.
//
// Structured errors: invalid payloads come back as
//   {"error": {"code": "InvalidArgument", "message": ...,
//              "fields": [{"path": "options.limits.max_steps",
//                          "message": "must be a non-negative integer"}]}}
// The field path is exact — the parser threads its position through every
// descent, and ChaseOptions::Validate() messages lead with the nested field
// path (limits. / preflight. / ...) precisely so this layer can lift them into
// the same shape without guessing.
#ifndef TWCHASE_SERVICE_WIRE_H_
#define TWCHASE_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/chase.h"
#include "service/json.h"
#include "util/status.h"

namespace twchase {

/// The one schema version this build reads and writes.
inline constexpr uint32_t kWireSchemaVersion = 1;

/// One field-level problem of a rejected payload.
struct FieldError {
  std::string path;     // dotted, from the payload root: "options.limits.max_steps"
  std::string message;  // what is wrong with it, path not repeated
};

/// Renders `options` as the wire object: nested groups mirrored one-to-one
/// (variant, limits{...}, core{...}, resume{...}, preflight{...} for auto
/// runs). Deterministic member order;
/// limits.deadline_ms is omitted when unset. Round-trips exactly through
/// ChaseOptionsFromJson.
Json ChaseOptionsToJson(const ChaseOptions& options);

/// Parses the wire object produced by ChaseOptionsToJson back into
/// `options`, strictly: unknown keys, wrong types, non-integral or negative
/// counts are InvalidArgument with `error` filled (path rooted at
/// `path_prefix`, e.g. "options"). Keys written by earlier versions for
/// removed options are read and ignored (see wire.cc); the legacy values
/// that cannot be honoured (core.incremental_core true, datalog_first or
/// core.core_initial false, core.core_every other than 1) are rejected.
/// Absent groups/keys keep the defaults already in `*options`, so a payload
/// may be sparse. Does NOT run Validate() — the daemon validates via
/// ChaseSession::Create and lifts those messages with
/// FieldErrorFromValidate.
Status ChaseOptionsFromJson(const Json& json, const std::string& path_prefix,
                            ChaseOptions* options, FieldError* error);

/// Splits a ChaseOptions::Validate() message into a FieldError: the leading
/// dotted field path (when the message starts with one) becomes the path,
/// prefixed with `path_prefix`; otherwise the whole message lands in
/// `message` with `path_prefix` alone as the path.
FieldError FieldErrorFromValidate(const Status& status,
                                  const std::string& path_prefix);

/// "oblivious" | "semi-oblivious" (or "semi") | "restricted" | "frugal" |
/// "core" — the names ChaseVariantName prints and the CLI accepts.
bool ParseChaseVariant(const std::string& name, ChaseVariant* out);

/// One job submission, as POSTed to /v1/jobs.
struct JobRequest {
  std::string tenant;   // required, non-empty quota bucket
  std::string program;  // required, twchase program text (facts, rules, queries)
  ChaseOptions options;

  /// Resume a checkpointed run: the serialized checkpoint text (opaque at
  /// this layer, parsed by core/checkpoint.h). Empty = fresh run. The
  /// program must be the same text the checkpoint was recorded against.
  std::string resume_checkpoint;

  /// Include the full observer event stream (one JSON object per line, the
  /// CLI's --events-out format) in the job result. Off by default — the
  /// stream grows with the run; the bit-identity tests turn it on.
  bool capture_events = false;

  /// Include the serialized checkpoint of the stopped run in the result
  /// (requires options.resume.record_log, like the CLI's --checkpoint-out).
  bool return_checkpoint = false;
};

/// Renders `request` as a /v1/jobs submission body (schema_version
/// included). Exact inverse of JobRequestFromJson — the durable job store
/// persists admitted jobs in this shape so recovery re-admits them through
/// the same strict parser a client submission goes through.
Json JobRequestToJson(const JobRequest& request);

/// Parses and checks a /v1/jobs body: schema_version first, then the
/// required fields and the options group. InvalidArgument with the field
/// errors on any problem. Defaults inside `request->options` are the
/// library defaults (sequential, core variant is NOT defaulted — the wire
/// default is ChaseOptions{}'s restricted, stated in the schema).
Status JobRequestFromJson(const Json& json, JobRequest* request,
                          std::vector<FieldError>* errors);

/// The HTTP status a Status maps to: InvalidArgument→400, NotFound→404,
/// FailedPrecondition→409, ResourceExhausted→429, everything else→500.
int HttpStatusForStatus(const Status& status);

/// {"schema_version":1,"error":{"code":...,"message":...[,"fields":[...]]}}
Json ErrorJson(const Status& status, const std::vector<FieldError>& fields = {});

}  // namespace twchase

#endif  // TWCHASE_SERVICE_WIRE_H_
