// twchase_client — smoke client for the chase daemon. Submits a program
// file as a job, polls until it reaches a terminal state, and prints the
// result's CLI-identical text rendering, so
//
//   twchase_client --port=P data/staircase.twc
//
// produces the same stdout as
//
//   twchase_cli data/staircase.twc
//
// (modulo the timing field), which is exactly what the daemon smoke gate in
// tools/check.sh diffs.
//
// Usage:
//   twchase_client [flags] <program-file>
//     --port=N          daemon port (required)
//     --host=A.B.C.D    daemon address            (default: 127.0.0.1)
//     --tenant=NAME     tenant id                 (default: "smoke")
//     --variant=V       chase variant             (default: core, as the CLI)
//     --max-steps=N     rule-application budget   (default: 1000)
//     --core-every=N    coring spacing            (default: 1)
//     --deadline-ms=N   wall-clock budget
//     --poll-ms=N       status poll interval      (default: 25)
//     --metrics         print /v1/metrics instead of submitting
//     --health          print /v1/healthz instead of submitting
//     --no-wait         submit, print the job id, exit without polling
//                       (pair with --await-job after a daemon restart)
//     --await-job=ID    skip submission: poll the existing job ID to a
//                       terminal state and print its result text
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "service/http.h"
#include "service/json.h"
#include "service/wire.h"
#include "tools/flags.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --port=N [--host=H] [--tenant=T] [--variant=V] "
               "[--max-steps=N] [--core-every=N] "
               "[--deadline-ms=N] [--poll-ms=N] [--metrics|--health] "
               "[--no-wait] [--await-job=ID] <program-file>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace twchase;
  size_t port = 0;
  std::string host = "127.0.0.1";
  std::string tenant = "smoke";
  std::string file;
  size_t poll_ms = 25;
  bool metrics = false;
  bool health = false;
  bool no_wait = false;
  std::string await_job;
  ChaseOptions options;
  options.variant = ChaseVariant::kCore;
  size_t deadline_ms = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    flags::ArgMatcher m(arg);
    std::string variant_name;
    if (m.BoundedSizeValue("--port", &port, 1, 65535) ||
        m.Value("--host", &host) || m.Value("--tenant", &tenant) ||
        m.SizeValue("--max-steps", &options.limits.max_steps) ||
        m.SizeValue("--core-every", &options.core.core_every) ||
        m.SizeValue("--poll-ms", &poll_ms) ||
        m.Flag("--metrics", &metrics) || m.Flag("--health", &health) ||
        m.Flag("--no-wait", &no_wait) || m.Value("--await-job", &await_job)) {
      // dispatched
    } else if (m.Value("--variant", &variant_name)) {
      if (variant_name == "auto") {
        // The daemon resolves auto against the parsed program server-side.
        options.preflight.auto_variant = true;
      } else if (!ParseChaseVariant(variant_name, &options.variant)) {
        std::fprintf(stderr, "unknown variant: %s\n", variant_name.c_str());
        return 2;
      }
    } else if (m.SizeValue("--deadline-ms", &deadline_ms)) {
      options.limits.deadline_ms = deadline_ms;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return Usage(argv[0]);
    } else if (file.empty()) {
      file = arg;
    } else {
      return Usage(argv[0]);
    }
    if (!m.ok()) {
      std::fprintf(stderr, "%s\n", m.error().c_str());
      return Usage(argv[0]);
    }
  }
  if (port == 0) return Usage(argv[0]);
  auto fetch = [&](const std::string& method, const std::string& target,
                   const std::string& body) {
    return HttpFetch(host, static_cast<uint16_t>(port), method, target, body);
  };

  if (metrics || health) {
    auto response =
        fetch("GET", metrics ? "/v1/metrics" : "/v1/healthz", "");
    if (!response.ok()) {
      std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
      return 1;
    }
    std::fputs(response->body.c_str(), stdout);
    return response->status == 200 ? 0 : 1;
  }

  std::string id = await_job;
  if (id.empty()) {
    if (file.empty()) return Usage(argv[0]);
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", file.c_str());
      return 1;
    }
    std::ostringstream program;
    program << in.rdbuf();

    Json request = Json::Object();
    request.Set("schema_version", Json::Number(uint64_t{kWireSchemaVersion}));
    request.Set("tenant", Json::String(tenant));
    request.Set("program", Json::String(program.str()));
    request.Set("options", ChaseOptionsToJson(options));

    auto submitted = fetch("POST", "/v1/jobs", request.Dump());
    if (!submitted.ok()) {
      std::fprintf(stderr, "submit failed: %s\n",
                   submitted.status().ToString().c_str());
      return 1;
    }
    if (submitted->status != 202) {
      std::fprintf(stderr, "submit rejected (HTTP %d): %s\n", submitted->status,
                   submitted->body.c_str());
      return 1;
    }
    auto body = Json::Parse(submitted->body);
    if (!body.ok() || !body->Get("job").Get("id").is_string()) {
      std::fprintf(stderr, "malformed submit response: %s\n",
                   submitted->body.c_str());
      return 1;
    }
    id = body->Get("job").Get("id").string_value();
    if (no_wait) {
      std::printf("%s\n", id.c_str());
      return 0;
    }
  }

  // Poll to terminal. The daemon has no long-poll: the intervals are short
  // and this is a smoke tool.
  while (true) {
    auto status = fetch("GET", "/v1/jobs/" + id, "");
    if (!status.ok()) {
      std::fprintf(stderr, "poll failed: %s\n",
                   status.status().ToString().c_str());
      return 1;
    }
    auto parsed = Json::Parse(status->body);
    if (!parsed.ok()) {
      std::fprintf(stderr, "malformed status: %s\n", status->body.c_str());
      return 1;
    }
    const std::string state(parsed->Get("state").string_value());
    if (state == "done" || state == "cancelled" || state == "failed") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }

  auto result = fetch("GET", "/v1/jobs/" + id + "/result", "");
  if (!result.ok()) {
    std::fprintf(stderr, "result fetch failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  if (result->status != 200) {
    std::fprintf(stderr, "job failed (HTTP %d): %s\n", result->status,
                 result->body.c_str());
    return 1;
  }
  auto payload = Json::Parse(result->body);
  if (!payload.ok() || !payload->Get("text").is_string()) {
    std::fprintf(stderr, "malformed result: %s\n", result->body.c_str());
    return 1;
  }
  const std::string_view text = payload->Get("text").string_value();
  std::fwrite(text.data(), 1, text.size(), stdout);
  return 0;
}
