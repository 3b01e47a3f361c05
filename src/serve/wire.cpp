#include "serve/wire.hpp"

#include <cmath>

#include "core/instance_io.hpp"
#include "perf/reporter.hpp"

namespace msrs::serve {
namespace {

// The request members parse_request() reads: kMemberKeys[k] names member k.
enum Member : std::size_t {
  kId,
  kOp,
  kCanonical,
  kWire,
  kBudgetMs,
  kSpec,
  kInstance,
  kSession,
  kMachines,
  kClass,
  kSize,
  kJob,
  kMemberCount,
};
constexpr std::string_view kMemberKeys[kMemberCount] = {
    "id",       "op",      "canonical", "wire",  "budget_ms", "spec",
    "instance", "session", "machines",  "class", "size",      "job"};

// Reads an integer member; returns false (with a detail message) when the
// member exists but is not an int-range non-negative integral number (the
// range check matters: casting an untrusted 3e9 to int is UB).
bool read_int(const JsonMember& member, std::string_view key, int* out,
              std::string* detail) {
  if (!member.found) return true;
  const double v = member.type == Json::Type::kNumber
                       ? json_member_number(member)
                       : -1.0;
  if (v != std::floor(v) || v < 0 || v > 2147483647.0) {
    if (detail) {
      detail->assign(1, '\'');
      detail->append(key);
      detail->append("' must be a non-negative 32-bit integer");
    }
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// Reads a string member into *out; false when it exists but is no string.
bool read_string(const JsonMember& member, std::string* out) {
  if (!member.found) return true;
  if (member.type != Json::Type::kString) return false;
  json_member_string(member, out);
  return true;
}

}  // namespace

std::string_view wire_error_name(WireError code) {
  switch (code) {
    case WireError::kParseError: return "parse_error";
    case WireError::kBadRequest: return "bad_request";
    case WireError::kUnknownOp: return "unknown_op";
    case WireError::kBadSpec: return "bad_spec";
    case WireError::kBadInstance: return "bad_instance";
    case WireError::kOverloaded: return "overloaded";
    case WireError::kVersionMismatch: return "wire_version_mismatch";
    case WireError::kShuttingDown: return "shutting_down";
    case WireError::kUnknownSession: return "unknown_session";
    case WireError::kUnknownJob: return "unknown_job";
    case WireError::kSessionLimit: return "session_limit";
    case WireError::kNoSchedule: return "no_schedule";
  }
  return "unknown_error";
}

std::optional<Request> parse_request(const std::string& line, WireError* code,
                                     std::string* detail, Json* id_out) {
  const auto fail = [&](WireError c, std::string d) -> std::optional<Request> {
    if (code) *code = c;
    if (detail) *detail = std::move(d);
    return std::nullopt;
  };

  // One syntax pass over the line locates the members; no tree is built.
  // The schema checks below then run in a fixed order over those values,
  // each taken from the member's last occurrence.
  std::string parse_error;
  JsonMember m[kMemberCount];
  switch (json_scan_members(line, kMemberKeys, m, &parse_error)) {
    case JsonScan::kMalformed:
      return fail(WireError::kParseError, parse_error);
    case JsonScan::kNotObject:
      return fail(WireError::kBadRequest, "request is not a JSON object");
    case JsonScan::kObject:
      break;
  }

  Request request;
  if (m[kId].found) {
    request.id = *json_parse(m[kId].bytes);  // checked by the scan
    if (id_out) *id_out = request.id;
  }

  std::string name;
  if (!m[kOp].found || !read_string(m[kOp], &name))
    return fail(WireError::kBadRequest, "missing string member 'op'");
  if (name == "solve") request.op = Op::kSolve;
  else if (name == "ping") request.op = Op::kPing;
  else if (name == "stats") request.op = Op::kStats;
  else if (name == "version") request.op = Op::kVersion;
  else if (name == "shutdown") request.op = Op::kShutdown;
  else if (name == "open_session") request.op = Op::kOpenSession;
  else if (name == "submit_job") request.op = Op::kSubmitJob;
  else if (name == "cancel_job") request.op = Op::kCancelJob;
  else if (name == "snapshot") request.op = Op::kSnapshot;
  else if (name == "close_session") request.op = Op::kCloseSession;
  else if (name == "dump_recorder") request.op = Op::kDumpRecorder;
  else return fail(WireError::kUnknownOp, "unknown op '" + name + "'");

  if (request.op == Op::kDumpRecorder && m[kCanonical].found) {
    if (m[kCanonical].type != Json::Type::kBool)
      return fail(WireError::kBadRequest, "'canonical' must be a boolean");
    request.canonical = m[kCanonical].bytes.front() == 't';
  }

  std::string int_error;
  if (!read_int(m[kWire], kMemberKeys[kWire], &request.wire, &int_error))
    return fail(WireError::kBadRequest, int_error);
  if (!read_int(m[kBudgetMs], kMemberKeys[kBudgetMs], &request.budget_ms,
                &int_error))
    return fail(WireError::kBadRequest, int_error);

  if (!read_string(m[kSpec], &request.spec))
    return fail(WireError::kBadRequest, "'spec' must be a string");
  if (!read_string(m[kInstance], &request.instance))  // the bulk of the line
    return fail(WireError::kBadRequest, "'instance' must be a string");
  if (request.op == Op::kSolve &&
      (request.spec.empty() == request.instance.empty()))
    return fail(WireError::kBadRequest,
                "solve needs exactly one of 'spec' or 'instance'");

  const bool session_op =
      request.op == Op::kOpenSession || request.op == Op::kSubmitJob ||
      request.op == Op::kCancelJob || request.op == Op::kSnapshot ||
      request.op == Op::kCloseSession;
  if (session_op) {
    if (!m[kSession].found || !read_string(m[kSession], &request.session) ||
        request.session.empty())
      return fail(WireError::kBadRequest,
                  "'" + name + "' needs a non-empty string 'session'");
  }
  if (request.op == Op::kOpenSession) {
    if (!read_int(m[kMachines], kMemberKeys[kMachines], &request.machines,
                  &int_error))
      return fail(WireError::kBadRequest, int_error);
    if (request.machines < 1)
      return fail(WireError::kBadRequest, "'machines' must be >= 1");
  }
  if (request.op == Op::kSubmitJob) {
    if (!m[kClass].found || !read_string(m[kClass], &request.job_class) ||
        request.job_class.empty())
      return fail(WireError::kBadRequest,
                  "'submit_job' needs a non-empty string 'class'");
    if (!read_int(m[kSize], kMemberKeys[kSize], &request.size, &int_error))
      return fail(WireError::kBadRequest, int_error);
    if (request.size < 1)
      return fail(WireError::kBadRequest, "'size' must be >= 1");
  }
  if (request.op == Op::kCancelJob) {
    if (!read_int(m[kJob], kMemberKeys[kJob], &request.job, &int_error))
      return fail(WireError::kBadRequest, int_error);
    if (request.job < 0)
      return fail(WireError::kBadRequest,
                  "'cancel_job' needs a non-negative integer 'job'");
  }
  return request;
}

std::string error_response(const Json& id, WireError code,
                           std::string_view detail) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", false);
  response.set("error", std::string(wire_error_name(code)));
  response.set("detail", std::string(detail));
  return response.str();
}

std::string solve_response_tail(const engine::PortfolioResult& result) {
  Json body = Json::object();
  body.set("ok", true);
  body.set("solver", result.solver);
  body.set("makespan", result.makespan);
  body.set("t_bound", static_cast<std::int64_t>(result.t_bound));
  body.set("ratio", result.ratio_vs_bound);
  body.set("valid", result.valid);
  std::string tail = body.str();
  tail.front() = ',';  // the '{' comes from the id prefix
  return tail;
}

std::string compose_response(const Json& id, const std::string& tail) {
  std::string line = "{\"id\":";
  line += id.str();
  line += tail;
  return line;
}

std::string ok_response(const Json& id, std::string_view op) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("op", std::string(op));
  return response.str();
}

std::string session_response(const Json& id, std::string_view op,
                             std::string_view session) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("op", std::string(op));
  response.set("session", std::string(session));
  return response.str();
}

std::string submit_response(const Json& id, std::string_view session,
                            std::uint64_t job) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("session", std::string(session));
  response.set("job", static_cast<std::int64_t>(job));
  return response.str();
}

std::string cancel_response(const Json& id, std::string_view session,
                            std::uint64_t job) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("session", std::string(session));
  response.set("job", static_cast<std::int64_t>(job));
  response.set("cancelled", true);
  return response.str();
}

std::string snapshot_response(const Json& id, const SnapshotBody& body) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("session", body.session);
  response.set("jobs", static_cast<std::int64_t>(body.jobs));
  response.set("classes", static_cast<std::int64_t>(body.classes));
  response.set("machines", static_cast<std::int64_t>(body.machines));
  response.set("solver", body.solver);
  response.set("makespan", body.makespan);
  response.set("t_bound", body.t_bound);
  response.set("ratio", body.ratio);
  response.set("valid", body.valid);
  response.set("source", body.source);
  return response.str();
}

std::string version_response(const Json& id) {
  Json response = Json::object();
  response.set("id", id);
  response.set("ok", true);
  response.set("instance_format", static_cast<std::int64_t>(
                                      kInstanceFormatVersion));
  response.set("bench_schema",
               static_cast<std::int64_t>(perf::kBenchSchemaVersion));
  response.set("wire", static_cast<std::int64_t>(kWireVersion));
  return response.str();
}

std::vector<std::pair<std::string, std::string>> build_info_labels() {
  std::vector<std::pair<std::string, std::string>> labels;
  labels.emplace_back("wire", std::to_string(kWireVersion));
  labels.emplace_back("instance_format",
                      std::to_string(kInstanceFormatVersion));
  labels.emplace_back("bench_schema",
                      std::to_string(perf::kBenchSchemaVersion));
#if defined(__VERSION__)
  labels.emplace_back("compiler", __VERSION__);
#else
  labels.emplace_back("compiler", "unknown");
#endif
#if defined(NDEBUG)
  labels.emplace_back("build", "release");
#else
  labels.emplace_back("build", "debug");
#endif
#if defined(__SANITIZE_ADDRESS__)
  labels.emplace_back("sanitize", "address");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  labels.emplace_back("sanitize", "address");
#else
  labels.emplace_back("sanitize", "none");
#endif
#else
  labels.emplace_back("sanitize", "none");
#endif
  return labels;
}

}  // namespace msrs::serve
