// Wire-protocol round-trip tests: a scripted request battery (every op,
// every error class) served through a fresh ProtocolService and compared
// byte-for-byte against golden files under golden/, once per envelope
// version. Timing-valued fields (and the two solve-quality doubles, which
// may differ in the last ulp across compilers) are normalized to `T`
// before the comparison; everything else — member order, separators,
// ids, error codes and messages, catalog versions, seq numbers — must
// match exactly.
//
// Regenerate the goldens after an intentional protocol change with
//   FAIRHMS_UPDATE_GOLDEN=1 ./fairhms_api_tests --gtest_filter='ProtocolGolden*'
// and review the diff like any other code change.

#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/catalog.h"
#include "api/protocol.h"
#include "api/service.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "data/grouping.h"
#include "testing/test_util.h"

#ifndef FAIRHMS_TEST_SRCDIR
#error "FAIRHMS_TEST_SRCDIR must point at tests/api (set in CMakeLists)"
#endif

namespace fairhms {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(FAIRHMS_TEST_SRCDIR) + "/golden/" + name;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Replaces the numeric value of every volatile field with `T`: wall-clock
/// timings plus the two %.17g solve-quality doubles (deterministic within
/// one binary but not across compilers).
std::string Normalize(std::string s) {
  static const char* const kKeys[] = {
      "solve_ms",     "total_ms",  "uptime_ms",
      "qps",          "p50_ms",    "p99_ms",
      "happiness_ratio", "algo_mhr_estimate", "predicted_ms",
      "predicted_hr", "actual_ms"};
  for (const char* key : kKeys) {
    const std::string needle = std::string("\"") + key + "\": ";
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      const size_t start = pos + needle.size();
      size_t end = start;
      while (end < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[end])) ||
              std::strchr(".eE+-", s[end]) != nullptr)) {
        ++end;
      }
      s.replace(start, end - start, "T");
      pos = start + 1;
    }
  }
  // String-valued fields that vary with the host CPU / environment rather
  // than the build: the kernel layer's dispatch level and mode.
  static const char* const kStringKeys[] = {"simd_level", "simd_mode"};
  for (const char* key : kStringKeys) {
    const std::string needle = std::string("\"") + key + "\": \"";
    size_t pos = 0;
    while ((pos = s.find(needle, pos)) != std::string::npos) {
      const size_t start = pos + needle.size();
      const size_t end = s.find('"', start);
      if (end == std::string::npos) break;
      s.replace(start, end - start, "T");
      pos = start + 1;
    }
  }
  return s;
}

/// Switches the working directory to a fresh directory private to this
/// test process for its lifetime: the battery's save op writes a relative
/// path, and `ctest -j` runs the battery cases at the same time.
class PrivateWorkDir {
 public:
  PrivateWorkDir() : dir_(testing::UniqueTempPath("workdir")) {
    char buf[4096];
    EXPECT_NE(::getcwd(buf, sizeof buf), nullptr);
    prev_ = buf;
    EXPECT_EQ(::mkdir(dir_.c_str(), 0700), 0);
    EXPECT_EQ(::chdir(dir_.c_str()), 0);
  }
  ~PrivateWorkDir() {
    EXPECT_EQ(::chdir(prev_.c_str()), 0);
    ::rmdir(dir_.c_str());
  }

 private:
  std::string dir_;
  std::string prev_;
};

/// Serves golden/requests.jsonl through a freshly bootstrapped service
/// (fixed seeds, one "default" dataset) under the given envelope version
/// and returns the normalized response lines.
std::vector<std::string> ServeBattery(int version, bool normalize = true) {
  const PrivateWorkDir work_dir;
  DatasetCatalog catalog;
  Rng rng(1234);
  Dataset data = GenIndependent(60, 3, &rng).NormalizedMinMax();
  Grouping grouping = GroupBySumRank(data, 2);
  EXPECT_TRUE(
      catalog.Register("default", std::move(data), std::move(grouping)).ok());
  ServiceOptions opts;
  opts.default_seed = 7;
  opts.default_threads = 1;
  opts.envelope.version = version;
  opts.envelope.emit_seq = version >= 1;
  ProtocolService service(&catalog, opts);

  std::vector<std::string> responses;
  uint64_t line_no = 0;
  for (const std::string& line : ReadLines(GoldenPath("requests.jsonl"))) {
    ++line_no;
    std::string response = service.HandleLine(line, line_no);
    responses.push_back(normalize ? Normalize(std::move(response))
                                  : std::move(response));
  }
  // Drop the saved file and its cost-model sidecar so the private
  // directory can go (the bytes are covered by snapshot tests).
  std::remove("protocol_golden_tiny.snap");
  std::remove("protocol_golden_tiny.snap.plan");
  return responses;
}

void CheckGolden(const std::string& name,
                 const std::vector<std::string>& lines) {
  std::string actual;
  for (const std::string& line : lines) actual += line + "\n";
  const std::string path = GoldenPath(name);
  if (std::getenv("FAIRHMS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path
                         << " (regenerate with FAIRHMS_UPDATE_GOLDEN=1)";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), actual) << "golden mismatch for " << name;
}

TEST(ProtocolGoldenTest, LegacyEnvelopeBattery) {
  CheckGolden("responses_v0.jsonl", ServeBattery(0));
}

TEST(ProtocolGoldenTest, VersionedEnvelopeBattery) {
  CheckGolden("responses_v1.jsonl", ServeBattery(1));
}

TEST(ProtocolGoldenTest, VersionedEnvelopeOnlyChangesTheEnvelope) {
  const std::vector<std::string> v0 = ServeBattery(0);
  const std::vector<std::string> v1 = ServeBattery(1);
  ASSERT_EQ(v0.size(), v1.size());
  for (size_t i = 0; i < v0.size(); ++i) {
    // Strip the version-1 additions: the protocol_version stamp and the
    // seq number.
    std::string stripped = v1[i];
    const std::string version_tag =
        StrFormat("\"protocol_version\": %d, ", kProtocolVersion);
    size_t pos = stripped.find(version_tag);
    ASSERT_NE(pos, std::string::npos) << stripped;
    stripped.erase(pos, version_tag.size());
    pos = stripped.find("\"seq\": ");
    if (pos != std::string::npos) {
      size_t end = pos + 7;
      while (end < stripped.size() &&
             std::isdigit(static_cast<unsigned char>(stripped[end]))) {
        ++end;
      }
      ASSERT_EQ(stripped.substr(end, 2), ", ") << stripped;
      stripped.erase(pos, end + 2 - pos);
    }
    if (v0[i].find("\"ok\": true") != std::string::npos) {
      // Success payloads must be byte-identical under both envelopes.
      EXPECT_EQ(stripped, v0[i]) << "line " << i + 1;
    } else {
      // Error lines: the v1 structured error must carry the same code and
      // message that the v0 free-text rendering concatenates.
      const std::string prefix = "\"error\": \"";
      pos = v0[i].find(prefix);
      ASSERT_NE(pos, std::string::npos) << v0[i];
      const size_t start = pos + prefix.size();
      const size_t end = v0[i].rfind("\"}");
      ASSERT_NE(end, std::string::npos);
      const std::string legacy = v0[i].substr(start, end - start);
      const size_t sep = legacy.find(": ");
      ASSERT_NE(sep, std::string::npos) << legacy;
      const std::string structured = "\"error\": {\"code\": \"" +
                                     legacy.substr(0, sep) +
                                     "\", \"message\": \"" +
                                     legacy.substr(sep + 2) + "\"}}";
      EXPECT_NE(v1[i].find(structured), std::string::npos)
          << "line " << i + 1 << ": " << v1[i] << " vs legacy " << legacy;
    }
  }
}

TEST(ProtocolGoldenTest, VersionedResponsesAreValidJson) {
  for (const std::string& line : ServeBattery(1, /*normalize=*/false)) {
    auto parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    ASSERT_TRUE(parsed->is_object()) << line;
    const JsonValue* version = parsed->Find("protocol_version");
    ASSERT_NE(version, nullptr) << line;
    EXPECT_EQ(*version->AsInt64(), kProtocolVersion);
    ASSERT_NE(parsed->Find("id"), nullptr) << line;
    const JsonValue* ok = parsed->Find("ok");
    ASSERT_NE(ok, nullptr) << line;
    if (!ok->bool_value()) {
      const JsonValue* error = parsed->Find("error");
      ASSERT_NE(error, nullptr) << line;
      ASSERT_TRUE(error->is_object()) << line;
      EXPECT_NE(error->Find("code"), nullptr) << line;
      EXPECT_NE(error->Find("message"), nullptr) << line;
      // The deprecated flat rendering is gone from the v1 envelope.
      EXPECT_EQ(parsed->Find("error_string"), nullptr) << line;
    }
  }
}

// ---------------------------------------------------------------------------
// ParseRequest / RenderRequestId unit coverage.

StatusOr<Request> Parse(const std::string& line) {
  auto parsed = ParseJson(line);
  if (!parsed.ok()) return parsed.status();
  Request out;
  FAIRHMS_RETURN_IF_ERROR(ParseRequest(*parsed, &out));
  return out;
}

TEST(ParseRequestTest, QueryIsTheDefaultOpAndSolveAnAlias) {
  auto q = Parse(R"({"algorithm": "intcov", "k": 5})");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->op, ProtocolOp::kQuery);
  EXPECT_EQ(q->dataset, "default");
  EXPECT_EQ(q->query.algorithm, "intcov");
  EXPECT_EQ(q->query.k, 5);
  auto s = Parse(R"({"op": "solve", "algorithm": "intcov", "k": 5})");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->op, ProtocolOp::kQuery);
}

TEST(ParseRequestTest, IdTokenRendering) {
  EXPECT_EQ(Parse(R"({"id": "a\"b", "op": "list"})")->id, "\"a\\\"b\"");
  EXPECT_EQ(Parse(R"({"id": 3, "op": "list"})")->id, "3");
  EXPECT_EQ(Parse(R"({"op": "list"})")->id, "");        // Absent.
  EXPECT_EQ(Parse(R"({"id": [1], "op": "list"})")->id, "");  // Non-scalar.
}

TEST(ParseRequestTest, IdSurvivesARejectedLine) {
  auto parsed = ParseJson(R"({"id": "keep", "op": "bogus"})");
  ASSERT_TRUE(parsed.ok());
  Request out;
  const Status status = ParseRequest(*parsed, &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(out.id, "\"keep\"");
}

TEST(ParseRequestTest, UnknownOpListsEveryOp) {
  auto r = Parse(R"({"op": "bogus"})");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(
                "want query, insert, delete, register, save, drop, list or "
                "stats"),
            std::string::npos)
      << r.status().message();
}

TEST(ParseRequestTest, DatasetMustBeAString) {
  auto r = Parse(R"({"dataset": 3, "op": "bogus"})");
  ASSERT_FALSE(r.ok());
  // Routing validation outranks the unknown-op error.
  EXPECT_NE(r.status().message().find("\"dataset\" must be a string"),
            std::string::npos);
}

TEST(ParseRequestTest, ExplicitBoundsNeedBothLists) {
  auto r = Parse(
      R"({"algorithm": "intcov", "k": 3, "bounds": "explicit", "lower": [1]})");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("\"upper\""), std::string::npos);
}

TEST(ParseRequestTest, EveryOpParses) {
  EXPECT_EQ(Parse(R"({"op": "insert", "point": [1, 2]})")->op,
            ProtocolOp::kInsert);
  EXPECT_EQ(Parse(R"({"op": "delete", "rows": [0]})")->op,
            ProtocolOp::kDelete);
  EXPECT_EQ(
      Parse(R"({"op": "register", "name": "x", "synthetic": "independent"})")
          ->op,
      ProtocolOp::kRegister);
  EXPECT_EQ(Parse(R"({"op": "save", "name": "x", "path": "p"})")->op,
            ProtocolOp::kSave);
  EXPECT_EQ(Parse(R"({"op": "drop", "name": "x"})")->op, ProtocolOp::kDrop);
  EXPECT_EQ(Parse(R"({"op": "list"})")->op, ProtocolOp::kList);
  EXPECT_EQ(Parse(R"({"op": "stats"})")->op, ProtocolOp::kStats);
}

TEST(RenderRequestIdTest, FallsBackToTheLineNumber) {
  EXPECT_EQ(RenderRequestId(R"({"id": "x"})", 9), "\"x\"");
  EXPECT_EQ(RenderRequestId(R"({"id": 12})", 9), "12");
  EXPECT_EQ(RenderRequestId(R"({"k": 3})", 9), "9");
  EXPECT_EQ(RenderRequestId("not json", 9), "9");
  EXPECT_EQ(RenderRequestId(R"([{"id": "x"}])", 9), "9");
}

// ---------------------------------------------------------------------------
// RenderErrorLine: every status code of the taxonomy under both envelopes
// (the server-layer codes — ResourceExhausted, DeadlineExceeded,
// Unavailable — only reach the wire through this path).

TEST(RenderErrorLineTest, EveryErrorClassUnderBothEnvelopes) {
  const std::pair<Status, const char*> kCases[] = {
      {Status::InvalidArgument("m"), "InvalidArgument"},
      {Status::NotFound("m"), "NotFound"},
      {Status::FailedPrecondition("m"), "FailedPrecondition"},
      {Status::OutOfRange("m"), "OutOfRange"},
      {Status::ResourceExhausted("m"), "ResourceExhausted"},
      {Status::Internal("m"), "Internal"},
      {Status::Unimplemented("m"), "Unimplemented"},
      {Status::IOError("m"), "IOError"},
      {Status::Infeasible("m"), "Infeasible"},
      {Status::DeadlineExceeded("m"), "DeadlineExceeded"},
      {Status::Unavailable("m"), "Unavailable"},
  };
  EnvelopeOptions v0;
  EnvelopeOptions v1;
  v1.version = 1;
  for (const auto& [status, code] : kCases) {
    EXPECT_EQ(RenderErrorLine("\"x\"", status, v0),
              StrFormat("{\"id\": \"x\", \"ok\": false, \"error\": "
                        "\"%s: m\"}",
                        code));
    EXPECT_EQ(RenderErrorLine("\"x\"", status, v1),
              StrFormat("{\"id\": \"x\", \"ok\": false, "
                        "\"protocol_version\": 1, \"error\": {\"code\": "
                        "\"%s\", \"message\": \"m\"}}",
                        code));
  }
}

TEST(RenderErrorLineTest, MessagesAreJsonEscaped) {
  EnvelopeOptions v1;
  v1.version = 1;
  const std::string line =
      RenderErrorLine("1", Status::InvalidArgument("a \"quoted\"\nline"), v1);
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_EQ(parsed->Find("error")->Find("message")->string_value(),
            "a \"quoted\"\nline");
}

}  // namespace
}  // namespace fairhms
