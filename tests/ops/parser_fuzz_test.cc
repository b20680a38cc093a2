// Seeded mutational fuzzing of the ops plane's two parsers of untrusted
// bytes: the JSON reader (ops::JsonValue::Parse; fl_top feeds it whatever a
// /statusz endpoint returns) and the HTTP request-head parser
// (ops::ParseHttpRequest; it reads straight off a socket). Corpora are
// valid documents; mutations are bit flips, truncation, splicing two inputs
// and inserting a syntax-significant token. Invariant: a parser never
// throws or aborts. An input either fails cleanly (a Status error /
// kBadRequest / kTooLarge / kNeedMore) or round-trips exactly: JSON through
// JsonWriter and back to the same value, an HTTP head through a canonical
// re-serialization and back to the same request.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/ops/http.h"
#include "src/ops/json.h"

namespace fl::ops {
namespace {

std::string Mutate(const std::string& input, const std::string& other,
                   const std::vector<std::string>& tokens, Rng& rng) {
  std::string out = input;
  switch (rng.UniformInt(4)) {
    case 0: {  // bit flips
      const int flips = 1 + static_cast<int>(rng.UniformInt(4));
      for (int f = 0; f < flips && !out.empty(); ++f) {
        out[rng.UniformInt(out.size())] ^=
            static_cast<char>(1u << rng.UniformInt(8));
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.UniformInt(out.size() + 1));
      break;
    case 2: {  // splice: a prefix of this input, a suffix of another
      out.resize(rng.UniformInt(out.size() + 1));
      out += other.substr(rng.UniformInt(other.size() + 1));
      break;
    }
    default:  // a token inserted (or overwriting) at a random position
      out.insert(rng.UniformInt(out.size() + 1),
                 tokens[rng.UniformInt(tokens.size())]);
      if (rng.Bernoulli(0.5) && !out.empty()) {
        out.erase(rng.UniformInt(out.size()), 1);
      }
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON.
// ---------------------------------------------------------------------------

void WriteJson(JsonWriter& w, const std::string& key, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: w.Raw(key, "null"); break;
    case JsonValue::Kind::kBool: w.Field(key, v.AsBool()); break;
    case JsonValue::Kind::kNumber: w.Field(key, v.AsDouble()); break;
    case JsonValue::Kind::kString: w.Field(key, v.AsString()); break;
    case JsonValue::Kind::kArray:
      w.BeginArray(key);
      for (const JsonValue& item : v.items()) WriteJson(w, "", item);
      w.EndArray();
      break;
    case JsonValue::Kind::kObject:
      w.BeginObject(key);
      for (const auto& [k, member] : v.members()) WriteJson(w, k, member);
      w.EndObject();
      break;
  }
}

bool SameJson(const JsonValue& a, const JsonValue& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.AsBool() == b.AsBool();
    case JsonValue::Kind::kNumber: return a.AsDouble() == b.AsDouble();
    case JsonValue::Kind::kString: return a.AsString() == b.AsString();
    case JsonValue::Kind::kArray:
      if (a.size() != b.size()) return false;
      for (std::size_t i = 0; i < a.size(); ++i) {
        if (!SameJson(a[i], b[i])) return false;
      }
      return true;
    case JsonValue::Kind::kObject:
      if (a.members().size() != b.members().size()) return false;
      for (std::size_t i = 0; i < a.members().size(); ++i) {
        if (a.members()[i].first != b.members()[i].first ||
            !SameJson(a.members()[i].second, b.members()[i].second)) {
          return false;
        }
      }
      return true;
  }
  return false;
}

// Parses `text`; when it is accepted, writes the value back out with
// JsonWriter and expects the re-parse to yield the same value.
void ExpectJsonRoundTripOrError(const std::string& text) {
  const auto parsed = JsonValue::Parse(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), ErrorCode::kInvalidArgument);
    return;
  }
  JsonWriter w;
  WriteJson(w, "", *parsed);
  const auto again = JsonValue::Parse(w.str());
  ASSERT_TRUE(again.ok()) << again.status() << "\n  written: " << w.str();
  EXPECT_TRUE(SameJson(*parsed, *again)) << "written: " << w.str();
}

std::vector<std::string> JsonCorpus() {
  JsonWriter status;
  status.BeginObject();
  status.BeginObject("build").EnvironmentFields().EndObject();
  status.BeginArray("rounds");
  for (int i = 0; i < 3; ++i) {
    status.BeginObject()
        .Field("round", static_cast<std::size_t>(i))
        .Field("loss", 0.1 * i - 0.05)
        .Field("note", "line\nbreak \"quoted\" \t\x01")
        .Field("ok", i % 2 == 0)
        .EndObject();
  }
  status.EndArray();
  status.EndObject();
  std::string deep;
  for (int i = 0; i < 32; ++i) deep += "[{\"k\":";  // depth 64: the limit
  deep += "null";
  for (int i = 0; i < 32; ++i) deep += "}]";
  return {
      status.str(),
      R"({"a": {"b": [1, 2, {"c": "deep"}]}, "d": true, "e": null})",
      R"([-0, 0.1, 1e-300, 4.9e-324, 123456789012345678, -1.5E+3, 17])",
      R"("é中😀 \/ \\ \b\f\n\r\t \u0000 raw é")",
      R"({"": "", "empty": {}, "list": [], "": [[], {}]})",
      "  \n\t{ \"spaced\" :\r\n [ true , false ] }  ",
      deep,
  };
}

const std::vector<std::string> kJsonTokens = {
    "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u", "\\ud800", "\\udc00",
    "-", "e", ".", "0", "1e999", "true", "null", "\x01", "\xff"};

TEST(ParserFuzzTest, JsonCorpusRoundTripsThroughTheWriter) {
  for (const std::string& doc : JsonCorpus()) {
    const auto parsed = JsonValue::Parse(doc);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n  input: " << doc;
    ExpectJsonRoundTripOrError(doc);
  }
}

// An object member with an empty key: JsonWriter used to treat "" as "no
// key" and wrote `{1}`, which no parser accepts.
TEST(ParserFuzzTest, JsonEmptyMemberKeyRoundTrips) {
  ExpectJsonRoundTripOrError(R"({"": 1, "x": {"": [null]}})");
}

TEST(ParserFuzzTest, MutatedJsonFailsCleanlyOrRoundTrips) {
  const std::vector<std::string> corpus = JsonCorpus();
  Rng rng(0x15A0);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (int trial = 0; trial < 1500; ++trial) {
      const std::string& other = corpus[rng.UniformInt(corpus.size())];
      const std::string mutant = Mutate(corpus[i], other, kJsonTokens, rng);
      EXPECT_NO_THROW(ExpectJsonRoundTripOrError(mutant))
          << "corpus " << i << " trial " << trial;
    }
  }
}

// ---------------------------------------------------------------------------
// HTTP request heads.
// ---------------------------------------------------------------------------

// The canonical wire form of a parsed head: CRLF line endings, one
// "key: value" line per header.
std::string SerializeHead(const HttpRequest& r) {
  std::string out = r.method + " " + r.target + " " + r.version + "\r\n";
  for (const auto& [k, v] : r.headers) out += k + ": " + v + "\r\n";
  return out + "\r\n";
}

bool SameRequest(const HttpRequest& a, const HttpRequest& b) {
  return a.method == b.method && a.target == b.target && a.path == b.path &&
         a.query == b.query && a.version == b.version &&
         a.headers == b.headers && a.keep_alive == b.keep_alive;
}

void ExpectHttpRoundTripOrError(const std::string& bytes) {
  HttpRequest req;
  std::size_t consumed = 0;
  const HttpParse parsed = ParseHttpRequest(bytes, &req, &consumed);
  if (parsed != HttpParse::kOk) {
    EXPECT_EQ(consumed, 0u);
    return;
  }
  ASSERT_GT(consumed, 0u);
  ASSERT_LE(consumed, bytes.size());
  const std::string canonical = SerializeHead(req);
  HttpRequest again;
  std::size_t again_consumed = 0;
  ASSERT_EQ(ParseHttpRequest(canonical, &again, &again_consumed),
            HttpParse::kOk)
      << "canonical: " << canonical;
  EXPECT_EQ(again_consumed, canonical.size());
  EXPECT_TRUE(SameRequest(req, again)) << "canonical: " << canonical;
}

std::vector<std::string> HttpCorpus() {
  return {
      "GET /statusz?format=html HTTP/1.1\r\nHost: localhost\r\n"
      "User-Agent: fl_top\r\nAccept: */*\r\n\r\n",
      "HEAD /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
      "GET /rounds HTTP/1.1\nHost: x\nConnection: close\n\n",
      "GET /metrics HTTP/1.1\r\nContent-Length: 0\r\nX-Empty:\r\n"
      "X-Spaced:   padded value \t\r\n\r\nGET /next HTTP/1.1\r\n\r\n",
      "GET /a?b=c&d=e HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\n\r\n",
  };
}

const std::vector<std::string> kHttpTokens = {
    "\r\n", "\n", "\r\n\r\n", "\n\n", ":", " ", "\t", "?", "/", "\r",
    "Content-Length: 5\r\n", "Transfer-Encoding: chunked\r\n",
    "Connection: close\r\n", "HTTP/1.0", "\xff"};

TEST(ParserFuzzTest, HttpCorpusRoundTrips) {
  for (const std::string& head : HttpCorpus()) {
    HttpRequest req;
    std::size_t consumed = 0;
    ASSERT_EQ(ParseHttpRequest(head, &req, &consumed), HttpParse::kOk)
        << head;
    ExpectHttpRoundTripOrError(head);
  }
}

// Found by the mutation run: a header value ending in a bare CR ("1\r",
// then CR LF LF) was accepted, yet the same head written with CRLF endings
// ends one CR earlier, so the value read back as "1". A CR left inside a
// line once its line ending is stripped is now a bad request.
TEST(ParserFuzzTest, HttpBareCrIsBadRequest) {
  for (const std::string head :
       {"GET / HTTP/1.1\r\nA: 1\r\r\n\n", "GET /a\rb HTTP/1.1\r\n\r\n",
        "GET / HTTP/1.1\r\nA\r: 1\r\n\r\n"}) {
    HttpRequest req;
    std::size_t consumed = 0;
    EXPECT_EQ(ParseHttpRequest(head, &req, &consumed), HttpParse::kBadRequest)
        << head;
  }
}

TEST(ParserFuzzTest, MutatedHttpHeadsFailCleanlyOrRoundTrip) {
  const std::vector<std::string> corpus = HttpCorpus();
  Rng rng(0x4771);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    for (int trial = 0; trial < 2000; ++trial) {
      const std::string& other = corpus[rng.UniformInt(corpus.size())];
      const std::string mutant = Mutate(corpus[i], other, kHttpTokens, rng);
      EXPECT_NO_THROW(ExpectHttpRoundTripOrError(mutant))
          << "corpus " << i << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace fl::ops
