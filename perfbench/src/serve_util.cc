#include "serve_util.h"

#include <chrono>

#include "knmatch/serve/client.h"
#include "knmatch/serve/http.h"
#include "knmatch/serve/json.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using knmatch::serve::JsonWriter;

namespace {

void WriteQuery(JsonWriter* w, std::span<const knmatch::Value> query) {
  w->Key("query").BeginArray();
  for (const knmatch::Value v : query) w->Number(v);
  w->EndArray();
}

}  // namespace

std::string KnMatchBody(std::span<const knmatch::Value> query, size_t n,
                        size_t k) {
  JsonWriter w;
  w.BeginObject().Key("type").String("knmatch");
  w.Key("n").Uint(n).Key("k").Uint(k);
  WriteQuery(&w, query);
  w.EndObject();
  return w.Take();
}

std::string FrequentKnMatchBody(std::span<const knmatch::Value> query,
                                size_t n0, size_t n1, size_t k) {
  JsonWriter w;
  w.BeginObject().Key("type").String("fknmatch");
  w.Key("n0").Uint(n0).Key("n1").Uint(n1).Key("k").Uint(k);
  WriteQuery(&w, query);
  w.EndObject();
  return w.Take();
}

std::string AnswerBody(const std::string& type,
                       const std::vector<knmatch::Neighbor>& matches,
                       const std::vector<uint32_t>* frequencies,
                       uint64_t attributes_retrieved) {
  JsonWriter w;
  w.BeginObject();
  w.Key("type").String(type);
  w.Key("matches").BeginArray();
  for (const knmatch::Neighbor& m : matches) {
    w.BeginObject();
    w.Key("pid").Uint(m.pid);
    w.Key("distance").Number(m.distance);
    w.EndObject();
  }
  w.EndArray();
  if (frequencies != nullptr) {
    w.Key("frequencies").BeginArray();
    for (const uint32_t f : *frequencies) w.Uint(f);
    w.EndArray();
  }
  w.Key("attributes_retrieved").Uint(attributes_retrieved);
  // Exact answers carry the all-exact recall bound.
  const knmatch::RecallBound bound;
  w.Key("bound").BeginObject();
  w.Key("guaranteed").Number(bound.guaranteed);
  w.Key("epsilon").Number(bound.epsilon);
  w.Key("column_sample").Number(bound.column_sample);
  w.Key("early_stopped").Bool(bound.early_stopped);
  w.Key("sampled").Bool(bound.sampled);
  w.EndObject();
  w.Key("partial").Bool(false);
  w.EndObject();
  return w.Take();
}

std::string HttpRequestBytes(const std::string& body) {
  return "POST /query HTTP/1.1\r\nHost: 127.0.0.1\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

CodecTimings TimeCodecs(const std::vector<std::string>& request_bodies,
                        const std::function<std::string(size_t)>& write_answer) {
  CodecTimings t;
  if (request_bodies.empty()) return t;
  const double items = static_cast<double>(request_bodies.size());
  std::vector<std::string> frames;
  for (const std::string& b : request_bodies) frames.push_back(HttpRequestBytes(b));
  knmatch::serve::HttpParser parser;
  size_t parsed = 0;
  Clock::time_point start = Clock::now();
  for (const std::string& f : frames) {
    if (parser.Feed(f) == knmatch::serve::HttpParser::State::kReady) {
      parsed += parser.Take().body.size();
    }
  }
  t.http_parse_us = Ms(start, Clock::now()) * 1e3 / items;
  start = Clock::now();
  for (const std::string& b : request_bodies) {
    parsed += knmatch::serve::ParseJson(b).ok() ? 1 : 0;
  }
  t.json_parse_us = Ms(start, Clock::now()) * 1e3 / items;
  if (parsed == 0) t.http_parse_us = t.json_parse_us = 0;  // nothing parsed
  size_t bytes = 0;
  start = Clock::now();
  for (size_t i = 0; i < request_bodies.size(); ++i) bytes += write_answer(i).size();
  t.json_write_us = bytes > 0 ? Ms(start, Clock::now()) * 1e3 / items : 0;
  return t;
}

Unloaded MeasureUnloaded(uint16_t port, const std::vector<uint64_t>& requests,
                         const std::function<std::string(uint64_t)>& body_for,
                         const std::function<void(uint64_t)>& direct_call) {
  Unloaded u;
  knmatch::serve::HttpClient client(port);
  (void)client.Connect();
  for (const uint64_t r : requests) {
    const std::string body = body_for(r);
    Clock::time_point start = Clock::now();
    const bool ok = client.Post("/query", body).ok();
    const double rtt = Ms(start, Clock::now());
    start = Clock::now();
    direct_call(r);
    const double direct = Ms(start, Clock::now());
    if (!ok) continue;
    u.requests.push_back(r);
    u.rtt_ms.push_back(rtt);
    u.direct_ms.push_back(direct);
  }
  return u;
}

}  // namespace perfbench
