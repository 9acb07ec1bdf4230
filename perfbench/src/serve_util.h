#ifndef PERFBENCH_SERVE_UTIL_H_
#define PERFBENCH_SERVE_UTIL_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "knmatch/core/match_types.h"

namespace perfbench {

/// /query request bodies, as a client writes them.
std::string KnMatchBody(std::span<const knmatch::Value> query, size_t n,
                        size_t k);
std::string FrequentKnMatchBody(std::span<const knmatch::Value> query,
                                size_t n0, size_t n1, size_t k);

/// The 200 body the server writes for an exact, full-coverage answer:
/// the direct-engine serialization that served bytes must equal.
/// `frequencies` is null for a k-n-match answer.
std::string AnswerBody(const std::string& type,
                       const std::vector<knmatch::Neighbor>& matches,
                       const std::vector<uint32_t>* frequencies,
                       uint64_t attributes_retrieved);

/// The full HTTP/1.1 request a client sends for `body`.
std::string HttpRequestBytes(const std::string& body);

/// Mean microseconds per item the serve layer's codecs take on these
/// bytes: HttpParser::Feed + Take over the framed requests, ParseJson
/// over the request bodies, and JsonWriter over the answers
/// (`write_answer(i)` serializes the answer to request i).
struct CodecTimings {
  double http_parse_us = 0;
  double json_parse_us = 0;
  double json_write_us = 0;
};
CodecTimings TimeCodecs(const std::vector<std::string>& request_bodies,
                        const std::function<std::string(size_t)>& write_answer);

/// Sequential, unloaded round trips of the given requests next to the
/// direct call that computes the same answer in-process.
struct Unloaded {
  std::vector<uint64_t> requests;  // those whose round trip succeeded
  std::vector<double> rtt_ms;      // index-aligned with `requests`
  std::vector<double> direct_ms;   // the direct call for the same request
};
Unloaded MeasureUnloaded(uint16_t port, const std::vector<uint64_t>& requests,
                         const std::function<std::string(uint64_t)>& body_for,
                         const std::function<void(uint64_t)>& direct_call);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_UTIL_H_
