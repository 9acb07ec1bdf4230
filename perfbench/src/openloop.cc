#include "openloop.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "knmatch/common/random.h"
#include "knmatch/serve/client.h"
#include "workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

OpenLoopResult RunOpenLoop(const OpenLoopConfig& config,
                           const std::function<std::string(uint64_t)>& body_for) {
  // The whole schedule is fixed before the first send.
  std::vector<double> offsets;
  knmatch::Rng rng(config.seed);
  for (double t = rng.Exponential(config.rate); t < config.seconds;
       t += rng.Exponential(config.rate)) {
    offsets.push_back(t);
  }
  OpenLoopResult result;
  result.samples.resize(offsets.size());
  result.bodies.resize(offsets.size());

  std::vector<std::unique_ptr<knmatch::serve::HttpClient>> clients;
  for (size_t c = 0; c < std::max<size_t>(1, config.connections); ++c) {
    clients.push_back(std::make_unique<knmatch::serve::HttpClient>(config.port));
    (void)clients.back()->Connect();  // Post() reconnects on failure
  }
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (auto& client_ptr : clients) {
    knmatch::serve::HttpClient* client = client_ptr.get();
    threads.emplace_back([&, client] {
      for (size_t i = next.fetch_add(1); i < offsets.size();
           i = next.fetch_add(1)) {
        OpenLoopSample& s = result.samples[i];
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offsets[i]));
        const std::string body = body_for(i);
        std::this_thread::sleep_until(due);
        const int64_t root =
            config.spans != nullptr
                ? config.spans->BeginAt("request", due, i, SpanLog::kNoParent)
                : SpanLog::kNoParent;
        if (config.spans != nullptr) {
          const int64_t wait = config.spans->BeginAt("client_queue_wait", due, i, root);
          config.spans->End(wait);
        }
        const Clock::time_point sent = Clock::now();
        std::string response_body;
        {
          ScopedSpan post(config.spans, "HttpClient::Post", i, root);
          auto response = client->Post("/query", body);
          if (response.ok()) {
            s.status = static_cast<int16_t>(response.value().status);
            response_body = std::move(response.value().body);
          }
        }
        const Clock::time_point done = Clock::now();
        if (config.spans != nullptr) config.spans->End(root);
        result.bodies[i] = std::move(response_body);
        s.late_ms = static_cast<float>(Ms(due, sent));
        s.latency_ms = Ms(due, done);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return result;
}

}  // namespace perfbench
