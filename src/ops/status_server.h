// The five ops-plane endpoints glued onto the embedded HttpServer:
//
//   /          tiny HTML index
//   /metrics   Prometheus text exposition of the global MetricsRegistry
//   /statusz   build/uptime/fleet gauges + health + chart series (JSON; add
//              ?format=html for a human-readable page)
//   /rounds    last-K per-round records from the RoundLedger (?limit=N)
//   /healthz   200 "healthy" / 503 "unhealthy" with the evaluator's latest
//              report as the JSON body
//   /tracez    recent span summaries from the round-phase tracer
//   /debugz    captured diagnostic bundles; ?bundle=<seq>&file=<name> serves
//              one file from a bundle (names restricted to the known set)
//   /profilez  collapsed-stack profile from the continuous profiler;
//              ?seconds=N (cpu capture window, default 5) ?type=cpu|heap
//              ?hz=H (only if the sampler is not already running). 503 when
//              the profiler is disabled, 409 while another cpu capture is
//              in flight.
//
// Handlers run on HTTP worker threads while the sim runs elsewhere, so they
// only touch thread-safe surfaces: registry snapshots, the window store
// (whose latest sample time is the sim clock /statusz reports), the
// ledger and the cached health report.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "src/ops/debug_bundle.h"
#include "src/ops/health.h"
#include "src/ops/http.h"
#include "src/ops/round_ledger.h"
#include "src/ops/window_store.h"

namespace fl::ops {

class StatusServer {
 public:
  struct Options {
    int port = 0;  // 0 = ephemeral
    std::size_t worker_threads = 3;
    std::size_t default_rounds_limit = 50;
    std::size_t max_rounds_limit = 500;
    std::string population;
  };

  // Non-owning references; all must outlive the server. Any may be null
  // (the corresponding endpoint degrades gracefully).
  struct Sources {
    const SlidingWindowStore* store = nullptr;
    const RoundLedger* ledger = nullptr;
    const HealthEvaluator* health = nullptr;
    const DiagnosticBundler* bundler = nullptr;
  };

  StatusServer(Options opts, Sources sources);

  Status Start();
  void Stop();
  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }
  const HttpServer& http() const { return http_; }

  // Endpoint bodies, exposed for direct unit testing without sockets.
  HttpResponse Metrics(const HttpRequest& req) const;
  HttpResponse Statusz(const HttpRequest& req) const;
  HttpResponse Rounds(const HttpRequest& req) const;
  HttpResponse Healthz(const HttpRequest& req) const;
  HttpResponse Tracez(const HttpRequest& req) const;
  HttpResponse Debugz(const HttpRequest& req) const;
  HttpResponse Profilez(const HttpRequest& req) const;
  HttpResponse Index(const HttpRequest& req) const;

 private:
  // Sim time of the latest stats tick (HTTP threads must not touch the
  // event queue itself).
  std::int64_t SimNowMs() const;
  std::string StatuszJson() const;
  std::string StatuszHtml() const;

  Options opts_;
  Sources sources_;
  std::int64_t start_wall_us_ = 0;
  // One cpu capture at a time: the window loop owns the sample-seq cursor
  // and (when it armed the timer itself) the Stop.
  mutable std::atomic<bool> profilez_busy_{false};
  HttpServer http_;
};

}  // namespace fl::ops
