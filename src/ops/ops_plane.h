// The live ops plane as one object: the status server over the FLSystem's
// window store, health evaluator, round ledger and diagnostic bundler.
// FLSystem owns one of these when FL_STATUSZ is set (or statusz_port is
// configured explicitly). The plane owns none of its sources: the stats
// tick records into the store and evaluates health whether or not the
// plane is up, and the plane only serves them over HTTP.
#pragma once

#include <optional>
#include <string>

#include "src/ops/status_server.h"

namespace fl::ops {

// FL_STATUSZ env gate: unset/empty -> nullopt (plane off); "0" -> ephemeral
// port; otherwise the port number. Out-of-range values read as off.
std::optional<int> StatuszPortFromEnv();

class OpsPlane {
 public:
  struct Options {
    int port = 0;  // 0 = ephemeral
    std::string population;
  };

  // Every source must outlive the plane.
  OpsPlane(Options opts, StatusServer::Sources sources);
  ~OpsPlane();

  OpsPlane(const OpsPlane&) = delete;
  OpsPlane& operator=(const OpsPlane&) = delete;

  Status Start();
  void Stop();
  int port() const { return server_.port(); }
  bool running() const { return server_.running(); }

  StatusServer& server() { return server_; }

 private:
  StatusServer server_;
};

}  // namespace fl::ops
