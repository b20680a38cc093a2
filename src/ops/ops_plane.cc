#include "src/ops/ops_plane.h"

#include <cstdlib>

#include "src/telemetry/telemetry.h"

namespace fl::ops {

std::optional<int> StatuszPortFromEnv() {
  const char* raw = std::getenv("FL_STATUSZ");
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  char* end = nullptr;
  const long port = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || port < 0 || port > 65535) {
    return std::nullopt;
  }
  return static_cast<int>(port);
}

OpsPlane::OpsPlane(Options opts, StatusServer::Sources sources)
    : server_(StatusServer::Options{.port = opts.port,
                                    .population = std::move(opts.population)},
              sources) {}

OpsPlane::~OpsPlane() { Stop(); }

Status OpsPlane::Start() {
  // The plane serves registry metrics, so it implies runtime telemetry.
  telemetry::SetEnabled(true);
  return server_.Start();
}

void OpsPlane::Stop() { server_.Stop(); }

}  // namespace fl::ops
