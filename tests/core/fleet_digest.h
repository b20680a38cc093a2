// Test helper: the CRC32 digests the determinism tests pin for one FLSystem
// run — the event journal with its wall-clock field zeroed, the FleetStats
// round log and the committed model payload.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "src/analytics/journal.h"
#include "src/common/crc32.h"
#include "src/core/fleet_stats.h"
#include "src/server/model_store.h"

namespace fl::core {

inline std::uint32_t CrcOfString(const std::string& s) {
  return Crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// CRC32 over the journal with the (non-deterministic) wall-clock field
// zeroed: parse each record, clear wall_us, re-serialize.
inline std::uint32_t JournalCrc(const std::string& path,
                                std::uint64_t* lines) {
  std::ifstream in(path);
  std::string line;
  std::string canonical;
  *lines = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto rec = analytics::JournalRecord::Parse(line);
    EXPECT_TRUE(rec.ok()) << line;
    if (!rec.ok()) continue;
    rec->wall_us = 0;
    canonical += rec->Serialize();
    canonical += '\n';
    ++*lines;
  }
  return CrcOfString(canonical);
}

// One line per finished round: id, time, outcome, contributors, timings.
inline std::uint32_t RoundLogCrc(const FleetStats& stats) {
  std::ostringstream rounds;
  for (const auto& r : stats.round_log()) {
    rounds << r.round.value << ' ' << r.finished_at.millis << ' '
           << static_cast<int>(r.outcome) << ' ' << r.contributors << ' '
           << r.selection_duration.millis << ' ' << r.round_duration.millis
           << '\n';
  }
  return CrcOfString(rounds.str());
}

// The serialized checkpoint ends in its own CRC32, and CRC32 over a message
// followed by its CRC is a constant (0x2144df1c); digest the payload before
// it.
inline std::uint32_t ModelPayloadCrc(const server::ModelStore& store) {
  const Bytes model_bytes = store.Latest().Serialize();
  return Crc32(std::span<const std::uint8_t>(model_bytes)
                   .first(model_bytes.size() - 4));
}

}  // namespace fl::core
