#include "src/common/bytes.h"

#include <cstdio>

namespace fl {

Result<std::uint8_t> BytesReader::ReadU8() { return ReadLE<std::uint8_t>(); }
Result<std::uint16_t> BytesReader::ReadU16() { return ReadLE<std::uint16_t>(); }
Result<std::uint32_t> BytesReader::ReadU32() { return ReadLE<std::uint32_t>(); }
Result<std::uint64_t> BytesReader::ReadU64() { return ReadLE<std::uint64_t>(); }

Result<std::int32_t> BytesReader::ReadI32() {
  FL_ASSIGN_OR_RETURN(std::uint32_t v, ReadU32());
  return static_cast<std::int32_t>(v);
}

Result<std::int64_t> BytesReader::ReadI64() {
  FL_ASSIGN_OR_RETURN(std::uint64_t v, ReadU64());
  return static_cast<std::int64_t>(v);
}

Result<float> BytesReader::ReadF32() {
  FL_ASSIGN_OR_RETURN(std::uint32_t bits, ReadU32());
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<double> BytesReader::ReadF64() {
  FL_ASSIGN_OR_RETURN(std::uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::uint64_t> BytesReader::ReadVarint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (pos_ >= data_.size()) {
      return DataLossError("truncated varint");
    }
    const std::uint8_t b = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (b & 0x7e) != 0)) {
      return DataLossError("varint overflow");
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

Result<std::string> BytesReader::ReadString() {
  FL_ASSIGN_OR_RETURN(std::uint64_t len, ReadVarint());
  if (len > remaining()) {
    return DataLossError("truncated string of declared length " +
                         std::to_string(len));
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

Result<Bytes> BytesReader::ReadBytes() {
  FL_ASSIGN_OR_RETURN(std::uint64_t len, ReadVarint());
  if (len > remaining()) {
    return DataLossError("truncated blob of declared length " +
                         std::to_string(len));
  }
  Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
          data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
  pos_ += len;
  return b;
}

Result<std::vector<float>> BytesReader::ReadF32Vector() {
  FL_ASSIGN_OR_RETURN(std::uint64_t count, ReadVarint());
  // Divide rather than multiply: count * sizeof(float) can wrap.
  if (count > remaining() / sizeof(float)) {
    return DataLossError("truncated float vector of declared count " +
                         std::to_string(count));
  }
  std::vector<float> v(count);
  // memcpy needs non-null pointers even for zero bytes; v.data() may be null.
  if (count > 0) {
    std::memcpy(v.data(), data_.data() + pos_, count * sizeof(float));
  }
  pos_ += count * sizeof(float);
  return v;
}

std::string HumanBytes(std::uint64_t n) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double x = static_cast<double>(n);
  int u = 0;
  while (x >= 1024.0 && u < 4) {
    x /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", x, units[u]);
  return buf;
}

}  // namespace fl
