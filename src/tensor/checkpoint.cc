#include "src/tensor/checkpoint.h"

#include <algorithm>
#include <limits>

#include "src/common/crc32.h"

namespace fl {
namespace {
constexpr char kMagic[4] = {'F', 'L', 'C', 'P'};
constexpr std::uint16_t kFormatVersion = 1;
}  // namespace

Checkpoint Checkpoint::ZerosLike(const Checkpoint& schema) {
  Checkpoint out;
  for (const auto& [name, t] : schema.tensors_) {
    out.tensors_.emplace(name, Tensor(t.shape()));
  }
  return out;
}

Result<const Tensor*> Checkpoint::Get(const std::string& name) const {
  const auto it = tensors_.find(name);
  if (it == tensors_.end()) {
    return NotFoundError("checkpoint has no tensor '" + name + "'");
  }
  return &it->second;
}

Result<Tensor*> Checkpoint::GetMutable(const std::string& name) {
  const auto it = tensors_.find(name);
  if (it == tensors_.end()) {
    return NotFoundError("checkpoint has no tensor '" + name + "'");
  }
  return &it->second;
}

std::size_t Checkpoint::TotalParameters() const {
  std::size_t n = 0;
  for (const auto& [name, t] : tensors_) n += t.size();
  return n;
}

bool Checkpoint::CompatibleWith(const Checkpoint& other) const {
  if (tensors_.size() != other.tensors_.size()) return false;
  auto it = tensors_.begin();
  auto jt = other.tensors_.begin();
  for (; it != tensors_.end(); ++it, ++jt) {
    if (it->first != jt->first) return false;
    if (it->second.shape() != jt->second.shape()) return false;
  }
  return true;
}

Status Checkpoint::AddInPlace(const Checkpoint& other, float alpha) {
  if (!CompatibleWith(other)) {
    return InvalidArgumentError("checkpoint schemas differ in AddInPlace");
  }
  auto it = tensors_.begin();
  auto jt = other.tensors_.begin();
  for (; it != tensors_.end(); ++it, ++jt) {
    it->second.AddInPlace(jt->second, alpha);
  }
  return Status::Ok();
}

void Checkpoint::Scale(float alpha) {
  for (auto& [name, t] : tensors_) t.Scale(alpha);
}

void Checkpoint::ZeroFill() {
  for (auto& [name, t] : tensors_) {
    auto span = t.mutable_data();
    std::fill(span.begin(), span.end(), 0.0f);
  }
}

std::vector<float> Checkpoint::Flatten() const {
  std::vector<float> flat;
  flat.reserve(TotalParameters());
  for (const auto& [name, t] : tensors_) {
    flat.insert(flat.end(), t.data().begin(), t.data().end());
  }
  return flat;
}

Result<Checkpoint> Checkpoint::Unflatten(std::span<const float> flat) const {
  if (flat.size() != TotalParameters()) {
    return InvalidArgumentError(
        "flat vector has " + std::to_string(flat.size()) +
        " elements; schema needs " + std::to_string(TotalParameters()));
  }
  Checkpoint out;
  std::size_t pos = 0;
  for (const auto& [name, t] : tensors_) {
    std::vector<float> data(flat.begin() + static_cast<std::ptrdiff_t>(pos),
                            flat.begin() +
                                static_cast<std::ptrdiff_t>(pos + t.size()));
    out.Put(name, Tensor(t.shape(), std::move(data)));
    pos += t.size();
  }
  return out;
}

Bytes Checkpoint::Serialize() const {
  BytesWriter w;
  w.Reserve(SerializedSize());  // exact: one allocation for the whole blob
  w.WriteRaw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.WriteU16(kFormatVersion);
  w.WriteVarint(tensors_.size());
  for (const auto& [name, t] : tensors_) {
    w.WriteString(name);
    w.WriteVarint(t.rank());
    for (std::size_t d : t.shape()) w.WriteVarint(d);
    w.WriteF32Span(t.data());
  }
  const std::uint32_t crc = Crc32(w.bytes());
  w.WriteU32(crc);
  return std::move(w).Take();
}

Result<Checkpoint> Checkpoint::Deserialize(
    std::span<const std::uint8_t> data) {
  if (data.size() < 4 + 2 + 4) {
    return DataLossError("checkpoint too short");
  }
  // Validate the trailing CRC before parsing anything.
  const std::size_t body_len = data.size() - 4;
  BytesReader crc_reader(data.subspan(body_len));
  FL_ASSIGN_OR_RETURN(std::uint32_t stored_crc, crc_reader.ReadU32());
  const std::uint32_t actual_crc = Crc32(data.first(body_len));
  if (stored_crc != actual_crc) {
    return DataLossError("checkpoint CRC mismatch");
  }

  BytesReader r(data.first(body_len));
  for (char expected : kMagic) {
    FL_ASSIGN_OR_RETURN(std::uint8_t b, r.ReadU8());
    if (static_cast<char>(b) != expected) {
      return DataLossError("bad checkpoint magic");
    }
  }
  FL_ASSIGN_OR_RETURN(std::uint16_t version, r.ReadU16());
  if (version != kFormatVersion) {
    return DataLossError("unsupported checkpoint format version " +
                         std::to_string(version));
  }
  FL_ASSIGN_OR_RETURN(std::uint64_t count, r.ReadVarint());
  Checkpoint out;
  for (std::uint64_t i = 0; i < count; ++i) {
    FL_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    FL_ASSIGN_OR_RETURN(std::uint64_t rank, r.ReadVarint());
    if (rank > 8) return DataLossError("implausible tensor rank");
    Shape shape(rank);
    std::size_t numel = 1;
    for (auto& d : shape) {
      FL_ASSIGN_OR_RETURN(std::uint64_t dim, r.ReadVarint());
      if (dim != 0 && numel > std::numeric_limits<std::size_t>::max() / dim) {
        return DataLossError("tensor '" + name + "' element count overflows");
      }
      d = dim;
      numel *= d;
    }
    FL_ASSIGN_OR_RETURN(std::vector<float> values, r.ReadF32Vector());
    if (values.size() != numel) {
      return DataLossError("tensor '" + name + "' data/shape mismatch");
    }
    out.Put(name, Tensor(std::move(shape), std::move(values)));
  }
  if (!r.AtEnd()) return DataLossError("trailing bytes in checkpoint");
  return out;
}

std::size_t Checkpoint::SerializedSize() const {
  // Pure arithmetic mirror of Serialize()'s wire format — exact to the
  // byte (pinned by the drift test in checkpoint_test), so traffic
  // accounting (Fig. 9, bytes/device) never has to materialize the blob.
  std::size_t n = 4 + 2 + VarintSize(tensors_.size());
  for (const auto& [name, t] : tensors_) {
    n += VarintSize(name.size()) + name.size();
    n += VarintSize(t.rank());
    for (std::size_t d : t.shape()) n += VarintSize(d);
    n += VarintSize(t.size()) + t.size() * sizeof(float);
  }
  return n + 4;  // trailing crc32
}

}  // namespace fl
