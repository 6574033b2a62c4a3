// Binary serialization helpers. Used to persist graph objects in the
// backing store (vertices are stored as opaque serialized blobs, exactly as
// Weaver stored them in HyperDex Warp).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace weaver {

/// Append-only little-endian encoder.
class ByteWriter {
 public:
  void PutU8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(std::uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(std::uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  /// LEB128: 7 bits per byte, low group first (1 byte below 128).
  void PutVarint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<char>(v | 0x80));
      v >>= 7;
    }
    buf_.push_back(static_cast<char>(v));
  }
  void PutString(std::string_view s) {
    PutU32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* p, std::size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Sequential decoder over a byte string. All getters return
/// Status::Internal on truncated input rather than reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU8(std::uint8_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU32(std::uint32_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU64(std::uint64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetDouble(double* out) { return GetRaw(out, sizeof(*out)); }
  Status GetVarint(std::uint64_t* out) {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) {
        return Status::Internal("truncated varint in serialized payload");
      }
      const auto byte = static_cast<std::uint8_t>(data_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return Status::Ok();
      }
    }
    return Status::Internal("overlong varint in serialized payload");
  }
  Status GetString(std::string* out) {
    std::string_view view;
    WEAVER_RETURN_IF_ERROR(GetStringView(&view));
    out->assign(view);
    return Status::Ok();
  }
  /// Like GetString, but the result views the input instead of copying.
  Status GetStringView(std::string_view* out) {
    std::uint32_t len = 0;
    WEAVER_RETURN_IF_ERROR(GetU32(&len));
    if (len > remaining()) {
      return Status::Internal("truncated string in serialized payload");
    }
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::Ok();
  }
  Status Skip(std::size_t n) {
    if (n > remaining()) return Status::Internal("truncated serialized payload");
    pos_ += n;
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  Status GetRaw(void* out, std::size_t n) {
    if (pos_ + n > data_.size()) {
      return Status::Internal("truncated serialized payload");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::Ok();
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace weaver
