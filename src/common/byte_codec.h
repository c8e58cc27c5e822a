// The one byte codec every wire layout is written in (DESIGN.md §11).
//
// A layout is stated once, as a field list: a generic function over a codec
// `c` and the value it describes.
//
//   constexpr auto kResultLayout = [](auto& c, auto& r) {
//     c.Enum(r.code, kMaxResultCodeByte);
//     c.U64(r.scalar);
//     const size_t len = c.Len32(r.value);
//     c.Bytes(r.value, len);
//   };
//
// Run over a ByteWriter (with a const value) the list appends the encoding;
// over a ByteSizer it counts the bytes the writer would append; over a
// ByteReader (with a mutable value) it decodes. So the encoder, the decoder
// and the size of a layout cannot drift apart.
//
// Integers are little endian. The reader checks bounds on every field and
// fails sticky: the first short read, out-of-range field or over-long length
// stops it, later fields read as zero, and ok() reports the failure. A length
// or count is checked against the bytes left before anything is allocated.
#ifndef SRC_COMMON_BYTE_CODEC_H_
#define SRC_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace kvd {

static_assert(std::endian::native == std::endian::little,
              "the codec copies integers in host byte order");

// Appends fields to a byte vector.
class ByteWriter {
 public:
  static constexpr bool kReads = false;

  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void U8(uint8_t v) { out_.push_back(v); }
  void U16(uint16_t v) { Put(v); }
  void U32(uint32_t v) { Put(v); }
  void U64(uint64_t v) { Put(v); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  // One byte; the reader rejects values above `max`.
  template <class E>
  void Enum(E v, uint8_t /*max*/) {
    U8(static_cast<uint8_t>(v));
  }
  // A decode-side validity rule; the writer encodes what it is given.
  void Check(bool /*valid*/) {}
  // The length field of `bytes`, which follow later through Bytes().
  size_t Len16(std::span<const uint8_t> bytes) {
    U16(static_cast<uint16_t>(bytes.size()));
    return bytes.size();
  }
  size_t Len32(std::span<const uint8_t> bytes) {
    U32(static_cast<uint32_t>(bytes.size()));
    return bytes.size();
  }
  // `len` is the length field's value; the writer writes `bytes` whole.
  void Bytes(std::span<const uint8_t> bytes, size_t /*len*/) { Rest(bytes); }
  // A u32 item count, then the items.
  void Count(size_t count) { U32(static_cast<uint32_t>(count)); }
  template <class T, class Layout>
  void List(const std::vector<T>& items, const Layout& layout) {
    Count(items.size());
    for (const T& item : items) {
      layout(*this, item);
    }
  }
  // Unframed bytes up to the end of the message.
  void Rest(std::span<const uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

 private:
  template <class T>
  void Put(T v) {
    const size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &v, sizeof(T));
  }

  std::vector<uint8_t>& out_;
};

// Counts the bytes a ByteWriter would append; usable in constant
// expressions, so a layout's fixed size can be checked at compile time.
class ByteSizer {
 public:
  static constexpr bool kReads = false;

  constexpr void U8(uint8_t /*v*/) { size_ += 1; }
  constexpr void U16(uint16_t /*v*/) { size_ += 2; }
  constexpr void U32(uint32_t /*v*/) { size_ += 4; }
  constexpr void U64(uint64_t /*v*/) { size_ += 8; }
  constexpr void Bool(bool /*v*/) { size_ += 1; }
  template <class E>
  constexpr void Enum(E /*v*/, uint8_t /*max*/) {
    size_ += 1;
  }
  constexpr void Check(bool /*valid*/) {}
  constexpr size_t Len16(std::span<const uint8_t> bytes) {
    size_ += 2;
    return bytes.size();
  }
  constexpr size_t Len32(std::span<const uint8_t> bytes) {
    size_ += 4;
    return bytes.size();
  }
  constexpr void Bytes(std::span<const uint8_t> bytes, size_t /*len*/) {
    size_ += bytes.size();
  }
  constexpr void Count(size_t /*count*/) { size_ += 4; }
  template <class T, class Layout>
  constexpr void List(const std::vector<T>& items, const Layout& layout) {
    Count(items.size());
    for (const T& item : items) {
      layout(*this, item);
    }
  }
  constexpr void Rest(std::span<const uint8_t> bytes) { size_ += bytes.size(); }

  constexpr size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

// Decodes fields from a byte span, bounds-checked (see the file comment).
class ByteReader {
 public:
  static constexpr bool kReads = true;

  explicit ByteReader(std::span<const uint8_t> in)
      : begin_(in.data()), pos_(in.data()), end_(in.data() + in.size()) {}

  bool ok() const { return ok_; }
  // Every byte consumed and every field valid.
  bool Done() const { return ok_ && pos_ == end_; }
  size_t remaining() const { return static_cast<size_t>(end_ - pos_); }
  size_t consumed() const { return static_cast<size_t>(pos_ - begin_); }

  void U8(uint8_t& v) { Get(v); }
  void U16(uint16_t& v) { Get(v); }
  void U32(uint32_t& v) { Get(v); }
  void U64(uint64_t& v) { Get(v); }
  // 0 or 1.
  void Bool(bool& v) {
    uint8_t byte = 0;
    U8(byte);
    Check(byte <= 1);
    v = byte != 0;
  }
  template <class E>
  void Enum(E& v, uint8_t max) {
    uint8_t byte = 0;
    U8(byte);
    Check(byte <= max);
    v = static_cast<E>(ok_ ? byte : 0);
  }
  void Check(bool valid) {
    if (!valid) {
      Fail();
    }
  }
  // The length field's value; Bytes() checks it against the bytes left.
  size_t Len16(std::span<const uint8_t> /*bytes*/) {
    uint16_t len = 0;
    U16(len);
    return len;
  }
  size_t Len32(std::span<const uint8_t> /*bytes*/) {
    uint32_t len = 0;
    U32(len);
    return len;
  }
  void Bytes(std::vector<uint8_t>& bytes, size_t len) {
    if (const uint8_t* at = Take(len)) {
      bytes.assign(at, at + len);
    }
  }
  // Views the bytes in place: the span lives as long as the input does.
  void Bytes(std::span<const uint8_t>& bytes, size_t len) {
    if (const uint8_t* at = Take(len)) {
      bytes = std::span<const uint8_t>(at, len);
    }
  }
  // Every item takes at least one byte, so a count above the bytes left is
  // corrupt: it fails before the list reserves anything.
  template <class T, class Layout>
  void List(std::vector<T>& items, const Layout& layout) {
    uint32_t count = 0;
    U32(count);
    Check(count <= remaining());
    if (!ok_) {
      return;
    }
    items.reserve(items.size() + count);
    for (uint32_t i = 0; i < count && ok_; i++) {
      layout(*this, items.emplace_back());
    }
  }
  void Rest(std::vector<uint8_t>& bytes) { bytes.assign(pos_, end_); pos_ = end_; }
  void Rest(std::span<const uint8_t>& bytes) {
    bytes = std::span<const uint8_t>(pos_, end_);
    pos_ = end_;
  }

 private:
  // `n` bytes to read, or nullptr (and failed) when fewer are left.
  const uint8_t* Take(size_t n) {
    if (n > remaining()) {
      Fail();
      return nullptr;
    }
    const uint8_t* at = pos_;
    pos_ += n;
    return at;
  }
  template <class T>
  void Get(T& v) {
    if (const uint8_t* at = Take(sizeof(T))) {
      std::memcpy(&v, at, sizeof(T));
    }
  }
  void Fail() {
    ok_ = false;
    pos_ = end_;
  }

  const uint8_t* begin_;
  const uint8_t* pos_;
  const uint8_t* end_;
  bool ok_ = true;
};

// The bytes `fields(codec)` encodes, counted without encoding them.
template <class Fields>
constexpr size_t EncodedSize(const Fields& fields) {
  ByteSizer sizer;
  fields(sizer);
  return sizer.size();
}

// Runs `fields(codec)` over a writer into a buffer reserved for its bytes
// plus `extra` more, and returns the buffer.
template <class Fields>
std::vector<uint8_t> EncodeFields(const Fields& fields, size_t extra = 0) {
  std::vector<uint8_t> out;
  out.reserve(EncodedSize(fields) + extra);
  ByteWriter writer(out);
  fields(writer);
  return out;
}

// True when `fields(codec)` decodes all of `in`, no byte left over.
template <class Fields>
bool DecodeFields(std::span<const uint8_t> in, const Fields& fields) {
  ByteReader reader(in);
  fields(reader);
  return reader.Done();
}

}  // namespace kvd

#endif  // SRC_COMMON_BYTE_CODEC_H_
