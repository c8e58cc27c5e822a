// Bit-level layout of one hash bucket (paper §3.3.1, Figure 5).
//
// A bucket is one 64-byte line — the PCIe/DRAM access granularity sweet spot
// (Figure 3a) — containing:
//
//   bytes [0, 50)   10 hash slots, 5 bytes each:
//                     bits [0, 31)  pointer (host address / 32 — 32 B
//                                   allocation granularity covers 64 GiB)
//                     bits [31, 40) 9-bit secondary hash for parallel
//                                   inline checking (1/512 false positives)
//                   for inline KVs the 5 bytes hold raw KV data instead
//   bytes [50, 54)  3-bit slab type per slot (10 x 3 = 30 bits):
//                     0 = empty, 1..6 = pointer to slab of size class t-1,
//                     7 = inline data
//   bytes [54, 56)  10-bit bitmap marking the *beginning* of each inline KV
//                   (the end follows from the KV's own length header)
//   bytes [56, 60)  chain word: bit 31 = valid, bits [0, 31) = pointer to the
//                   next bucket on hash collision (again address / 32)
//   bytes [60, 64)  reserved
//
// Inline KV data spans consecutive slots: a 1-byte key length and 1-byte
// value length header, then key then value. Ten slots give 50 bytes, so the
// largest inline KV is 48 bytes of key+value.
#ifndef SRC_HASH_HASH_INDEX_LAYOUT_H_
#define SRC_HASH_HASH_INDEX_LAYOUT_H_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>

#include "src/common/assert.h"

namespace kvd {

inline constexpr uint32_t kBucketBytes = 64;
inline constexpr uint32_t kSlotsPerBucket = 10;
inline constexpr uint32_t kSlotBytes = 5;
inline constexpr uint32_t kInlineHeaderBytes = 2;
inline constexpr uint32_t kMaxInlineKvBytes =
    kSlotsPerBucket * kSlotBytes - kInlineHeaderBytes;  // 48
inline constexpr uint32_t kPointerGranuleBytes = 32;
inline constexpr uint32_t kSecondaryHashBits = 9;
inline constexpr uint32_t kMaxSlabClasses = 6;  // 3-bit type: 1..6 are classes

// Slot type values.
inline constexpr uint8_t kSlotEmpty = 0;
inline constexpr uint8_t kSlotInline = 7;
// Pointer slots use types 1..6: type = slab class + 1.

// Decoded pointer slot.
struct PointerSlot {
  uint64_t address;        // byte address (pointer * 32)
  uint16_t secondary_hash; // 9 bits
  uint8_t slab_class;      // index into the allocator's size classes
};

// In-memory view of one bucket with typed accessors. The raw bytes are the
// exact wire image read from / written to host memory.
class BucketView {
 public:
  BucketView() { raw_.fill(0); }
  explicit BucketView(std::span<const uint8_t> bytes) {
    KVD_DCHECK(bytes.size() == kBucketBytes);
    std::memcpy(raw_.data(), bytes.data(), kBucketBytes);
  }

  std::span<const uint8_t> raw() const { return raw_; }

  // --- slot type field ---
  uint8_t SlotType(uint32_t slot) const {
    KVD_DCHECK(slot < kSlotsPerBucket);
    const uint32_t bits = LoadU32(50);
    return static_cast<uint8_t>((bits >> (slot * 3)) & 0x7);
  }
  void SetSlotType(uint32_t slot, uint8_t type) {
    KVD_DCHECK(slot < kSlotsPerBucket && type <= 7);
    uint32_t bits = LoadU32(50);
    bits &= ~(0x7u << (slot * 3));
    bits |= static_cast<uint32_t>(type) << (slot * 3);
    StoreU32(50, bits);
  }

  // --- inline-begin bitmap ---
  bool InlineBegin(uint32_t slot) const {
    KVD_DCHECK(slot < kSlotsPerBucket);
    return (LoadU16(54) >> slot) & 1;
  }
  void SetInlineBegin(uint32_t slot, bool begin) {
    uint16_t bits = LoadU16(54);
    bits = static_cast<uint16_t>(begin ? bits | (1u << slot) : bits & ~(1u << slot));
    StoreU16(54, bits);
  }

  // --- pointer slots ---
  PointerSlot GetPointerSlot(uint32_t slot) const {
    KVD_DCHECK(SlotType(slot) >= 1 && SlotType(slot) <= kMaxSlabClasses);
    const uint64_t v = LoadSlot40(slot);
    PointerSlot out;
    out.address = (v & 0x7fffffffULL) * kPointerGranuleBytes;
    out.secondary_hash = static_cast<uint16_t>((v >> 31) & 0x1ff);
    out.slab_class = static_cast<uint8_t>(SlotType(slot) - 1);
    return out;
  }
  void SetPointerSlot(uint32_t slot, uint64_t address, uint16_t secondary_hash,
                      uint8_t slab_class) {
    KVD_DCHECK(address % kPointerGranuleBytes == 0);
    KVD_DCHECK(secondary_hash < (1u << kSecondaryHashBits));
    KVD_DCHECK(slab_class < kMaxSlabClasses);
    const uint64_t pointer = address / kPointerGranuleBytes;
    KVD_CHECK_MSG(pointer < (1ULL << 31), "address beyond 31-bit pointer range");
    StoreSlot40(slot, pointer | (static_cast<uint64_t>(secondary_hash) << 31));
    SetSlotType(slot, static_cast<uint8_t>(slab_class + 1));
    SetInlineBegin(slot, false);
  }

  // --- inline data spanning slots ---
  // The `length` bytes starting at slot `first_slot`, in place; and a write of
  // `in` to the same place.
  std::span<const uint8_t> InlineBytes(uint32_t first_slot, size_t length) const {
    KVD_DCHECK(first_slot * kSlotBytes + length <= kSlotsPerBucket * kSlotBytes);
    return std::span<const uint8_t>(raw_.data() + first_slot * kSlotBytes, length);
  }
  void WriteInlineBytes(uint32_t first_slot, std::span<const uint8_t> in) {
    KVD_DCHECK(first_slot * kSlotBytes + in.size() <= kSlotsPerBucket * kSlotBytes);
    std::memcpy(raw_.data() + first_slot * kSlotBytes, in.data(), in.size());
  }

  void ClearSlot(uint32_t slot) {
    SetSlotType(slot, kSlotEmpty);
    SetInlineBegin(slot, false);
    StoreSlot40(slot, 0);
  }

  // --- chain pointer ---
  bool HasChain() const { return (LoadU32(56) >> 31) & 1; }
  uint64_t ChainAddress() const {
    KVD_DCHECK(HasChain());
    return static_cast<uint64_t>(LoadU32(56) & 0x7fffffffu) * kPointerGranuleBytes;
  }
  void SetChain(uint64_t address) {
    KVD_DCHECK(address % kPointerGranuleBytes == 0);
    const uint64_t pointer = address / kPointerGranuleBytes;
    KVD_CHECK_MSG(pointer < (1ULL << 31), "chain address beyond pointer range");
    StoreU32(56, static_cast<uint32_t>(pointer) | 0x80000000u);
  }
  void ClearChain() { StoreU32(56, 0); }

  // Number of slots the given inline KV payload occupies.
  static uint32_t InlineSlotSpan(uint32_t kv_bytes) {
    return (kInlineHeaderBytes + kv_bytes + kSlotBytes - 1) / kSlotBytes;
  }

  // True when no slot holds an entry: one load of the type field.
  bool Empty() const { return (LoadU32(50) & 0x3fffffffu) == 0; }

  // Count of empty slots in the bucket.
  uint32_t FreeSlots() const {
    return kSlotsPerBucket - static_cast<uint32_t>(std::popcount(OccupiedMask()));
  }

  // True when the entries fill a prefix of the slots, so the free slots are
  // contiguous at the tail.
  bool Compact() const {
    const uint32_t occupied = OccupiedMask();
    const auto entries = static_cast<uint32_t>(std::popcount(occupied));
    return occupied == (kSlotTypeLowBits & ((1u << (3 * entries)) - 1));
  }

 private:
  // Bit 3 * slot of the slot-type field, for every slot.
  static constexpr uint32_t kSlotTypeLowBits = 0x09249249u;

  // Bit 3 * slot set for every slot whose type is not empty.
  uint32_t OccupiedMask() const {
    const uint32_t types = LoadU32(50);
    return (types | types >> 1 | types >> 2) & kSlotTypeLowBits;
  }

  uint32_t LoadU32(uint32_t offset) const {
    uint32_t v;
    std::memcpy(&v, raw_.data() + offset, sizeof(v));
    return v;
  }
  void StoreU32(uint32_t offset, uint32_t v) {
    std::memcpy(raw_.data() + offset, &v, sizeof(v));
  }
  uint16_t LoadU16(uint32_t offset) const {
    uint16_t v;
    std::memcpy(&v, raw_.data() + offset, sizeof(v));
    return v;
  }
  void StoreU16(uint32_t offset, uint16_t v) {
    std::memcpy(raw_.data() + offset, &v, sizeof(v));
  }
  uint64_t LoadSlot40(uint32_t slot) const {
    uint64_t v = 0;
    std::memcpy(&v, raw_.data() + slot * kSlotBytes, kSlotBytes);
    return v;
  }
  void StoreSlot40(uint32_t slot, uint64_t v) {
    KVD_DCHECK(v < (1ULL << 40));
    std::memcpy(raw_.data() + slot * kSlotBytes, &v, kSlotBytes);
  }

  std::array<uint8_t, kBucketBytes> raw_;
};

}  // namespace kvd

#endif  // SRC_HASH_HASH_INDEX_LAYOUT_H_
