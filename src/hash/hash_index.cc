#include "src/hash/hash_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

namespace kvd {
namespace {

// One logical entry while scanning a bucket.
struct ParsedEntry {
  uint32_t slot;
  uint32_t span;  // slots occupied
  bool is_inline;
  uint8_t klen = 0;  // inline only
  uint8_t vlen = 0;  // inline only
};

// A bucket's entries in slot order. Every entry takes at least one slot, so
// ten always suffice and the parse lives on the stack.
struct ParsedBucket {
  std::array<ParsedEntry, kSlotsPerBucket> entries;
  uint32_t count = 0;

  const ParsedEntry* begin() const { return entries.data(); }
  const ParsedEntry* end() const { return entries.data() + count; }
};

ParsedBucket ParseEntries(const BucketView& bucket) {
  ParsedBucket parsed;
  uint32_t slot = 0;
  while (slot < kSlotsPerBucket) {
    const uint8_t type = bucket.SlotType(slot);
    if (type == kSlotEmpty) {
      slot++;
      continue;
    }
    ParsedEntry& entry = parsed.entries[parsed.count++];
    if (type == kSlotInline) {
      KVD_CHECK_MSG(bucket.InlineBegin(slot), "inline slot without begin mark");
      const std::span<const uint8_t> header =
          bucket.InlineBytes(slot, kInlineHeaderBytes);
      entry = ParsedEntry{slot, BucketView::InlineSlotSpan(header[0] + header[1]),
                          true, header[0], header[1]};
    } else {
      entry = ParsedEntry{slot, 1, false, 0, 0};
    }
    slot += entry.span;
  }
  return parsed;
}

// Largest slab image built on the stack: the paper's slab classes top out at
// 512 B; only the vector extension's bigger classes spill to the heap.
constexpr size_t kStackSlabBytes = 512;

// Serialized slab image: u16 klen, u16 vlen, key, value.
class SlabImage {
 public:
  SlabImage(std::span<const uint8_t> key, std::span<const uint8_t> value) {
    const size_t size = HashIndex::kSlabHeaderBytes + key.size() + value.size();
    uint8_t* out = stack_.data();
    if (size > stack_.size()) {
      heap_.resize(size);
      out = heap_.data();
    }
    const auto klen = static_cast<uint16_t>(key.size());
    const auto vlen = static_cast<uint16_t>(value.size());
    std::memcpy(out, &klen, 2);
    std::memcpy(out + 2, &vlen, 2);
    std::memcpy(out + HashIndex::kSlabHeaderBytes, key.data(), key.size());
    if (!value.empty()) {  // an empty span's data() may be null
      std::memcpy(out + HashIndex::kSlabHeaderBytes + key.size(), value.data(),
                  value.size());
    }
    bytes_ = std::span<const uint8_t>(out, size);
  }
  SlabImage(const SlabImage&) = delete;
  SlabImage& operator=(const SlabImage&) = delete;

  std::span<const uint8_t> bytes() const { return bytes_; }

 private:
  std::array<uint8_t, kStackSlabBytes> stack_;
  std::vector<uint8_t> heap_;
  std::span<const uint8_t> bytes_;
};

// Serialized inline image: u8 klen, u8 vlen, key, value, zero-padded to whole
// slots, so writing it leaves no stale byte in the entry's last slot. It spans
// at most the bucket's ten slots.
class InlineImage {
 public:
  InlineImage(std::span<const uint8_t> key, std::span<const uint8_t> value)
      : size_(BucketView::InlineSlotSpan(
                  static_cast<uint32_t>(key.size() + value.size())) *
              kSlotBytes) {
    KVD_CHECK(size_ <= data_.size());
    data_[0] = static_cast<uint8_t>(key.size());
    data_[1] = static_cast<uint8_t>(value.size());
    std::memcpy(data_.data() + kInlineHeaderBytes, key.data(), key.size());
    if (!value.empty()) {  // an empty span's data() may be null
      std::memcpy(data_.data() + kInlineHeaderBytes + key.size(), value.data(),
                  value.size());
    }
  }

  std::span<const uint8_t> bytes() const { return {data_.data(), size_}; }

 private:
  std::array<uint8_t, kSlotsPerBucket * kSlotBytes> data_{};
  size_t size_;
};

// One slab read back from memory, the inverse of SlabImage: `key` and
// `value` view the stored KV. Paper-sized classes land on the stack, bigger
// ones on the heap.
class SlabRead {
 public:
  SlabRead(AccessEngine& engine, uint64_t address, uint32_t slab_bytes) {
    std::span<uint8_t> slab(stack_.data(), std::min<size_t>(slab_bytes, kStackSlabBytes));
    const bool large = slab_bytes > kStackSlabBytes;
    if (!large) {
      // Paper-sized slabs (32..512 B): fetch the whole class in one DMA, so a
      // non-inline GET costs exactly bucket + KV = 2 accesses (§3.3.1).
      engine.Read(address, slab);
    } else {
      // Large slabs (the vector extension): internal fragmentation can waste
      // half the class, so read the first line for the length header, then
      // exactly the remaining payload.
      heap_.resize(slab_bytes);
      slab = heap_;
      engine.Read(address, slab.first(64));
    }
    uint16_t klen;
    uint16_t vlen;
    std::memcpy(&klen, slab.data(), 2);
    std::memcpy(&vlen, slab.data() + 2, 2);
    const uint64_t total = HashIndex::kSlabHeaderBytes + uint64_t{klen} + vlen;
    if (large && total > 64 && total <= slab_bytes) {
      engine.Read(address + 64, slab.subspan(64, total - 64));
    }
    key = slab.subspan(HashIndex::kSlabHeaderBytes, klen);
    value = slab.subspan(HashIndex::kSlabHeaderBytes + klen, vlen);
  }
  SlabRead(const SlabRead&) = delete;
  SlabRead& operator=(const SlabRead&) = delete;

  std::span<const uint8_t> key;
  std::span<const uint8_t> value;

 private:
  std::array<uint8_t, kStackSlabBytes> stack_;
  std::vector<uint8_t> heap_;
};

}  // namespace

HashIndexConfig::Regions HashIndexConfig::ComputeRegions() const {
  KVD_CHECK(memory_size > 0);
  KVD_CHECK(hash_index_ratio > 0.0 && hash_index_ratio < 1.0);
  Regions regions;
  regions.index_base = memory_base;
  regions.num_buckets = static_cast<uint64_t>(
      static_cast<double>(memory_size) * hash_index_ratio / kBucketBytes);
  KVD_CHECK_MSG(regions.num_buckets > 0, "hash index ratio leaves no buckets");
  uint64_t heap_base = memory_base + regions.num_buckets * kBucketBytes;
  // Align the heap so buddy addresses stay aligned to their slab size.
  const uint64_t align = max_slab_bytes;
  heap_base = (heap_base + align - 1) / align * align;
  const uint64_t end = memory_base + memory_size;
  KVD_CHECK_MSG(heap_base < end, "hash index ratio leaves no heap");
  regions.heap_base = heap_base;
  regions.heap_size = (end - heap_base) / align * align;
  return regions;
}

HashIndex::HashIndex(AccessEngine& engine, Allocator& allocator,
                     const HashIndexConfig& config)
    : engine_(engine), allocator_(allocator), config_(config) {
  const auto regions = config.ComputeRegions();
  index_base_ = regions.index_base;
  num_buckets_ = regions.num_buckets;
  KVD_CHECK(config.inline_threshold_bytes <= kMaxInlineKvBytes);
  // The 3-bit slot type field encodes at most kMaxSlabClasses slab classes
  // (Figure 5); a wider class range would corrupt pointer slots.
  const auto num_classes = static_cast<uint32_t>(
      std::countr_zero(config.max_slab_bytes) - std::countr_zero(config.min_slab_bytes) +
      1);
  KVD_CHECK_MSG(num_classes <= kMaxSlabClasses,
                "min/max slab span exceeds the 3-bit slot type field");
}

uint8_t HashIndex::SlabClassFor(uint32_t slab_bytes) const {
  const uint32_t rounded = std::max(std::bit_ceil(slab_bytes), config_.min_slab_bytes);
  return static_cast<uint8_t>(std::countr_zero(rounded) -
                              std::countr_zero(config_.min_slab_bytes));
}

BucketView HashIndex::ReadBucket(uint64_t address) {
  uint8_t raw[kBucketBytes];
  engine_.Read(address, raw);
  return BucketView(raw);
}

void HashIndex::WriteBucket(uint64_t address, const BucketView& bucket) {
  engine_.Write(address, bucket.raw());
}

std::optional<HashIndex::Location> HashIndex::Find(const KeyHash& kh,
                                                   std::span<const uint8_t> key,
                                                   std::vector<uint8_t>* value_out,
                                                   std::vector<WalkedBucket>* walked) {
  uint64_t address = BucketAddressFor(kh);
  uint64_t parent = kNoParent;
  bool first = true;
  while (true) {
    BucketView bucket = ReadBucket(address);
    if (walked != nullptr) {
      walked->push_back(WalkedBucket{address, bucket});
    }
    if (!first) {
      stats_.chain_follows++;
    }
    first = false;
    for (const ParsedEntry& entry : ParseEntries(bucket)) {
      if (entry.is_inline) {
        if (entry.klen != key.size()) {
          continue;
        }
        const std::span<const uint8_t> data = bucket.InlineBytes(
            entry.slot, kInlineHeaderBytes + entry.klen + entry.vlen);
        if (std::memcmp(data.data() + kInlineHeaderBytes, key.data(), entry.klen) != 0) {
          continue;
        }
        if (value_out != nullptr) {
          value_out->assign(data.begin() + kInlineHeaderBytes + entry.klen, data.end());
        }
        Location loc;
        loc.bucket_address = address;
        loc.bucket = bucket;
        loc.slot = entry.slot;
        loc.is_inline = true;
        loc.kv_bytes = static_cast<uint32_t>(entry.klen) + entry.vlen;
        loc.parent_address = parent;
        return loc;
      }
      const PointerSlot pointer = bucket.GetPointerSlot(entry.slot);
      if (pointer.secondary_hash != kh.SecondaryHash()) {
        continue;
      }
      const SlabRead slab(engine_, pointer.address,
                          config_.min_slab_bytes << pointer.slab_class);
      if (slab.key.size() != key.size() ||
          std::memcmp(slab.key.data(), key.data(), key.size()) != 0) {
        stats_.secondary_false_hits++;
        continue;
      }
      if (value_out != nullptr) {
        value_out->assign(slab.value.begin(), slab.value.end());
      }
      const auto kv_bytes = static_cast<uint32_t>(key.size() + slab.value.size());
      return Location{address, bucket, entry.slot, false, kv_bytes, pointer, parent};
    }
    if (!bucket.HasChain()) {
      return std::nullopt;
    }
    parent = address;
    address = bucket.ChainAddress();
  }
}

Status HashIndex::Get(const KeyHash& kh, std::span<const uint8_t> key,
                      std::vector<uint8_t>& value_out) {
  stats_.gets++;
  if (Find(kh, key, &value_out).has_value()) {
    return Status::Ok();
  }
  return Status::NotFound();
}

BucketView HashIndex::Compacted(const BucketView& bucket) {
  BucketView out;
  uint32_t next = 0;
  for (const ParsedEntry& entry : ParseEntries(bucket)) {
    if (entry.is_inline) {
      const uint32_t bytes = kInlineHeaderBytes + entry.klen + entry.vlen;
      out.WriteInlineBytes(next, bucket.InlineBytes(entry.slot, bytes));
      out.SetInlineBegin(next, true);
      for (uint32_t s = 0; s < entry.span; s++) {
        out.SetSlotType(next + s, kSlotInline);
      }
    } else {
      const PointerSlot pointer = bucket.GetPointerSlot(entry.slot);
      out.SetPointerSlot(next, pointer.address, pointer.secondary_hash,
                         pointer.slab_class);
    }
    next += entry.span;
  }
  if (bucket.HasChain()) {
    out.SetChain(bucket.ChainAddress());
  }
  return out;
}

bool HashIndex::TryPlace(BucketView& bucket, std::span<const uint8_t> key,
                         std::span<const uint8_t> value, bool inline_kv,
                         uint64_t slab_address, uint8_t slab_class,
                         uint16_t secondary) {
  const uint32_t needed =
      inline_kv
          ? BucketView::InlineSlotSpan(static_cast<uint32_t>(key.size() + value.size()))
          : 1;
  const uint32_t free = bucket.FreeSlots();
  if (free < needed) {
    return false;
  }
  // The entry goes after the live ones, so the free slots must be contiguous
  // at the tail. Every byte outside an entry is zero, so a bucket already in
  // that shape is its own compacted image and takes the entry in place; a
  // fragmented one is compacted first. The rewrite costs nothing extra
  // because a mutation writes the whole 64 B bucket anyway.
  if (!bucket.Compact()) {
    bucket = Compacted(bucket);
  }
  const uint32_t first = kSlotsPerBucket - free;
  if (inline_kv) {
    bucket.WriteInlineBytes(first, InlineImage(key, value).bytes());
    bucket.SetInlineBegin(first, true);
    for (uint32_t s = 0; s < needed; s++) {
      bucket.SetSlotType(first + s, kSlotInline);
    }
  } else {
    bucket.SetPointerSlot(first, slab_address, secondary, slab_class);
  }
  return true;
}

Status HashIndex::Insert(const KeyHash& kh, std::span<const uint8_t> key,
                         std::span<const uint8_t> value) {
  const auto kv_bytes = static_cast<uint32_t>(key.size() + value.size());
  const bool inline_kv =
      kv_bytes <= config_.inline_threshold_bytes && kv_bytes <= kMaxInlineKvBytes;

  uint64_t slab_address = 0;
  uint8_t slab_class = 0;
  if (!inline_kv) {
    const uint32_t slab_bytes = kSlabHeaderBytes + kv_bytes;
    Result<uint64_t> allocated = allocator_.Allocate(slab_bytes);
    if (!allocated.ok()) {
      return allocated.status();
    }
    slab_address = *allocated;
    slab_class = SlabClassFor(slab_bytes);
    // One DMA write for the KV body: header + key + value.
    engine_.Write(slab_address, SlabImage(key, value).bytes());
  }

  // Use the buckets the caller's Find() already read (the hardware pipeline
  // keeps them in flight); walk further only if the cache is empty or stale.
  if (walked_.empty()) {
    uint64_t address = index_base_ + kh.BucketIndex(num_buckets_) * kBucketBytes;
    while (true) {
      BucketView bucket = ReadBucket(address);
      walked_.push_back(WalkedBucket{address, bucket});
      if (!bucket.HasChain()) {
        break;
      }
      stats_.chain_follows++;
      address = bucket.ChainAddress();
    }
  }

  // Place into the first bucket along the chain with space.
  for (WalkedBucket& wb : walked_) {
    if (TryPlace(wb.view, key, value, inline_kv, slab_address, slab_class,
                 kh.SecondaryHash())) {
      WriteBucket(wb.address, wb.view);
      num_kvs_++;
      payload_bytes_ += kv_bytes;
      return Status::Ok();
    }
  }

  // Chain a fresh bucket off the tail, allocated from the slab heap.
  Result<uint64_t> chained = allocator_.Allocate(kBucketBytes);
  if (!chained.ok()) {
    if (!inline_kv) {
      allocator_.Free(slab_address, config_.min_slab_bytes << slab_class);
    }
    return chained.status();
  }
  BucketView fresh;
  KVD_CHECK(TryPlace(fresh, key, value, inline_kv, slab_address, slab_class,
                     kh.SecondaryHash()));
  WriteBucket(*chained, fresh);
  WalkedBucket& tail = walked_.back();
  tail.view.SetChain(*chained);
  WriteBucket(tail.address, tail.view);
  stats_.chained_buckets_live++;
  num_kvs_++;
  payload_bytes_ += kv_bytes;
  return Status::Ok();
}

Status HashIndex::Put(const KeyHash& kh, std::span<const uint8_t> key,
                      std::span<const uint8_t> value) {
  stats_.puts++;
  if (key.empty() || key.size() > kMaxKeyBytes) {
    return Status::InvalidArgument("key size");
  }
  const auto kv_bytes = static_cast<uint32_t>(key.size() + value.size());
  const bool fits_inline =
      kv_bytes <= config_.inline_threshold_bytes && kv_bytes <= kMaxInlineKvBytes;
  if (!fits_inline && kSlabHeaderBytes + kv_bytes > config_.max_slab_bytes) {
    return Status::InvalidArgument("value too large for slab classes");
  }
  if (fits_inline && value.size() > 255) {
    return Status::InvalidArgument("value size");
  }

  walked_.clear();
  std::optional<Location> loc = Find(kh, key, nullptr, &walked_);
  if (!loc.has_value()) {
    return Insert(kh, key, value);
  }

  if (loc->is_inline && fits_inline &&
      BucketView::InlineSlotSpan(kv_bytes) ==
          BucketView::InlineSlotSpan(loc->kv_bytes)) {
    // Same slot span: overwrite the inline bytes, one bucket write.
    loc->bucket.WriteInlineBytes(loc->slot, InlineImage(key, value).bytes());
    WriteBucket(loc->bucket_address, loc->bucket);
    payload_bytes_ += kv_bytes;
    payload_bytes_ -= loc->kv_bytes;
    return Status::Ok();
  }

  if (!loc->is_inline && !fits_inline &&
      SlabClassFor(kSlabHeaderBytes + kv_bytes) == loc->pointer.slab_class) {
    // Same slab class: rewrite the slab body in place, bucket untouched.
    engine_.Write(loc->pointer.address, SlabImage(key, value).bytes());
    payload_bytes_ += kv_bytes;
    payload_bytes_ -= loc->kv_bytes;
    return Status::Ok();
  }

  // Shape changed (inline <-> slab, or different slab class): replace. The
  // walked buckets are stale after the removal, so Insert re-walks.
  RemoveAt(*loc);
  walked_.clear();
  return Insert(kh, key, value);
}

Status HashIndex::UpdateInPlace(const KeyHash& kh, std::span<const uint8_t> key,
                                const ValueUpdater& updater,
                                std::vector<uint8_t>* original_out) {
  std::vector<uint8_t> value;
  std::optional<Location> loc = Find(kh, key, &value);
  if (!loc.has_value()) {
    return Status::NotFound();
  }
  if (original_out != nullptr) {
    *original_out = value;
  }
  updater(value);
  KVD_CHECK_MSG(value.size() + key.size() == loc->kv_bytes,
                "UpdateInPlace must preserve value size");
  if (loc->is_inline) {
    loc->bucket.WriteInlineBytes(loc->slot, InlineImage(key, value).bytes());
    WriteBucket(loc->bucket_address, loc->bucket);
  } else {
    engine_.Write(loc->pointer.address, SlabImage(key, value).bytes());
  }
  return Status::Ok();
}

void HashIndex::RemoveAt(Location& loc) {
  if (loc.is_inline) {
    const uint32_t span = BucketView::InlineSlotSpan(loc.kv_bytes);
    for (uint32_t s = 0; s < span; s++) {
      loc.bucket.ClearSlot(loc.slot + s);
    }
  } else {
    loc.bucket.ClearSlot(loc.slot);
    allocator_.Free(loc.pointer.address,
                    config_.min_slab_bytes << loc.pointer.slab_class);
  }
  payload_bytes_ -= loc.kv_bytes;
  num_kvs_--;

  const bool now_empty = loc.bucket.FreeSlots() == kSlotsPerBucket;
  const bool is_chained_bucket = loc.parent_address != kNoParent;
  if (now_empty && is_chained_bucket) {
    // Unlink the empty chained bucket: the parent inherits its chain tail.
    BucketView parent = ReadBucket(loc.parent_address);
    if (loc.bucket.HasChain()) {
      parent.SetChain(loc.bucket.ChainAddress());
    } else {
      parent.ClearChain();
    }
    WriteBucket(loc.parent_address, parent);
    allocator_.Free(loc.bucket_address, kBucketBytes);
    stats_.chained_buckets_live--;
    return;
  }
  WriteBucket(loc.bucket_address, loc.bucket);
}

Status HashIndex::Delete(const KeyHash& kh, std::span<const uint8_t> key) {
  stats_.deletes++;
  std::optional<Location> loc = Find(kh, key);
  if (!loc.has_value()) {
    return Status::NotFound();
  }
  RemoveAt(*loc);
  return Status::Ok();
}

bool HashIndex::Contains(std::span<const uint8_t> key) {
  return Find(HashKey(key), key).has_value();
}

void HashIndex::ForEach(const KvVisitor& visit) {
  for (uint64_t head = 0; head < num_buckets_; head++) {
    uint64_t address = index_base_ + head * kBucketBytes;
    while (true) {
      const BucketView bucket = ReadBucket(address);
      // Most chain heads of a sparse index are empty; skip their parse.
      for (const ParsedEntry& entry :
           bucket.Empty() ? ParsedBucket{} : ParseEntries(bucket)) {
        if (entry.is_inline) {
          const std::span<const uint8_t> data = bucket.InlineBytes(
              entry.slot, kInlineHeaderBytes + entry.klen + entry.vlen);
          visit(data.subspan(kInlineHeaderBytes, entry.klen),
                data.subspan(kInlineHeaderBytes + entry.klen));
          continue;
        }
        const PointerSlot pointer = bucket.GetPointerSlot(entry.slot);
        const SlabRead slab(engine_, pointer.address,
                            config_.min_slab_bytes << pointer.slab_class);
        visit(slab.key, slab.value);
      }
      if (!bucket.HasChain()) {
        break;
      }
      address = bucket.ChainAddress();
    }
  }
}

void HashIndex::CloneFrom(const HashIndex& source) {
  KVD_CHECK_MSG(config_ == source.config_, "cloning an index of another layout");
  num_kvs_ = source.num_kvs_;
  payload_bytes_ = source.payload_bytes_;
  stats_ = source.stats_;
}

void HashIndex::RegisterMetrics(MetricRegistry& registry) const {
  registry.RegisterCounter("kvd_store_gets_total", "GET operations", {},
                           &stats_.gets);
  registry.RegisterCounter("kvd_store_puts_total", "PUT operations", {},
                           &stats_.puts);
  registry.RegisterCounter("kvd_store_deletes_total", "DELETE operations", {},
                           &stats_.deletes);
  registry.RegisterCounter("kvd_store_chain_follows_total",
                           "Extra buckets read on collision chains", {},
                           &stats_.chain_follows);
  registry.RegisterCounter("kvd_store_secondary_false_hits_total",
                           "Secondary-hash matches with key mismatch", {},
                           &stats_.secondary_false_hits);
  registry.RegisterGauge("kvd_store_chained_buckets", "Live chained buckets", {},
                         [this] {
                           return static_cast<double>(stats_.chained_buckets_live);
                         });
  registry.RegisterGauge("kvd_store_kvs", "Live key-value pairs", {},
                         [this] { return static_cast<double>(num_kvs_); });
  registry.RegisterGauge("kvd_store_payload_bytes", "Stored key+value bytes", {},
                         [this] { return static_cast<double>(payload_bytes_); });
  registry.RegisterGauge("kvd_store_buckets", "Hash index buckets", {},
                         [this] { return static_cast<double>(num_buckets_); });
  registry.RegisterGauge("kvd_store_utilization",
                         "Payload bytes over KVS region size", {},
                         [this] { return Utilization(); });
}

}  // namespace kvd
