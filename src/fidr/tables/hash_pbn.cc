#include "fidr/tables/hash_pbn.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "fidr/common/bytes.h"

namespace fidr::tables {

static_assert(kBucketSize == ssd::Ssd::kPageSize,
              "a bucket is one table-SSD page");

std::optional<Pbn>
Bucket::lookup(const Digest &digest, std::size_t *entries_scanned) const
{
    std::size_t scanned = 0;
    for (const HashPbnEntry &entry : entries_) {
        ++scanned;
        if (entry.digest == digest) {
            if (entries_scanned)
                *entries_scanned = scanned;
            return entry.pbn;
        }
    }
    if (entries_scanned)
        *entries_scanned = scanned;
    return std::nullopt;
}

Status
Bucket::insert(const Digest &digest, Pbn pbn)
{
    FIDR_CHECK(pbn <= kMaxPbn);
    for (HashPbnEntry &entry : entries_) {
        if (entry.digest == digest) {
            entry.pbn = pbn;
            return Status::ok();
        }
    }
    if (full())
        return Status::out_of_space("bucket full");
    entries_.push_back({digest, pbn});
    return Status::ok();
}

bool
Bucket::remove(const Digest &digest)
{
    const auto it = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const HashPbnEntry &e) {
                                     return e.digest == digest;
                                 });
    if (it == entries_.end())
        return false;
    entries_.erase(it);
    return true;
}

void
Bucket::encode_used(std::uint8_t *out) const
{
    store_le(out, entries_.size(), 2);
    std::size_t off = 2;
    for (const HashPbnEntry &entry : entries_) {
        std::memcpy(out + off, entry.digest.bytes().data(), Digest::kSize);
        store_le(out + off + Digest::kSize, entry.pbn, 6);
        off += kTableEntrySize;
    }
}

Buffer
Bucket::serialize() const
{
    Buffer out(kBucketSize, 0);
    encode_used(out.data());
    return out;
}

Status
Bucket::assign(std::span<const std::uint8_t> raw)
{
    entries_.clear();
    if (raw.size() != kBucketSize)
        return Status::corruption("bucket image has wrong size");
    const std::uint64_t count = load_le(raw.data(), 2);
    if (count > kCapacity)
        return Status::corruption("bucket entry count out of range");
    entries_.resize(count);
    std::size_t off = 2;
    for (HashPbnEntry &entry : entries_) {
        std::memcpy(entry.digest.bytes().data(), raw.data() + off,
                    Digest::kSize);
        entry.pbn = load_le(raw.data() + off + Digest::kSize, 6);
        off += kTableEntrySize;
    }
    return Status::ok();
}

Result<Bucket>
Bucket::deserialize(std::span<const std::uint8_t> raw)
{
    Bucket bucket;
    const Status parsed = bucket.assign(raw);
    if (!parsed.is_ok())
        return parsed;
    return bucket;
}

HashPbnTable::HashPbnTable(ssd::Ssd &ssd, std::uint64_t num_buckets)
    : ssd_(ssd), num_buckets_(num_buckets)
{
    FIDR_CHECK(num_buckets_ > 0);
    FIDR_CHECK(num_buckets_ * kBucketSize <= ssd.config().capacity_bytes);
}

BucketIndex
HashPbnTable::bucket_for(const Digest &digest) const
{
    // SHA-256 output is uniform, so simple modular placement spreads
    // entries evenly (the paper's "simple modular function", Sec 2.1.3).
    return digest.prefix64() % num_buckets_;
}

Status
HashPbnTable::read_bucket(BucketIndex index, Bucket &into) const
{
    FIDR_CHECK(index < num_buckets_);
    std::array<std::uint8_t, kBucketSize> scratch;  // Bit-flip copies.
    Result<const std::uint8_t *> page =
        ssd_.read_page(index * kBucketSize, scratch);
    if (!page.is_ok())
        return page.status();
    return into.assign({page.value(), kBucketSize});
}

Status
HashPbnTable::write_bucket(BucketIndex index, const Bucket &bucket)
{
    FIDR_CHECK(index < num_buckets_);
    std::array<std::uint8_t, kBucketSize> image;  // Only the head is set.
    bucket.encode_used(image.data());
    return ssd_.write_page(
        index * kBucketSize,
        std::span<const std::uint8_t>(image.data(), bucket.used_bytes()));
}

std::uint64_t
HashPbnTable::buckets_for_capacity(std::uint64_t unique_chunks,
                                   double load_factor)
{
    FIDR_CHECK(load_factor > 0 && load_factor <= 1.0);
    const double per_bucket = Bucket::kCapacity * load_factor;
    const auto buckets = static_cast<std::uint64_t>(
        static_cast<double>(unique_chunks) / per_bucket) + 1;
    return buckets;
}

}  // namespace fidr::tables
