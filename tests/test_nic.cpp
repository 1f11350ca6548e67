// Tests for the storage protocol codec and the FIDR NIC model.

#include <gtest/gtest.h>

#include "fidr/hash/sha256.h"
#include "fidr/nic/fidr_nic.h"
#include "fidr/nic/protocol.h"
#include "fidr/workload/content.h"

namespace fidr::nic {
namespace {

TEST(Protocol, WriteFrameRoundTrip)
{
    const Buffer payload{1, 2, 3, 4};
    const Buffer wire = encode_write(0xDEADBEEF, payload);
    std::size_t offset = 0;
    Result<Frame> frame = decode(wire, offset);
    ASSERT_TRUE(frame.is_ok());
    EXPECT_EQ(frame.value().op, Op::kWrite);
    EXPECT_EQ(frame.value().lba, 0xDEADBEEFu);
    EXPECT_EQ(frame.value().payload, payload);
    EXPECT_EQ(offset, wire.size());
}

TEST(Protocol, ReadFrameCarriesNoPayload)
{
    const Buffer wire = encode_read(77, 4096);
    std::size_t offset = 0;
    Result<Frame> frame = decode(wire, offset);
    ASSERT_TRUE(frame.is_ok());
    EXPECT_EQ(frame.value().op, Op::kRead);
    EXPECT_EQ(frame.value().lba, 77u);
    EXPECT_TRUE(frame.value().payload.empty());
    EXPECT_EQ(offset, kFrameHeaderSize);
}

TEST(Protocol, AckRoundTrip)
{
    Frame ack;
    ack.op = Op::kAck;
    ack.lba = 9;
    ack.payload = Buffer{5, 6};
    const Buffer wire = encode(ack);
    std::size_t offset = 0;
    Result<Frame> frame = decode(wire, offset);
    ASSERT_TRUE(frame.is_ok());
    EXPECT_EQ(frame.value().op, Op::kAck);
    EXPECT_EQ(frame.value().payload, (Buffer{5, 6}));
}

TEST(Protocol, MultipleFramesInOneStream)
{
    Buffer wire = encode_write(1, Buffer{9});
    const Buffer second = encode_read(2, 4096);
    wire.insert(wire.end(), second.begin(), second.end());

    std::size_t offset = 0;
    EXPECT_EQ(decode(wire, offset).value().op, Op::kWrite);
    EXPECT_EQ(decode(wire, offset).value().op, Op::kRead);
    EXPECT_EQ(offset, wire.size());
}

TEST(Protocol, RejectsTruncatedAndMalformed)
{
    std::size_t offset = 0;
    EXPECT_FALSE(decode(Buffer{1, 2, 3}, offset).is_ok());

    Buffer bad_op = encode_read(1, 0);
    bad_op[0] = 9;
    offset = 0;
    EXPECT_FALSE(decode(bad_op, offset).is_ok());

    Buffer truncated = encode_write(1, Buffer(100, 0));
    truncated.resize(truncated.size() - 10);
    offset = 0;
    EXPECT_FALSE(decode(truncated, offset).is_ok());
}

Buffer
chunk_of(std::uint64_t id)
{
    return workload::make_chunk_content(id);
}

TEST(FidrNic, BuffersAndHashes)
{
    FidrNic nic;
    ASSERT_TRUE(nic.buffer_write(1, chunk_of(1)).is_ok());
    ASSERT_TRUE(nic.buffer_write(2, chunk_of(2)).is_ok());
    EXPECT_EQ(nic.buffered_chunks(), 2u);

    SealedBatch *batch = nic.seal_batch();
    ASSERT_NE(batch, nullptr);
    EXPECT_EQ(nic.buffered_chunks(), 0u);
    nic.hash_sealed(*batch);
    ASSERT_EQ(batch->chunks.size(), 2u);
    EXPECT_EQ(batch->chunks[0].digest, Sha256::hash(chunk_of(1)));
    EXPECT_EQ(batch->chunks[1].digest, Sha256::hash(chunk_of(2)));
    EXPECT_EQ(batch->fresh_hashes, 2u);

    // A batch unsealed after hashing keeps its digests: re-sealed and
    // re-hashed, it computes nothing new.
    nic.unseal_all();
    EXPECT_EQ(nic.hashes_computed(), 2u);
    batch = nic.seal_batch();
    ASSERT_NE(batch, nullptr);
    nic.hash_sealed(*batch);
    EXPECT_EQ(batch->fresh_hashes, 0u);
    EXPECT_EQ(batch->chunks[1].digest, Sha256::hash(chunk_of(2)));
    nic.drop_sealed(batch->epoch);
    EXPECT_EQ(nic.hashes_computed(), 2u);
}

TEST(FidrNic, RejectsNonChunkWrites)
{
    FidrNic nic;
    EXPECT_FALSE(nic.buffer_write(1, Buffer(100, 0)).is_ok());
}

TEST(FidrNic, BufferCapacityBackPressure)
{
    FidrNicConfig config;
    config.buffer_capacity = 2 * kChunkSize;
    FidrNic nic(config);
    ASSERT_TRUE(nic.buffer_write(1, chunk_of(1)).is_ok());
    ASSERT_TRUE(nic.buffer_write(2, chunk_of(2)).is_ok());
    EXPECT_EQ(nic.buffer_write(3, chunk_of(3)).code(),
              StatusCode::kUnavailable);
}

TEST(FidrNic, LbaLookupServesNewestBufferedWrite)
{
    FidrNic nic;
    ASSERT_TRUE(nic.buffer_write(5, chunk_of(10)).is_ok());
    ASSERT_TRUE(nic.buffer_write(5, chunk_of(11)).is_ok());  // Overwrite.
    const auto hit = nic.lookup_buffered(5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, chunk_of(11));
    EXPECT_FALSE(nic.lookup_buffered(6).has_value());
}

TEST(FidrNic, HasBufferedSeesOnlyTheOpenBuffer)
{
    FidrNic nic;
    ASSERT_TRUE(nic.buffer_write(5, chunk_of(10)).is_ok());
    EXPECT_TRUE(nic.has_buffered(5));
    EXPECT_FALSE(nic.has_buffered(6));
    // A sealed batch is no longer in the open buffer.
    ASSERT_NE(nic.seal_batch(), nullptr);
    EXPECT_FALSE(nic.has_buffered(5));
    EXPECT_FALSE(nic.lookup_buffered(5).has_value());
}

TEST(FidrNic, SchedulerSplitsUniqueFromDuplicate)
{
    FidrNic nic;
    ASSERT_TRUE(nic.buffer_write(1, chunk_of(1)).is_ok());
    ASSERT_TRUE(nic.buffer_write(2, chunk_of(2)).is_ok());
    ASSERT_TRUE(nic.buffer_write(3, chunk_of(3)).is_ok());
    SealedBatch *batch = nic.seal_batch();
    ASSERT_NE(batch, nullptr);
    nic.hash_sealed(*batch);

    const ChunkVerdict verdicts[] = {ChunkVerdict::kUnique,
                                     ChunkVerdict::kDuplicate,
                                     ChunkVerdict::kUnique};
    Result<std::vector<const BufferedChunk *>> unique =
        nic.peek_unique_sealed(*batch, verdicts);
    ASSERT_TRUE(unique.is_ok());
    ASSERT_EQ(unique.value().size(), 2u);
    EXPECT_EQ(unique.value()[0]->lba, 1u);
    EXPECT_EQ(unique.value()[1]->lba, 3u);
    EXPECT_EQ(unique.value()[1]->data, chunk_of(3));
    // The batch stays in NIC DRAM until its commit point.
    EXPECT_EQ(nic.sealed_chunks(), 3u);
    nic.drop_sealed(batch->epoch);
    EXPECT_EQ(nic.sealed_batches(), 0u);
    EXPECT_EQ(nic.pending_bytes(), 0u);
    EXPECT_FALSE(nic.lookup_buffered(1).has_value());
}

TEST(FidrNic, SchedulerRejectsMismatchedVerdicts)
{
    FidrNic nic;
    ASSERT_TRUE(nic.buffer_write(1, chunk_of(1)).is_ok());
    SealedBatch *batch = nic.seal_batch();
    ASSERT_NE(batch, nullptr);
    nic.hash_sealed(*batch);
    const ChunkVerdict verdicts[] = {ChunkVerdict::kUnique,
                                     ChunkVerdict::kUnique};
    EXPECT_EQ(nic.peek_unique_sealed(*batch, verdicts).status().code(),
              StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace fidr::nic
