// Tests for the metadata journal and crash recovery (extension).

#include <gtest/gtest.h>

#include <span>
#include <unordered_map>
#include <vector>

#include "fidr/common/bytes.h"
#include "fidr/core/fidr_system.h"
#include "fidr/fault/failpoint.h"
#include "fidr/tables/journal.h"
#include "fidr/workload/content.h"
#include "fidr/workload/generator.h"

namespace fidr::tables {
namespace {

ssd::SsdConfig
journal_ssd()
{
    ssd::SsdConfig config;
    config.capacity_bytes = 64 * kMiB;
    return config;
}

/** Stages `record` and commits it as a one-record extent. */
Status
append(MetadataJournal &journal, const JournalRecord &record)
{
    journal.stage(record);
    return journal.commit();
}

/** One framed slot, as the journal lays it out. */
Buffer
framed(const JournalRecord &record, std::uint32_t epoch, std::uint32_t seq,
       bool closes_extent = true)
{
    Buffer slot(kJournalRecordSize);
    MetadataJournal::encode(record, {epoch, seq, closes_extent},
                            slot.data());
    return slot;
}

TEST(Journal, AppendReplayRoundTrip)
{
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);

    ASSERT_TRUE(append(journal, JournalRecord::map(10, 100)).is_ok());
    ASSERT_TRUE(append(journal, JournalRecord::set_location(
                                    100, ChunkLocation{7, 3, 2048}))
                    .is_ok());
    ASSERT_TRUE(append(journal, JournalRecord::retire(55)).is_ok());
    ASSERT_TRUE(append(journal, JournalRecord::checkpoint()).is_ok());
    EXPECT_EQ(journal.records(), 4u);

    Result<std::vector<JournalRecord>> replayed = journal.replay();
    ASSERT_TRUE(replayed.is_ok());
    ASSERT_EQ(replayed.value().size(), 4u);
    EXPECT_EQ(replayed.value()[0].op, JournalOp::kMapLba);
    EXPECT_EQ(replayed.value()[0].lba, 10u);
    EXPECT_EQ(replayed.value()[0].pbn, 100u);
    EXPECT_EQ(replayed.value()[1].location,
              (ChunkLocation{7, 3, 2048}));
    EXPECT_EQ(replayed.value()[2].op, JournalOp::kRetirePbn);
    EXPECT_EQ(replayed.value()[3].op, JournalOp::kCheckpoint);
}

TEST(Journal, TornTailTruncatedAtReplay)
{
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);
    ASSERT_TRUE(append(journal, JournalRecord::map(1, 1)).is_ok());
    ASSERT_TRUE(append(journal, JournalRecord::map(2, 2)).is_ok());

    // Corrupt the second record (torn write at crash time).
    Buffer garbage(4, 0xFF);
    ASSERT_TRUE(ssd.write(kJournalRecordSize + 2, garbage).is_ok());

    Result<std::vector<JournalRecord>> replayed = journal.replay();
    ASSERT_TRUE(replayed.is_ok());
    ASSERT_EQ(replayed.value().size(), 1u);
    EXPECT_EQ(replayed.value()[0].lba, 1u);
}

TEST(Journal, ResetPreventsStaleEpochReplay)
{
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);
    for (Lba lba = 0; lba < 10; ++lba)
        ASSERT_TRUE(append(journal, JournalRecord::map(lba, lba)).is_ok());
    journal.reset();
    EXPECT_EQ(journal.records(), 0u);

    // New epoch writes fewer records than the old one held.
    ASSERT_TRUE(append(journal, JournalRecord::map(77, 88)).is_ok());
    Result<std::vector<JournalRecord>> replayed = journal.replay();
    ASSERT_TRUE(replayed.is_ok());
    ASSERT_EQ(replayed.value().size(), 1u);  // No stale tail.
    EXPECT_EQ(replayed.value()[0].lba, 77u);
}

TEST(Journal, FullJournalReportsOutOfSpace)
{
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 4 * kJournalRecordSize);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(append(journal, JournalRecord::map(i, i)).is_ok());
    EXPECT_EQ(append(journal, JournalRecord::map(9, 9)).code(),
              StatusCode::kOutOfSpace);
}

TEST(Journal, RebuildAppliesAllOps)
{
    std::vector<JournalRecord> records;
    JournalRecord map;
    map.op = JournalOp::kMapLba;
    map.lba = 4;
    map.pbn = 40;
    records.push_back(map);
    JournalRecord loc;
    loc.op = JournalOp::kSetLocation;
    loc.pbn = 40;
    loc.location = ChunkLocation{1, 2, 512};
    records.push_back(loc);
    // Remap LBA 4 away; PBN 40 dies and is retired.
    JournalRecord remap = map;
    remap.pbn = 41;
    records.push_back(remap);
    JournalRecord retire;
    retire.op = JournalOp::kRetirePbn;
    retire.pbn = 40;
    records.push_back(retire);

    const LbaPbaTable table = MetadataJournal::rebuild(records);
    EXPECT_EQ(table.pbn_of(4), std::optional<Pbn>(41));
    EXPECT_EQ(table.refcount(40), 0u);
    EXPECT_FALSE(table.location_of(40).has_value());
    EXPECT_TRUE(table.validate().is_ok());
}

// --- Corruption corpus: every on-device damage shape replay must
// --- classify (torn tail vs lost middle vs blank vs stale).

TEST(JournalCorpus, CorruptedMiddleRecordIsAnExplicitError)
{
    // A valid tail *past* a damaged slot means the journal lost a
    // committed record: replay must fail loudly with kCorruption, not
    // silently truncate to the prefix.
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);
    for (Lba lba = 0; lba < 6; ++lba)
        ASSERT_TRUE(
            append(journal, JournalRecord::map(lba, lba + 100)).is_ok());

    Buffer garbage(kJournalRecordSize, 0xFF);
    ASSERT_TRUE(ssd.write(2 * kJournalRecordSize, garbage).is_ok());

    const Result<std::vector<JournalRecord>> replayed = journal.replay();
    ASSERT_FALSE(replayed.is_ok());
    EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption);
}

TEST(JournalCorpus, DuplicateSequenceNumberEndsThePrefix)
{
    // Hand-frame one-record extents with encode(): slot 2 repeats
    // sequence 1 (a misdirected rewrite).  The repeated record must not apply
    // twice; with nothing valid beyond it, replay returns the intact
    // two-record prefix.
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);

    JournalRecord record;
    record.op = JournalOp::kMapLba;
    for (std::uint32_t slot = 0; slot < 3; ++slot) {
        record.lba = slot;
        record.pbn = slot + 100;
        const std::uint32_t seq = slot < 2 ? slot : 1;  // Duplicate.
        ASSERT_TRUE(
            ssd.write(slot * kJournalRecordSize, framed(record, 0, seq))
                .is_ok());
    }

    Result<std::vector<JournalRecord>> replayed = journal.replay();
    ASSERT_TRUE(replayed.is_ok());
    ASSERT_EQ(replayed.value().size(), 2u);
    EXPECT_EQ(replayed.value()[1].lba, 1u);

    // A valid in-sequence record *after* the duplicate upgrades the
    // verdict to corruption: a committed record is unreachable.
    record.lba = 3;
    ASSERT_TRUE(
        ssd.write(3 * kJournalRecordSize, framed(record, 0, 3)).is_ok());
    replayed = journal.replay();
    ASSERT_FALSE(replayed.is_ok());
    EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption);
}

TEST(JournalCorpus, ZeroLengthAndBlankRegionsReplayEmpty)
{
    ssd::Ssd ssd(journal_ssd());
    const MetadataJournal journal(ssd, 0, 1 * kMiB);
    const Result<std::vector<JournalRecord>> replayed = journal.replay();
    ASSERT_TRUE(replayed.is_ok());  // Nothing committed, nothing lost.
    EXPECT_TRUE(replayed.value().empty());

    // The smallest legal region holds exactly one record; the second
    // append reports out-of-space and replay still works.
    MetadataJournal tiny(ssd, 4 * kMiB, kJournalRecordSize);
    ASSERT_TRUE(tiny.replay().is_ok());
    EXPECT_TRUE(tiny.replay().value().empty());
    ASSERT_TRUE(append(tiny, JournalRecord::map(1, 1)).is_ok());
    EXPECT_EQ(append(tiny, JournalRecord::map(2, 2)).code(),
              StatusCode::kOutOfSpace);
    ASSERT_TRUE(tiny.replay().is_ok());
    EXPECT_EQ(tiny.replay().value().size(), 1u);
}

TEST(JournalCorpus, EncodeDecodeRoundTripRejectsDamage)
{
    JournalRecord record;
    record.op = JournalOp::kSetLocation;
    record.lba = 7;
    record.pbn = 9;
    record.location = ChunkLocation{3, 5, 1024};
    for (const bool closes : {false, true}) {
        const Buffer slot = framed(record, 42, 17, closes);

        JournalRecord decoded;
        JournalFrame frame;
        ASSERT_TRUE(MetadataJournal::decode(slot.data(), &decoded, &frame));
        EXPECT_EQ(decoded, record);
        EXPECT_EQ(frame, (JournalFrame{42, 17, closes}));

        Buffer bad_check = slot;
        bad_check.back() ^= 0x01;
        EXPECT_FALSE(
            MetadataJournal::decode(bad_check.data(), &decoded, &frame));

        Buffer bad_type = slot;
        bad_type[0] = 0x7F;  // No such JournalOp.
        EXPECT_FALSE(
            MetadataJournal::decode(bad_type.data(), &decoded, &frame));
    }
}

TEST(JournalCorpus, RecoverAdoptsTheOnDeviceTail)
{
    // A restart constructs a fresh MetadataJournal over the same
    // region: recover() must adopt the surviving head/epoch so new
    // appends extend the recovered log instead of clobbering it.
    ssd::Ssd ssd(journal_ssd());
    {
        MetadataJournal writer(ssd, 0, 1 * kMiB);
        writer.reset();  // Epoch 1: an adopted epoch must stick too.
        for (Lba lba = 0; lba < 5; ++lba)
            ASSERT_TRUE(
                append(writer, JournalRecord::map(lba, lba + 50)).is_ok());
    }

    MetadataJournal restarted(ssd, 0, 1 * kMiB);
    EXPECT_EQ(restarted.records(), 0u);  // Pre-recovery: blank state.
    const Result<std::vector<JournalRecord>> tail = restarted.recover();
    ASSERT_TRUE(tail.is_ok());
    ASSERT_EQ(tail.value().size(), 5u);
    EXPECT_EQ(restarted.records(), 5u);
    EXPECT_EQ(restarted.used_bytes(), 5 * kJournalRecordSize);

    ASSERT_TRUE(append(restarted, JournalRecord::map(99, 199)).is_ok());
    const Result<std::vector<JournalRecord>> extended =
        restarted.replay();
    ASSERT_TRUE(extended.is_ok());
    ASSERT_EQ(extended.value().size(), 6u);
    EXPECT_EQ(extended.value().back().lba, 99u);
    EXPECT_EQ(extended.value().back().pbn, 199u);
}

TEST(Journal, ExtentCostsItsRecordsPlusOneFenceSlot)
{
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);

    // A one-record extent: the record and the fence, two slots.
    ASSERT_TRUE(append(journal, JournalRecord::map(1, 1)).is_ok());
    EXPECT_EQ(ssd.bytes_written(), 2 * kJournalRecordSize);
    EXPECT_EQ(ssd.write_ios(), 2u);

    // A five-record extent: five record slots and one fence, in two
    // device writes.
    for (Lba lba = 2; lba < 7; ++lba)
        journal.stage(JournalRecord::map(lba, lba));
    EXPECT_EQ(journal.staged_records(), 5u);
    EXPECT_EQ(journal.records(), 1u);  // Staged records are not durable.
    ASSERT_TRUE(journal.commit().is_ok());
    EXPECT_EQ(ssd.bytes_written(), (2 + 6) * kJournalRecordSize);
    EXPECT_EQ(ssd.write_ios(), 4u);
    EXPECT_EQ(journal.records(), 6u);
    EXPECT_EQ(journal.staged_records(), 0u);
    EXPECT_EQ(journal.used_bytes(), 6 * kJournalRecordSize);

    // Nothing staged: no IO.
    ASSERT_TRUE(journal.commit().is_ok());
    EXPECT_EQ(ssd.write_ios(), 4u);
    EXPECT_EQ(journal.replay().value().size(), 6u);
}

TEST(JournalCorpus, TornExtentAppliesNoneOfItsRecordsAtEveryOffset)
{
    // Two committed extents, then a five-record extent of which only
    // the first `keep` bytes reach flash, for every `keep`: replay
    // returns the committed extents whole and nothing of the torn one.
    // A restart that commits a shorter extent over the torn remnant
    // must replay cleanly: the remnant's complete records, past the new
    // fence, are not a lost committed extent.
    const std::vector<JournalRecord> first = {
        JournalRecord::map(1, 11),
        JournalRecord::set_location(11, ChunkLocation{1, 0, 100}),
        JournalRecord::map(2, 11)};
    const JournalRecord second = JournalRecord::retire(7);
    std::vector<JournalRecord> committed = first;
    committed.push_back(second);
    constexpr std::size_t kTorn = 5;
    constexpr std::uint64_t kRegion = 64 * kJournalRecordSize;
    const std::size_t extent_bytes = kTorn * kJournalRecordSize;

    for (std::size_t keep = 0; keep < extent_bytes; ++keep) {
        ssd::Ssd ssd(journal_ssd());
        MetadataJournal journal(ssd, 0, kRegion);
        for (const JournalRecord &r : first)
            journal.stage(r);
        ASSERT_TRUE(journal.commit().is_ok());
        ASSERT_TRUE(append(journal, second).is_ok());
        const std::uint64_t head = journal.used_bytes();
        // What the torn extent and its fence overwrite.
        const Buffer before =
            ssd.read(head, extent_bytes + kJournalRecordSize).take();
        for (std::size_t i = 0; i < kTorn; ++i)
            journal.stage(JournalRecord::map(100 + i, 200 + i));
        ASSERT_TRUE(journal.commit().is_ok());
        ASSERT_TRUE(ssd.write(head + keep,
                              std::span<const std::uint8_t>(before).subspan(
                                  keep))
                        .is_ok());

        const Result<std::vector<JournalRecord>> replayed = journal.replay();
        ASSERT_TRUE(replayed.is_ok()) << "keep " << keep;
        EXPECT_EQ(replayed.value(), committed) << "keep " << keep;

        MetadataJournal restarted(ssd, 0, kRegion);
        const Result<std::vector<JournalRecord>> recovered =
            restarted.recover();
        ASSERT_TRUE(recovered.is_ok()) << "keep " << keep;
        EXPECT_EQ(recovered.value(), committed) << "keep " << keep;
        EXPECT_EQ(restarted.used_bytes(), head);
        ASSERT_TRUE(append(restarted, JournalRecord::map(9, 90)).is_ok());
        const Result<std::vector<JournalRecord>> extended =
            restarted.replay();
        ASSERT_TRUE(extended.is_ok()) << "keep " << keep;
        ASSERT_EQ(extended.value().size(), committed.size() + 1);
        EXPECT_EQ(extended.value().back(), JournalRecord::map(9, 90));
    }
}

TEST(JournalCorpus, CorruptRecordInsideALongExtentIsAnExplicitError)
{
    // The damaged slot sits far more than the look-ahead's blank-slot
    // budget before its extent's end mark: the in-sequence records in
    // between are walked, and the end mark proves a lost commit.
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);
    for (Lba lba = 0; lba < 200; ++lba)
        journal.stage(JournalRecord::map(lba, lba + 1000));
    ASSERT_TRUE(journal.commit().is_ok());

    Buffer garbage(kJournalRecordSize, 0xFF);
    ASSERT_TRUE(ssd.write(10 * kJournalRecordSize, garbage).is_ok());
    const Result<std::vector<JournalRecord>> replayed = journal.replay();
    ASSERT_FALSE(replayed.is_ok());
    EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption);
}

TEST(JournalCorpus, PerRecordFormatJournalStillReplays)
{
    // A journal written in the per-record format that predates extents:
    // no format mark in the type byte, every record committed on its
    // own.  Each replays as a closed one-record extent, and a restart
    // continues the journal in extents after them.
    ssd::Ssd ssd(journal_ssd());
    std::vector<JournalRecord> legacy;
    for (std::uint32_t slot = 0; slot < 3; ++slot) {
        legacy.push_back(JournalRecord::map(slot, slot + 10));
        Buffer raw = framed(legacy.back(), 0, slot, false);
        raw[0] = static_cast<std::uint8_t>(JournalOp::kMapLba);
        raw.back() = static_cast<std::uint8_t>(
                         fnv1a64(std::span<const std::uint8_t>(
                             raw.data(), kJournalRecordSize - 1))) ^
                     0xA5;
        JournalRecord decoded;
        JournalFrame frame;
        ASSERT_TRUE(MetadataJournal::decode(raw.data(), &decoded, &frame));
        EXPECT_EQ(frame, (JournalFrame{0, slot, true}));
        ASSERT_TRUE(ssd.write(slot * kJournalRecordSize, raw).is_ok());
    }

    MetadataJournal journal(ssd, 0, 1 * kMiB);
    const Result<std::vector<JournalRecord>> recovered = journal.recover();
    ASSERT_TRUE(recovered.is_ok());
    EXPECT_EQ(recovered.value(), legacy);
    journal.stage(JournalRecord::map(7, 70));
    journal.stage(JournalRecord::retire(10));
    ASSERT_TRUE(journal.commit().is_ok());
    legacy.push_back(JournalRecord::map(7, 70));
    legacy.push_back(JournalRecord::retire(10));
    EXPECT_EQ(journal.replay().value(), legacy);
}

#if FIDR_FAULT_ENABLED
TEST(Journal, FailedCommitKeepsTheExtentStagedForTheRetry)
{
    ssd::Ssd ssd(journal_ssd());
    MetadataJournal journal(ssd, 0, 1 * kMiB);
    ASSERT_TRUE(append(journal, JournalRecord::map(1, 1)).is_ok());

    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();
    for (const fault::FaultKind kind :
         {fault::FaultKind::kError, fault::FaultKind::kTornWrite}) {
        fault::FaultPolicy policy;
        policy.kind = kind;
        policy.fail_nth = 1;
        policy.max_fires = 1;
        registry.arm(fault::Site::kJournalAppend, policy);
        journal.stage(JournalRecord::map(2, 2));
        journal.stage(JournalRecord::map(3, 3));
        EXPECT_FALSE(journal.commit().is_ok());
        registry.disarm_all();
        registry.reset_counters();
        EXPECT_EQ(journal.records(), 1u);
        EXPECT_EQ(journal.replay().value().size(), 1u);
    }
    // Both failed extents' records went out with the retry, as one
    // extent, once each.
    journal.stage(JournalRecord::map(4, 4));
    ASSERT_TRUE(journal.commit().is_ok());
    const std::vector<JournalRecord> expect = {
        JournalRecord::map(1, 1), JournalRecord::map(2, 2),
        JournalRecord::map(3, 3), JournalRecord::map(2, 2),
        JournalRecord::map(3, 3), JournalRecord::map(4, 4)};
    EXPECT_EQ(journal.replay().value(), expect);
}

TEST(Journal, BitFlippedEndMarkNeverReplaysShort)
{
    // A bit flip that lands in an extent's end-marked record would let
    // replay drop the whole extent as torn, with status ok.  Whatever
    // slot the seeded flip hits, the journal must replay every record
    // it reported committed or fail with kCorruption, never come back
    // short and ok.
    auto &registry = fault::FailpointRegistry::instance();
    std::uint64_t rejected = 0;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        ssd::Ssd ssd(journal_ssd());
        MetadataJournal journal(ssd, 0, 1 * kMiB);
        ASSERT_TRUE(append(journal, JournalRecord::map(100, 100)).is_ok());

        registry.disarm_all();
        registry.reset_counters();
        registry.set_seed(seed);
        fault::FaultPolicy policy;
        policy.kind = fault::FaultKind::kBitFlip;
        policy.fail_nth = 1;
        policy.max_fires = 1;
        registry.arm(fault::Site::kSsdWrite, policy);
        for (Lba lba = 0; lba < 4; ++lba)
            journal.stage(JournalRecord::map(lba, lba));
        const Status first = journal.commit();
        registry.disarm_all();
        if (!first.is_ok()) {
            // The end mark did not read back: nothing was committed,
            // and the retry rewrites the extent in place.
            ++rejected;
            EXPECT_EQ(first.code(), StatusCode::kCorruption);
            EXPECT_EQ(journal.records(), 1u);
            ASSERT_TRUE(journal.commit().is_ok());
        }
        EXPECT_EQ(journal.records(), 5u);
        Result<std::vector<JournalRecord>> replayed = journal.replay();
        if (replayed.is_ok())
            EXPECT_EQ(replayed.value().size(), 5u) << "seed " << seed;
        else
            EXPECT_EQ(replayed.status().code(), StatusCode::kCorruption);
    }
    registry.reset_counters();
    registry.set_seed(0x5DEECE66Dull);  // The registry's default.
    // A quarter of the extent's bytes are its last slot.
    EXPECT_GT(rejected, 0u);
}
#endif  // FIDR_FAULT_ENABLED

TEST(LbaPbaSnapshot, SerializeDeserializeRoundTrip)
{
    LbaPbaTable table;
    table.map_lba(1, 10);
    table.map_lba(2, 10);  // Shared PBN.
    table.map_lba(3, 30);
    table.set_location(10, ChunkLocation{5, 6, 1111});
    table.set_location(30, ChunkLocation{7, 8, 2222});

    Result<LbaPbaTable> copy =
        LbaPbaTable::deserialize(table.serialize());
    ASSERT_TRUE(copy.is_ok());
    EXPECT_EQ(copy.value().pbn_of(2), std::optional<Pbn>(10));
    EXPECT_EQ(copy.value().refcount(10), 2u);
    EXPECT_EQ(copy.value().lookup(3),
              std::optional<ChunkLocation>(ChunkLocation{7, 8, 2222}));
    EXPECT_TRUE(copy.value().validate().is_ok());
}

TEST(LbaPbaSnapshot, RejectsGarbage)
{
    EXPECT_FALSE(LbaPbaTable::deserialize(Buffer(10, 0)).is_ok());
    LbaPbaTable table;
    table.map_lba(1, 1);
    Buffer image = table.serialize();
    image.pop_back();
    EXPECT_FALSE(LbaPbaTable::deserialize(image).is_ok());
}

}  // namespace
}  // namespace fidr::tables

namespace fidr::core {
namespace {

FidrConfig
journaled_fidr()
{
    FidrConfig config;
    config.platform.expected_unique_chunks = 20000;
    config.platform.cache_fraction = 0.1;
    config.platform.data_ssd.capacity_bytes = 4ull * kGiB;
    config.platform.table_ssd.capacity_bytes = 1ull * kGiB;
    config.journal_metadata = true;
    config.nic.hash_batch = 64;
    return config;
}

TEST(Recovery, MappingsSurviveACrash)
{
    FidrSystem system(journaled_fidr());
    workload::WorkloadSpec spec;
    spec.dedup_ratio = 0.5;
    workload::WorkloadGenerator gen(spec);

    std::unordered_map<Lba, Buffer> model;
    for (int i = 0; i < 500; ++i) {
        const auto req = gen.next();
        model[req.lba] = req.data;
        ASSERT_TRUE(system.write(req.lba, req.data).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    EXPECT_GT(system.journal_records(), 0u);

    ASSERT_TRUE(system.simulate_crash_and_recover().is_ok());
    for (const auto &[lba, data] : model)
        ASSERT_EQ(system.read(lba).value(), data) << lba;
    EXPECT_TRUE(system.lba_table().validate().is_ok());
}

TEST(Recovery, CheckpointTruncatesJournalAndStillRecovers)
{
    FidrSystem system(journaled_fidr());
    for (Lba lba = 0; lba < 200; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    ASSERT_TRUE(system.checkpoint().is_ok());
    EXPECT_LE(system.journal_records(), 1u);  // Checkpoint marker only.

    // More writes after the checkpoint land in the journal tail.
    for (Lba lba = 200; lba < 260; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba))
                .is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());

    ASSERT_TRUE(system.simulate_crash_and_recover().is_ok());
    for (Lba lba = 0; lba < 260; ++lba) {
        ASSERT_EQ(system.read(lba).value(),
                  workload::make_chunk_content(lba))
            << lba;
    }
}

TEST(Recovery, JournalOverflowAutoCheckpoints)
{
    FidrConfig config = journaled_fidr();
    // Tiny journal: a few hundred records force mid-run checkpoints.
    config.journal_bytes = 300 * tables::kJournalRecordSize;
    FidrSystem system(config);

    for (Lba lba = 0; lba < 500; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba % 100))
                .is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    ASSERT_TRUE(system.simulate_crash_and_recover().is_ok());
    for (Lba lba = 0; lba < 500; ++lba) {
        ASSERT_EQ(system.read(lba).value(),
                  workload::make_chunk_content(lba % 100));
    }
}

#if FIDR_FAULT_ENABLED
/** Commits one batch, then writes one whose second container append
 *  fails, so its first chunk is stored but never mapped, and
 *  checkpoints: the snapshot locates that chunk with no LBA
 *  referencing it. */
void
strand_a_chunk(FidrSystem &system)
{
    for (Lba lba = 100; lba < 164; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba)).is_ok());
    }
    ASSERT_TRUE(system.flush().is_ok());
    auto &registry = fault::FailpointRegistry::instance();
    registry.disarm_all();
    registry.reset_counters();
    fault::FaultPolicy policy;
    policy.fail_nth = 2;
    policy.max_fires = 1;
    registry.arm(fault::Site::kContainerAppend, policy);
    for (Lba lba = 0; lba < 64; ++lba) {
        ASSERT_TRUE(
            system.write(lba, workload::make_chunk_content(lba)).is_ok());
    }
    EXPECT_FALSE(system.flush().is_ok());
    registry.disarm_all();
    registry.reset_counters();
    ASSERT_TRUE(system.checkpoint().is_ok());
}

TEST(Recovery, ReclaimsStrandedChunksAndMatchesACrashFreeRun)
{
    FidrSystem crashed(journaled_fidr());
    FidrSystem crash_free(journaled_fidr());
    strand_a_chunk(crashed);
    strand_a_chunk(crash_free);

    ASSERT_TRUE(crashed.simulate_crash_and_recover().is_ok());
    // Every chunk the recovered table locates is referenced.
    std::uint64_t located = 0;
    crashed.lba_table().for_each_pbn(
        [&](Pbn pbn, std::uint32_t refcount,
            const std::optional<tables::ChunkLocation> &location) {
            if (!location)
                return;
            ++located;
            EXPECT_GT(refcount, 0u) << "pbn " << pbn;
        });
    EXPECT_GT(located, 0u);

    // Both runs retry the batch; the stranded chunk is dead in both,
    // and every container holds the same live and dead bytes.
    ASSERT_TRUE(crashed.flush().is_ok());
    ASSERT_TRUE(crash_free.flush().is_ok());
    for (Lba lba = 0; lba < 64; ++lba) {
        EXPECT_EQ(crashed.lba_table().pbn_of(lba),
                  crash_free.lba_table().pbn_of(lba));
        EXPECT_EQ(crashed.read(lba).value(),
                  workload::make_chunk_content(lba));
    }
    const tables::ContainerLog &log = crashed.container_log();
    ASSERT_EQ(log.containers(), crash_free.container_log().containers());
    std::uint64_t dead = 0;
    for (std::uint64_t id = 0; id < log.containers(); ++id) {
        const std::uint64_t live =
            crashed.lba_table().container_live_bytes(id);
        const std::uint64_t payload = log.info_of(id)->payload_bytes;
        EXPECT_EQ(live, crash_free.lba_table().container_live_bytes(id));
        EXPECT_EQ(payload,
                  crash_free.container_log().info_of(id)->payload_bytes);
        dead += payload - live;
    }
    EXPECT_GT(dead, 0u);
    Result<FidrSystem::FsckReport> fsck = crashed.fsck();
    ASSERT_TRUE(fsck.is_ok());
    EXPECT_TRUE(fsck.value().clean());
}
#endif  // FIDR_FAULT_ENABLED

TEST(Recovery, DisabledJournalRejectsRecoveryCalls)
{
    FidrConfig config = journaled_fidr();
    config.journal_metadata = false;
    FidrSystem system(config);
    EXPECT_FALSE(system.checkpoint().is_ok());
    EXPECT_FALSE(system.simulate_crash_and_recover().is_ok());
    EXPECT_EQ(system.journal_records(), 0u);
}

}  // namespace
}  // namespace fidr::core
