// Log record model and wire-codec tests: round-trips, metadata-only
// decoding, and corruption/truncation detection (checksums), plus a
// parameterized round-trip fuzz over random records, and the pinned byte
// layout of a ShippedEpoch on disk and on the wire.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "aets/common/rng.h"
#include "aets/log/codec.h"
#include "aets/log/epoch.h"
#include "aets/log/record.h"
#include "aets/log/shipped_epoch.h"
#include "aets/storage/segment_store.h"

namespace aets {
namespace {

LogRecord SampleUpdate() {
  return LogRecord::Dml(LogRecordType::kUpdate, /*lsn=*/42, /*txn=*/7,
                        /*ts=*/99, /*table=*/3, /*row_key=*/-12345,
                        {{0, Value(int64_t{17})},
                         {2, Value(3.5)},
                         {5, Value("hello world")},
                         {6, Value::Null()}},
                        /*prev_txn=*/6, /*row_seq=*/4);
}

// Owning decode of one record: the view decode, materialized.
Result<LogRecord> DecodeOwned(std::string_view data, size_t* offset) {
  auto view = LogCodec::DecodeView(data, offset);
  if (!view.ok()) return view.status();
  return view->Materialize();
}

// Decodes a whole encoded sequence into owning records.
Result<std::vector<LogRecord>> DecodeOwnedAll(std::string_view data) {
  std::vector<LogRecord> records;
  size_t offset = 0;
  while (offset < data.size()) {
    auto rec = DecodeOwned(data, &offset);
    if (!rec.ok()) return rec.status();
    records.push_back(std::move(rec).value());
  }
  return records;
}

TEST(LogRecordTest, TypePredicates) {
  EXPECT_TRUE(SampleUpdate().is_dml());
  EXPECT_FALSE(LogRecord::Begin(1, 2, 3).is_dml());
  EXPECT_FALSE(LogRecord::Commit(1, 2, 3).is_dml());
  EXPECT_FALSE(LogRecord::Heartbeat(1, 2, 3).is_dml());
}

TEST(LogRecordTest, TypeNames) {
  EXPECT_EQ(LogRecordTypeToString(LogRecordType::kBegin), "BEGIN");
  EXPECT_EQ(LogRecordTypeToString(LogRecordType::kCommit), "COMMIT");
  EXPECT_EQ(LogRecordTypeToString(LogRecordType::kInsert), "INSERT");
  EXPECT_EQ(LogRecordTypeToString(LogRecordType::kUpdate), "UPDATE");
  EXPECT_EQ(LogRecordTypeToString(LogRecordType::kDelete), "DELETE");
  EXPECT_EQ(LogRecordTypeToString(LogRecordType::kHeartbeat), "HEARTBEAT");
}

TEST(LogRecordTest, ByteSizeTracksPayload) {
  LogRecord small = LogRecord::Dml(LogRecordType::kInsert, 1, 1, 1, 0, 1,
                                   {{0, Value(int64_t{1})}});
  LogRecord large = LogRecord::Dml(LogRecordType::kInsert, 1, 1, 1, 0, 1,
                                   {{0, Value(std::string(100, 'x'))}});
  EXPECT_GT(large.ByteSize(), small.ByteSize());
  EXPECT_GT(small.ByteSize(), LogRecord::Begin(1, 1, 1).ByteSize());
}

TEST(CodecTest, RoundTripUpdate) {
  std::string buf;
  LogCodec::Encode(SampleUpdate(), &buf);
  size_t offset = 0;
  auto decoded = DecodeOwned(buf, &offset);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, SampleUpdate());
  EXPECT_EQ(offset, buf.size());
}

TEST(CodecTest, RoundTripControlRecords) {
  for (const LogRecord& rec :
       {LogRecord::Begin(1, 2, 3), LogRecord::Commit(9, 8, 7),
        LogRecord::Heartbeat(4, 5, 6)}) {
    std::string buf;
    LogCodec::Encode(rec, &buf);
    size_t offset = 0;
    auto decoded = DecodeOwned(buf, &offset);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, rec);
  }
}

TEST(CodecTest, MetadataDecodeSkipsValuesButAdvances) {
  std::string buf;
  LogCodec::Encode(SampleUpdate(), &buf);
  LogCodec::Encode(LogRecord::Commit(43, 7, 99), &buf);
  size_t offset = 0;
  auto meta = LogCodec::DecodeMetadata(buf, &offset);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->type, LogRecordType::kUpdate);
  EXPECT_EQ(meta->table_id, 3u);
  EXPECT_EQ(meta->row_key, -12345);
  EXPECT_EQ(meta->txn_id, 7u);
  EXPECT_TRUE(meta->value_bytes.empty());  // values not parsed
  EXPECT_EQ(meta->num_values, 4u);         // but the declared count is read
  auto next = LogCodec::DecodeMetadata(buf, &offset);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next->type, LogRecordType::kCommit);
  EXPECT_EQ(offset, buf.size());
}

TEST(CodecTest, DetectsBitFlips) {
  std::string buf;
  LogCodec::Encode(SampleUpdate(), &buf);
  // Flip one byte anywhere in the frame body; the checksum must catch it.
  for (size_t i = 8; i < buf.size(); i += 7) {
    std::string corrupted = buf;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x40);
    size_t offset = 0;
    auto decoded = DecodeOwned(corrupted, &offset);
    EXPECT_FALSE(decoded.ok()) << "flip at " << i << " not detected";
    EXPECT_TRUE(decoded.status().IsCorruption());
  }
}

TEST(CodecTest, DetectsTruncation) {
  std::string buf;
  LogCodec::Encode(SampleUpdate(), &buf);
  for (size_t len : {size_t{0}, size_t{3}, size_t{8}, buf.size() - 1}) {
    std::string truncated = buf.substr(0, len);
    size_t offset = 0;
    auto decoded = DecodeOwned(truncated, &offset);
    EXPECT_FALSE(decoded.ok());
  }
}

TEST(CodecTest, EncodeAllRoundTrips) {
  std::vector<LogRecord> records = {LogRecord::Begin(1, 1, 5), SampleUpdate(),
                                    LogRecord::Commit(2, 1, 5)};
  std::string buf = LogCodec::EncodeAll(records);
  auto decoded = DecodeOwnedAll(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, records);
}

TEST(Crc32cTest, KnownProperties) {
  // Different inputs give different checksums; same input is stable.
  uint32_t a = Crc32c("hello", 5);
  uint32_t b = Crc32c("hellp", 5);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Crc32c("hello", 5));
  EXPECT_NE(Crc32c("", 0), Crc32c("x", 1));
}

// Property: random records of every type round-trip bit-exactly.
class CodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CodecFuzzTest, RandomRecordsRoundTrip) {
  Rng rng(GetParam());
  std::vector<LogRecord> records;
  for (int i = 0; i < 200; ++i) {
    int kind = static_cast<int>(rng.UniformInt(0, 5));
    if (kind <= 1) {
      records.push_back(LogRecord::Begin(rng.Next(), rng.Next(), rng.Next()));
    } else if (kind == 2) {
      records.push_back(LogRecord::Commit(rng.Next(), rng.Next(), rng.Next()));
    } else {
      std::vector<ColumnValue> values;
      int n = static_cast<int>(rng.UniformInt(0, 8));
      for (int v = 0; v < n; ++v) {
        ColumnId col = static_cast<ColumnId>(rng.UniformInt(0, 500));
        switch (rng.UniformInt(0, 3)) {
          case 0:
            values.push_back({col, Value(static_cast<int64_t>(rng.Next()))});
            break;
          case 1:
            values.push_back({col, Value(rng.Gaussian(0, 1e6))});
            break;
          case 2:
            values.push_back({col, Value(rng.AlphaString(0, 64))});
            break;
          default:
            values.push_back({col, Value::Null()});
        }
      }
      auto type = static_cast<LogRecordType>(
          rng.UniformInt(static_cast<int>(LogRecordType::kInsert),
                         static_cast<int>(LogRecordType::kDelete)));
      records.push_back(LogRecord::Dml(
          type, rng.Next(), rng.Next(), rng.Next(),
          static_cast<TableId>(rng.UniformInt(0, 1000)),
          static_cast<int64_t>(rng.Next()), std::move(values), rng.Next(),
          rng.Next()));
    }
  }
  std::string buf = LogCodec::EncodeAll(records);
  auto decoded = DecodeOwnedAll(buf);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*decoded)[i], records[i]) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

TEST(ShippedEpochLayoutTest, SegmentFrameBytesArePinned) {
  // One fixed data epoch as the durable segment store frames it:
  // [crc32c(body)][body_len][body], the body being the ShippedEpoch layout
  // the wire uses too. The bytes were recorded from the segment file before
  // the disk and wire encoders were merged; any drift breaks every segment
  // log already on disk.
  const std::string kPinned =
      "acaaea5cd5000000"  // crc32c, body_len (213)
      "0500000000000000"  // epoch_id
      "0000000000000000"  // heartbeat_ts
      "4d00000000000000"  // max_commit_ts
      "0100000000000000"  // num_txns
      "0300000000000000"  // num_records
      "f501000000000000"  // first_txn
      "f501000000000000"  // last_txn
      "1a195fc095000000"  // payload_crc, payload_len (149)
      "7d8fa11719000000000100000000000000f5010000000000004d00000000000000d0"
      "e234894b000000020200000000000000f5010000000000004d000000000000000300"
      "0000f7ffffffffffffff0000000000000000000000000000000002000000012a0000"
      "00000000000100030200000061620db7e64819000000010300000000000000f50100"
      "00000000004d00000000000000";
  Epoch epoch;
  epoch.epoch_id = 5;
  TxnLog txn;
  txn.txn_id = 501;
  txn.commit_ts = 77;
  txn.records = {LogRecord::Begin(1, 501, 77),
                 LogRecord::Dml(LogRecordType::kInsert, 2, 501, 77, 3, -9,
                                {{0, Value(int64_t{42})}, {1, Value("ab")}}),
                 LogRecord::Commit(3, 501, 77)};
  epoch.txns.push_back(txn);
  const ShippedEpoch shipped = EncodeEpoch(epoch);

  const std::string dir =
      std::string(::testing::TempDir()) + "/pinned_segment_frame";
  std::filesystem::remove_all(dir);
  {
    SegmentStoreOptions options;
    options.dir = dir;
    auto store = SegmentStore::Open(options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->Append(shipped).ok());
  }
  std::ifstream in(dir + "/seg-0000000000000005.log", std::ios::binary);
  const std::string file((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_EQ(Hex(file), kPinned);

  // The wire body is the same bytes, and decodes back to the epoch.
  std::string body;
  EncodeEpochBody(shipped, &body);
  EXPECT_EQ(Hex(body), kPinned.substr(16));
  Result<ShippedEpoch> decoded = DecodeEpochBody(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->epoch_id, 5u);
  EXPECT_EQ(decoded->max_commit_ts, 77u);
  EXPECT_EQ(decoded->first_txn, 501u);
  EXPECT_EQ(*decoded->payload, *shipped.payload);
  EXPECT_TRUE(decoded->PayloadIntact());
  std::filesystem::remove_all(dir);
}

TEST(ShippedEpochLayoutTest, DecodeRejectsEveryLengthMismatch) {
  std::string body;
  EncodeEpochBody(MakeHeartbeatEpoch(3, 40), &body);
  ASSERT_TRUE(DecodeEpochBody(body).ok());
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_TRUE(DecodeEpochBody(std::string_view(body).substr(0, cut))
                    .status()
                    .IsCorruption())
        << "cut at " << cut;
  }
  body.push_back('x');  // a trailing byte the declared payload_len disowns
  EXPECT_TRUE(DecodeEpochBody(body).status().IsCorruption());
}

}  // namespace
}  // namespace aets
