// Container tests: binary container, record files (incl. sharding and the
// pseudo-shuffle buffer semantics), indexed tar (incl. ustar validity and
// random access), byte accounting.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <string>

#include "core/env.hpp"
#include "core/rng.hpp"
#include "data/container.hpp"

namespace d500 {
namespace {

std::vector<Record> make_records(int n, std::size_t bytes, std::uint64_t seed,
                                 bool fixed_size = true) {
  Rng rng(seed);
  std::vector<Record> out;
  for (int i = 0; i < n; ++i) {
    Record r;
    const std::size_t sz = fixed_size ? bytes : bytes + rng.below(bytes);
    r.payload.resize(sz);
    for (auto& b : r.payload) b = static_cast<std::uint8_t>(rng.below(256));
    r.label = i % 7;
    out.push_back(std::move(r));
  }
  return out;
}

class ContainerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test and per process: ctest runs each case as its
    // own process, possibly several copies at once, and a shared directory
    // would be torn down under a sibling.
    dir_ = scratch_dir() + "/container_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           "_" + std::to_string(getpid());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(ContainerTest, BinaryRoundTrip) {
  const auto records = make_records(20, 64, 1);
  const std::string path = dir_ + "/t.bin";
  write_binary_container(path, records);
  BinaryContainerReader reader(path);
  ASSERT_EQ(reader.size(), 20);
  ASSERT_EQ(reader.record_bytes(), 64);
  for (int i = 0; i < 20; ++i) {
    const auto p = reader.payload(i);
    ASSERT_TRUE(std::equal(p.begin(), p.end(), records[i].payload.begin()));
    EXPECT_EQ(reader.label(i), records[i].label);
  }
}

TEST_F(ContainerTest, BinaryRejectsVariableSizes) {
  auto records = make_records(5, 32, 2, /*fixed_size=*/false);
  records[0].payload.resize(7);
  records[1].payload.resize(9);
  EXPECT_THROW(write_binary_container(dir_ + "/bad.bin", records), Error);
}

TEST_F(ContainerTest, RecordFileSequentialOrder) {
  const auto records = make_records(10, 16, 3, /*fixed_size=*/false);
  const std::string path = dir_ + "/t.rec";
  write_record_file(path, records);
  RecordFileReader reader({path}, /*buffer=*/0, /*seed=*/1);
  EXPECT_EQ(reader.size(), 10);
  for (int i = 0; i < 10; ++i) {
    const Record r = reader.next();
    EXPECT_EQ(r.payload, records[static_cast<std::size_t>(i)].payload);
    EXPECT_EQ(r.label, records[static_cast<std::size_t>(i)].label);
  }
  // Wraps to the start (stream semantics).
  EXPECT_EQ(reader.next().payload, records[0].payload);
  EXPECT_GT(reader.bytes_read(), 0u);
}

TEST_F(ContainerTest, RecordFilePseudoShufflePermutesWithinBuffer) {
  const auto records = make_records(64, 8, 4);
  const std::string path = dir_ + "/t2.rec";
  write_record_file(path, records);
  RecordFileReader reader({path}, /*buffer=*/64, /*seed=*/5);
  std::set<std::vector<std::uint8_t>> seen;
  bool out_of_order = false;
  for (int i = 0; i < 64; ++i) {
    const Record r = reader.next();
    if (r.payload != records[static_cast<std::size_t>(i)].payload)
      out_of_order = true;
    seen.insert(r.payload);
  }
  EXPECT_TRUE(out_of_order) << "shuffle buffer produced identity order";
  EXPECT_EQ(seen.size(), 64u) << "shuffle must be a permutation";
}

TEST_F(ContainerTest, RecordFileChunkedShuffleIsLocal) {
  // With a buffer much smaller than the file, early outputs can only come
  // from the first chunk — the reduced stochasticity the paper describes.
  const auto records = make_records(100, 8, 6);
  const std::string path = dir_ + "/t3.rec";
  write_record_file(path, records);
  RecordFileReader reader({path}, /*buffer=*/10, /*seed=*/7);
  for (int i = 0; i < 10; ++i) {
    const Record r = reader.next();
    const auto pos = std::find_if(records.begin(), records.end(),
                                  [&](const Record& x) {
                                    return x.payload == r.payload;
                                  }) -
                     records.begin();
    EXPECT_LT(pos, 10) << "chunked pseudo-shuffle leaked a later record";
  }
}

TEST_F(ContainerTest, ShardedRecordFilesCoverAllRecords) {
  const auto records = make_records(23, 8, 8);
  const auto shards = write_sharded_record_files(dir_ + "/sh", records, 4);
  ASSERT_EQ(shards.size(), 4u);
  RecordFileReader reader(shards, /*buffer=*/0, /*seed=*/1);
  EXPECT_EQ(reader.size(), 23);
  std::set<std::vector<std::uint8_t>> seen;
  for (int i = 0; i < 23; ++i) seen.insert(reader.next().payload);
  EXPECT_EQ(seen.size(), 23u);
}

TEST_F(ContainerTest, IndexedTarRandomAccess) {
  const auto records = make_records(15, 40, 9, /*fixed_size=*/false);
  const std::string path = dir_ + "/t.tar";
  write_indexed_tar(path, records);
  IndexedTarReader reader(path);
  ASSERT_EQ(reader.size(), 15);
  // Random-order access.
  Rng rng(10);
  for (int k = 0; k < 30; ++k) {
    const auto i = static_cast<std::int64_t>(rng.below(15));
    const Record r = reader.read(i);
    EXPECT_EQ(r.payload, records[static_cast<std::size_t>(i)].payload);
    EXPECT_EQ(r.label, records[static_cast<std::size_t>(i)].label);
  }
  EXPECT_EQ(reader.bytes_read(),
            [&] {
              std::uint64_t total = 0;
              Rng rng2(10);
              for (int k = 0; k < 30; ++k)
                total += records[rng2.below(15)].payload.size();
              return total;
            }());
}

TEST_F(ContainerTest, TarIsValidUstar) {
  const auto records = make_records(7, 100, 11, /*fixed_size=*/false);
  const std::string path = dir_ + "/v.tar";
  write_indexed_tar(path, records);
  EXPECT_TRUE(validate_ustar(path, 7));
  EXPECT_FALSE(validate_ustar(path, 8));
}

TEST_F(ContainerTest, TarSurvivesSystemTarListing) {
  // Cross-check with the system tar tool when available.
  const auto records = make_records(3, 50, 12);
  const std::string path = dir_ + "/x.tar";
  write_indexed_tar(path, records);
  if (std::system("tar --version > /dev/null 2>&1") != 0)
    GTEST_SKIP() << "no system tar";
  const std::string cmd = "tar -tf '" + path + "' > '" + dir_ + "/list' 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << "tar -tf failed on " << path;
  std::ifstream list(dir_ + "/list");
  std::string line;
  int members = 0;
  while (std::getline(list, line))
    if (!line.empty()) ++members;
  EXPECT_EQ(members, 3);
}

TEST_F(ContainerTest, MissingFilesThrow) {
  EXPECT_THROW(BinaryContainerReader(dir_ + "/nope.bin"), Error);
  EXPECT_THROW(RecordFileReader({dir_ + "/nope.rec"}, 0, 1), Error);
  EXPECT_THROW(IndexedTarReader(dir_ + "/nope.tar"), Error);
}

}  // namespace
}  // namespace d500
