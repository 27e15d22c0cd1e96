#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "datagen/presets.h"
#include "datagen/workload.h"
#include "graph/serialization.h"
#include "gtest/gtest.h"
#include "harness/database.h"
#include "storage_test_util.h"
#include "tests/test_util.h"

namespace dsks {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(SerializationTest, RoundTripPreservesEverything) {
  auto data = testing::MakeRandomDataset(123, 120, 300, 25, 4);
  const std::string path = TempPath("roundtrip.dsks");
  ASSERT_TRUE(SaveDataset(*data.network, *data.objects, path).ok());

  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objs;
  ASSERT_TRUE(LoadDataset(path, &net, &objs).ok());

  ASSERT_EQ(net->num_nodes(), data.network->num_nodes());
  ASSERT_EQ(net->num_edges(), data.network->num_edges());
  for (NodeId v = 0; v < net->num_nodes(); ++v) {
    EXPECT_EQ(net->node(v).loc, data.network->node(v).loc);
  }
  for (EdgeId e = 0; e < net->num_edges(); ++e) {
    EXPECT_EQ(net->edge(e).n1, data.network->edge(e).n1);
    EXPECT_EQ(net->edge(e).n2, data.network->edge(e).n2);
    EXPECT_DOUBLE_EQ(net->edge(e).weight, data.network->edge(e).weight);
    EXPECT_DOUBLE_EQ(net->edge(e).length, data.network->edge(e).length);
  }
  ASSERT_EQ(objs->size(), data.objects->size());
  for (ObjectId id = 0; id < objs->size(); ++id) {
    const auto& a = objs->object(id);
    const auto& b = data.objects->object(id);
    EXPECT_EQ(a.edge, b.edge);
    EXPECT_DOUBLE_EQ(a.offset, b.offset);
    EXPECT_EQ(a.terms, b.terms);
  }
  std::remove(path.c_str());
}

TEST(SerializationTest, MissingFileIsNotFound) {
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objs;
  EXPECT_TRUE(
      LoadDataset("/nonexistent/nope.dsks", &net, &objs).IsNotFound());
}

TEST(SerializationTest, BadMagicIsCorruption) {
  const std::string path = TempPath("badmagic.dsks");
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKJUNKJUNK";
  }
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objs;
  EXPECT_TRUE(LoadDataset(path, &net, &objs).IsCorruption());
  std::remove(path.c_str());
}

TEST(SerializationTest, TruncatedFileIsCorruption) {
  auto data = testing::MakeRandomDataset(321, 60, 80, 15, 3);
  const std::string full = TempPath("full.dsks");
  ASSERT_TRUE(SaveDataset(*data.network, *data.objects, full).ok());

  // Truncate at several byte positions; every one must fail cleanly.
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  for (size_t cut : {5ul, 20ul, bytes.size() / 2, bytes.size() - 3}) {
    const std::string path = TempPath("truncated.dsks");
    {
      std::ofstream out(path, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(cut));
    }
    std::unique_ptr<RoadNetwork> net;
    std::unique_ptr<ObjectSet> objs;
    const Status s = LoadDataset(path, &net, &objs);
    EXPECT_TRUE(s.IsCorruption()) << "cut at " << cut << ": " << s.ToString();
    std::remove(path.c_str());
  }
  std::remove(full.c_str());
}

TEST(SerializationTest, WrongVersionIsCorruption) {
  auto data = testing::MakeRandomDataset(322, 40, 50, 10, 3);
  const std::string path = TempPath("badversion.dsks");
  ASSERT_TRUE(SaveDataset(*data.network, *data.objects, path).ok());
  {
    // The u32 version lives right after the 4-byte magic.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(4);
    const uint32_t bogus = 9999;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objs;
  const Status s = LoadDataset(path, &net, &objs);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::remove(path.c_str());
}

TEST(SerializationTest, ImplausibleCountsAreCorruptionNotBadAlloc) {
  // A flipped bit in a count field must fail cleanly, not attempt a
  // multi-gigabyte allocation. The node loop reads coordinates per node,
  // so a huge count lands in "truncated node table"; the term-count guard
  // catches the per-object case explicitly.
  auto data = testing::MakeRandomDataset(323, 40, 50, 10, 3);
  const std::string full = TempPath("counts.dsks");
  ASSERT_TRUE(SaveDataset(*data.network, *data.objects, full).ok());
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // Node count (u64 at offset 8) blown up to 2^40.
  std::string blown = bytes;
  const uint64_t huge = uint64_t{1} << 40;
  std::memcpy(&blown[8], &huge, sizeof(huge));
  const std::string path = TempPath("hugecount.dsks");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(blown.data(), static_cast<std::streamsize>(blown.size()));
  }
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objs;
  const Status s = LoadDataset(path, &net, &objs);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::remove(path.c_str());
  std::remove(full.c_str());
}

TEST(SerializationTest, EdgeReferencingMissingNodeIsCorruption) {
  // Hand-build a file whose edge table points at a node that is not in
  // the node table: structurally complete, semantically corrupt.
  const std::string path = TempPath("badedge.dsks");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("DSKS", 4);
    const uint32_t version = 1;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    const uint64_t num_nodes = 2;
    out.write(reinterpret_cast<const char*>(&num_nodes), sizeof(num_nodes));
    const double coords[4] = {0.0, 0.0, 1.0, 0.0};
    out.write(reinterpret_cast<const char*>(coords), sizeof(coords));
    const uint64_t num_edges = 1;
    out.write(reinterpret_cast<const char*>(&num_edges), sizeof(num_edges));
    const uint32_t n1 = 0;
    const uint32_t n2 = 57;  // no such node
    const double weight = 1.0;
    out.write(reinterpret_cast<const char*>(&n1), sizeof(n1));
    out.write(reinterpret_cast<const char*>(&n2), sizeof(n2));
    out.write(reinterpret_cast<const char*>(&weight), sizeof(weight));
  }
  std::unique_ptr<RoadNetwork> net;
  std::unique_ptr<ObjectSet> objs;
  const Status s = LoadDataset(path, &net, &objs);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  std::remove(path.c_str());
}

TEST(SerializationTest, ShortWriteToUnwritablePathFailsCleanly) {
  auto data = testing::MakeRandomDataset(324, 40, 50, 10, 3);
  const Status s =
      SaveDataset(*data.network, *data.objects, "/nonexistent/dir/x.dsks");
  EXPECT_FALSE(s.ok());
}

TEST(SerializationTest, SaveRequiresFinalizedDataset) {
  RoadNetwork net;
  net.AddNode({0, 0});
  net.AddNode({1, 0});
  ObjectSet objs(&net);
  EXPECT_TRUE(SaveDataset(net, objs, TempPath("x.dsks")).IsInvalidArgument());
}

// A Database assembled from a saved and reloaded dataset answers exactly
// like the Database that generated it: same SK ids and distance bits, same
// diversified ids and objective bits, on both disk backends.
TEST(LoadedDatabaseTest, AnswersBitIdenticalToGeneratingDatabase) {
  DatasetConfig config = ScalePreset(PresetSYN(), 0.03);
  config.objects.keywords_per_object = 6;
  const std::string path = TempPath("loaded_db.dsks");
  WorkloadConfig wc;
  wc.num_queries = 12;
  wc.num_keywords = 2;
  wc.seed = 23;
  IndexOptions index;
  index.kind = IndexKind::kSIF;

  for (const bool file : {false, true}) {
    SCOPED_TRACE(file ? "file backend" : "sim backend");
    const DiskOptions generated_disk =
        file ? testing::FileDiskOptions("generated") : DiskOptions{};
    const DiskOptions loaded_disk =
        file ? testing::FileDiskOptions("loaded") : DiskOptions{};
    {
      Database generated(config, generated_disk);
      ASSERT_TRUE(
          SaveDataset(generated.network(), generated.objects(), path).ok());
      std::unique_ptr<RoadNetwork> net;
      std::unique_ptr<ObjectSet> objects;
      ASSERT_TRUE(LoadDataset(path, &net, &objects).ok());
      Database loaded(std::move(net), std::move(objects), loaded_disk);
      for (Database* db : {&generated, &loaded}) {
        db->BuildIndex(index);
        db->PrepareForQueries();
      }

      const Workload wl = GenerateWorkload(generated.objects(),
                                           generated.term_stats(), wc);
      size_t hits = 0;
      for (const WorkloadQuery& wq : wl.queries) {
        const std::vector<SkResult> want = generated.RunSkQuery(wq.sk, wq.edge);
        const std::vector<SkResult> got = loaded.RunSkQuery(wq.sk, wq.edge);
        ASSERT_EQ(got.size(), want.size());
        hits += want.size();
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id);
          EXPECT_EQ(std::bit_cast<uint64_t>(got[i].dist),
                    std::bit_cast<uint64_t>(want[i].dist));
        }
        DivQuery dq;
        dq.sk = wq.sk;
        dq.k = 6;
        dq.lambda = 0.8;
        for (const bool use_com : {false, true}) {
          const DivSearchOutput a = generated.RunDivQuery(dq, wq.edge, use_com);
          const DivSearchOutput b = loaded.RunDivQuery(dq, wq.edge, use_com);
          ASSERT_EQ(b.selected.size(), a.selected.size());
          for (size_t i = 0; i < a.selected.size(); ++i) {
            EXPECT_EQ(b.selected[i].id, a.selected[i].id);
          }
          EXPECT_EQ(std::bit_cast<uint64_t>(b.objective),
                    std::bit_cast<uint64_t>(a.objective));
        }
      }
      EXPECT_GT(hits, 0u) << "the workload exercised no results";
    }
    testing::RemoveDiskFiles(generated_disk);
    testing::RemoveDiskFiles(loaded_disk);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dsks
