// Tests for the online query subsystem (src/serve/): JSON round-trips,
// snapshot → ReadModel parity (v1 and v2/pruned formats), the batch
// renderer, and full HTTP round trips against a
// ModelServer on an ephemeral port — including the acceptance contract
// that served posteriors are byte-consistent with MlpResult.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "core/model.h"
#include "io/model_snapshot.h"
#include "obs/trace.h"
#include "serve/http_server.h"
#include "serve/json.h"
#include "serve/model_server.h"
#include "serve/read_model.h"
#include "serve/request_batcher.h"
#include "stream/delta_batch.h"
#include "stream/delta_ingest.h"
#include "synth/world_generator.h"

namespace mlp {
namespace serve {
namespace {

// ------------------------------------------------------------------- json

TEST(JsonTest, WriterEmitsValidNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("Austin \"ATX\", TX\n");
  w.Key("ids");
  w.BeginArray();
  w.Int(1);
  w.Int(2);
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("p");
  w.Double(0.25);
  w.Key("flag");
  w.Bool(true);
  w.Key("none");
  w.Null();
  w.EndObject();
  w.EndObject();
  const std::string text = w.str();
  EXPECT_EQ(text,
            "{\"name\":\"Austin \\\"ATX\\\", TX\\n\",\"ids\":[1,2],"
            "\"nested\":{\"p\":0.25,\"flag\":true,\"none\":null}}");
  Result<JsonValue> parsed = ParseJson(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("name")->string_value, "Austin \"ATX\", TX\n");
  EXPECT_EQ(parsed->Find("ids")->items.size(), 2u);
  EXPECT_EQ(parsed->Find("nested")->Find("p")->AsDouble(), 0.25);
}

TEST(JsonTest, DoubleRenderingRoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-17, 123456789.123456789, -0.0,
                   0.9999999999999999}) {
    std::string text = JsonDouble(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

/// The printf formulation JsonDouble must reproduce byte for byte: the
/// shortest of %.15g/%.16g/%.17g that strtod parses back to `v`.
std::string PrintfJsonDouble(double v) {
  char buf[64];
  for (int precision : {15, 16, 17}) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) return buf;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

TEST(JsonTest, DoubleRenderingIsByteIdenticalToPrintf) {
  const double eps = std::numeric_limits<double>::epsilon();
  const double min_normal = std::numeric_limits<double>::min();
  const double min_sub = std::numeric_limits<double>::denorm_min();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 2.0, 10.0, 100.0, 12345.0, -987654321.0,
      1.0 - eps, 1.0 - eps / 2, 1.0 + eps, 0.5, 0.1, 1.0 / 3.0, 2.0 / 3.0,
      min_normal, -min_normal, min_sub, -min_sub, min_normal - min_sub,
      min_sub * 12345, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), inf, -inf,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      // %g switches to exponent notation below 1e-4 and at 10^precision.
      1e-4, 9.9999999999999991e-5, 1e-5, 1.0000000000000001e-5, 1e15,
      1e15 - 1, 1e15 + 1, 1e16, 1e16 - 2, 1e16 + 2, 1e17, 1e17 - 16,
      1e17 + 16, 123456789012345678.0, 9007199254740993.0,
      9007199254740992.0};
  for (double base : {1e-5, 1e15, 1e16, 1e17}) {
    double below = base;
    double above = base;
    for (int i = 0; i < 8; ++i) {
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, inf);
      values.push_back(below);
      values.push_back(above);
    }
  }
  for (int i = -1000; i <= 1000; ++i) values.push_back(i);
  // One million seeded draws: arbitrary bit patterns (every exponent,
  // subnormals, NaN payloads) and probabilities like the ones served.
  Pcg32 rng(20261017, 7);
  for (int i = 0; i < 500000; ++i) {
    const uint64_t bits =
        (static_cast<uint64_t>(rng.NextU32()) << 32) | rng.NextU32();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    values.push_back(v);
    values.push_back(rng.NextDouble());
  }
  int mismatches = 0;
  for (double v : values) {
    const std::string fast = JsonDouble(v);
    const std::string reference = PrintfJsonDouble(v);
    if (fast != reference && ++mismatches <= 10) {
      ADD_FAILURE() << "JsonDouble " << fast << " != printf " << reference;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size() << " values";
}

TEST(JsonTest, ParserHandlesEscapesAndNumbers) {
  Result<JsonValue> v = ParseJson(" { \"a\" : [ -1.5e2 , \"\\u0041\" ] } ");
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items.size(), 2u);
  EXPECT_EQ(a->items[0].AsDouble(), -150.0);
  EXPECT_EQ(a->items[1].string_value, "A");
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,2,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  // Nesting bomb stays bounded instead of overflowing the stack.
  EXPECT_FALSE(ParseJson(std::string(5000, '[')).ok());
}

// -------------------------------------------------- fit/snapshot fixtures

synth::SyntheticWorld TestWorld(int num_users, uint64_t seed) {
  synth::WorldConfig config;
  config.num_users = num_users;
  config.seed = seed;
  Result<synth::SyntheticWorld> world = synth::GenerateWorld(config);
  EXPECT_TRUE(world.ok());
  return std::move(*world);
}

struct FitHarness {
  explicit FitHarness(const synth::SyntheticWorld& world) {
    input.gazetteer = world.gazetteer.get();
    input.graph = world.graph.get();
    input.distances = world.distances.get();
    referents = world.vocab->ReferentTable();
    input.venue_referents = &referents;
    input.observed_home.reserve(world.graph->num_users());
    for (graph::UserId u = 0; u < world.graph->num_users(); ++u) {
      input.observed_home.push_back(world.graph->user(u).registered_city);
    }
  }
  core::ModelInput input;
  std::vector<std::vector<geo::CityId>> referents;
};

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Fits a small model and returns its snapshot (written+reloaded when
/// `path` is non-empty, so the on-disk format is part of the loop).
io::ModelSnapshot FitSnapshot(const synth::SyntheticWorld& world,
                              const core::MlpConfig& config,
                              const std::string& path) {
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<core::MlpResult> result = core::MlpModel(config).Fit(harness.input, opts);
  EXPECT_TRUE(result.ok());
  io::ModelSnapshot snapshot =
      io::MakeModelSnapshot(harness.input, checkpoint, *result);
  if (!path.empty()) {
    EXPECT_TRUE(io::SaveModelSnapshot(path, snapshot).ok());
    Result<io::ModelSnapshot> loaded = io::LoadModelSnapshot(path);
    EXPECT_TRUE(loaded.ok());
    return std::move(*loaded);
  }
  return snapshot;
}

core::MlpConfig SmallConfig() {
  core::MlpConfig config;
  config.burn_in_iterations = 3;
  config.sampling_iterations = 3;
  config.seed = 99;
  return config;
}

/// Asserts the acceptance contract: every user's served answer reproduces
/// MlpResult exactly — same argmax home, same top-K cities, and posterior
/// probabilities equal to the last bit.
void ExpectServedParity(const ReadModel& model, const core::MlpResult& result,
                        int top_k) {
  ASSERT_EQ(model.num_users(), static_cast<int>(result.home.size()));
  for (graph::UserId u = 0; u < model.num_users(); ++u) {
    UserAnswer answer;
    ASSERT_TRUE(model.GetUser(u, &answer));
    EXPECT_EQ(answer.home, result.home[u]) << "user " << u;
    const auto& entries = result.profiles[u].entries();
    int expected = static_cast<int>(entries.size());
    if (top_k > 0) expected = std::min(expected, top_k);
    ASSERT_EQ(answer.entry_count, expected) << "user " << u;
    for (int i = 0; i < expected; ++i) {
      EXPECT_EQ(answer.entries[i].city, entries[i].first) << "user " << u;
      EXPECT_EQ(answer.entries[i].prob, entries[i].second) << "user " << u;
    }
  }
}

// -------------------------------------------------------- read model parity

TEST(ReadModelTest, V2SnapshotServedHomesMatchMlpResult) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  io::ModelSnapshot snapshot =
      FitSnapshot(world, SmallConfig(), TempPath("serve_v2.snap"));
  ReadModelOptions options;
  options.top_k = 5;
  Result<ReadModel> model = ReadModel::Build(snapshot, *world.graph,
                                             world.gazetteer.get(), options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectServedParity(*model, snapshot.result, 5);
}

TEST(ReadModelTest, PrunedV2SnapshotServedHomesMatchMlpResult) {
  synth::SyntheticWorld world = TestWorld(220, 8);
  core::MlpConfig config = SmallConfig();
  config.burn_in_iterations = 6;
  config.prune_floor = 0.2;  // aggressive, so pruning definitely fires
  config.prune_patience = 1;
  io::ModelSnapshot snapshot =
      FitSnapshot(world, config, TempPath("serve_v2_pruned.snap"));
  // The point of this fixture is a snapshot whose arena is compacted.
  ASSERT_FALSE(snapshot.checkpoint.activation.history.empty())
      << "pruning never fired — floor/patience need retuning";
  Result<ReadModel> model =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectServedParity(*model, snapshot.result, 10);
}

TEST(ReadModelTest, V1SnapshotServedHomesMatchMlpResult) {
  synth::SyntheticWorld world = TestWorld(220, 9);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  const std::string path = TempPath("serve_v1.snap");
  ASSERT_TRUE(io::SaveModelSnapshotV1(path, snapshot).ok());
  Result<io::ModelSnapshot> loaded = io::LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  Result<ReadModel> model =
      ReadModel::Build(*loaded, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectServedParity(*model, snapshot.result, 10);
}

TEST(ReadModelTest, EdgeLookupsMatchStoredExplanations) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  Result<ReadModel> model =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(model.ok());
  ASSERT_GT(model->num_edges(), 0);
  for (graph::EdgeId s = 0; s < model->num_edges(); ++s) {
    const graph::FollowingEdge& edge = world.graph->following(s);
    EdgeAnswer answer;
    ASSERT_TRUE(model->GetEdge(edge.follower, edge.friend_user, &answer));
    EXPECT_EQ(answer.src, edge.follower);
    EXPECT_EQ(answer.dst, edge.friend_user);
    EXPECT_EQ(answer.x, snapshot.result.following[answer.edge].x);
    EXPECT_EQ(answer.y, snapshot.result.following[answer.edge].y);
    EXPECT_EQ(answer.noise_prob,
              snapshot.result.following[answer.edge].noise_prob);
    EXPECT_GE(answer.x_support, 0.0);
    EXPECT_LE(answer.x_support, 1.0);
    EXPECT_GE(answer.y_support, 0.0);
    EXPECT_LE(answer.y_support, 1.0);
  }
  EdgeAnswer missing;
  EXPECT_FALSE(model->GetEdge(-1, 0, &missing));
  UserAnswer no_user;
  EXPECT_FALSE(model->GetUser(model->num_users(), &no_user));
}

TEST(ReadModelTest, RejectsMismatchedGraph) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  synth::SyntheticWorld other = TestWorld(150, 11);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  Result<ReadModel> model =
      ReadModel::Build(snapshot, *other.graph, other.gazetteer.get());
  EXPECT_FALSE(model.ok());
}

// ------------------------------------------------------ mmap-backed parity

/// Packs the snapshot at `path` with a serve section rendered from the
/// in-memory ReadModel, maps it back, and asserts the mapped serving
/// surface (UserJson / EdgeJson / FindEdge / statsz metadata) is
/// byte-identical to the in-memory one — the out-of-core contract.
void ExpectMmapParity(const std::string& path,
                      const synth::SyntheticWorld& world,
                      const io::ModelSnapshot& snapshot) {
  Result<ReadModel> mem =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(mem.ok()) << mem.status().ToString();
  Status packed = mem->AppendServeSection(path);
  ASSERT_TRUE(packed.ok()) << packed.ToString();
  // Packing must not disturb the core payload: the classic loader still
  // accepts the file (it tolerates the trailing section).
  EXPECT_TRUE(io::LoadModelSnapshot(path).ok());

  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->mmap_backed());
  EXPECT_FALSE(mem->mmap_backed());

  // /statsz metadata parity.
  ASSERT_EQ(mapped->num_users(), mem->num_users());
  ASSERT_EQ(mapped->num_edges(), mem->num_edges());
  EXPECT_EQ(mapped->alpha(), mem->alpha());
  EXPECT_EQ(mapped->beta(), mem->beta());
  EXPECT_EQ(mapped->fit_complete(), mem->fit_complete());
  EXPECT_EQ(mapped->active_candidate_slots(), mem->active_candidate_slots());
  EXPECT_EQ(mapped->candidate_layout_version(),
            mem->candidate_layout_version());
  EXPECT_EQ(mapped->mean_profile_entries(), mem->mean_profile_entries());

  // Rendered responses, byte for byte, across every user and edge.
  for (graph::UserId u = 0; u < mem->num_users(); ++u) {
    ASSERT_EQ(mapped->UserJson(u), mem->UserJson(u)) << "user " << u;
  }
  for (graph::EdgeId s = 0; s < mem->num_edges(); ++s) {
    ASSERT_EQ(mapped->EdgeJson(s), mem->EdgeJson(s)) << "edge " << s;
  }
  EXPECT_EQ(mapped->UserJson(-1), std::string_view());
  EXPECT_EQ(mapped->UserJson(mem->num_users()), std::string_view());
  EXPECT_EQ(mapped->EdgeJson(mem->num_edges()), std::string_view());

  // Edge-index agreement, present and absent keys alike — the binary
  // search over the sorted section table must resolve duplicates the
  // same way as the in-memory hash map.
  for (graph::EdgeId s = 0; s < mem->num_edges(); ++s) {
    const graph::FollowingEdge& edge = world.graph->following(s);
    EXPECT_EQ(mapped->FindEdge(edge.follower, edge.friend_user),
              mem->FindEdge(edge.follower, edge.friend_user))
        << "edge " << s;
  }
  const graph::UserId absent = mem->num_users() + 7;
  EXPECT_EQ(mapped->FindEdge(0, absent), -1);
  EXPECT_EQ(mapped->FindEdge(0, absent), mem->FindEdge(0, absent));

  // Struct-path lookups are in-memory-only: the section carries rendered
  // responses, not the column arrays behind UserAnswer/EdgeAnswer.
  UserAnswer user_answer;
  EXPECT_FALSE(mapped->GetUser(0, &user_answer));
  graph::UserId src = graph::kInvalidUser;
  graph::UserId dst = graph::kInvalidUser;
  if (mapped->ExampleEdge(&src, &dst)) {
    EXPECT_EQ(mapped->FindEdge(src, dst), mem->FindEdge(src, dst));
    EdgeAnswer edge_answer;
    EXPECT_FALSE(mapped->GetEdge(src, dst, &edge_answer));
  }
}

TEST(ReadModelMmapTest, V2PackedSnapshotServesByteIdenticalResponses) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  const std::string path = TempPath("mmap_v2.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), path);
  ExpectMmapParity(path, world, snapshot);
}

TEST(ReadModelMmapTest, V1PackedSnapshotServesByteIdenticalResponses) {
  synth::SyntheticWorld world = TestWorld(220, 9);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  const std::string path = TempPath("mmap_v1.snap");
  ASSERT_TRUE(io::SaveModelSnapshotV1(path, snapshot).ok());
  Result<io::ModelSnapshot> loaded = io::LoadModelSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  ExpectMmapParity(path, world, *loaded);
}

TEST(ReadModelMmapTest, PrunedSnapshotServesByteIdenticalResponses) {
  synth::SyntheticWorld world = TestWorld(220, 8);
  core::MlpConfig config = SmallConfig();
  config.burn_in_iterations = 6;
  config.prune_floor = 0.2;
  config.prune_patience = 1;
  const std::string path = TempPath("mmap_pruned.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, config, path);
  ASSERT_FALSE(snapshot.checkpoint.activation.history.empty())
      << "pruning never fired — floor/patience need retuning";
  ExpectMmapParity(path, world, snapshot);
}

TEST(ReadModelMmapTest, RepackingIsIdempotent) {
  synth::SyntheticWorld world = TestWorld(150, 12);
  const std::string path = TempPath("mmap_repack.snap");
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), path);
  Result<ReadModel> mem =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(mem->AppendServeSection(path).ok());
  // A second pack replaces the section in place instead of stacking a
  // new one after it.
  ASSERT_TRUE(mem->AppendServeSection(path).ok());
  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->UserJson(0), mem->UserJson(0));
}

TEST(ReadModelMmapTest, UnpackedSnapshotReportsMissingSection) {
  synth::SyntheticWorld world = TestWorld(150, 13);
  const std::string path = TempPath("mmap_unpacked.snap");
  FitSnapshot(world, SmallConfig(), path);
  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_FALSE(mapped.ok());
  EXPECT_NE(mapped.status().ToString().find("pack"), std::string::npos)
      << mapped.status().ToString();
}

/// A packed snapshot's bytes plus where its serve section's header fields
/// sit (layout: src/io/README.md — magic, version, endian marker, header
/// checksum, then one 8-byte slot per field).
struct PackedFile {
  std::string bytes;
  uint64_t fields = 0;  // file offset of field slot 0

  uint64_t Get(int slot) const {
    uint64_t v;
    std::memcpy(&v, bytes.data() + fields + slot * 8, sizeof(v));
    return v;
  }
  void Set(int slot, uint64_t v) {
    std::memcpy(&bytes[fields + slot * 8], &v, sizeof(v));
  }
  void SetAt(uint64_t offset, int64_t v) {
    std::memcpy(&bytes[offset], &v, sizeof(v));
  }
  int64_t GetAt(uint64_t offset) const {
    int64_t v;
    std::memcpy(&v, bytes.data() + offset, sizeof(v));
    return v;
  }
  /// Recomputes the header checksum over the 18 field slots, as a forger
  /// who knows the format would.
  void Reseal() {
    Fnv1a64 checksum;
    checksum.Bytes(bytes.data() + fields, 18 * 8);
    std::memcpy(&bytes[fields - 8], &checksum.hash, sizeof(checksum.hash));
  }
};

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

PackedFile PackForCorruption(const std::string& path, uint64_t seed) {
  synth::SyntheticWorld world = TestWorld(150, seed);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), path);
  Result<ReadModel> mem =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  EXPECT_TRUE(mem.ok());
  EXPECT_TRUE(mem->AppendServeSection(path).ok());
  PackedFile packed;
  packed.bytes = FileBytes(path);
  Result<io::SnapshotHeaderInfo> info = io::ParseSnapshotHeader(
      reinterpret_cast<const uint8_t*>(packed.bytes.data()),
      packed.bytes.size());
  EXPECT_TRUE(info.ok());
  packed.fields = (info->core_end + 63) / 64 * 64 + 24;
  return packed;
}

void ExpectMapRejects(const PackedFile& packed, const std::string& path) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(packed.bytes.data(),
              static_cast<std::streamsize>(packed.bytes.size()));
  }
  Result<ReadModel> mapped = ReadModel::MapServeSection(path, nullptr);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError)
      << mapped.status().ToString();
}

// Field slots, in header order (read_model.cc's ServeField).
constexpr int kSlotNumUsers = 0;
constexpr int kSlotNumEdges = 1;
constexpr int kSlotUserOffsetsOff = 10;
constexpr int kSlotEdgeIdsOff = 13;

TEST(ReadModelMmapTest, CorruptInteriorOffsetFailsToLoad) {
  const std::string path = TempPath("mmap_corrupt_offset.snap");
  const PackedFile packed = PackForCorruption(path, 14);
  const uint64_t offsets = packed.Get(kSlotUserOffsetsOff);
  // Past the end of the blob (the measured abort: substr out of range on
  // the first query for that user).
  PackedFile past = packed;
  past.SetAt(offsets + 3 * 8, int64_t{1} << 40);
  ExpectMapRejects(past, path);
  // Decreasing (a negative-length fragment).
  PackedFile backwards = packed;
  backwards.SetAt(offsets + 3 * 8, packed.GetAt(offsets + 2 * 8) - 1);
  ExpectMapRejects(backwards, path);
  // A key-table id naming an edge that does not exist.
  PackedFile bad_id = packed;
  bad_id.SetAt(packed.Get(kSlotEdgeIdsOff),
               static_cast<int64_t>(packed.Get(kSlotNumEdges)));
  ExpectMapRejects(bad_id, path);
}

TEST(ReadModelMmapTest, CraftedHugeUserCountFailsToLoad) {
  const std::string path = TempPath("mmap_huge_users.snap");
  PackedFile packed = PackForCorruption(path, 15);
  // (n + 1) * 8 wraps to 0 for n = 2^61 - 1: a bounds check on the scaled
  // size alone would pass it, and the first offset read would fault.
  packed.Set(kSlotNumUsers, (uint64_t{1} << 61) - 1);
  packed.Reseal();
  ExpectMapRejects(packed, path);
  packed.Set(kSlotNumUsers, ~uint64_t{0});
  packed.Reseal();
  ExpectMapRejects(packed, path);
}

// ------------------------------------------------------------ patch oracle

/// The oracle for ReadModel::Patch: a patched generation must equal a
/// fresh Build of the same state — struct answers on every id, and the
/// packed serve sections (everything the HTTP surface reads) byte for byte,
/// each appended to its own copy of one snapshot file.
void ExpectPatchEqualsBuild(const ReadModel& patched, const ReadModel& fresh,
                            const graph::SocialGraph& graph,
                            const io::ModelSnapshot& snapshot,
                            const std::string& tag) {
  ASSERT_EQ(patched.num_users(), fresh.num_users()) << tag;
  ASSERT_EQ(patched.num_edges(), fresh.num_edges()) << tag;
  for (graph::UserId u = 0; u < fresh.num_users(); ++u) {
    UserAnswer a;
    UserAnswer b;
    ASSERT_TRUE(patched.GetUser(u, &a));
    ASSERT_TRUE(fresh.GetUser(u, &b));
    EXPECT_EQ(a.home, b.home) << tag << " user " << u;
    EXPECT_EQ(a.num_friends, b.num_friends) << tag << " user " << u;
    EXPECT_EQ(a.num_followers, b.num_followers) << tag << " user " << u;
    EXPECT_EQ(a.num_tweets, b.num_tweets) << tag << " user " << u;
    ASSERT_EQ(a.entry_count, b.entry_count) << tag << " user " << u;
    for (int i = 0; i < a.entry_count; ++i) {
      EXPECT_EQ(a.entries[i].city, b.entries[i].city) << tag << " user " << u;
      EXPECT_EQ(a.entries[i].prob, b.entries[i].prob) << tag << " user " << u;
    }
  }
  for (graph::EdgeId s = 0; s < fresh.num_edges(); ++s) {
    EdgeAnswer a;
    EdgeAnswer b;
    ASSERT_TRUE(patched.GetEdgeById(s, &a));
    ASSERT_TRUE(fresh.GetEdgeById(s, &b));
    EXPECT_EQ(a.src, b.src) << tag << " edge " << s;
    EXPECT_EQ(a.dst, b.dst) << tag << " edge " << s;
    EXPECT_EQ(a.x, b.x) << tag << " edge " << s;
    EXPECT_EQ(a.y, b.y) << tag << " edge " << s;
    EXPECT_EQ(a.noise_prob, b.noise_prob) << tag << " edge " << s;
    EXPECT_EQ(a.x_support, b.x_support) << tag << " edge " << s;
    EXPECT_EQ(a.y_support, b.y_support) << tag << " edge " << s;
    EXPECT_EQ(a.distance_miles, b.distance_miles) << tag << " edge " << s;
    const graph::FollowingEdge& edge = graph.following(s);
    EXPECT_EQ(patched.FindEdge(edge.follower, edge.friend_user),
              fresh.FindEdge(edge.follower, edge.friend_user))
        << tag << " edge " << s;
  }
  const std::string patched_path = TempPath("patch_oracle_patched.snap");
  const std::string fresh_path = TempPath("patch_oracle_fresh.snap");
  ASSERT_TRUE(io::SaveModelSnapshot(patched_path, snapshot).ok());
  ASSERT_TRUE(io::SaveModelSnapshot(fresh_path, snapshot).ok());
  ASSERT_TRUE(patched.AppendServeSection(patched_path).ok()) << tag;
  ASSERT_TRUE(fresh.AppendServeSection(fresh_path).ok()) << tag;
  EXPECT_TRUE(FileBytes(patched_path) == FileBytes(fresh_path))
      << tag << ": packed serve sections differ";
}

/// Delta k of a chain over `graph`: two new users wired to each other and
/// to existing ones, an edge and a tweet between existing users (so their
/// candidate rows migrate), and — when `duplicate` — a new edge repeating
/// an existing (src, dst) pair.
stream::DeltaBatch PatchDelta(const graph::SocialGraph& graph, int k,
                              bool duplicate) {
  stream::DeltaBatch delta;
  graph::UserRecord labeled;
  labeled.handle = "patch_labeled_" + std::to_string(k);
  labeled.registered_city = 3 + k;
  graph::UserRecord unlabeled;
  unlabeled.handle = "patch_unlabeled_" + std::to_string(k);
  delta.users = {labeled, unlabeled};
  const graph::UserId first = graph.num_users();
  delta.following = {{first, k}, {first + 1, first}, {k + 1, first + 1},
                     {5 + k, 40 + k}};
  if (duplicate) delta.following.push_back(graph.following(0));
  delta.tweeting = {{first, 2}, {first + 1, 5}, {7 + k, 4}};
  return delta;
}

/// Fits `world` under `config`, then applies `batches` deltas in turn,
/// patching the served generation each time and checking it against a
/// fresh Build of the same state. `batches` == 0 applies one empty delta.
void ExpectPatchChainEqualsBuild(const synth::SyntheticWorld& world,
                                 const core::MlpConfig& config, int batches,
                                 bool duplicate, const std::string& tag) {
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<core::MlpResult> fitted =
      core::MlpModel(config).Fit(harness.input, opts);
  ASSERT_TRUE(fitted.ok()) << fitted.status().ToString();
  core::MlpResult result = std::move(*fitted);
  ReadModelOptions options;
  options.top_k = 5;
  Result<ReadModel> served = ReadModel::Build(
      io::MakeModelSnapshot(harness.input, checkpoint, result), *world.graph,
      world.gazetteer.get(), options);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ReadModel prev = std::move(*served);

  core::ModelInput input = harness.input;
  std::unique_ptr<graph::SocialGraph> graph;
  for (int k = 0; k < std::max(batches, 1); ++k) {
    const std::string step = tag + " batch " + std::to_string(k);
    const stream::DeltaBatch delta =
        batches == 0 ? stream::DeltaBatch()
                     : PatchDelta(*input.graph, k, duplicate);
    Result<stream::IngestOutput> out =
        stream::ApplyDeltaBatch(input, checkpoint, result, delta);
    ASSERT_TRUE(out.ok()) << step << ": " << out.status().ToString();
    Result<ReadModel> patched =
        ReadModel::Patch(prev, out->checkpoint, out->result,
                         *out->merged_graph, out->report);
    ASSERT_TRUE(patched.ok()) << step << ": " << patched.status().ToString();

    graph = std::move(out->merged_graph);
    input.graph = graph.get();
    input.observed_home = std::move(out->merged_observed_home);
    checkpoint = std::move(out->checkpoint);
    result = std::move(out->result);
    const io::ModelSnapshot snapshot =
        io::MakeModelSnapshot(input, checkpoint, result);
    Result<ReadModel> fresh =
        ReadModel::Build(snapshot, *graph, world.gazetteer.get(), options);
    ASSERT_TRUE(fresh.ok()) << step << ": " << fresh.status().ToString();
    ExpectPatchEqualsBuild(*patched, *fresh, *graph, snapshot, step);
    prev = std::move(*patched);
  }
}

TEST(ReadModelPatchTest, SuccessiveBatchesMatchFreshBuildAtEveryThreadCount) {
  synth::SyntheticWorld world = TestWorld(200, 31);
  for (int threads : {1, 2, 4}) {
    core::MlpConfig config = SmallConfig();
    config.num_threads = threads;
    ExpectPatchChainEqualsBuild(world, config, 3, false,
                                "threads=" + std::to_string(threads));
  }
}

TEST(ReadModelPatchTest, PrunedBaseMatchesFreshBuild) {
  synth::SyntheticWorld world = TestWorld(200, 8);
  core::MlpConfig config = SmallConfig();
  config.num_threads = 2;
  config.burn_in_iterations = 6;
  config.prune_floor = 0.2;  // rows compact, so migrated rows remap slots
  config.prune_patience = 1;
  ExpectPatchChainEqualsBuild(world, config, 2, false, "pruned");
}

TEST(ReadModelPatchTest, EmptyDeltaAndDuplicateEdgeMatchFreshBuild) {
  synth::SyntheticWorld world = TestWorld(160, 17);
  core::MlpConfig config = SmallConfig();
  config.num_threads = 2;
  ExpectPatchChainEqualsBuild(world, config, 0, false, "empty");
  ExpectPatchChainEqualsBuild(world, config, 2, true, "duplicate");
}

TEST(ReadModelPatchTest, RejectsMmapBackedOrMismatchedPrev) {
  synth::SyntheticWorld world = TestWorld(150, 19);
  FitHarness harness(world);
  core::FitCheckpoint checkpoint;
  core::FitOptions opts;
  opts.checkpoint_out = &checkpoint;
  Result<core::MlpResult> result =
      core::MlpModel(SmallConfig()).Fit(harness.input, opts);
  ASSERT_TRUE(result.ok());
  const std::string path = TempPath("patch_reject.snap");
  const io::ModelSnapshot snapshot =
      io::MakeModelSnapshot(harness.input, checkpoint, *result);
  ASSERT_TRUE(io::SaveModelSnapshot(path, snapshot).ok());
  Result<ReadModel> mem =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(mem->AppendServeSection(path).ok());
  Result<ReadModel> mapped =
      ReadModel::MapServeSection(path, world.gazetteer.get());
  ASSERT_TRUE(mapped.ok());

  Result<stream::IngestOutput> out = stream::ApplyDeltaBatch(
      harness.input, checkpoint, *result,
      PatchDelta(*world.graph, 0, false));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  Result<ReadModel> from_mapped = ReadModel::Patch(
      *mapped, out->checkpoint, out->result, *out->merged_graph, out->report);
  EXPECT_EQ(from_mapped.status().code(), StatusCode::kFailedPrecondition);

  // A prev from another world has the wrong shape for this delta.
  synth::SyntheticWorld other = TestWorld(120, 23);
  io::ModelSnapshot other_snapshot = FitSnapshot(other, SmallConfig(), "");
  Result<ReadModel> foreign =
      ReadModel::Build(other_snapshot, *other.graph, other.gazetteer.get());
  ASSERT_TRUE(foreign.ok());
  Result<ReadModel> from_foreign = ReadModel::Patch(
      *foreign, out->checkpoint, out->result, *out->merged_graph, out->report);
  EXPECT_EQ(from_foreign.status().code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------- batcher

TEST(RequestBatcherTest, BatchAnswersEqualPointAnswers) {
  synth::SyntheticWorld world = TestWorld(220, 7);
  io::ModelSnapshot snapshot = FitSnapshot(world, SmallConfig(), "");
  Result<ReadModel> model =
      ReadModel::Build(snapshot, *world.graph, world.gazetteer.get());
  ASSERT_TRUE(model.ok());
  ModelServer server(std::move(*model), ServeOptions());

  BatchRequest request;
  for (graph::UserId u = server.model()->num_users() - 1; u >= 0; --u) {
    request.users.push_back(u);  // reverse order
  }
  request.users.push_back(10 * server.model()->num_users());  // missing
  for (graph::EdgeId s = 0; s < std::min(50, server.model()->num_edges());
       ++s) {
    const graph::FollowingEdge& edge = world.graph->following(s);
    request.edges.emplace_back(edge.follower, edge.friend_user);
  }
  graph::UserId stranger = 0;
  while (server.model()->FindEdge(0, stranger) >= 0) ++stranger;
  request.edges.emplace_back(0, stranger);  // missing

  // The expected body is the point endpoint's answers joined: each 200
  // body verbatim, `null` for each 404.
  auto point_body = [&](const std::string& target) {
    HttpRequest point;
    point.method = "GET";
    point.target = target;
    HttpResponse response = server.Handle(point);
    EXPECT_TRUE(response.status == 200 || response.status == 404) << target;
    return response.status == 200 ? response.body : std::string("null");
  };
  std::string expected = "{\"users\":[";
  std::string payload = "{\"users\":[";
  for (size_t i = 0; i < request.users.size(); ++i) {
    if (i > 0) {
      expected += ',';
      payload += ',';
    }
    expected += point_body("/v1/user/" + std::to_string(request.users[i]));
    payload += std::to_string(request.users[i]);
  }
  expected += "],\"edges\":[";
  payload += "],\"edges\":[";
  for (size_t i = 0; i < request.edges.size(); ++i) {
    const std::string src = std::to_string(request.edges[i].first);
    const std::string dst = std::to_string(request.edges[i].second);
    if (i > 0) {
      expected += ',';
      payload += ',';
    }
    expected += point_body("/v1/edge/" + src + "/" + dst);
    payload += "[" + src + "," + dst + "]";
  }
  expected += "]}";
  payload += "]}";
  // Both missing entries (each list's last slot) answer null.
  EXPECT_NE(expected.find("null],\"edges\":["), std::string::npos);
  EXPECT_EQ(expected.rfind("null]}"), expected.size() - 6);

  EXPECT_EQ(RenderBatchJson(*server.model(), request, nullptr), expected);
  // The same bytes through POST /v1/batch.
  HttpRequest batch;
  batch.method = "POST";
  batch.target = "/v1/batch";
  batch.body = payload;
  HttpResponse response = server.Handle(batch);
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_EQ(response.body, expected);

  // An empty batch still has both arrays.
  EXPECT_EQ(RenderBatchJson(*server.model(), BatchRequest(), nullptr),
            "{\"users\":[],\"edges\":[]}");
}

// ------------------------------------------------------- http round trips

class ModelServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new synth::SyntheticWorld(TestWorld(220, 7));
    snapshot_ = new io::ModelSnapshot(
        FitSnapshot(*world_, SmallConfig(), TempPath("serve_http.snap")));
  }
  static void TearDownTestSuite() {
    delete snapshot_;
    delete world_;
    snapshot_ = nullptr;
    world_ = nullptr;
  }

  /// Starts a fresh server on an ephemeral port with explicit options
  /// (port is forced to 0).
  std::unique_ptr<ModelServer> StartServerWithOptions(ServeOptions options) {
    Result<ReadModel> model = ReadModel::Build(*snapshot_, *world_->graph,
                                               world_->gazetteer.get());
    EXPECT_TRUE(model.ok());
    options.port = 0;
    auto server =
        std::make_unique<ModelServer>(std::move(*model), options);
    EXPECT_TRUE(server->Start().ok());
    EXPECT_GT(server->port(), 0);
    return server;
  }

  /// Starts a fresh server on an ephemeral port.
  std::unique_ptr<ModelServer> StartServer(int threads = 4) {
    ServeOptions options;
    options.threads = threads;
    return StartServerWithOptions(options);
  }

  static synth::SyntheticWorld* world_;
  static io::ModelSnapshot* snapshot_;
};

synth::SyntheticWorld* ModelServerTest::world_ = nullptr;
io::ModelSnapshot* ModelServerTest::snapshot_ = nullptr;

TEST_F(ModelServerTest, HealthzAndStatsz) {
  auto server = StartServer();
  Result<HttpResponse> health =
      HttpFetch("127.0.0.1", server->port(), "GET", "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  Result<JsonValue> parsed = ParseJson(health->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("status")->string_value, "ok");

  Result<HttpResponse> stats =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statsz");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->status, 200);
  Result<JsonValue> stats_json = ParseJson(stats->body);
  ASSERT_TRUE(stats_json.ok());
  EXPECT_NE(stats_json->Find("users"), nullptr);

  // CSV rendering shares io::TablePrinter::ToCsv.
  Result<HttpResponse> csv =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statsz?format=csv");
  ASSERT_TRUE(csv.ok());
  EXPECT_EQ(csv->status, 200);
  EXPECT_EQ(csv->body.rfind("stat,value\n", 0), 0u) << csv->body;

  // The read model's footprint, the batch count and the one pool's queue
  // depth are part of the operator surface in every format.
  EXPECT_NE(stats_json->Find("mem_readmodel_bytes"), nullptr);
  EXPECT_NE(stats_json->Find("batches_executed"), nullptr);
  EXPECT_NE(stats_json->Find("conn_queue_depth"), nullptr);
  EXPECT_NE(csv->body.find("conn_queue_depth,"), std::string::npos);
}

TEST_F(ModelServerTest, MetricszServesPrometheusExposition) {
  auto server = StartServer();
  // Prime the latency histogram with a couple of requests first.
  ASSERT_TRUE(
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/0").ok());
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET", "/healthz").ok());

  Result<HttpResponse> metrics =
      HttpFetch("127.0.0.1", server->port(), "GET", "/metricsz");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status, 200);
  const std::string& body = metrics->body;

  // Request-latency histogram: TYPE line, cumulative le buckets including
  // +Inf, sum and count — and the count covers the requests above.
  EXPECT_NE(body.find("# TYPE serve_request_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_sum"), std::string::npos);
  EXPECT_NE(body.find("serve_request_latency_us_count"), std::string::npos);

  // Fragment-lookup time and the read-model footprint, the queue depth,
  // model generation.
  EXPECT_NE(body.find("# TYPE serve_stage_lookup_ns counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE mem_readmodel_bytes gauge"), std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_conn_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(body.find("serve_model_generation 1"), std::string::npos);

  // The process-wide registry rides along (requests counter at minimum).
  EXPECT_NE(body.find("# TYPE serve_requests_total counter"),
            std::string::npos);

  // Every line is "# ..." commentary or "name[{labels}] value" — a cheap
  // exposition-format well-formedness pass.
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string::npos) eol = body.size();
    const std::string line = body.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    EXPECT_NE(value.find_first_of("0123456789"), std::string::npos) << line;
  }
}

TEST_F(ModelServerTest, ServedUserJsonIsByteConsistentWithMlpResult) {
  auto server = StartServer();
  Result<HttpClient> connected = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  HttpClient client = std::move(connected).ValueOrDie();
  for (graph::UserId u = 0; u < 25; ++u) {
    Result<HttpResponse> response =
        client.RoundTrip("GET", "/v1/user/" + std::to_string(u));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200);
    Result<JsonValue> parsed = ParseJson(response->body);
    ASSERT_TRUE(parsed.ok());
    // Argmax home parity.
    const JsonValue* home = parsed->Find("home");
    ASSERT_NE(home, nullptr);
    if (snapshot_->result.home[u] == geo::kInvalidCity) {
      EXPECT_EQ(home->type, JsonValue::Type::kNull);
    } else {
      EXPECT_EQ(home->Find("city_id")->AsInt(-1), snapshot_->result.home[u]);
    }
    // Posterior parity to the last bit: the JSON doubles parse back to
    // exactly the MlpResult values.
    const JsonValue* profile = parsed->Find("profile");
    ASSERT_NE(profile, nullptr);
    const auto& entries = snapshot_->result.profiles[u].entries();
    size_t expected = std::min<size_t>(entries.size(), 10);
    ASSERT_EQ(profile->items.size(), expected);
    for (size_t i = 0; i < expected; ++i) {
      EXPECT_EQ(profile->items[i].Find("city_id")->AsInt(-1),
                entries[i].first);
      EXPECT_EQ(profile->items[i].Find("p")->AsDouble(), entries[i].second);
    }
  }
}

TEST_F(ModelServerTest, EdgeEndpointServesExplanations) {
  auto server = StartServer();
  ASSERT_GT(world_->graph->num_following(), 0);
  const graph::FollowingEdge& edge = world_->graph->following(0);
  Result<HttpResponse> response = HttpFetch(
      "127.0.0.1", server->port(), "GET",
      "/v1/edge/" + std::to_string(edge.follower) + "/" +
          std::to_string(edge.friend_user));
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  Result<JsonValue> parsed = ParseJson(response->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* explanation = parsed->Find("explanation");
  ASSERT_NE(explanation, nullptr);
  EXPECT_EQ(explanation->Find("noise_prob")->AsDouble(),
            snapshot_->result.following[0].noise_prob);
  EXPECT_NE(explanation->Find("x_support"), nullptr);
  EXPECT_NE(explanation->Find("distance_miles"), nullptr);

  // Errors: absent edge and malformed ids.
  Result<HttpResponse> missing = HttpFetch(
      "127.0.0.1", server->port(), "GET",
      "/v1/edge/" + std::to_string(edge.follower) + "/" +
          std::to_string(edge.follower));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 404);
  Result<HttpResponse> bad =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/edge/x/y");
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 400);
}

TEST_F(ModelServerTest, BatchEndpointMatchesPointQueries) {
  auto server = StartServer();
  const graph::FollowingEdge& edge = world_->graph->following(0);
  // Ids that are not int64 integers answer null, never a truncated or
  // overflowed id (3.5 is not user 3).
  std::string body = "{\"users\":[0,1,999999,3.5,1e30,-1e30,1e19],"
                     "\"edges\":[[" +
                     std::to_string(edge.follower) + "," +
                     std::to_string(edge.friend_user) + "],[" +
                     std::to_string(edge.follower) + ".5," +
                     std::to_string(edge.friend_user) + "]]}";
  Result<HttpResponse> batch =
      HttpFetch("127.0.0.1", server->port(), "POST", "/v1/batch", body);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->status, 200) << batch->body;
  Result<JsonValue> parsed = ParseJson(batch->body);
  ASSERT_TRUE(parsed.ok());
  const JsonValue* users = parsed->Find("users");
  ASSERT_NE(users, nullptr);
  ASSERT_EQ(users->items.size(), 7u);
  EXPECT_TRUE(users->items[0].is_object());
  EXPECT_TRUE(users->items[1].is_object());
  for (size_t i = 2; i < users->items.size(); ++i) {
    EXPECT_EQ(users->items[i].type, JsonValue::Type::kNull) << i;
  }
  const JsonValue* edges = parsed->Find("edges");
  ASSERT_EQ(edges->items.size(), 2u);
  EXPECT_TRUE(edges->items[0].is_object());
  EXPECT_EQ(edges->items[1].type, JsonValue::Type::kNull);

  // The batch user objects are rendered by the same code path as the
  // point endpoint, so the point body appears verbatim inside the batch
  // body (byte-consistency across endpoints).
  Result<HttpResponse> point =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/0");
  ASSERT_TRUE(point.ok());
  EXPECT_NE(batch->body.find(point->body), std::string::npos)
      << point->body << "\nnot found in\n"
      << batch->body;

  Result<HttpResponse> rejected =
      HttpFetch("127.0.0.1", server->port(), "POST", "/v1/batch", "{nope");
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 400);
}

TEST_F(ModelServerTest, UnknownEndpointsAnd404s) {
  auto server = StartServer();
  Result<HttpResponse> nope =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v2/everything");
  ASSERT_TRUE(nope.ok());
  EXPECT_EQ(nope->status, 404);
  Result<HttpResponse> no_user =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/123456789");
  ASSERT_TRUE(no_user.ok());
  EXPECT_EQ(no_user->status, 404);
  Result<HttpResponse> bad_id =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/abc");
  ASSERT_TRUE(bad_id.ok());
  EXPECT_EQ(bad_id->status, 400);
  // Ids past int32 must 404, not alias-wrap onto a valid user (2^32 -> 0).
  Result<HttpResponse> wrapped =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/4294967296");
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->status, 404);
  Result<HttpResponse> wrapped_edge = HttpFetch(
      "127.0.0.1", server->port(), "GET", "/v1/edge/4294967296/4294967297");
  ASSERT_TRUE(wrapped_edge.ok());
  EXPECT_EQ(wrapped_edge->status, 404);
  Result<HttpResponse> wrong_method =
      HttpFetch("127.0.0.1", server->port(), "POST", "/v1/user/1", "{}");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);
}

// ----------------------------------------- request tracing (ISSUE 9)

TEST_F(ModelServerTest, MetricszExposesPerEndpointAndStageSeries) {
  auto server = StartServer();
  const graph::FollowingEdge& edge = world_->graph->following(0);
  ASSERT_TRUE(
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/1").ok());
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET",
                        "/v1/edge/" + std::to_string(edge.follower) + "/" +
                            std::to_string(edge.friend_user))
                  .ok());
  Result<HttpResponse> metrics =
      HttpFetch("127.0.0.1", server->port(), "GET", "/metricsz");
  ASSERT_TRUE(metrics.ok());
  const std::string& body = metrics->body;
  // One latency histogram per endpoint, and the route and lookup stages
  // the /v1 reads just ran through.
  EXPECT_NE(body.find("# TYPE serve_user_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_edge_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_stage_route_ns counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_stage_lookup_ns counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_stage_render_ns counter"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE serve_stage_write_ns counter"),
            std::string::npos);
  EXPECT_NE(body.find("serve_seconds_since_last_swap"), std::string::npos);
  // Satellite: the scrape refreshes the process RSS gauges in place.
  EXPECT_NE(body.find("mem_process_rss_bytes"), std::string::npos);
  EXPECT_NE(body.find("mem_process_peak_rss_bytes"), std::string::npos);
}

/// The mem_readmodel_bytes sample of a /metricsz body; -1 when absent.
int64_t ScrapedReadModelBytes(const std::string& metrics) {
  const std::string needle = "\nmem_readmodel_bytes ";
  const size_t at = metrics.find(needle);
  if (at == std::string::npos) return -1;
  return std::strtoll(metrics.c_str() + at + needle.size(), nullptr, 10);
}

TEST_F(ModelServerTest, MetricszReadModelBytesTracksEveryPublish) {
  // Two different footprints of the same fit: top-2 profiles are smaller.
  Result<ReadModel> full = ReadModel::Build(*snapshot_, *world_->graph,
                                            world_->gazetteer.get());
  ReadModelOptions small_options;
  small_options.top_k = 2;
  Result<ReadModel> small = ReadModel::Build(
      *snapshot_, *world_->graph, world_->gazetteer.get(), small_options);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(small.ok());
  const int64_t full_bytes = full->AccountedBytes();
  const int64_t small_bytes = small->AccountedBytes();
  ASSERT_NE(full_bytes, small_bytes);

  // /metricsz alone, never /statsz: the gauge is set when a model is
  // published, not when an operator happens to look.
  ModelServer server(std::move(*full), ServeOptions());
  HttpRequest scrape;
  scrape.method = "GET";
  scrape.target = "/metricsz";
  EXPECT_EQ(ScrapedReadModelBytes(server.Handle(scrape).body), full_bytes);
  server.SwapReadModel(std::move(*small));
  EXPECT_EQ(ScrapedReadModelBytes(server.Handle(scrape).body), small_bytes);
  EXPECT_EQ(server.model()->AccountedBytes(), small_bytes);
}

TEST_F(ModelServerTest, StatuszDashboardReportsLatencyAndModelState) {
  auto server = StartServer();
  ASSERT_TRUE(
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/2").ok());
  Result<HttpResponse> statusz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok()) << statusz.status().ToString();
  EXPECT_EQ(statusz->status, 200);
  // The test client does not surface response headers; the HTML doctype
  // in the body is the content-type witness.
  const std::string& body = statusz->body;
  EXPECT_EQ(body.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(body.find("model_generation"), std::string::npos);
  EXPECT_NE(body.find("seconds_since_last_swap"), std::string::npos);
  EXPECT_NE(body.find("vm_rss_bytes"), std::string::npos);
  EXPECT_NE(body.find("<th>p99</th>"), std::string::npos);
  EXPECT_NE(body.find("<tr><td>user</td>"), std::string::npos);
  EXPECT_NE(body.find("<tr><td>edge</td>"), std::string::npos);
  EXPECT_NE(body.find("qps"), std::string::npos);
}

TEST_F(ModelServerTest, SlowzCapturesStageBreakdownsAndHonorsCapacity) {
  ServeOptions options;
  options.threads = 2;
  options.slow_request_us = 1;  // everything is "slow"
  options.slow_ring_capacity = 4;
  auto server = StartServerWithOptions(options);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET",
                          "/v1/user/" + std::to_string(i))
                    .ok());
  }
  // An extra round trip gives the last on_complete hook time to land
  // before the scrape reads the ring.
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET", "/healthz").ok());
  Result<HttpResponse> slowz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/debug/slowz");
  ASSERT_TRUE(slowz.ok());
  ASSERT_EQ(slowz->status, 200);
  Result<JsonValue> parsed = ParseJson(slowz->body);
  ASSERT_TRUE(parsed.ok()) << slowz->body;
  EXPECT_EQ(parsed->Find("threshold_us")->AsInt(-1), 1);
  EXPECT_EQ(parsed->Find("capacity")->AsInt(-1), 4);
  const JsonValue* requests = parsed->Find("requests");
  ASSERT_NE(requests, nullptr);
  ASSERT_GE(requests->items.size(), 1u);
  ASSERT_LE(requests->items.size(), 4u);  // ring capacity bounds retention
  EXPECT_GE(parsed->Find("total_captured")->AsInt(-1),
            static_cast<int64_t>(requests->items.size()));
  for (const JsonValue& record : requests->items) {
    EXPECT_GT(record.Find("id")->AsInt(-1), 0);
    EXPECT_GE(record.Find("total_us")->AsInt(-1), 0);
    EXPECT_FALSE(record.Find("target")->string_value.empty());
    const JsonValue* stages = record.Find("stages");
    ASSERT_NE(stages, nullptr);
    EXPECT_NE(stages->Find("parse_us"), nullptr);
    EXPECT_NE(stages->Find("lookup_us"), nullptr);
    EXPECT_NE(stages->Find("route_us"), nullptr);
    EXPECT_NE(stages->Find("render_us"), nullptr);
    EXPECT_NE(stages->Find("write_us"), nullptr);
  }
}

TEST_F(ModelServerTest, AccessLogLinesCorrelateWithSlowRingIds) {
  const std::string log_path = TempPath("serve_access_test.log");
  std::remove(log_path.c_str());
  ServeOptions options;
  options.threads = 2;
  options.access_log = true;
  options.access_log_path = log_path;
  options.slow_request_us = 1;
  auto server = StartServerWithOptions(options);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET",
                          "/v1/user/" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(HttpFetch("127.0.0.1", server->port(), "GET", "/healthz").ok());
  Result<HttpResponse> slowz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/debug/slowz");
  ASSERT_TRUE(slowz.ok());
  Result<JsonValue> parsed = ParseJson(slowz->body);
  ASSERT_TRUE(parsed.ok());
  std::set<int64_t> slow_ids;
  for (const JsonValue& record : parsed->Find("requests")->items) {
    slow_ids.insert(record.Find("id")->AsInt(-1));
  }
  ASSERT_FALSE(slow_ids.empty());
  // Stop joins the worker pool and closes the log: every completion hook
  // has run and every line is flushed by the time we read the file.
  server->Stop();

  std::ifstream log(log_path);
  ASSERT_TRUE(log.good());
  std::set<int64_t> logged_ids;
  std::string line;
  int64_t lines = 0;
  while (std::getline(log, line)) {
    if (line.empty()) continue;
    ++lines;
    Result<JsonValue> entry = ParseJson(line);
    ASSERT_TRUE(entry.ok()) << line;
    logged_ids.insert(entry->Find("id")->AsInt(-1));
    EXPECT_GE(entry->Find("total_us")->AsInt(-1), 0) << line;
    EXPECT_GT(entry->Find("status")->AsInt(-1), 0) << line;
    EXPECT_FALSE(entry->Find("method")->string_value.empty()) << line;
    EXPECT_NE(entry->Find("render_us"), nullptr) << line;
  }
  EXPECT_GE(lines, 7);  // 5 user + healthz + slowz
  for (int64_t id : slow_ids) {
    EXPECT_TRUE(logged_ids.count(id))
        << "slow-ring id " << id << " missing from the access log";
  }
  std::remove(log_path.c_str());
}

TEST_F(ModelServerTest, DisabledObsStillServesAndAssignsRequestIds) {
  obs::SetEnabled(false);
  auto server = StartServer(2);
  Result<HttpResponse> user =
      HttpFetch("127.0.0.1", server->port(), "GET", "/v1/user/0");
  ASSERT_TRUE(user.ok());
  EXPECT_EQ(user->status, 200);
  Result<HttpResponse> statusz =
      HttpFetch("127.0.0.1", server->port(), "GET", "/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_EQ(statusz->status, 200);
  // Staleness runs on a raw steady clock, so it survives the obs switch.
  EXPECT_NE(statusz->body.find("seconds_since_last_swap"), std::string::npos);
  obs::SetEnabled(true);
}

TEST_F(ModelServerTest, GracefulStopRefusesNewConnections) {
  auto server = StartServer(2);
  int port = server->port();
  Result<HttpResponse> before = HttpFetch("127.0.0.1", port, "GET", "/healthz");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->status, 200);
  server->Stop();
  EXPECT_FALSE(server->running());
  // Either the connect is refused or the (OS-buffered) connection yields
  // no response — both count as "not serving".
  Result<HttpResponse> after = HttpFetch("127.0.0.1", port, "GET", "/healthz");
  EXPECT_FALSE(after.ok());
  // Stop is idempotent; a second call must not hang or crash.
  server->Stop();
}

}  // namespace
}  // namespace serve
}  // namespace mlp
