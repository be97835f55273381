#include "serve/read_model.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/hash.h"
#include "core/priors.h"
#include "core/suff_stats.h"
#include "serve/json.h"

namespace mlp {
namespace serve {

namespace {

uint64_t EdgeKey(graph::UserId src, graph::UserId dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

// ---- serve section (out-of-core backing) ----
// Appended after the snapshot's checksummed core payload; byte layout in
// src/io/README.md. Everything the HTTP surface needs at query time lives
// in 64-byte-aligned arrays so the mapper can point straight into the
// file: the two JSON blobs, their CSR offsets, and a sorted key table
// replacing the hash index.
constexpr char kServeMagic[8] = {'M', 'L', 'P', 'S', 'E', 'R', 'V', 'E'};
constexpr uint32_t kServeEndianMarker = 0x01020304u;
constexpr uint64_t kServeAlign = 64;
// magic + version + endian + header checksum, then 18 8-byte fields.
constexpr uint64_t kServeChecksumStart = 24;
constexpr uint64_t kServeHeaderBytes = kServeChecksumStart + 18 * 8;

// Field slots (8 bytes each) after the checksum, in file order.
enum ServeField : int {
  kFieldNumUsers = 0,
  kFieldNumEdges,
  kFieldNumEdgeKeys,
  kFieldTotalProfileEntries,
  kFieldAlpha,
  kFieldBeta,
  kFieldLayoutVersion,
  kFieldActiveSlots,
  kFieldFitComplete,
  kFieldFileSize,
  kFieldUserOffsetsOff,
  kFieldEdgeOffsetsOff,
  kFieldEdgeKeysOff,
  kFieldEdgeIdsOff,
  kFieldUserJsonOff,
  kFieldUserJsonSize,
  kFieldEdgeJsonOff,
  kFieldEdgeJsonSize,
};

uint64_t AlignUp(uint64_t v, uint64_t a) { return (v + a - 1) / a * a; }

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double ReadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void WriteCity(const ReadModel& model, const char* key, geo::CityId id,
               JsonWriter* w) {
  w->Key(key);
  if (id == geo::kInvalidCity) {
    w->Null();
    return;
  }
  w->BeginObject();
  w->Key("city_id");
  w->Int(id);
  w->Key("name");
  w->String(model.CityName(id));
  w->EndObject();
}

void WriteUserJson(const ReadModel& model, const UserAnswer& answer,
                   JsonWriter* w) {
  w->BeginObject();
  w->Key("user");
  w->Int(answer.user);
  WriteCity(model, "home", answer.home, w);
  w->Key("profile");
  w->BeginArray();
  for (int i = 0; i < answer.entry_count; ++i) {
    const ProfileEntry& entry = answer.entries[i];
    w->BeginObject();
    w->Key("city_id");
    w->Int(entry.city);
    w->Key("name");
    w->String(model.CityName(entry.city));
    w->Key("p");
    w->Double(entry.prob);
    w->EndObject();
  }
  w->EndArray();
  w->Key("friends");
  w->Int(answer.num_friends);
  w->Key("followers");
  w->Int(answer.num_followers);
  w->Key("tweets");
  w->Int(answer.num_tweets);
  w->EndObject();
}

void WriteEdgeJson(const ReadModel& model, const EdgeAnswer& answer,
                   JsonWriter* w) {
  w->BeginObject();
  w->Key("src");
  w->Int(answer.src);
  w->Key("dst");
  w->Int(answer.dst);
  w->Key("edge");
  w->Int(answer.edge);
  w->Key("explanation");
  w->BeginObject();
  WriteCity(model, "x", answer.x, w);
  WriteCity(model, "y", answer.y, w);
  w->Key("noise_prob");
  w->Double(answer.noise_prob);
  w->Key("location_based_prob");
  w->Double(1.0 - answer.noise_prob);
  w->Key("x_support");
  w->Double(answer.x_support);
  w->Key("y_support");
  w->Double(answer.y_support);
  w->Key("distance_miles");
  w->Double(answer.distance_miles);
  w->EndObject();
  w->EndObject();
}

/// Appends entities [0, n) to a CSR (flat `out` + `offset` prefix):
/// entity i is copied from `prev` when i < dirty.size() and !dirty[i] —
/// whole clean runs as one block, their offsets shifted — and produced by
/// `render(i, out)` otherwise.
template <typename Flat, typename RenderFn>
void SpliceCsr(const Flat& prev, const std::vector<int64_t>& prev_offset,
               const std::vector<uint8_t>& dirty, int n, Flat* out,
               std::vector<int64_t>* offset, RenderFn render) {
  const int carried = std::min(static_cast<int>(dirty.size()), n);
  offset->reserve(static_cast<size_t>(n) + 1);
  offset->push_back(0);
  int i = 0;
  while (i < n) {
    if (i < carried && !dirty[i]) {
      int end = i + 1;
      while (end < carried && !dirty[end]) ++end;
      const int64_t shift = static_cast<int64_t>(out->size()) - prev_offset[i];
      out->insert(out->end(), prev.begin() + prev_offset[i],
                  prev.begin() + prev_offset[end]);
      for (int k = i + 1; k <= end; ++k) {
        offset->push_back(prev_offset[k] + shift);
      }
      i = end;
    } else {
      render(i, out);
      offset->push_back(static_cast<int64_t>(out->size()));
      ++i;
    }
  }
}

}  // namespace

struct ReadModel::Source {
  const core::FitCheckpoint& checkpoint;
  const core::MlpResult& result;
  /// Active candidate CSR over users; `candidates` is what the
  /// checkpoint's flat ϕ indexes.
  const std::vector<int64_t>& phi_offset;
  const std::vector<geo::CityId>& candidates;
};

Result<ReadModel> ReadModel::Build(const io::ModelSnapshot& snapshot,
                                   const graph::SocialGraph& graph,
                                   const geo::Gazetteer* gazetteer,
                                   const ReadModelOptions& options) {
  ReadModel empty;
  empty.gazetteer_ = gazetteer;
  empty.top_k_ = options.top_k;
  const Source source{snapshot.checkpoint, snapshot.result,
                      snapshot.phi_offset, snapshot.candidates};
  return Render(empty, source, graph, {}, {});
}

Result<ReadModel> ReadModel::Patch(const ReadModel& prev,
                                   const core::FitCheckpoint& checkpoint,
                                   const core::MlpResult& result,
                                   const graph::SocialGraph& graph,
                                   const core::DeltaReport& report) {
  if (prev.mmap_backed_) {
    return Status::FailedPrecondition(
        "cannot patch an mmap-backed read model — it carries no columns");
  }
  const int num_users = graph.num_users();
  const int num_edges = graph.num_following();
  const int prev_users = prev.num_users();
  const int prev_edges = prev.num_edges();
  const Source source{checkpoint, result, report.phi_offset,
                      report.candidates};
  if (num_users - report.new_users != prev_users ||
      num_edges - report.new_following != prev_edges ||
      report.user_resampled.size() != static_cast<size_t>(num_users) ||
      (!report.following_resampled.empty() &&
       report.following_resampled.size() != static_cast<size_t>(num_edges))) {
    return Status::FailedPrecondition(
        "read model to patch covers " + std::to_string(prev_users) +
        " users / " + std::to_string(prev_edges) +
        " edges, not the base of this delta");
  }
  // Dirty set. A user's served bytes (home, top-K profile, degrees) move
  // only when it was resampled or gained an edge. An edge's bytes (x̂, ŷ,
  // noise, supports) move when it was resampled or either endpoint's ϕ
  // row moved — and ϕ rows move only for resampled users: a resampled
  // edge needs both endpoints selected, and a touched user's row can move
  // at migration (a redirected assignment) without any resampled edge,
  // but touched users are always resampled. New users/edges render
  // unconditionally (they lie past the masks).
  const std::vector<uint8_t>& resampled = report.user_resampled;
  std::vector<uint8_t> user_dirty(resampled.begin(),
                                  resampled.begin() + prev_users);
  std::vector<uint8_t> edge_dirty(prev_edges, 0);
  auto mark_user = [&](graph::UserId u) {
    if (u < prev_users) user_dirty[u] = 1;
  };
  for (graph::EdgeId s = 0; s < num_edges; ++s) {
    const graph::FollowingEdge& edge = graph.following(s);
    if (s >= prev_edges) {
      mark_user(edge.follower);
      mark_user(edge.friend_user);
    } else {
      edge_dirty[s] = (!report.following_resampled.empty() &&
                       report.following_resampled[s]) ||
                      resampled[edge.follower] || resampled[edge.friend_user];
    }
  }
  for (graph::EdgeId k = graph.num_tweeting() - report.new_tweeting;
       k < graph.num_tweeting(); ++k) {
    mark_user(graph.tweeting(k).user);
  }
  return Render(prev, source, graph, user_dirty, edge_dirty);
}

Result<ReadModel> ReadModel::Render(const ReadModel& prev,
                                    const Source& source,
                                    const graph::SocialGraph& graph,
                                    const std::vector<uint8_t>& user_dirty,
                                    const std::vector<uint8_t>& edge_dirty) {
  const core::MlpResult& result = source.result;
  const int num_users = graph.num_users();
  if (static_cast<int>(result.home.size()) != num_users ||
      static_cast<int>(result.profiles.size()) != num_users) {
    return Status::InvalidArgument(
        "snapshot result covers " + std::to_string(result.home.size()) +
        " users but the dataset has " + std::to_string(num_users) +
        " — wrong data directory?");
  }
  if (static_cast<int>(result.following.size()) != graph.num_following()) {
    return Status::InvalidArgument(
        "snapshot explains " + std::to_string(result.following.size()) +
        " following relationships but the dataset has " +
        std::to_string(graph.num_following()));
  }
  if (source.phi_offset.size() != static_cast<size_t>(num_users) + 1 ||
      source.candidates.size() !=
          static_cast<size_t>(source.phi_offset.back())) {
    return Status::InvalidArgument(
        "snapshot candidate layout is inconsistent with its user count");
  }
  const core::SamplerState& sampler = source.checkpoint.sampler;
  const bool have_arena =
      sampler.phi.size() == source.candidates.size() &&
      sampler.phi_total.size() == static_cast<size_t>(num_users);
  const int prev_users = static_cast<int>(user_dirty.size());
  const int prev_edges = static_cast<int>(edge_dirty.size());
  auto user_clean = [&](graph::UserId u) {
    return u < prev_users && !user_dirty[u];
  };
  auto edge_clean = [&](graph::EdgeId s) {
    return s < prev_edges && !edge_dirty[s];
  };

  ReadModel model;
  model.gazetteer_ = prev.gazetteer_;
  model.top_k_ = prev.top_k_;
  model.alpha_ = result.alpha;
  model.beta_ = result.beta;
  model.fit_complete_ = source.checkpoint.complete;
  model.active_slots_ = source.phi_offset.back();
  model.layout_version_ = source.checkpoint.activation.layout_version;

  // ---- flat top-K profiles (posteriors copied verbatim) ----
  model.home_ = prev.home_;
  model.home_.resize(num_users);
  for (graph::UserId u = 0; u < num_users; ++u) {
    if (!user_clean(u)) model.home_[u] = result.home[u];
  }
  SpliceCsr(prev.entries_, prev.profile_offset_, user_dirty, num_users,
            &model.entries_, &model.profile_offset_,
            [&](graph::UserId u, std::vector<ProfileEntry>* out) {
              const auto& entries = result.profiles[u].entries();
              int keep = static_cast<int>(entries.size());
              if (model.top_k_ > 0) keep = std::min(keep, model.top_k_);
              for (int i = 0; i < keep; ++i) {
                out->push_back({entries[i].first, entries[i].second});
              }
            });
  model.total_profile_entries_ = static_cast<int64_t>(model.entries_.size());

  // ---- per-user degrees ----
  model.num_friends_ = prev.num_friends_;
  model.num_followers_ = prev.num_followers_;
  model.num_tweets_ = prev.num_tweets_;
  model.num_friends_.resize(num_users);
  model.num_followers_.resize(num_users);
  model.num_tweets_.resize(num_users);
  for (graph::UserId u = 0; u < num_users; ++u) {
    if (user_clean(u)) continue;
    model.num_friends_[u] = static_cast<int32_t>(graph.OutEdges(u).size());
    model.num_followers_[u] = static_cast<int32_t>(graph.InEdges(u).size());
    model.num_tweets_[u] = static_cast<int32_t>(graph.TweetEdges(u).size());
  }

  // ---- per-edge explanations + arena support scores ----
  const int num_edges = graph.num_following();
  model.edge_src_ = prev.edge_src_;
  model.edge_dst_ = prev.edge_dst_;
  model.edge_x_ = prev.edge_x_;
  model.edge_y_ = prev.edge_y_;
  model.edge_noise_ = prev.edge_noise_;
  model.edge_x_support_ = prev.edge_x_support_;
  model.edge_y_support_ = prev.edge_y_support_;
  model.edge_distance_ = prev.edge_distance_;
  model.edge_src_.resize(num_edges);
  model.edge_dst_.resize(num_edges);
  model.edge_x_.resize(num_edges);
  model.edge_y_.resize(num_edges);
  model.edge_noise_.resize(num_edges);
  model.edge_x_support_.resize(num_edges);
  model.edge_y_support_.resize(num_edges);
  model.edge_distance_.resize(num_edges);
  model.edge_index_ = prev.edge_index_;
  model.edge_index_.reserve(num_edges);

  // ϕ_u[city] / ϕ_u total against the stored (compacted) candidate layout:
  // the fraction of u's location-based relationship assignments sitting on
  // `city` in the final chain state — the sufficient-statistics view of how
  // much evidence backs an explanation endpoint.
  auto support = [&](graph::UserId u, geo::CityId city) -> double {
    if (!have_arena || city == geo::kInvalidCity) return 0.0;
    const int64_t begin = source.phi_offset[u];
    const int count = static_cast<int>(source.phi_offset[u + 1] - begin);
    const int slot = core::FindCandidateSlot(source.candidates.data() + begin,
                                             count, city);
    if (slot < 0) return 0.0;
    const double total = sampler.phi_total[u];
    return total > 0.0 ? sampler.phi[begin + slot] / total : 0.0;
  };

  for (graph::EdgeId s = 0; s < num_edges; ++s) {
    if (edge_clean(s)) continue;
    const graph::FollowingEdge& edge = graph.following(s);
    const core::FollowingExplanation& ex = result.following[s];
    model.edge_src_[s] = edge.follower;
    model.edge_dst_[s] = edge.friend_user;
    model.edge_x_[s] = ex.x;
    model.edge_y_[s] = ex.y;
    model.edge_noise_[s] = ex.noise_prob;
    model.edge_x_support_[s] = support(edge.follower, ex.x);
    model.edge_y_support_[s] = support(edge.friend_user, ex.y);
    model.edge_distance_[s] = 0.0;
    if (model.gazetteer_ != nullptr && ex.x != geo::kInvalidCity &&
        ex.y != geo::kInvalidCity) {
      model.edge_distance_[s] = model.gazetteer_->DistanceMiles(ex.x, ex.y);
    }
    // First insertion wins, so a duplicate (src,dst) keeps the lowest id.
    if (s >= prev_edges) {
      model.edge_index_.emplace(EdgeKey(edge.follower, edge.friend_user), s);
    }
  }

  // ---- pre-rendered JSON fragments ----
  // Rendering is hoisted out of the request path entirely: the model is
  // immutable, so every answer body is known at build time. Point queries
  // become substring copies and batch responses a concatenation scan.
  // A patch re-renders only the dirty fragments; the blob grows by about
  // the new entities' share, so reserve that much headroom once.
  model.user_json_.reserve(prev.user_json_.size() +
                           prev.user_json_.size() / 16);
  SpliceCsr(prev.user_json_, prev.user_json_offset_, user_dirty, num_users,
            &model.user_json_, &model.user_json_offset_,
            [&](graph::UserId u, std::string* out) {
              UserAnswer answer;
              model.GetUser(u, &answer);
              JsonWriter w;
              WriteUserJson(model, answer, &w);
              *out += w.str();
            });
  model.edge_json_.reserve(prev.edge_json_.size() +
                           prev.edge_json_.size() / 16);
  SpliceCsr(prev.edge_json_, prev.edge_json_offset_, edge_dirty, num_edges,
            &model.edge_json_, &model.edge_json_offset_,
            [&](graph::EdgeId s, std::string* out) {
              EdgeAnswer answer;
              model.GetEdgeById(s, &answer);
              JsonWriter w;
              WriteEdgeJson(model, answer, &w);
              *out += w.str();
            });
  return model;
}

bool ReadModel::GetUser(graph::UserId u, UserAnswer* out) const {
  if (mmap_backed_ || u < 0 || u >= num_users()) return false;
  out->user = u;
  out->home = home_[u];
  out->entries = entries_.data() + profile_offset_[u];
  out->entry_count = static_cast<int>(profile_offset_[u + 1] - profile_offset_[u]);
  out->num_friends = num_friends_[u];
  out->num_followers = num_followers_[u];
  out->num_tweets = num_tweets_[u];
  return true;
}

graph::EdgeId ReadModel::FindEdge(graph::UserId src, graph::UserId dst) const {
  const uint64_t key = EdgeKey(src, dst);
  if (mmap_backed_) {
    const uint64_t* end = map_edge_keys_ + map_num_edge_keys_;
    const uint64_t* it = std::lower_bound(map_edge_keys_, end, key);
    if (it == end || *it != key) return -1;
    return static_cast<graph::EdgeId>(map_edge_ids_[it - map_edge_keys_]);
  }
  auto it = edge_index_.find(key);
  return it == edge_index_.end() ? -1 : it->second;
}

bool ReadModel::GetEdgeById(graph::EdgeId s, EdgeAnswer* out) const {
  if (mmap_backed_ || s < 0 || s >= num_edges()) return false;
  out->src = edge_src_[s];
  out->dst = edge_dst_[s];
  out->edge = s;
  out->x = edge_x_[s];
  out->y = edge_y_[s];
  out->noise_prob = edge_noise_[s];
  out->x_support = edge_x_support_[s];
  out->y_support = edge_y_support_[s];
  out->distance_miles = edge_distance_[s];
  return true;
}

bool ReadModel::GetEdge(graph::UserId src, graph::UserId dst,
                        EdgeAnswer* out) const {
  return GetEdgeById(FindEdge(src, dst), out);
}

std::string ReadModel::CityName(geo::CityId id) const {
  if (gazetteer_ == nullptr || id < 0 || id >= gazetteer_->size()) return "";
  return gazetteer_->FullName(id);
}

double ReadModel::mean_profile_entries() const {
  const int n = num_users();
  return n == 0 ? 0.0 : static_cast<double>(total_profile_entries_) / n;
}

bool ReadModel::ExampleEdge(graph::UserId* src, graph::UserId* dst) const {
  if (mmap_backed_) {
    if (map_num_edge_keys_ == 0) return false;
    const uint64_t key = map_edge_keys_[0];
    *src = static_cast<graph::UserId>(key >> 32);
    *dst = static_cast<graph::UserId>(static_cast<uint32_t>(key));
    return true;
  }
  if (edge_src_.empty()) return false;
  *src = edge_src_[0];
  *dst = edge_dst_[0];
  return true;
}

int64_t ReadModel::AccountedBytes() const {
  using core::VectorBytes;
  // Hash index: bucket array plus one heap node per entry (key/value pair
  // + libstdc++'s next pointer and cached hash).
  const int64_t index_bytes =
      static_cast<int64_t>(edge_index_.bucket_count()) * sizeof(void*) +
      static_cast<int64_t>(edge_index_.size()) *
          (sizeof(std::pair<uint64_t, graph::EdgeId>) + 2 * sizeof(void*));
  return VectorBytes(profile_offset_) + VectorBytes(entries_) +
         VectorBytes(home_) + VectorBytes(num_friends_) +
         VectorBytes(num_followers_) + VectorBytes(num_tweets_) +
         VectorBytes(edge_src_) + VectorBytes(edge_dst_) +
         VectorBytes(edge_x_) + VectorBytes(edge_y_) +
         VectorBytes(edge_noise_) + VectorBytes(edge_x_support_) +
         VectorBytes(edge_y_support_) + VectorBytes(edge_distance_) +
         index_bytes + static_cast<int64_t>(user_json_.capacity()) +
         static_cast<int64_t>(user_json_offset_.capacity() * sizeof(int64_t)) +
         static_cast<int64_t>(edge_json_.capacity()) +
         static_cast<int64_t>(edge_json_offset_.capacity() * sizeof(int64_t));
}

Status ReadModel::AppendServeSection(const std::string& snapshot_path) const {
  if (mmap_backed_) {
    return Status::FailedPrecondition(
        "cannot re-pack from an mmap-backed model — build from the snapshot");
  }
  // Validate the target is a well-formed snapshot and find where its
  // checksummed core payload ends; everything after that is ours.
  uint64_t core_end = 0;
  {
    std::ifstream in(snapshot_path, std::ios::binary | std::ios::ate);
    if (!in.is_open()) {
      return Status::NotFound("cannot open snapshot " + snapshot_path);
    }
    const uint64_t file_size = static_cast<uint64_t>(in.tellg());
    in.seekg(0);
    uint8_t header[io::kModelSnapshotHeaderSize] = {};
    in.read(reinterpret_cast<char*>(header), sizeof(header));
    if (!in.good()) {
      return Status::IOError("cannot read snapshot header: " + snapshot_path);
    }
    Result<io::SnapshotHeaderInfo> info =
        io::ParseSnapshotHeader(header, file_size);
    if (!info.ok()) {
      return Status(info.status().code(),
                    info.status().message() + ": " + snapshot_path);
    }
    core_end = info->core_end;
  }
  // Drop any existing section so re-packing is idempotent.
  std::error_code ec;
  std::filesystem::resize_file(snapshot_path, core_end, ec);
  if (ec) {
    return Status::IOError("cannot truncate " + snapshot_path + ": " +
                           ec.message());
  }

  // Sorted key table: binary search in the mapped model replaces the hash
  // index. Duplicate (src,dst) edges resolve to the same id the hash map
  // holds (the first inserted), so lookups agree between backings.
  std::vector<uint64_t> keys;
  keys.reserve(edge_index_.size());
  for (const auto& [key, id] : edge_index_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  std::vector<int64_t> ids;
  ids.reserve(keys.size());
  for (uint64_t key : keys) ids.push_back(edge_index_.at(key));

  const uint64_t section_start = AlignUp(core_end, kServeAlign);
  uint64_t cursor = section_start + kServeHeaderBytes;
  auto place = [&cursor](uint64_t bytes) {
    cursor = AlignUp(cursor, kServeAlign);
    const uint64_t offset = cursor;
    cursor += bytes;
    return offset;
  };
  const uint64_t num_users_u64 = static_cast<uint64_t>(num_users());
  const uint64_t num_edges_u64 = static_cast<uint64_t>(num_edges());
  const uint64_t user_offsets_off = place((num_users_u64 + 1) * 8);
  const uint64_t edge_offsets_off = place((num_edges_u64 + 1) * 8);
  const uint64_t edge_keys_off = place(keys.size() * 8);
  const uint64_t edge_ids_off = place(ids.size() * 8);
  const uint64_t user_json_off = place(user_json_.size());
  const uint64_t edge_json_off = place(edge_json_.size());
  const uint64_t file_size = cursor;

  uint64_t fields[18] = {};
  fields[kFieldNumUsers] = num_users_u64;
  fields[kFieldNumEdges] = num_edges_u64;
  fields[kFieldNumEdgeKeys] = keys.size();
  fields[kFieldTotalProfileEntries] =
      static_cast<uint64_t>(total_profile_entries_);
  std::memcpy(&fields[kFieldAlpha], &alpha_, sizeof(double));
  std::memcpy(&fields[kFieldBeta], &beta_, sizeof(double));
  fields[kFieldLayoutVersion] = layout_version_;
  fields[kFieldActiveSlots] = static_cast<uint64_t>(active_slots_);
  fields[kFieldFitComplete] = fit_complete_ ? 1 : 0;
  fields[kFieldFileSize] = file_size;
  fields[kFieldUserOffsetsOff] = user_offsets_off;
  fields[kFieldEdgeOffsetsOff] = edge_offsets_off;
  fields[kFieldEdgeKeysOff] = edge_keys_off;
  fields[kFieldEdgeIdsOff] = edge_ids_off;
  fields[kFieldUserJsonOff] = user_json_off;
  fields[kFieldUserJsonSize] = user_json_.size();
  fields[kFieldEdgeJsonOff] = edge_json_off;
  fields[kFieldEdgeJsonSize] = edge_json_.size();

  Fnv1a64 checksum;
  checksum.Bytes(fields, sizeof(fields));

  std::string header;
  header.append(kServeMagic, sizeof(kServeMagic));
  const uint32_t version = kServeSectionVersion;
  header.append(reinterpret_cast<const char*>(&version), sizeof(version));
  header.append(reinterpret_cast<const char*>(&kServeEndianMarker),
                sizeof(kServeEndianMarker));
  header.append(reinterpret_cast<const char*>(&checksum.hash),
                sizeof(checksum.hash));
  header.append(reinterpret_cast<const char*>(fields), sizeof(fields));

  std::ofstream out(snapshot_path,
                    std::ios::binary | std::ios::in | std::ios::out);
  if (!out.is_open()) {
    return Status::IOError("cannot open " + snapshot_path + " for packing");
  }
  out.seekp(static_cast<std::streamoff>(core_end));
  uint64_t written = core_end;
  auto pad_to = [&out, &written](uint64_t offset) {
    static const char zeros[kServeAlign] = {};
    while (written < offset) {
      const uint64_t n = std::min<uint64_t>(offset - written, sizeof(zeros));
      out.write(zeros, static_cast<std::streamsize>(n));
      written += n;
    }
  };
  auto write_bytes = [&out, &written](const void* p, uint64_t n) {
    out.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
    written += n;
  };
  pad_to(section_start);
  write_bytes(header.data(), header.size());
  pad_to(user_offsets_off);
  write_bytes(user_json_offset_.data(), (num_users_u64 + 1) * 8);
  pad_to(edge_offsets_off);
  write_bytes(edge_json_offset_.data(), (num_edges_u64 + 1) * 8);
  pad_to(edge_keys_off);
  write_bytes(keys.data(), keys.size() * 8);
  pad_to(edge_ids_off);
  write_bytes(ids.data(), ids.size() * 8);
  pad_to(user_json_off);
  write_bytes(user_json_.data(), user_json_.size());
  pad_to(edge_json_off);
  write_bytes(edge_json_.data(), edge_json_.size());
  out.flush();
  if (!out.good() || written != file_size) {
    return Status::IOError("short write packing serve section into " +
                           snapshot_path);
  }
  return Status::OK();
}

Result<ReadModel> ReadModel::MapServeSection(const std::string& snapshot_path,
                                             const geo::Gazetteer* gazetteer) {
  Result<io::MmapFile> mapped = io::MmapFile::Open(snapshot_path);
  if (!mapped.ok()) return mapped.status();
  const uint8_t* data = mapped->data();
  const uint64_t size = mapped->size();
  Result<io::SnapshotHeaderInfo> core = io::ParseSnapshotHeader(data, size);
  if (!core.ok()) {
    return Status(core.status().code(),
                  core.status().message() + ": " + snapshot_path);
  }
  const uint64_t section_start = AlignUp(core->core_end, kServeAlign);
  if (size < section_start + kServeHeaderBytes ||
      std::memcmp(data + section_start, kServeMagic, sizeof(kServeMagic)) !=
          0) {
    return Status::NotFound("snapshot has no serve section (run `mlpctl "
                            "pack` to append one): " +
                            snapshot_path);
  }
  const uint8_t* section = data + section_start;
  uint32_t version;
  std::memcpy(&version, section + 8, sizeof(version));
  if (version != kServeSectionVersion) {
    return Status::InvalidArgument(
        "serve section version " + std::to_string(version) +
        " unsupported (this build serves v" +
        std::to_string(kServeSectionVersion) +
        "; re-run `mlpctl pack`): " + snapshot_path);
  }
  uint32_t endian;
  std::memcpy(&endian, section + 12, sizeof(endian));
  if (endian != kServeEndianMarker) {
    return Status::InvalidArgument(
        "serve section written on an incompatible-endianness machine: " +
        snapshot_path);
  }
  const uint64_t stored_checksum = ReadU64(section + 16);
  Fnv1a64 checksum;
  checksum.Bytes(section + kServeChecksumStart,
                 kServeHeaderBytes - kServeChecksumStart);
  if (checksum.hash != stored_checksum) {
    return Status::IOError("serve section header checksum mismatch: " +
                           snapshot_path);
  }
  auto field = [section](int i) {
    return ReadU64(section + kServeChecksumStart + i * 8);
  };
  if (field(kFieldFileSize) != size) {
    return Status::IOError("serve section truncated (expected " +
                           std::to_string(field(kFieldFileSize)) +
                           " bytes, file has " + std::to_string(size) +
                           "): " + snapshot_path);
  }
  const uint64_t num_users = field(kFieldNumUsers);
  const uint64_t num_edges = field(kFieldNumEdges);
  const uint64_t num_keys = field(kFieldNumEdgeKeys);
  auto in_bounds = [size](uint64_t off, uint64_t bytes) {
    return off % kServeAlign == 0 && off <= size && bytes <= size - off;
  };
  // Counts are bounded (ids are served as int) before they are scaled to
  // bytes, so a crafted count cannot wrap (n + 1) * 8 back into range.
  constexpr uint64_t kMaxCount = uint64_t{1} << 31;
  auto array_in_bounds = [&](int offset_field, uint64_t count) {
    return count <= kMaxCount && in_bounds(field(offset_field), count * 8);
  };
  if (num_users >= kMaxCount || num_edges >= kMaxCount ||
      !array_in_bounds(kFieldUserOffsetsOff, num_users + 1) ||
      !array_in_bounds(kFieldEdgeOffsetsOff, num_edges + 1) ||
      !array_in_bounds(kFieldEdgeKeysOff, num_keys) ||
      !array_in_bounds(kFieldEdgeIdsOff, num_keys) ||
      !in_bounds(field(kFieldUserJsonOff), field(kFieldUserJsonSize)) ||
      !in_bounds(field(kFieldEdgeJsonOff), field(kFieldEdgeJsonSize))) {
    return Status::IOError("serve section layout out of bounds: " +
                           snapshot_path);
  }

  ReadModel model;
  model.gazetteer_ = gazetteer;
  model.mmap_backed_ = true;
  model.map_num_users_ = static_cast<int64_t>(num_users);
  model.map_num_edges_ = static_cast<int64_t>(num_edges);
  model.map_num_edge_keys_ = static_cast<int64_t>(num_keys);
  model.total_profile_entries_ =
      static_cast<int64_t>(field(kFieldTotalProfileEntries));
  model.alpha_ = ReadF64(section + kServeChecksumStart + kFieldAlpha * 8);
  model.beta_ = ReadF64(section + kServeChecksumStart + kFieldBeta * 8);
  model.layout_version_ = field(kFieldLayoutVersion);
  model.active_slots_ = static_cast<int64_t>(field(kFieldActiveSlots));
  model.fit_complete_ = field(kFieldFitComplete) != 0;
  model.map_user_json_offset_ =
      reinterpret_cast<const int64_t*>(data + field(kFieldUserOffsetsOff));
  model.map_edge_json_offset_ =
      reinterpret_cast<const int64_t*>(data + field(kFieldEdgeOffsetsOff));
  model.map_edge_keys_ =
      reinterpret_cast<const uint64_t*>(data + field(kFieldEdgeKeysOff));
  model.map_edge_ids_ =
      reinterpret_cast<const int64_t*>(data + field(kFieldEdgeIdsOff));
  model.map_user_json_ = std::string_view(
      reinterpret_cast<const char*>(data + field(kFieldUserJsonOff)),
      field(kFieldUserJsonSize));
  model.map_edge_json_ = std::string_view(
      reinterpret_cast<const char*>(data + field(kFieldEdgeJsonOff)),
      field(kFieldEdgeJsonSize));
  // Only the header is checksummed, so the arrays the query path indexes
  // blindly are validated once here, in one sequential scan: each CSR
  // starts at 0, never decreases and ends at its blob's size, and every
  // key-table id names an edge. Query-time accessors then cannot slice
  // outside a blob or index past the offset arrays.
  auto csr_valid = [](const int64_t* offset, uint64_t n, uint64_t blob) {
    if (offset[0] != 0 || static_cast<uint64_t>(offset[n]) != blob) {
      return false;
    }
    for (uint64_t i = 0; i < n; ++i) {
      if (offset[i + 1] < offset[i]) return false;
    }
    return true;
  };
  if (!csr_valid(model.map_user_json_offset_, num_users,
                 field(kFieldUserJsonSize)) ||
      !csr_valid(model.map_edge_json_offset_, num_edges,
                 field(kFieldEdgeJsonSize))) {
    return Status::IOError("serve section offsets disagree with blobs: " +
                           snapshot_path);
  }
  for (uint64_t i = 0; i < num_keys; ++i) {
    if (static_cast<uint64_t>(model.map_edge_ids_[i]) >= num_edges) {
      return Status::IOError("serve section edge id out of range: " +
                             snapshot_path);
    }
  }
  model.mapped_ = std::move(*mapped);
  return model;
}

}  // namespace serve
}  // namespace mlp
