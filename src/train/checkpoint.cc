#include "train/checkpoint.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/io/atomic_file.h"
#include "common/io/crc32.h"
#include "common/logging.h"

namespace d2stgnn::train {
namespace {

constexpr char kMagicV1[8] = {'D', '2', 'C', 'K', 'P', 'T', '0', '1'};
constexpr char kMagicV2[8] = {'D', '2', 'C', 'K', 'P', 'T', '0', '2'};
constexpr char kEpochPrefix[] = "ckpt-";
constexpr char kEpochSuffix[] = ".d2ck";

// ---------------------------------------------------------------------------
// Payload builders (little-endian host, like the rest of the project).

void AppendBytes(std::vector<uint8_t>* buf, const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  buf->insert(buf->end(), bytes, bytes + n);
}

void AppendU64(std::vector<uint8_t>* buf, uint64_t v) {
  AppendBytes(buf, &v, sizeof(v));
}

void AppendI64(std::vector<uint8_t>* buf, int64_t v) {
  AppendBytes(buf, &v, sizeof(v));
}

void AppendF32(std::vector<uint8_t>* buf, float v) {
  AppendBytes(buf, &v, sizeof(v));
}

void AppendF64(std::vector<uint8_t>* buf, double v) {
  AppendBytes(buf, &v, sizeof(v));
}

void AppendString(std::vector<uint8_t>* buf, const std::string& s) {
  AppendU64(buf, s.size());
  AppendBytes(buf, s.data(), s.size());
}

void AppendFloatVector(std::vector<uint8_t>* buf,
                       const std::vector<float>& v) {
  AppendU64(buf, v.size());
  AppendBytes(buf, v.data(), v.size() * sizeof(float));
}

// ---------------------------------------------------------------------------
// Bounds-checked cursor over an in-memory payload. Every accessor keeps an
// `ok` flag; once a read runs past the end, all further reads fail, so
// callers can batch reads and check ok() once.

class Cursor {
 public:
  Cursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  size_t remaining() const { return size_ - pos_; }

  bool ReadRaw(void* out, size_t n) {
    if (!ok_ || n > remaining()) {
      ok_ = false;
      return false;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  uint64_t ReadU64() {
    uint64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }

  int64_t ReadI64() {
    int64_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }

  uint32_t ReadU32() {
    uint32_t v = 0;
    ReadRaw(&v, sizeof(v));
    return v;
  }

  float ReadF32() {
    float v = 0.0f;
    ReadRaw(&v, sizeof(v));
    return v;
  }

  double ReadF64() {
    double v = 0.0;
    ReadRaw(&v, sizeof(v));
    return v;
  }

  std::string ReadString() {
    const uint64_t len = ReadU64();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return std::string();
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return s;
  }

  std::vector<float> ReadFloatVector() {
    const uint64_t numel = ReadU64();
    std::vector<float> v;
    if (!ok_ || numel > remaining() / sizeof(float)) {
      ok_ = false;
      return v;
    }
    v.resize(static_cast<size_t>(numel));
    ReadRaw(v.data(), static_cast<size_t>(numel) * sizeof(float));
    return v;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Section payloads.

using Section = std::pair<std::string, std::vector<uint8_t>>;

std::vector<uint8_t> BuildParamsPayload(const nn::Module& module) {
  std::vector<uint8_t> payload;
  const auto params = module.NamedParameters();
  AppendU64(&payload, params.size());
  for (const auto& [name, tensor] : params) {
    AppendString(&payload, name);
    AppendFloatVector(&payload, tensor.Data());
  }
  return payload;
}

std::vector<uint8_t> BuildOptimizerPayload(
    const optim::OptimizerState& state) {
  std::vector<uint8_t> payload;
  AppendString(&payload, state.type);
  AppendI64(&payload, state.step_count);
  AppendF32(&payload, state.learning_rate);
  AppendU64(&payload, state.slots.size());
  for (const auto& [slot_name, entries] : state.slots) {
    AppendString(&payload, slot_name);
    AppendU64(&payload, entries.size());
    for (const std::vector<float>& entry : entries) {
      AppendFloatVector(&payload, entry);
    }
  }
  return payload;
}

std::vector<uint8_t> BuildTrainerPayload(const TrainerProgress& progress) {
  std::vector<uint8_t> payload;
  AppendI64(&payload, progress.next_epoch);
  AppendI64(&payload, progress.next_batch);
  AppendI64(&payload, progress.updates);
  AppendI64(&payload, progress.curriculum_step);
  AppendF64(&payload, progress.partial_loss_sum);
  AppendI64(&payload, progress.best_epoch);
  AppendF64(&payload, progress.best_val_mae);
  AppendI64(&payload, progress.epochs_without_improvement);
  AppendU64(&payload, progress.history.size());
  for (const EpochStats& stats : progress.history) {
    AppendF64(&payload, stats.train_loss);
    AppendF64(&payload, stats.seconds);
    AppendF64(&payload, stats.validation.mae);
    AppendF64(&payload, stats.validation.rmse);
    AppendF64(&payload, stats.validation.mape);
    AppendI64(&payload, stats.validation.count);
  }
  return payload;
}

std::vector<uint8_t> BuildRngPayload(const RngState& state) {
  std::vector<uint8_t> payload;
  for (uint64_t word : state.words) AppendU64(&payload, word);
  AppendU64(&payload, state.has_cached_normal ? 1 : 0);
  AppendF32(&payload, state.cached_normal);
  return payload;
}

std::vector<uint8_t> BuildBestParamsPayload(
    const std::vector<std::vector<float>>& best_params) {
  std::vector<uint8_t> payload;
  AppendU64(&payload, best_params.size());
  for (const std::vector<float>& p : best_params) {
    AppendFloatVector(&payload, p);
  }
  return payload;
}

bool ParseOptimizerPayload(Cursor cursor, optim::OptimizerState* out) {
  optim::OptimizerState state;
  state.type = cursor.ReadString();
  state.step_count = cursor.ReadI64();
  state.learning_rate = cursor.ReadF32();
  const uint64_t num_slots = cursor.ReadU64();
  for (uint64_t s = 0; cursor.ok() && s < num_slots; ++s) {
    std::string slot_name = cursor.ReadString();
    const uint64_t num_entries = cursor.ReadU64();
    std::vector<std::vector<float>> entries;
    for (uint64_t e = 0; cursor.ok() && e < num_entries; ++e) {
      entries.push_back(cursor.ReadFloatVector());
    }
    state.slots.emplace_back(std::move(slot_name), std::move(entries));
  }
  if (!cursor.ok()) return false;
  *out = std::move(state);
  return true;
}

bool ParseTrainerPayload(Cursor cursor, TrainerProgress* out) {
  TrainerProgress progress;
  progress.next_epoch = cursor.ReadI64();
  progress.next_batch = cursor.ReadI64();
  progress.updates = cursor.ReadI64();
  progress.curriculum_step = cursor.ReadI64();
  progress.partial_loss_sum = cursor.ReadF64();
  progress.best_epoch = cursor.ReadI64();
  progress.best_val_mae = cursor.ReadF64();
  progress.epochs_without_improvement = cursor.ReadI64();
  const uint64_t history_count = cursor.ReadU64();
  for (uint64_t i = 0; cursor.ok() && i < history_count; ++i) {
    EpochStats stats;
    stats.train_loss = cursor.ReadF64();
    stats.seconds = cursor.ReadF64();
    stats.validation.mae = cursor.ReadF64();
    stats.validation.rmse = cursor.ReadF64();
    stats.validation.mape = cursor.ReadF64();
    stats.validation.count = cursor.ReadI64();
    progress.history.push_back(stats);
  }
  if (!cursor.ok()) return false;
  *out = std::move(progress);
  return true;
}

bool ParseRngPayload(Cursor cursor, RngState* out) {
  RngState state;
  for (uint64_t& word : state.words) word = cursor.ReadU64();
  state.has_cached_normal = cursor.ReadU64() != 0;
  state.cached_normal = cursor.ReadF32();
  if (!cursor.ok()) return false;
  *out = state;
  return true;
}

bool ParseBestParamsPayload(Cursor cursor,
                            std::vector<std::vector<float>>* out) {
  const uint64_t count = cursor.ReadU64();
  std::vector<std::vector<float>> best;
  for (uint64_t i = 0; cursor.ok() && i < count; ++i) {
    best.push_back(cursor.ReadFloatVector());
  }
  if (!cursor.ok()) return false;
  *out = std::move(best);
  return true;
}

// Parses a params payload (shared by v1 bodies and v2 "params" sections)
// into a staging list, then validates names/sizes against the module.
// Nothing is written to the module here.
bool ParseAndValidateParams(Cursor cursor, const nn::Module& module,
                            const std::string& path,
                            std::vector<std::vector<float>>* staging) {
  const auto params = module.NamedParameters();
  const uint64_t count = cursor.ReadU64();
  if (!cursor.ok() || count != params.size()) {
    D2_LOG(ERROR) << path << " has " << count << " parameters, module has "
                  << params.size();
    return false;
  }
  staging->clear();
  staging->reserve(params.size());
  for (const auto& [name, tensor] : params) {
    const std::string saved_name = cursor.ReadString();
    if (!cursor.ok() || saved_name != name) {
      D2_LOG(ERROR) << path << ": parameter name mismatch: checkpoint '"
                    << saved_name << "' vs module '" << name << "'";
      return false;
    }
    std::vector<float> data = cursor.ReadFloatVector();
    if (!cursor.ok() || data.size() != tensor.Data().size()) {
      D2_LOG(ERROR) << path << ": parameter '" << name
                    << "' size mismatch: " << data.size() << " vs "
                    << tensor.Data().size();
      return false;
    }
    staging->push_back(std::move(data));
  }
  return true;
}

// Commits validated staging data into the module. Cannot fail: every
// entry was already checked against the module's layout.
void CommitParams(nn::Module* module,
                  const std::vector<std::vector<float>>& staging) {
  auto params = module->NamedParameters();
  for (size_t i = 0; i < params.size(); ++i) {
    params[i].second.Data() = staging[i];
  }
}

// One CRC-verified section of a parsed v2 file (borrows the file buffer).
struct SectionView {
  std::string name;
  const uint8_t* data = nullptr;
  size_t size = 0;
};

// Splits a v2 file into sections and verifies every CRC. Returns false on
// any structural or integrity violation.
bool ParseV2Sections(const std::vector<uint8_t>& bytes,
                     const std::string& path,
                     std::vector<SectionView>* sections) {
  Cursor cursor(bytes.data(), bytes.size());
  char magic[sizeof(kMagicV2)];
  cursor.ReadRaw(magic, sizeof(magic));
  if (!cursor.ok() || std::memcmp(magic, kMagicV2, sizeof(magic)) != 0) {
    D2_LOG(ERROR) << path << " is not a v2 checkpoint";
    return false;
  }
  const uint64_t section_count = cursor.ReadU64();
  const size_t base = sizeof(kMagicV2) + sizeof(uint64_t);
  size_t pos = base;
  for (uint64_t s = 0; s < section_count; ++s) {
    Cursor header(bytes.data() + pos, bytes.size() - pos);
    const std::string name = header.ReadString();
    const uint64_t payload_len = header.ReadU64();
    const uint32_t expected_crc = header.ReadU32();
    if (!header.ok() || payload_len > header.remaining()) {
      D2_LOG(ERROR) << path << ": truncated section header (section " << s
                    << ")";
      return false;
    }
    const size_t header_size =
        sizeof(uint64_t) + name.size() + sizeof(uint64_t) + sizeof(uint32_t);
    const uint8_t* payload = bytes.data() + pos + header_size;
    const uint32_t actual_crc =
        io::Crc32(payload, static_cast<size_t>(payload_len));
    if (actual_crc != expected_crc) {
      D2_LOG(ERROR) << path << ": CRC mismatch in section '" << name
                    << "' (stored " << expected_crc << ", computed "
                    << actual_crc << ") — checkpoint is corrupt";
      return false;
    }
    sections->push_back(
        SectionView{name, payload, static_cast<size_t>(payload_len)});
    pos += header_size + static_cast<size_t>(payload_len);
  }
  if (pos != bytes.size()) {
    D2_LOG(ERROR) << path << ": " << bytes.size() - pos
                  << " trailing bytes after last section";
    return false;
  }
  return true;
}

const SectionView* FindSection(const std::vector<SectionView>& sections,
                               const std::string& name) {
  for (const SectionView& s : sections) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool WriteCheckpointFile(const std::string& path,
                         const std::vector<Section>& sections,
                         std::string* error = nullptr) {
  io::AtomicFileWriter writer(path, "checkpoint");
  writer.Write(kMagicV2, sizeof(kMagicV2));
  const uint64_t count = sections.size();
  writer.Write(&count, sizeof(count));
  for (const auto& [name, payload] : sections) {
    std::vector<uint8_t> header;
    AppendString(&header, name);
    AppendU64(&header, payload.size());
    const uint32_t crc = io::Crc32(payload.data(), payload.size());
    AppendBytes(&header, &crc, sizeof(crc));
    writer.Write(header.data(), static_cast<int64_t>(header.size()));
    writer.Write(payload.data(), static_cast<int64_t>(payload.size()));
  }
  if (!writer.Commit()) {
    D2_LOG(ERROR) << "failed to save checkpoint " << path << " ("
                  << writer.error() << "); previous checkpoint, if any, is "
                  << "intact";
    if (error != nullptr) *error = writer.error();
    return false;
  }
  return true;
}

// Shared loader. `state` may be null (model-only load); `require_state`
// demands the training sections be present.
bool LoadImpl(nn::Module* module, TrainingCheckpoint* state,
              const std::string& path, bool require_state) {
  if (module == nullptr) return false;
  if (state != nullptr) *state = TrainingCheckpoint();
  std::vector<uint8_t> bytes;
  if (!io::ReadFileBytes(path, &bytes)) return false;
  if (bytes.size() < sizeof(kMagicV2)) {
    D2_LOG(ERROR) << path << " is not a d2stgnn checkpoint (too short)";
    return false;
  }

  // v1: model-only body, no CRC. Still loaded via staging so a mid-file
  // mismatch can no longer leave the module partially updated.
  if (std::memcmp(bytes.data(), kMagicV1, sizeof(kMagicV1)) == 0) {
    if (require_state) {
      D2_LOG(ERROR) << path << " is a v1 (model-only) checkpoint; it has no "
                    << "training state to resume from";
      return false;
    }
    Cursor cursor(bytes.data() + sizeof(kMagicV1),
                  bytes.size() - sizeof(kMagicV1));
    std::vector<std::vector<float>> staging;
    if (!ParseAndValidateParams(cursor, *module, path, &staging)) return false;
    CommitParams(module, staging);
    return true;
  }

  if (std::memcmp(bytes.data(), kMagicV2, sizeof(kMagicV2)) != 0) {
    D2_LOG(ERROR) << path << " is not a d2stgnn checkpoint";
    return false;
  }

  std::vector<SectionView> sections;
  if (!ParseV2Sections(bytes, path, &sections)) return false;

  const SectionView* params_section = FindSection(sections, "params");
  if (params_section == nullptr) {
    D2_LOG(ERROR) << path << " has no params section";
    return false;
  }
  std::vector<std::vector<float>> staging;
  if (!ParseAndValidateParams(
          Cursor(params_section->data, params_section->size), *module, path,
          &staging)) {
    return false;
  }

  // Stage the training sections before committing anything.
  TrainingCheckpoint staged_state;
  bool has_state = false;
  if (state != nullptr || require_state) {
    const SectionView* optimizer = FindSection(sections, "optimizer");
    const SectionView* trainer = FindSection(sections, "trainer");
    const SectionView* rng = FindSection(sections, "rng");
    has_state = optimizer != nullptr && trainer != nullptr && rng != nullptr;
    if (require_state && !has_state) {
      D2_LOG(ERROR) << path << " is a model-only checkpoint; it has no "
                    << "training state to resume from";
      return false;
    }
    if (has_state) {
      if (!ParseOptimizerPayload(Cursor(optimizer->data, optimizer->size),
                                 &staged_state.optimizer) ||
          !ParseTrainerPayload(Cursor(trainer->data, trainer->size),
                               &staged_state.progress) ||
          !ParseRngPayload(Cursor(rng->data, rng->size),
                           &staged_state.shuffle_rng)) {
        D2_LOG(ERROR) << path << ": malformed training-state section";
        return false;
      }
      const SectionView* best = FindSection(sections, "best_params");
      if (best != nullptr &&
          !ParseBestParamsPayload(Cursor(best->data, best->size),
                                  &staged_state.best_params)) {
        D2_LOG(ERROR) << path << ": malformed best_params section";
        return false;
      }
    }
  }

  // Everything validated — commit.
  CommitParams(module, staging);
  if (state != nullptr && has_state) *state = std::move(staged_state);
  return !require_state || has_state;
}

}  // namespace

bool SaveCheckpoint(const nn::Module& module, const std::string& path,
                    std::string* error) {
  std::vector<Section> sections;
  sections.emplace_back("params", BuildParamsPayload(module));
  return WriteCheckpointFile(path, sections, error);
}

bool LoadCheckpoint(nn::Module* module, const std::string& path) {
  return LoadImpl(module, nullptr, path, /*require_state=*/false);
}

bool SaveTrainingCheckpoint(const nn::Module& module,
                            const TrainingCheckpoint& state,
                            const std::string& path) {
  std::vector<Section> sections;
  sections.emplace_back("params", BuildParamsPayload(module));
  sections.emplace_back("optimizer", BuildOptimizerPayload(state.optimizer));
  sections.emplace_back("trainer", BuildTrainerPayload(state.progress));
  sections.emplace_back("rng", BuildRngPayload(state.shuffle_rng));
  if (!state.best_params.empty()) {
    sections.emplace_back("best_params",
                          BuildBestParamsPayload(state.best_params));
  }
  return WriteCheckpointFile(path, sections);
}

bool LoadTrainingCheckpoint(nn::Module* module, TrainingCheckpoint* state,
                            const std::string& path) {
  if (state == nullptr) return false;
  return LoadImpl(module, state, path, /*require_state=*/true);
}

std::string CheckpointPathForStep(const std::string& dir, int64_t step) {
  char name[40];
  std::snprintf(name, sizeof(name), "%s%09lld%s", kEpochPrefix,
                static_cast<long long>(step), kEpochSuffix);
  return dir + "/" + name;
}

std::string BestCheckpointPath(const std::string& dir) {
  return dir + "/best" + kEpochSuffix;
}

namespace {

// Epoch checkpoint filenames in `dir`, sorted ascending (zero-padded names
// make lexicographic order epoch order).
std::vector<std::string> ListEpochCheckpoints(const std::string& dir) {
  std::vector<std::string> names;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return names;
  const std::string prefix = kEpochPrefix;
  const std::string suffix = kEpochSuffix;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name.size() <= prefix.size() + suffix.size()) continue;
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
      continue;  // skips in-flight ".tmp.<pid>" files
    }
    names.push_back(name);
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

std::string LatestCheckpoint(const std::string& dir) {
  const std::vector<std::string> names = ListEpochCheckpoints(dir);
  if (names.empty()) return std::string();
  return dir + "/" + names.back();
}

void PruneCheckpoints(const std::string& dir, int64_t keep_last) {
  if (keep_last <= 0) return;
  const std::vector<std::string> names = ListEpochCheckpoints(dir);
  if (static_cast<int64_t>(names.size()) <= keep_last) return;
  const size_t remove_count = names.size() - static_cast<size_t>(keep_last);
  for (size_t i = 0; i < remove_count; ++i) {
    const std::string path = dir + "/" + names[i];
    if (::unlink(path.c_str()) != 0) {
      D2_LOG(WARNING) << "could not remove old checkpoint " << path;
    }
  }
}

}  // namespace d2stgnn::train
