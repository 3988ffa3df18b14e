// Model registry of the pattern-generation service.
//
// Each finetuned checkpoint is loaded ONCE per (key) into an immutable
// Entry — a PatternPaint instance whose weights never change after load —
// and shared across all in-flight requests via shared_ptr refcounting.
// Re-loading a key builds a fresh Entry and atomically swaps the map slot
// (ref-counted hot-swap): requests that already resolved their handle keep
// generating against the old weights until they complete; new requests see
// the new generation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/patternpaint.hpp"
#include "obs/json.hpp"

namespace pp::serve {

/// What to load: a config preset plus optional CPU-scale overrides and an
/// optional checkpoint produced by Ddpm::save. Zero / negative / empty
/// override values mean "keep the preset's value".
struct ModelSpec {
  std::string key;                  ///< registry key clients address
  std::string preset = "sd1";       ///< config_by_name preset
  int clip_size = 0;                ///< clip edge; 0 = preset default
  std::string rules = "default";    ///< rules_by_name, optional "/2" suffix
  std::string checkpoint;           ///< path for Ddpm::try_load; "" = none
  std::uint64_t init_seed = 0x5EEDULL;  ///< weight-init seed when untrained
  int timesteps = 0;                ///< DdpmConfig::T override
  int sample_steps = 0;             ///< DdpmConfig::sample_steps override
  int base_channels = 0;            ///< UNetConfig::base_channels override
  int time_dim = 0;                 ///< UNetConfig::time_dim override
  double eta = -1.0;                ///< DdpmConfig::eta override (< 0 = keep)

  /// Resolves the spec into a validated config (throws pp::ConfigError on
  /// out-of-domain values, pp::Error on an unknown preset).
  PatternPaintConfig resolve_config() const;

  /// Parses the fields of a "load" request object. Returns false + err on
  /// ill-typed fields (domain errors surface later, from resolve_config).
  static bool from_json(const obs::Json& j, ModelSpec* out, std::string* err);
};

class ModelRegistry {
 public:
  struct Entry {
    ModelSpec spec;
    PatternPaintConfig cfg;
    std::unique_ptr<PatternPaint> pp;
    std::vector<Raster> masks;  ///< predefined inpainting masks at clip size
    bool trained = false;  ///< checkpoint found and loaded
    int generation = 1;    ///< bumped on each hot-swap of this key
    /// Executor-shard affinity: assigned round-robin at first load of the
    /// key and STABLE across hot-swap generations, so the sharded server
    /// routes every request for one model to one executor and continuous-
    /// batch coalescing stays effective (shard = route % shard count).
    std::size_t route = 0;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Builds, validates and publishes the spec under spec.key, replacing any
  /// previous generation (hot-swap; old handles stay valid). Throws
  /// pp::ConfigError / pp::Error on an invalid spec. Weight load happens
  /// here, once — requests only ever share the ready entry.
  EntryPtr load(const ModelSpec& spec);

  /// nullptr when the key is unknown.
  EntryPtr get(const std::string& key) const;

  std::vector<std::string> keys() const;

  /// Registry section of stats dumps: [{key, preset, clip, trained,
  /// generation, parameters}, ...].
  obs::Json to_json() const;

 private:
  mutable std::mutex m_;
  std::map<std::string, EntryPtr> entries_;
  std::size_t next_route_ = 0;  ///< round-robin shard-affinity assignment
};

}  // namespace pp::serve
