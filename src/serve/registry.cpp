#include "serve/registry.hpp"

#include "common/error.hpp"
#include "drc/rules.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "select/masks.hpp"
#include "serve/protocol.hpp"

namespace pp::serve {

namespace {

RuleSet parse_rules(const std::string& spec) {
  const std::string suffix = "/2";
  if (spec.size() > suffix.size() &&
      spec.compare(spec.size() - suffix.size(), suffix.size(), suffix) == 0)
    return scale_rules_down(
        rules_by_name(spec.substr(0, spec.size() - suffix.size())), 2);
  return rules_by_name(spec);
}

}  // namespace

PatternPaintConfig ModelSpec::resolve_config() const {
  PatternPaintConfig cfg = config_by_name(preset);
  if (clip_size != 0) cfg.clip_size = clip_size;
  if (timesteps != 0) cfg.ddpm.T = timesteps;
  if (sample_steps != 0) cfg.ddpm.sample_steps = sample_steps;
  if (base_channels != 0) cfg.ddpm.unet.base_channels = base_channels;
  if (time_dim != 0) cfg.ddpm.unet.time_dim = time_dim;
  if (eta >= 0.0) cfg.ddpm.eta = static_cast<float>(eta);
  // Keep groups consistent with narrow override widths (groups must divide
  // base_channels; shrink to the largest divisor <= preset groups).
  while (cfg.ddpm.unet.groups > 1 &&
         cfg.ddpm.unet.base_channels % cfg.ddpm.unet.groups != 0)
    --cfg.ddpm.unet.groups;
  cfg.validate();
  return cfg;
}

bool ModelSpec::from_json(const obs::Json& j, ModelSpec* out,
                          std::string* err) {
  auto fail = [err](const std::string& msg) {
    if (err) *err = msg;
    return false;
  };
  out->key = get_string(j, "model", "");
  if (out->key.empty()) return fail("missing 'model' key");
  out->preset = get_string(j, "preset", "sd1");
  out->rules = get_string(j, "rules", "default");
  out->checkpoint = get_string(j, "checkpoint", "");
  if (!get_int(j, "clip", 0, &out->clip_size))
    return fail("clip must be an integer");
  if (!get_u64(j, "seed", out->init_seed, &out->init_seed))
    return fail("seed must be a whole number");
  if (!get_int(j, "timesteps", 0, &out->timesteps))
    return fail("timesteps must be an integer");
  if (!get_int(j, "sample_steps", 0, &out->sample_steps))
    return fail("sample_steps must be an integer");
  if (!get_int(j, "base_channels", 0, &out->base_channels))
    return fail("base_channels must be an integer");
  if (!get_int(j, "time_dim", 0, &out->time_dim))
    return fail("time_dim must be an integer");
  if (!get_double(j, "eta", -1.0, &out->eta))
    return fail("eta must be a number");
  return true;
}

ModelRegistry::EntryPtr ModelRegistry::load(const ModelSpec& spec) {
  static obs::Counter& loads = obs::metrics().counter("serve.model_loads");
  if (spec.key.empty()) throw ConfigError("ModelSpec: empty registry key");
  auto entry = std::make_shared<Entry>();
  entry->spec = spec;
  entry->cfg = spec.resolve_config();  // throws ConfigError on nonsense
  entry->pp = std::make_unique<PatternPaint>(entry->cfg,
                                             parse_rules(spec.rules),
                                             spec.init_seed);
  entry->masks = all_masks(entry->cfg.clip_size, entry->cfg.clip_size);
  if (!spec.checkpoint.empty())
    entry->trained = entry->pp->model().try_load(spec.checkpoint);

  std::lock_guard<std::mutex> lk(m_);
  auto it = entries_.find(spec.key);
  if (it != entries_.end()) {
    entry->generation = it->second->generation + 1;
    entry->route = it->second->route;  // affinity survives hot-swap
  } else {
    entry->route = next_route_++;
  }
  entries_[spec.key] = entry;
  loads.add(1);
  PP_LOG(Info) << "serve: model '" << spec.key << "' gen " << entry->generation
               << " preset " << spec.preset << " clip " << entry->cfg.clip_size
               << (entry->trained ? " (checkpoint loaded)" : " (untrained)");
  return entry;
}

ModelRegistry::EntryPtr ModelRegistry::get(const std::string& key) const {
  std::lock_guard<std::mutex> lk(m_);
  auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<std::string> ModelRegistry::keys() const {
  std::lock_guard<std::mutex> lk(m_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& kv : entries_) out.push_back(kv.first);
  return out;
}

obs::Json ModelRegistry::to_json() const {
  std::lock_guard<std::mutex> lk(m_);
  obs::Json arr = obs::Json::array();
  for (const auto& kv : entries_) {
    const Entry& e = *kv.second;
    obs::Json o = obs::Json::object();
    o.set("key", obs::Json(kv.first));
    o.set("preset", obs::Json(e.spec.preset));
    o.set("clip", obs::Json(e.cfg.clip_size));
    o.set("trained", obs::Json(e.trained));
    o.set("generation", obs::Json(e.generation));
    o.set("parameters", obs::Json(e.pp->model().net().parameter_count()));
    arr.push_back(std::move(o));
  }
  return arr;
}

}  // namespace pp::serve
