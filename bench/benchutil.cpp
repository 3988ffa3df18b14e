#include "benchutil.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "io/pattern_io.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"
#include "patterngen/track_generator.hpp"

namespace pp::bench {

namespace fs = std::filesystem;

Scale get_scale() {
  Scale s;
  const char* env = std::getenv("PP_SCALE");
  if (env && std::string(env) == "full") {
    s.full = true;
    s.starters = 20;
    s.variations = 2;
    s.iterations = 6;
    s.samples_per_iteration = 100;
    s.table3_samples = 100;
    s.fig9_sizes = {6, 12, 18, 24, 32, 40};
    s.fig9_trials = 10;
    s.baseline_corpus = 500;
    s.baseline_samples = 200;
    s.baseline_train_steps = 600;
  }
  return s;
}

std::string cache_dir() {
  const char* env = std::getenv("PP_CACHE_DIR");
  std::string dir = env ? env : "pp_cache";
  fs::create_directories(dir);
  return dir;
}

std::string results_dir() {
  std::string dir = "results";
  fs::create_directories(dir);
  return dir;
}

int clip_size() { return 32; }

RuleSet experiment_rules() { return scale_rules_down(advance_rules(), 2); }

std::vector<Raster> starter_patterns(int n) {
  std::string path = cache_dir() + "/starters_" + std::to_string(n) + ".txt";
  if (fs::exists(path)) {
    auto loaded = load_pattern_library(path);
    if (static_cast<int>(loaded.size()) == n) return loaded;
  }
  Rng rng(20250704);  // fixed seed: every bench sees identical starters
  TrackPatternGenerator gen(track_config_for_clip(clip_size()),
                            experiment_rules());
  auto starters = gen.generate(static_cast<std::size_t>(n), rng);
  save_pattern_library(starters, path);
  return starters;
}

int baseline_clip_size() { return 128; }

RuleSet baseline_rules() { return advance_rules(); }

int baseline_topology_size() { return 32; }

std::vector<Raster> baseline_corpus(int n) {
  std::string path = cache_dir() + "/corpus64_" + std::to_string(n) + ".txt";
  if (fs::exists(path)) {
    auto loaded = load_pattern_library(path);
    if (static_cast<int>(loaded.size()) == n) return loaded;
  }
  Rng rng(777001);
  TrackGenConfig cfg = track_config_for_clip(baseline_clip_size());
  cfg.p_segmented = 0.9;  // rich topologies, as commercial samples would be
  cfg.p_strap = 0.55;
  cfg.max_segment = baseline_clip_size() / 3;  // many end-to-end breaks
  TrackPatternGenerator gen(cfg, baseline_rules());
  auto corpus = gen.generate(static_cast<std::size_t>(n), rng);
  save_pattern_library(corpus, path);
  return corpus;
}

PatternPaintConfig experiment_config(const std::string& preset) {
  Scale s = get_scale();
  PatternPaintConfig cfg = config_by_name(preset);
  cfg.clip_size = clip_size();
  cfg.pretrain_corpus = 160;
  cfg.pretrain_steps = s.full ? 900 : 350;
  cfg.pretrain_batch = 6;
  cfg.finetune_steps = s.full ? 300 : 150;
  cfg.finetune_batch = 6;
  cfg.prior_samples = 8;
  cfg.variations_per_mask = s.variations;
  cfg.representatives = s.full ? 20 : 10;
  cfg.samples_per_iteration = s.samples_per_iteration;
  return cfg;
}

std::string config_label(const std::string& preset, bool finetuned) {
  return "PatternPaint-" + preset + (finetuned ? "-ft" : "-base");
}

std::unique_ptr<PatternPaint> make_model(const std::string& preset,
                                         bool finetuned,
                                         const std::vector<Raster>& starters) {
  auto build = [&] {
    auto pp = std::make_unique<PatternPaint>(
        experiment_config(preset), experiment_rules(),
        /*seed=*/0xC0FFEE + (preset == "sd2"));
    pp->pretrain(cache_dir() + "/pre_" + preset + ".bin");
    if (finetuned) {
      pp->finetune(starters, cache_dir() + "/ft_" + preset + ".bin");
    } else {
      pp->set_starters(starters);
    }
    return pp;
  };
  // Training on a cold cache draws from the model's rng_, loading from a
  // warm one does not. So fill the cache first, then hand back a fresh
  // instance that loads it: the sampler starts from the same state either
  // way, and save/load is exact, so the weights match too.
  build();
  return build();
}

namespace {

std::string traj_tag(const std::string& preset, bool finetuned, const Scale& s) {
  std::ostringstream os;
  os << preset << (finetuned ? "_ft" : "_base") << "_s" << s.starters << "_v"
     << s.variations << "_i" << s.iterations << "_n" << s.samples_per_iteration;
  return os.str();
}

bool load_trajectory(const std::string& base, Trajectory& out) {
  std::ifstream in(base + ".csv");
  if (!in.good()) return false;
  std::string line;
  std::getline(in, line);  // header
  out.points.clear();
  while (std::getline(in, line)) {
    std::istringstream row(line);
    IterationStats st;
    char c;
    row >> st.iteration >> c >> st.generated_total >> c >> st.legal_total >>
        c >> st.unique_total >> c >> st.h1 >> c >> st.h2;
    if (row.fail()) return false;
    out.points.push_back(st);
  }
  if (out.points.empty()) return false;
  if (!std::filesystem::exists(base + ".lib")) return false;
  out.library = load_pattern_library(base + ".lib");
  return true;
}

void save_trajectory(const std::string& base, const Trajectory& t) {
  std::ofstream out(base + ".csv");
  out << "iteration,generated,legal,unique,h1,h2\n";
  for (const auto& p : t.points)
    out << p.iteration << "," << p.generated_total << "," << p.legal_total
        << "," << p.unique_total << "," << p.h1 << "," << p.h2 << "\n";
  save_pattern_library(t.library, base + ".lib");
}

}  // namespace

void finalize_observability(const std::string& tool) {
  if (!obs::trace_enabled()) return;
  const char* trace_env = std::getenv("PP_TRACE_FILE");
  std::string trace_path =
      trace_env ? trace_env : results_dir() + "/trace_" + tool + ".json";
  if (obs::write_chrome_trace(trace_path))
    PP_LOG(Info) << "chrome trace: " << trace_path;
  else
    PP_LOG(Warn) << "could not write chrome trace " << trace_path;
}

Trajectory run_trajectory(const std::string& preset, bool finetuned) {
  Scale s = get_scale();
  std::string base = cache_dir() + "/traj_" + traj_tag(preset, finetuned, s);
  Trajectory t;
  if (load_trajectory(base, t)) return t;

  auto starters = starter_patterns(s.starters);
  auto model = make_model(preset, finetuned, starters);
  t.points = model->run(s.iterations);
  t.library = model->library().clips();
  save_trajectory(base, t);
  return t;
}

}  // namespace pp::bench
