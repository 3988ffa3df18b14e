// Fig. 7 reproduction: iterative-generation trajectories (legal pattern
// count, unique pattern count, H1, H2 per iteration) for the four
// PatternPaint model configurations.
//
// Expected shape (paper): legal/unique counts and H2 grow monotonically
// with iterations; H1 drifts slightly down (sub-region edits replicate
// topologies); finetuned models dominate their base counterparts.
#include <cstdio>

#include "benchutil.hpp"
#include "io/csv.hpp"

int main() {
  using namespace pp;
  using namespace pp::bench;
  Scale scale = get_scale();
  std::printf("=== Fig. 7: iterative generation trajectories (%s scale) ===\n",
              scale.full ? "full" : "quick");
  std::printf("clips %dx%d, rules %s, %d starters, %d iterations\n\n",
              clip_size(), clip_size(), experiment_rules().name.c_str(),
              scale.starters, scale.iterations);

  CsvWriter csv(results_dir() + "/fig7.csv");
  csv.row("config", "iteration", "generated", "legal", "unique", "h1", "h2");

  const char* presets[] = {"sd1", "sd2"};
  const bool fts[] = {false, true};
  for (const char* preset : presets) {
    for (bool ft : fts) {
      Trajectory t = run_trajectory(preset, ft);
      std::string label = config_label(preset, ft);
      std::printf("%-24s %5s %9s %7s %7s %7s %7s\n", label.c_str(), "iter",
                  "generated", "legal", "unique", "H1", "H2");
      for (const auto& p : t.points) {
        std::printf("%-24s %5d %9zu %7zu %7zu %7.2f %7.2f\n", "", p.iteration,
                    p.generated_total, p.legal_total, p.unique_total, p.h1,
                    p.h2);
        csv.row(label, p.iteration, p.generated_total, p.legal_total,
                p.unique_total, p.h1, p.h2);
      }
      std::printf("\n");
    }
  }
  std::printf("series written to %s/fig7.csv\n", results_dir().c_str());
  finalize_observability("fig7_iterative");
  return 0;
}
