// Section 5.1 geometry: guard-region areas and expected guard counts.
//
// Prints the closed-form quantities next to the figures the paper quotes.
// (The paper rounds aggressively; we report exact values.)
//
// Standard flags (bench_common.h): --json emits the lens-area and
// guard-count tables as JSON rows; --runs/--seed/--threads are accepted
// for CLI uniformity but unused (closed-form evaluation).
#include <cstdio>

#include "analysis/coverage.h"
#include "bench_common.h"
#include "util/config.h"
#include "util/math_util.h"

constexpr const char* kUsage = "usage: bench_sec51_geometry [--json]";

static int run_bench(lw::Config& args) {
  const bench::Common common = bench::parse_common(args, 1, 0);
  lw::cli::reject_unknown(args);

  if (common.json) {
    bench::JsonRows rows;
    for (double x = 0.0; x <= 1.0001; x += 0.125) {
      rows.field("kind", std::string("lens_area"))
          .field("x_over_r", x)
          .field("area_over_r2", lw::analysis::lens_area(x, 1.0));
      rows.end_row();
    }
    for (double nb : {3.0, 5.0, 8.0, 10.0, 15.0, 20.0}) {
      rows.field("kind", std::string("guards"))
          .field("nb", nb)
          .field("expected_guards", lw::analysis::expected_guards(nb))
          .field("min_guards", lw::analysis::min_guards(nb));
      rows.end_row();
    }
    std::puts(rows.str().c_str());
    return 0;
  }

  std::puts("== Section 5.1: guard geometry ==\n");

  std::puts("Lens area A(x) between two discs of radius r, centers x apart");
  std::puts("(the region from which a node guards the link S -> D):\n");
  std::printf("  %-8s %-12s %s\n", "x/r", "A(x)/r^2", "A(x)/(pi r^2)");
  for (double x = 0.0; x <= 1.0001; x += 0.125) {
    const double area = lw::analysis::lens_area(x, 1.0);
    std::printf("  %-8.3f %-12.4f %.4f\n", x, area, area / lw::kPi);
  }

  std::printf("\n  minimum area (x = r): %.4f r^2 = %.3f pi r^2   "
              "(paper: \"0.36\")\n",
              lw::analysis::min_lens_area(1.0),
              lw::analysis::min_lens_area(1.0) / lw::kPi);
  std::printf("  expected area E[A]  : %.4f r^2 = %.3f pi r^2   "
              "(paper: \"1.6 r^2\")\n",
              lw::analysis::expected_lens_area(1.0),
              lw::analysis::expected_lens_area(1.0) / lw::kPi);

  std::puts("\nExpected guards per link, g = E[A] d (N_B = pi r^2 d):\n");
  std::printf("  %-8s %-12s %s\n", "N_B", "E[guards]", "min guards");
  for (double nb : {3.0, 5.0, 8.0, 10.0, 15.0, 20.0}) {
    std::printf("  %-8.1f %-12.2f %.2f\n", nb,
                lw::analysis::expected_guards(nb),
                lw::analysis::min_guards(nb));
  }
  std::printf("\n  g = %.4f N_B (paper: 0.51 N_B), g_min = %.4f N_B "
              "(paper: 0.36 pi r^2 d)\n",
              lw::analysis::expected_guards(1.0),
              lw::analysis::min_guards(1.0));

  std::puts("\nDesign query: density required for a detection target");
  std::puts("(kappa=7, k=5, gamma=3, P_C = 0.05 at N_B = 3):\n");
  lw::analysis::CoverageParams params;
  for (double target : {0.80, 0.90, 0.95, 0.99}) {
    const double nb =
        lw::analysis::neighbors_for_detection(params, target, 3.0, 40.0);
    if (nb > 0) {
      std::printf("  P(detect) >= %.2f  needs N_B >= %.1f\n", target, nb);
    } else {
      std::printf("  P(detect) >= %.2f  unattainable below N_B = 40\n",
                  target);
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  return lw::cli::run(argc, argv, "bench_sec51_geometry",
                      kUsage + bench::kStandardFlags, run_bench);
}
