// A1 (machine-independent stand-in for the paper's RS/6000 timings): run
// the point and automatically blocked LU through the cache simulator at
// several matrix sizes and cache geometries and report miss ratios.  This
// regenerates the *memory* behaviour behind every timing table without
// depending on the host's hierarchy.
#include <cstdio>

#include "bench/benchutil.hpp"
#include "cachesim/cache.hpp"
#include "ir/builder.hpp"
#include "kernels/ir_kernels.hpp"
#include "pm/runner.hpp"
#include "pm/spec.hpp"

namespace {

using namespace blk;
using namespace blk::ir;
using namespace blk::ir::dsl;

Program blocked_lu() {
  Program p = kernels::lu_point_ir();
  p.param("KS");
  analysis::Assumptions hints;
  hints.assert_le(v("K") + v("KS") - 1, v("N") - 1);
  pm::RunReport r = pm::run_spec(p, "autoblock(b=KS)", hints);
  if (r.passes[0].note.rfind("blocked", 0) != 0)
    std::fprintf(stderr, "autoblock failed: %s\n", r.passes[0].note.c_str());
  return p;
}

/// The KS the compiler chooses for point LU of order `n` on a machine
/// with this L1: what `selectblock` (default options) resolves with N
/// bound, as `blk-opt --bind N=n` runs it.  Bound, the sweep measures the
/// row's own size; at the probe size alone it can miss conflict misses
/// that only a power-of-two leading dimension shows.
long selected_ks(const cachesim::CacheConfig& l1, long n) {
  Program p = kernels::lu_point_ir();
  pm::PipelineContext ctx(p);
  ctx.machine = {l1};
  ctx.resolved["N"] = n;
  (void)pm::run_pipeline(pm::parse_pipeline("selectblock"), ctx);
  return ctx.resolved.at("KS");
}

}  // namespace

int main() {
  Program point = kernels::lu_point_ir();
  Program blocked = blocked_lu();

  struct Geometry {
    const char* name;
    cachesim::CacheConfig cfg;
  };
  const Geometry geos[] = {
      {"16KB/64B/4w", {.size_bytes = 16 * 1024, .line_bytes = 64, .assoc = 4}},
      {"64KB/128B/4w (RS/6000 540)",
       {.size_bytes = 64 * 1024, .line_bytes = 128, .assoc = 4}},
      {"256KB/64B/8w",
       {.size_bytes = 256 * 1024, .line_bytes = 64, .assoc = 8}},
  };

  blk::bench::Table t({"Cache", "N", "KS (selectblock)", "Point miss%",
                       "Blocked miss%", "Miss reduction"});
  for (const auto& g : geos) {
    // N=300 is the paper's headline size; feasible since the bytecode VM
    // streams the ~10^8-access trace through the simulator in batches, but
    // only worth the wall-clock at the RS/6000 geometry itself.
    const bool rs6000 = g.cfg.size_bytes == 64 * 1024;
    for (long n : {64L, 128L, 192L, 300L}) {
      if (n == 300 && !rs6000) continue;
      // The blocking factor is the compiler's choice (§6: selectblock's
      // analytic model refined by its trace sweep).
      const long ks = selected_ks(g.cfg, n);
      auto sp = cachesim::simulate(point, {{"N", n}}, g.cfg);
      auto sb = cachesim::simulate(blocked, {{"N", n}, {"KS", ks}}, g.cfg);
      char pm[32], bm[32], red[32];
      std::snprintf(pm, sizeof pm, "%.2f%%", 100.0 * sp.miss_ratio());
      std::snprintf(bm, sizeof bm, "%.2f%%", 100.0 * sb.miss_ratio());
      std::snprintf(red, sizeof red, "%.2fx",
                    static_cast<double>(sp.misses) /
                        static_cast<double>(sb.misses ? sb.misses : 1));
      t.row({g.name, std::to_string(n), std::to_string(ks), pm, bm, red});
    }
  }
  t.print("A1: cache-simulator miss ratios, point vs automatically blocked "
          "LU (the machine-independent mechanism behind tables T3/T4)");

  // Block-size sensitivity at the paper's cache size: selectblock's choice
  // for this geometry and N (table A1) should sit near the sweet spot.
  blk::bench::Table t2({"KS", "Blocked miss% (64KB cache, N=192)"});
  cachesim::CacheConfig rs{.size_bytes = 64 * 1024, .line_bytes = 128,
                           .assoc = 4};
  for (long ks : {4L, 8L, 16L, 32L, 64L, 128L}) {
    auto sb = cachesim::simulate(blocked, {{"N", 192}, {"KS", ks}}, rs);
    char bm[32];
    std::snprintf(bm, sizeof bm, "%.2f%%", 100.0 * sb.miss_ratio());
    t2.row({std::to_string(ks), bm});
  }
  t2.print("A1b: block-size sweep under the RS/6000 cache model");
  return 0;
}
