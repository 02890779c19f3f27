// mask_import: tape-out checking of mask sets read back from disk, on
// one thread. Set-up writes a suite of CIF texts: the compiler's own
// hierarchical CIF for smallChip(4) and largeChip(16,8), and a synthetic
// 24x24 array of a leaf cell that carries rectilinear polygons. One op
// is one pass over the suite; each text goes through parseCif, the
// HierIndex constructor, hierarchical DRC, hierarchical extraction and
// hierarchical GDS output. The seed shapes the leaf's polygons (same
// vertex counts, shifted jogs) and orders the suite.
#include "harness.hpp"

#include "cell/flatten.hpp"
#include "cell/hier_index.hpp"
#include "core/samples.hpp"
#include "core/session.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "geom/poly.hpp"
#include "geom/sweep.hpp"
#include "layout/cif.hpp"
#include "layout/cif_parser.hpp"
#include "layout/gds.hpp"
#include "tech/rules.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {
namespace {

using namespace bb;
using geom::Coord;
using geom::lambda;
using geom::Rect;
using tech::Layer;

constexpr std::size_t kArraySide = 24;
constexpr Coord kLeafSide = 60;  // lambda

/// A 60x60 lambda leaf: two transistors, a contact stack, a metal strip
/// across the full width (so abutting leaves connect), and two
/// rectilinear polygons, an L of metal and a U of poly, whose jogs the
/// seed moves by whole lambdas.
cell::Cell* makeLeaf(cell::CellLibrary& lib, Rng& rng) {
  cell::Cell* c = lib.create("poly_leaf");
  c->setBoundary({0, 0, lambda(kLeafSide), lambda(kLeafSide)});
  const auto L = [](Coord x0, Coord y0, Coord x1, Coord y1) {
    return Rect{lambda(x0), lambda(y0), lambda(x1), lambda(y1)};
  };
  for (const Coord dx : {Coord{0}, Coord{24}}) {
    c->addRect(Layer::Diffusion, L(dx + 8, 4, dx + 10, 20));
    c->addRect(Layer::Poly, L(dx + 2, 11, dx + 18, 13));
  }
  c->addRect(Layer::Poly, L(46, 8, 50, 12));
  c->addRect(Layer::Metal, L(46, 8, 50, 12));
  c->addRect(Layer::Contact, L(47, 9, 49, 11));
  c->addRect(Layer::Metal, L(0, 50, kLeafSide, 54));
  // L-shaped metal: arm lengths move with the seed.
  const Coord a = 10 + static_cast<Coord>(rng.below(6));
  c->addPolygon(Layer::Metal, geom::Polygon{{{lambda(4), lambda(26)},
                                             {lambda(4 + a), lambda(26)},
                                             {lambda(4 + a), lambda(30)},
                                             {lambda(8), lambda(30)},
                                             {lambda(8), lambda(40)},
                                             {lambda(4), lambda(40)}}});
  // U-shaped poly: the mouth depth moves with the seed.
  const Coord d = 4 + static_cast<Coord>(rng.below(4));
  c->addPolygon(Layer::Poly, geom::Polygon{{{lambda(30), lambda(26)},
                                            {lambda(44), lambda(26)},
                                            {lambda(44), lambda(42)},
                                            {lambda(40), lambda(42)},
                                            {lambda(40), lambda(30 + d)},
                                            {lambda(34), lambda(30 + d)},
                                            {lambda(34), lambda(42)},
                                            {lambda(30), lambda(42)}}});
  return c;
}

/// The array's CIF text, and its own artwork flattened for the
/// round-trip check.
std::pair<std::string, cell::FlatLayout> arrayCif(Rng& rng) {
  cell::CellLibrary lib;
  cell::Cell* leaf = makeLeaf(lib, rng);
  cell::Cell* top = lib.create("poly_array");
  const Coord pitch = lambda(kLeafSide);
  top->setBoundary({0, 0, static_cast<Coord>(kArraySide) * pitch,
                    static_cast<Coord>(kArraySide) * pitch});
  for (std::size_t j = 0; j < kArraySide; ++j) {
    for (std::size_t i = 0; i < kArraySide; ++i) {
      top->addInstance(leaf, geom::Transform{geom::Orientation::R0,
                                             {static_cast<Coord>(i) * pitch,
                                              static_cast<Coord>(j) * pitch}});
    }
  }
  return {layout::writeCifHier(*top), cell::flatten(*top)};
}

struct MaskSet {
  std::string label;
  std::string cif;
};

/// What one import produced, kept to check the op.
struct ImportOut {
  bool parsed = false;
  std::size_t violations = 0;
  std::size_t transistors = 0;
  std::size_t gdsBytes = 0;
  std::size_t units = 0;
};

ImportOut importOne(const MaskSet& m, const drc::DeckChecker& checker) {
  ImportOut out;
  cell::CellLibrary lib;
  layout::CifParseResult parsed;
  {
    Span s("layout.parse_cif");
    parsed = layout::parseCif(m.cif, lib);
  }
  if (!parsed.ok) return out;
  out.parsed = true;
  std::unique_ptr<cell::HierIndex> hier;
  {
    Span s("cell.hier_index");
    hier = std::make_unique<cell::HierIndex>(*parsed.top);
  }
  out.units = hier->units().size();
  {
    Span s("drc.check_hier");
    out.violations = checker.checkHier(*hier).violations.size();
  }
  {
    Span s("extract.extract_hier");
    out.transistors = extract::extractHier(*hier, {}).netlist.transistors().size();
  }
  {
    Span s("layout.write_gds_hier");
    out.gdsBytes = layout::writeGdsHier(*parsed.top).size();
  }
  return out;
}

/// Union area per layer, rects and (rectilinear) polygons together.
std::vector<Coord> layerAreas(const cell::FlatLayout& flat) {
  std::vector<Coord> areas;
  for (const Layer l : tech::kAllLayers) {
    std::vector<Rect> rs = flat.rects[static_cast<std::size_t>(l)];
    for (const auto& [pl, poly] : flat.polygons) {
      if (pl != l) continue;
      const std::vector<Rect> pieces = geom::poly::rectDecompose(poly);
      rs.insert(rs.end(), pieces.begin(), pieces.end());
    }
    areas.push_back(geom::sweep::unionArea(rs));
  }
  return areas;
}

std::vector<std::string> violationSet(const drc::DrcReport& rep) {
  std::vector<std::string> v;
  for (const drc::Violation& x : rep.violations) v.push_back(x.rule + "@" + geom::toString(x.where));
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

void runMaskImport(const RunConfig& cfg, Report& r) {
  const drc::DeckChecker checker(tech::meadConwayRules());
  std::vector<MaskSet> suite;
  std::vector<cell::FlatLayout> sourceFlat;  // the artwork each text was written from
  const auto setup = [&] {
    Rng rng(cfg.seed ^ 0x3A5CULL);
    suite.clear();
    sourceFlat.clear();
    for (const auto& [label, desc] :
         {std::pair{"smallChip(4)", core::samples::smallChip(4)},
          std::pair{"largeChip(16,8)", core::samples::largeChip(16, 8)}}) {
      auto chip = core::compileChip(desc);
      if (!chip) continue;
      suite.push_back({label, layout::writeCifHier(*(*chip)->top)});
      sourceFlat.push_back(cell::flatten(*(*chip)->top));
    }
    auto [text, flat] = arrayCif(rng);
    suite.push_back({"array24x24", std::move(text)});
    sourceFlat.push_back(std::move(flat));
    if (rng.below(2) == 1) {
      std::swap(suite.front(), suite.back());
      std::swap(sourceFlat.front(), sourceFlat.back());
    }
    for (const MaskSet& m : suite) (void)importOne(m, checker);  // warm-up
  };

  // ---- set-ups and, per mask set, the round trip and the hier-vs-flat
  // DRC and netlist checks. They hand the loop, per mask set, the
  // violation count, the transistor count and the GDS size.
  prepared(r, !cfg.trace, [&](Report& p) {
    timedSetup(p, 5, setup);
    p.check(suite.size() == 3, "a sample design failed to compile");
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const MaskSet& m = suite[i];
      cell::CellLibrary lib;
      const layout::CifParseResult parsed = layout::parseCif(m.cif, lib);
      p.check(parsed.ok, m.label + ": CIF does not parse: " + parsed.error);
      if (!parsed.ok) return;
      const cell::FlatLayout flat = cell::flatten(*parsed.top);
      p.check(layerAreas(flat) == layerAreas(sourceFlat[i]),
              m.label + ": per-layer areas changed across the CIF round trip");
      const cell::HierIndex hier(*parsed.top);
      auto t0 = Clock::now();
      const drc::DrcReport hierRep = checker.checkHier(hier);
      const double hierMs = msBetween(t0, Clock::now());
      t0 = Clock::now();
      const drc::DrcReport flatRep = checker.check(flat, parsed.top->boundary());
      const double flatMs = msBetween(t0, Clock::now());
      p.check(violationSet(hierRep) == violationSet(flatRep),
              m.label + ": checkHier differs from check");
      const extract::ExtractResult hx = extract::extractHier(hier, {});
      std::string why;
      p.check(extract::netlistsEquivalent(hx, extract::extractFlat(flat, {}), &why),
              m.label + ": extractHier differs from extractFlat: " + why);
      const ImportOut ref = importOne(m, checker);
      p.refs.insert(p.refs.end(), {ref.violations, ref.transistors, ref.gdsBytes});
      p.info.push_back({"violations." + m.label, static_cast<double>(hierRep.violations.size()),
                        "count"});
      p.info.push_back({"flat_rects." + m.label, static_cast<double>(flat.totalCount()), "count"});
      p.info.push_back({"check_hier_ms." + m.label, hierMs, "ms"});
      p.info.push_back({"check_flat_ms." + m.label, flatMs, "ms"});
      p.texts.push_back(m.label);
      p.texts.push_back(m.cif);
    }
  });
  r.check(r.refs.size() == 3 * 3 && r.texts.size() == 2 * 3,
          "reference count differs from the suite");
  if (!r.correct) return;

  // ---- the timed loop's own set-up: the mask texts the prepare phase
  // wrote, and one warm-up pass. Compiling the sample designs again here
  // would touch more memory than an op does.
  suite.clear();
  sourceFlat.clear();
  for (std::size_t i = 0; i < r.texts.size(); i += 2) suite.push_back({r.texts[i], r.texts[i + 1]});
  r.texts.clear();
  for (const MaskSet& m : suite) (void)importOne(m, checker);
  r.info.push_back({"peak_rss_after_setup_mb", peakRssMiB(), "MiB"});

  // ---- the timed loop.
  std::vector<ImportOut> outs(suite.size());
  const auto op = [&] {
    for (std::size_t i = 0; i < suite.size(); ++i) outs[i] = importOne(suite[i], checker);
  };
  const auto after = [&](bool) {
    r.attempted += 1;
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const ImportOut& o = outs[i];
      const std::uint64_t* ref = r.refs.data() + 3 * i;
      r.check(o.parsed && o.violations == ref[0] && o.transistors == ref[1] &&
                  o.gdsBytes == ref[2],
              suite[i].label + ": import differs from the reference");
      Tracer::get().count("cell.hier_units", static_cast<double>(o.units));
    }
  };
  measure(cfg, r, "mask_import", "op",
          [&](Report& rep, double secs) { timedLoop(rep, secs, 3, op, after); },
          [&](Report& rep) {
            Tracer& tr = Tracer::get();
            const auto ms = [&](const char* span) {
              rep.layers.push_back({std::string(span) + "_ms", medianOf(tr.perOpMs(span)), "ms"});
            };
            ms("layout.parse_cif");
            ms("cell.hier_index");
            ms("drc.check_hier");
            ms("extract.extract_hier");
            ms("layout.write_gds_hier");
            rep.layers.push_back({"cell.hier_units", medianOf(tr.perOpCount("cell.hier_units")),
                                  "count"});
          });
}

}  // namespace perfbench
