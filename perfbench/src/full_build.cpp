// full_build: the paper's TIME workload. One op is one pass over a fixed
// suite, the accumulator chip smallChip(4) and the "fairly large chip"
// largeChip(16,8): each goes from ICL text through the six compile
// stages, whole-die DRC, lint and all eleven registry emitters, on one
// thread. After each build the die sign-off (an empty die DRC report) is
// counted as an op of its own, attempted and failed apart from the build.
#include "harness.hpp"

#include "core/samples.hpp"
#include "core/session.hpp"
#include "drc/drc.hpp"
#include "extract/extract.hpp"
#include "lint/lint.hpp"
#include "reps/emitter.hpp"
#include "sim/testbench.hpp"
#include "tech/rules.hpp"

#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace perfbench {
namespace {

using namespace bb;

struct Design {
  std::string label;
  std::string source;    ///< ICL text: the build starts from it
  int dataWidth = 0;
  bool accumulator = false;
};

struct EmitRef {
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
};

/// What a build of one design produced: kept only to check the op.
struct BuildOut {
  core::CompiledChipPtr chip;
  drc::DrcReport die;
  std::size_t lintFindings = 0;
  std::vector<EmitRef> emitted;  ///< per registry name
};

struct Names {
  std::vector<std::string> emitters;
  std::vector<const char*> emitSpans;
  std::vector<const char*> emitBytes;
};

Names registryNames() {
  Names n;
  Tracer& tr = Tracer::get();
  for (const std::string_view name : reps::EmitterRegistry::global().names()) {
    n.emitters.emplace_back(name);
    n.emitSpans.push_back(tr.intern("emit." + std::string(name)));
    n.emitBytes.push_back(tr.intern("emit." + std::string(name) + "_bytes"));
  }
  return n;
}

BuildOut build(const Design& d, const Names& names, const drc::DeckChecker& checker,
               CountingSink& sink) {
  BuildOut out;
  {
    Span s("core.compile");
    core::CompileSession session(d.source);
    while (!session.finished() && !session.failed()) session.runNext();
    out.chip = session.takeChip();
  }
  if (!out.chip) return out;
  const core::CompiledChip& chip = *out.chip;
  {
    Span s("drc.check");
    out.die = checker.check(chip.flatTop(), chip.top->boundary());
  }
  {
    Span s("lint.lint");
    out.lintFindings = lint::lintChip(chip).findings.size();
  }
  std::ostream os(&sink);
  for (std::size_t i = 0; i < names.emitters.size(); ++i) {
    sink.reset();
    {
      Span s(names.emitSpans[i]);
      reps::EmitterRegistry::global().emit(chip, names.emitters[i], os);
      os.flush();
    }
    out.emitted.push_back({sink.bytes(), sink.digest()});
  }
  return out;
}

std::size_t coreTransistors(const core::CompiledChip& chip) {
  return extract::extractCell(*chip.core).netlist.transistors().size();
}

/// Random additions run as microcode on the simulated accumulator chip
/// must equal the sums computed here, mod 2^w. Microcode fields of
/// smallChip: op in bits 0-2, ALU select in bits 4-7 (0 = add).
void checkAdditions(const core::CompiledChip& chip, int w, Rng& rng, Report& r,
                    const std::string& label) {
  sim::Simulator sim(chip.logic);
  sim::Testbench tb(sim, chip.desc.microcode.width, w);
  const auto setIn = [&](std::uint64_t v) {
    for (int i = 0; i < w; ++i) sim.setBool("pad.IN.pad" + std::to_string(i), (v >> i) & 1);
  };
  const auto readOut = [&] {
    std::uint64_t v = 0;
    for (int i = 0; i < w; ++i) {
      if (sim.getBool("pad.OUT.pad" + std::to_string(i))) v |= 1ull << i;
    }
    return v;
  };
  const std::uint64_t mask = (1ull << w) - 1;
  for (int k = 0; k < 8; ++k) {
    const std::uint64_t a = rng.below(mask + 1), b = rng.below(mask + 1);
    setIn(b);
    tb.run({1});  // RA := b
    setIn(a);
    tb.run({3});  // latch (a, RA) and add
    tb.run({4});  // ACC := sum
    tb.run({5});  // pads := ACC
    const std::uint64_t got = readOut();
    r.check(got == ((a + b) & mask), label + ": simulated " + std::to_string(a) + "+" +
                                         std::to_string(b) + " gave " + std::to_string(got));
  }
}

}  // namespace

void runFullBuild(const RunConfig& cfg, Report& r) {
  const tech::RuleDeck& deck = tech::meadConwayRules();
  const drc::DeckChecker checker(deck);
  const Names names = registryNames();
  Rng rng(cfg.seed ^ 0xF011B0117ull);

  std::vector<Design> suite;
  CountingSink sink;
  const auto setup = [&] {
    suite.clear();
    suite.push_back({"smallChip(4)", core::samples::smallChipSource(4), 4, true});
    suite.push_back({"largeChip(16,8)", core::samples::largeChipSource(16, 8), 16, false});
    // The seed orders the pass; the designs themselves are fixed.
    if (cfg.seed % 2 == 1) std::swap(suite[0], suite[1]);
    for (const Design& d : suite) (void)build(d, names, checker, sink);  // warm-up
  };

  // ---- set-ups and the checks that need a second computation, once per
  // design. They hand the loop, per design, the die violation count and
  // each emitter's bytes and digest.
  prepared(r, !cfg.trace, [&](Report& p) {
    timedSetup(p, 5, setup);
    std::uint64_t outputBytes = 0;
    for (const Design& d : suite) {
      auto compiled = core::compileChip(d.source);
      p.check(compiled.hasValue(), d.label + ": compile failed");
      if (!compiled) return;
      const core::CompiledChip& chip = **compiled;
      const std::size_t dieViolations =
          checker.check(chip.flatTop(), chip.top->boundary()).violations.size();
      p.refs.push_back(dieViolations);
      for (const std::string& name : names.emitters) {
        std::ostringstream os;
        reps::EmitterRegistry::global().emit(chip, name, os);
        const std::string text = std::move(os).str();
        p.refs.push_back(text.size());
        p.refs.push_back(fnv1a(text));
        outputBytes += text.size();
        if (name == "cif") {
          p.check(cifShapeCount(text) == chip.flatTop().totalCount(),
                  d.label + ": CIF shapes != flattened shape count");
        } else if (name == "gds") {
          std::uint64_t shapes = 0;
          p.check(gdsShapeCount(text, shapes) && shapes == chip.flatTop().totalCount(),
                  d.label + ": GDS elements != flattened shape count");
        } else if (name == "spice") {
          p.check(spiceMosfets(text) == coreTransistors(chip),
                  d.label + ": SPICE M lines != extracted transistor count");
        }
      }
      p.check(checker.check(chip.flatCore(), chip.core->boundary()).clean(),
              d.label + ": core DRC not clean");
      p.check(lint::lintChip(chip).clean(), d.label + ": lint findings at the default floor");
      if (d.accumulator) checkAdditions(chip, d.dataWidth, rng, p, d.label);
      p.info.push_back({"die_area_lambda2." + d.label,
                        static_cast<double>(chip.stats.dieArea) /
                            static_cast<double>(geom::lambda(1) * geom::lambda(1)),
                        "lambda2"});
      p.info.push_back({"die_violations." + d.label, static_cast<double>(dieViolations), "count"});
    }
    // Core transistor count is affine in the data width of one design.
    std::vector<long long> counts;
    for (int w = 4; w <= 7; ++w) {
      auto c = core::compileChip(core::samples::smallChip(w));
      p.check(c.hasValue(), "smallChip(" + std::to_string(w) + ") compile failed");
      if (!c) return;
      counts.push_back(static_cast<long long>(coreTransistors(**c)));
    }
    for (std::size_t i = 2; i < counts.size(); ++i) {
      p.check(counts[i] - counts[i - 1] == counts[i - 1] - counts[i - 2],
              "core transistor count not affine in data width");
    }
    p.info.push_back({"output_bytes", static_cast<double>(outputBytes), "bytes"});
  });
  const std::size_t stride = 1 + 2 * names.emitters.size();
  r.check(r.refs.size() == 2 * stride, "reference count differs from the suite");
  if (!r.correct) return;

  // ---- the timed loop's own set-up: the inputs and one warm-up build.
  setup();
  r.info.push_back({"peak_rss_after_setup_mb", peakRssMiB(), "MiB"});

  // ---- the timed loop.
  std::vector<BuildOut> outs(suite.size());
  const auto op = [&] {
    for (std::size_t i = 0; i < suite.size(); ++i) outs[i] = build(suite[i], names, checker, sink);
  };
  const auto after = [&](bool tracedRun) {
    r.attempted += 1;  // the build pass
    for (std::size_t i = 0; i < suite.size(); ++i) {
      const BuildOut& o = outs[i];
      r.check(o.chip != nullptr, suite[i].label + ": build failed");
      if (!o.chip) continue;
      const std::uint64_t* ref = r.refs.data() + i * stride;
      bool same = o.emitted.size() == names.emitters.size();
      for (std::size_t e = 0; same && e < o.emitted.size(); ++e) {
        same = o.emitted[e].bytes == ref[1 + 2 * e] && o.emitted[e].digest == ref[2 + 2 * e];
      }
      r.check(same, suite[i].label + ": emitted output differs from the reference build");
      r.check(o.lintFindings == 0, suite[i].label + ": lint findings");
      r.check(o.die.violations.size() == ref[0],
              suite[i].label + ": die DRC differs from the reference build");
      // Die sign-off: its own op, failing while the die has violations.
      r.attempted += 1;
      if (!o.die.clean()) r.failed += 1;
      if (tracedRun) {
        Tracer& tr = Tracer::get();
        tr.count("drc.shapes_checked", static_cast<double>(o.die.shapesChecked));
        tr.count("drc.violations", static_cast<double>(o.die.violations.size()));
        tr.count("lint.findings", static_cast<double>(o.lintFindings));
        for (std::size_t e = 0; e < o.emitted.size(); ++e) {
          tr.count(names.emitBytes[e], static_cast<double>(o.emitted[e].bytes));
        }
        // Marked extra calls: extraction runs inside the spice and
        // transistors emitters and lint, so it is timed by one direct
        // call; flatten and index build run inside finalize and DRC.
        std::size_t transistors = 0;
        {
          Span s("extract.extract", true);
          transistors = extract::extractCell(*o.chip->core).netlist.transistors().size();
        }
        tr.count("extract.transistors", static_cast<double>(transistors));
        cell::FlatLayout flat;
        {
          Span s("cell.flatten", true);
          flat = cell::flatten(*o.chip->top);
        }
        {
          Span s("geom.index_build", true);
          flat.buildIndexes();
        }
        tr.count("cell.flat_rects", static_cast<double>(flat.totalCount()));
      }
    }
  };
  measure(cfg, r, "full_build", "op",
          [&](Report& rep, double secs) { timedLoop(rep, secs, 3, op, after); },
          [&](Report& rep) {
            Tracer& tr = Tracer::get();
            for (std::size_t e = 0; e < names.emitters.size(); ++e) {
              rep.layers.push_back({std::string(names.emitSpans[e]) + "_ms",
                                    medianOf(tr.perOpMs(names.emitSpans[e])), "ms"});
              rep.layers.push_back({names.emitBytes[e], medianOf(tr.perOpCount(names.emitBytes[e])),
                                    "bytes"});
            }
            const auto ms = [&](const char* span, const char* metric) {
              rep.layers.push_back({metric, medianOf(tr.perOpMs(span)), "ms"});
            };
            const auto count = [&](const char* name) {
              rep.layers.push_back({name, medianOf(tr.perOpCount(name)), "count"});
            };
            ms("extract.extract", "extract.extract_ms");
            count("extract.transistors");
            ms("drc.check", "drc.check_ms");
            count("drc.shapes_checked");
            count("drc.violations");
            ms("lint.lint", "lint.lint_ms");
            count("lint.findings");
            ms("cell.flatten", "cell.flatten_ms");
            ms("geom.index_build", "geom.index_build_ms");
            count("cell.flat_rects");
          });
}

}  // namespace perfbench
