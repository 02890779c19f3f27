// service_session: interactive users of one CompileService. Two
// closed-loop clients (the main thread and one more) each send a seeded
// stream of requests; one op is one request. The mix follows the steady
// state bench/bench_service_load.cpp states: 10% cold requests, here
// compiles of freshly edited designs; 60% hot requests on designs the
// user keeps working on, here compiles, full GDS emits and lint requests
// under changing options; and 30% viewports, here windowed CIF (flat and
// hierarchical) and SVG. The hot set is 8 edits of largeChip(16,8) and
// the chip cache holds about 6 of them, so hits, misses and evictions
// all occur.
#include "harness.hpp"

#include "core/samples.hpp"
#include "icl/builder.hpp"
#include "svc/service.hpp"

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

namespace perfbench {
namespace {

using namespace bb;

constexpr std::size_t kHot = 8;    ///< designs hot requests and viewports pick from
constexpr std::size_t kCold = 16;  ///< fresh edits the cold compiles cycle through
constexpr unsigned kClients = 2;
/// About 6 of the 8 hot designs fit (each is charged ~3.3 MB).
constexpr std::size_t kCacheBudget = 20ull << 20;
constexpr int kGrid = 8;  ///< viewport windows sit on an 8x8 grid of the die

enum class Kind : std::uint8_t { Cold, Compile, Gds, Lint, CifView, HierView, SvgView };
constexpr std::size_t kKinds = 7;
/// One round of a client's requests: 20 requests of fixed make-up,
/// shuffled by the seed. The three classes keep the 10/60/30 shares of
/// bench_service_load's mixed steady state. No source splits a class
/// further, so each class is split evenly between its request kinds.
constexpr std::array<std::pair<Kind, int>, kKinds> kRound = {{{Kind::Cold, 2},
                                                              {Kind::Compile, 4},
                                                              {Kind::Gds, 4},
                                                              {Kind::Lint, 4},
                                                              {Kind::CifView, 2},
                                                              {Kind::HierView, 2},
                                                              {Kind::SvgView, 2}}};
const char* const kSpan[kKinds] = {"svc.compile", "svc.compile",  "svc.emit",    "svc.lint",
                                   "svc.viewport", "svc.viewport", "svc.viewport"};

/// A design edit: the constant the chip drives and the chip's name.
icl::ChipDesc edited(std::size_t i, Rng& rng) {
  icl::ChipDesc d = core::samples::largeChip(16, 8);
  d.name = "edit" + std::to_string(i) + "_" + std::to_string(rng.below(100000));
  for (icl::CoreItem& item : d.core) {
    auto* e = std::get_if<icl::ElementDecl>(&item.node);
    if (e != nullptr && e->name == "ONE") e->params["value"] = icl::num(static_cast<long long>(1 + i));
  }
  return d;
}

lint::LintOptions lintOptionsFor(std::size_t k) {
  lint::LintOptions o;
  o.enabled = true;
  o.minSeverity = k % 2 == 0 ? icl::Severity::Warning : icl::Severity::Note;
  o.boundaryConditions = k < 2;
  return o;
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

bool touches(const CifBox& b, const geom::Rect& w) {
  return b.x0 <= w.x1 && w.x0 <= b.x1 && b.y0 <= w.y1 && w.y0 <= b.y1;
}

struct ClientOut {
  std::vector<double> opMs;
  std::array<std::vector<double>, kKinds> byKind;
  std::array<std::vector<double>, 2> compileByHit;  ///< [miss, hit]
  std::vector<OpCost> costs;  ///< per request of a traced run
  std::uint64_t misses = 0;   ///< responses that found no cached chip
  double busySeconds = 0;     ///< wall time inside requests
  double checkCpuSeconds = 0; ///< CPU spent checking payloads
  std::vector<std::string> errors;
};

}  // namespace

void runServiceSession(const RunConfig& cfg, Report& r) {
  std::vector<icl::ChipDesc> hot, cold;
  std::vector<geom::Rect> dieBox;
  std::unique_ptr<svc::CompileService> service;
  const auto setup = [&] {
    Rng rng(cfg.seed ^ 0x5E55ull);
    hot.clear();
    cold.clear();
    dieBox.clear();
    for (std::size_t i = 0; i < kHot + kCold; ++i) (i < kHot ? hot : cold).push_back(edited(i, rng));
    svc::ServiceOptions so;
    so.cacheBudgetBytes = kCacheBudget;
    service.reset();
    service = std::make_unique<svc::CompileService>(so);
    // Prewarm: every hot design compiled once (the cache keeps the last few).
    for (const icl::ChipDesc& d : hot) {
      const svc::CompileResponse c = service->compile(svc::CompileRequest::ofDesc(d));
      dieBox.push_back(c.ok() ? c.chip->flatTop().bbox() : geom::Rect{});
    }
  };

  // ---- set-ups and the flattened shape count of each hot design, which
  // the loop's GDS checks compare against.
  prepared(r, !cfg.trace, [&](Report& p) {
    timedSetup(p, 5, setup);
    std::size_t hotBytes = 0, allBytes = 0;  // what the cache would need to hold them
    for (std::size_t i = 0; i < kHot + kCold; ++i) {
      const icl::ChipDesc& d = i < kHot ? hot[i] : cold[i - kHot];
      const svc::CompileResponse c = service->compile(svc::CompileRequest::ofDesc(d));
      p.check(c.ok(), d.name + ": compile failed");
      if (!c.ok()) return;
      if (i < kHot) {
        p.refs.push_back(c.chip->flatTop().totalCount());
        hotBytes += c.chip->approxBytes();
      }
      allBytes += c.chip->approxBytes();
    }
    p.info.push_back({"hot_set_bytes", static_cast<double>(hotBytes), "bytes"});
    p.info.push_back({"working_set_bytes", static_cast<double>(allBytes), "bytes"});
  });
  if (!r.correct) return;

  // ---- the timed loop's own set-up: the designs and a prewarmed service.
  setup();
  r.info.push_back({"peak_rss_after_setup_mb", peakRssMiB(), "MiB"});
  r.check(r.refs.size() == kHot, "reference count differs from the hot set");
  if (!r.correct) return;
  svc::CompileService& svc = *service;

  // One client's closed loop: whole rounds until `seconds` have passed.
  // In a traced run every second request of a client is recorded.
  std::atomic<int> peakThreads{0};
  std::atomic<std::size_t> nextCold{0};
  const auto client = [&](unsigned id, double seconds, ClientOut& out) {
    Rng rng(cfg.seed * 1000003ull + id);
    Tracer& tr = Tracer::get();
    const bool tracedRun = tr.tracedRun();
    std::vector<Kind> round;
    for (const auto& [kind, n] : kRound) round.insert(round.end(), static_cast<std::size_t>(n), kind);
    std::size_t sent = 0;
    const auto start = Clock::now();
    while (secondsSince(start) < seconds) {
      if (id == 0) peakThreads = std::max(peakThreads.load(), threadCount());
      rng.shuffle(round);
      for (const Kind kind : round) {
        // Hot requests and viewports pick a hot design uniformly, as
        // bench_service_load does; a cold compile takes the next fresh
        // edit, which the cache has long evicted.
        const std::size_t d = rng.below(kHot);
        const icl::ChipDesc& desc =
            kind == Kind::Cold ? cold[nextCold.fetch_add(1) % kCold] : hot[d];
        const svc::CompileRequest req = svc::CompileRequest::ofDesc(desc);
        const geom::Rect& die = dieBox[d];
        const geom::Coord w = die.width() / 4, h = die.height() / 4;
        const geom::Coord x = die.x0 + static_cast<geom::Coord>(rng.below(kGrid)) * (die.width() - w) / (kGrid - 1);
        const geom::Coord y = die.y0 + static_cast<geom::Coord>(rng.below(kGrid)) * (die.height() - h) / (kGrid - 1);
        const geom::Rect window{x, y, x + w, y + h};
        const std::size_t lintSet = rng.below(4);

        const bool recorded = tracedRun && sent % 2 == 1;
        ++sent;
        if (recorded) {
          tr.record(true);
          tr.beginOp(tr.newOp());
        }
        std::string payload;
        bool ok = false, hit = false;
        const double cpu0 = threadCpuSeconds();
        const auto t0 = Clock::now();
        {
          Span op("op");
          Span s(kSpan[static_cast<std::size_t>(kind)]);
          if (kind == Kind::CifView || kind == Kind::HierView || kind == Kind::SvgView) {
            svc::ViewportRequest v;
            v.chip = req;
            v.format = kind == Kind::SvgView ? "svg" : "cif";
            v.window = window;
            v.hierarchical = kind == Kind::HierView;
            svc::EmitResponse e = svc.viewport(v);
            ok = e.ok;
            hit = e.cacheHit;
            payload = std::move(e.payload);
          } else if (kind == Kind::Gds) {
            svc::EmitResponse e = svc.emit(req, "gds");
            ok = e.ok;
            hit = e.cacheHit;
            payload = std::move(e.payload);
          } else if (kind == Kind::Lint) {
            const svc::LintResponse l = svc.lint({req, lintOptionsFor(lintSet)});
            ok = l.ok();
            hit = l.chipCacheHit;
          } else {
            const svc::CompileResponse c = svc.compile(req);
            ok = c.ok();
            hit = c.cacheHit;
          }
        }
        const double ms = msBetween(t0, Clock::now());
        const double cpuMs = 1e3 * (threadCpuSeconds() - cpu0);
        if (recorded) {
          tr.endOp();
          tr.record(false);
        }
        if (tracedRun) {
          out.costs.push_back({static_cast<std::uint32_t>(2 * static_cast<std::size_t>(kind) + (hit ? 1 : 0)),
                               recorded, cpuMs});
        }
        out.opMs.push_back(ms);
        out.byKind[static_cast<std::size_t>(kind)].push_back(ms);
        if (kind == Kind::Compile || kind == Kind::Cold) out.compileByHit[hit ? 1 : 0].push_back(ms);
        out.busySeconds += ms / 1e3;
        if (!hit) ++out.misses;

        // Output checks, outside the request's time.
        const double c0 = threadCpuSeconds();
        bool good = ok;
        if (ok && (kind == Kind::CifView || kind == Kind::HierView)) {
          const std::vector<CifBox> boxes = cifBoxes(payload);
          good = std::all_of(boxes.begin(), boxes.end(), [&](const CifBox& b) {
            return touches(b, window);
          });
        } else if (ok && kind == Kind::SvgView) {
          good = payload.rfind("<svg", 0) == 0 && payload.find("</svg>") != std::string::npos;
        } else if (ok && kind == Kind::Gds) {
          std::uint64_t shapes = 0;
          good = gdsShapeCount(payload, shapes) && shapes == r.refs[d];
        }
        if (!good && out.errors.size() < 5) {
          out.errors.push_back(std::string(kSpan[static_cast<std::size_t>(kind)]) +
                               " request on " + desc.name + " failed its check");
        }
        out.checkCpuSeconds += threadCpuSeconds() - c0;
      }
    }
  };

  std::array<ClientOut, kClients> outs;
  const auto loop = [&](Report& rep, double seconds) {
    outs = {};
    const svc::ServiceStats before = svc.stats();
    const svc::CacheStats cacheBefore = svc.cache().stats();
    const double cpu0 = processCpuSeconds();
    std::thread second([&] { client(1, seconds, outs[1]); });
    client(0, seconds, outs[0]);
    second.join();
    rep.threads = std::max(rep.threads, peakThreads.load());
    const double cpu = processCpuSeconds() - cpu0;
    const svc::ServiceStats after = svc.stats();
    std::uint64_t misses = 0;
    double busy = 0, checkCpu = 0;
    for (const ClientOut& o : outs) {
      rep.opMs.insert(rep.opMs.end(), o.opMs.begin(), o.opMs.end());
      rep.costs.insert(rep.costs.end(), o.costs.begin(), o.costs.end());
      misses += o.misses;
      busy += o.busySeconds;
      checkCpu += o.checkCpuSeconds;
      for (const std::string& e : o.errors) r.check(false, e);
      r.attempted += o.opMs.size();
    }
    rep.measuredSeconds += busy / kClients;
    rep.cpuSeconds += cpu - checkCpu;
    // A cache hit runs no compile stage: every compile the service ran
    // belongs to a response that reported a miss.
    r.check(after.compilesExecuted - before.compilesExecuted == misses,
            "compiles executed != responses that missed the cache");
    r.threads = std::max(r.threads, rep.threads);
    if (Tracer::get().tracedRun()) {
      const svc::CacheStats cacheAfter = svc.cache().stats();
      const double lookups = static_cast<double>(cacheAfter.hits + cacheAfter.misses -
                                                 cacheBefore.hits - cacheBefore.misses);
      std::vector<double> miss, hit;
      for (const ClientOut& o : outs) {
        miss.insert(miss.end(), o.compileByHit[0].begin(), o.compileByHit[0].end());
        hit.insert(hit.end(), o.compileByHit[1].begin(), o.compileByHit[1].end());
      }
      std::vector<double> view, emit, lintMs;
      for (const ClientOut& o : outs) {
        for (const Kind k : {Kind::CifView, Kind::HierView, Kind::SvgView}) {
          const auto& v = o.byKind[static_cast<std::size_t>(k)];
          view.insert(view.end(), v.begin(), v.end());
        }
        const auto& g = o.byKind[static_cast<std::size_t>(Kind::Gds)];
        emit.insert(emit.end(), g.begin(), g.end());
        const auto& l = o.byKind[static_cast<std::size_t>(Kind::Lint)];
        lintMs.insert(lintMs.end(), l.begin(), l.end());
      }
      rep.layers.push_back({"svc.viewport_ms", median(view), "ms"});
      rep.layers.push_back({"svc.emit_ms", median(emit), "ms"});
      rep.layers.push_back({"svc.lint_ms", median(lintMs), "ms"});
      rep.layers.push_back({"svc.compile_miss_ms", median(miss), "ms"});
      rep.layers.push_back({"svc.compile_hit_ms", median(hit), "ms"});
      rep.layers.push_back({"svc.hit_ratio",
                            lookups > 0 ? static_cast<double>(cacheAfter.hits - cacheBefore.hits) / lookups
                                        : 0,
                            "ratio"});
      rep.layers.push_back({"svc.evictions",
                            static_cast<double>(cacheAfter.evictions - cacheBefore.evictions), "count"});
      rep.layers.push_back({"svc.compiles_executed",
                            static_cast<double>(after.compilesExecuted - before.compilesExecuted),
                            "count"});
    }
  };
  measure(cfg, r, "service_session", "op", loop, [](Report&) {});
  const svc::CacheStats cs = svc.cache().stats();
  r.info.push_back({"cache_budget_bytes", static_cast<double>(cs.budgetBytes), "bytes"});
  r.info.push_back({"deduped_in_flight", static_cast<double>(svc.stats().dedupedInFlight), "count"});
  r.info.push_back({"cache_hit_ratio", cs.hitRate(), "ratio"});
  r.info.push_back({"cache_evictions", static_cast<double>(cs.evictions), "count"});
  r.info.push_back({"clients", kClients, "count"});
}

}  // namespace perfbench
