// batch_sweep: design-space exploration. One op is one pipelined
// BatchCompiler::compileAll over the full grid of largeChip variants,
// data widths 4..32 by 4 and 2, 4, 8 or 16 registers, compile only, on a
// pool as wide as the host. The seed decides which half of the variants
// arrives as ICL text and which half as a typed ChipDesc, and the
// variants' names; every op compiles the same grid in the same order, so
// ops cost the same whatever the seed.
#include "harness.hpp"

#include "core/batch.hpp"
#include "core/pool.hpp"
#include "core/samples.hpp"
#include "extract/extract.hpp"
#include "layout/cif.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

using namespace bb;

struct Variant {
  icl::ChipDesc desc;
  std::string text;
  bool typed = false;
  int width = 0;
  int regs = 0;
};

std::uint64_t cifDigest(const core::CompiledChip& chip) {
  return fnv1a(layout::writeCif(*chip.top));
}

std::vector<core::BatchJob> jobsOf(const std::vector<Variant>& vs) {
  std::vector<core::BatchJob> jobs;
  jobs.reserve(vs.size());
  for (const Variant& v : vs) {
    if (v.typed) {
      jobs.emplace_back(v.desc.name, v.desc);
    } else {
      jobs.emplace_back(v.desc.name, v.text);
    }
  }
  return jobs;
}

const char* const kStageSpans[] = {"icl.parse", "core.vote", "core.pass1",
                                   "core.pass2", "core.pass3", "core.finalize"};

}  // namespace

void runBatchSweep(const RunConfig& cfg, Report& r) {
  const unsigned lanes = std::max(1u, std::thread::hardware_concurrency() / 2);
  const core::BatchCompiler batch(core::CompileOptions{}, lanes);
  core::ThreadPool& pool = core::ThreadPool::global();

  std::vector<Variant> variants;
  const auto setup = [&] {
    Rng rng(cfg.seed ^ 0xBA7C4ull);
    variants.clear();
    for (int w = 4; w <= 32; w += 4) {
      for (const int regs : {2, 4, 8, 16}) {
        Variant v;
        v.desc = core::samples::largeChip(w, regs);
        v.desc.name = "dse_w" + std::to_string(w) + "_r" + std::to_string(regs) + "_" +
                      std::to_string(rng.below(1000000));
        v.text = v.desc.toString();
        v.width = w;
        v.regs = regs;
        variants.push_back(std::move(v));
      }
    }
    // Half the variants, chosen by the seed, arrive as text. The jobs
    // keep grid order: the order sets the batch's makespan, so a seeded
    // order would make ops of different seeds cost different amounts.
    std::vector<std::size_t> pick(variants.size());
    for (std::size_t i = 0; i < pick.size(); ++i) pick[i] = i;
    rng.shuffle(pick);
    for (std::size_t i = 0; i < pick.size() / 2; ++i) variants[pick[i]].typed = true;
    (void)batch.compileAll(jobsOf(variants));  // warm-up: starts the pool's workers
  };

  // ---- set-ups and a reference per variant, serial, from both
  // frontends. They hand the loop, per variant, the die area and the CIF
  // digest.
  prepared(r, !cfg.trace, [&](Report& p) {
    timedSetup(p, 5, setup);
    std::map<int, std::map<int, long long>> transistorsByRegsWidth;
    for (const Variant& v : variants) {
      auto typed = core::compileChip(v.desc);
      auto text = core::compileChip(v.text);
      p.check(typed.hasValue() && text.hasValue(), v.desc.name + ": serial compile failed");
      if (!typed || !text) return;
      const std::uint64_t digest = cifDigest(**typed);
      p.refs.push_back(static_cast<std::uint64_t>((*typed)->stats.dieArea));
      p.refs.push_back(digest);
      p.check(cifDigest(**text) == digest, v.desc.name + ": text and typed CIF differ");
      transistorsByRegsWidth[v.regs][v.width] = static_cast<long long>(
          extract::extractCell(*(*typed)->core).netlist.transistors().size());
    }
    // Core transistor count is affine in the data width of one design.
    for (const auto& [regs, byWidth] : transistorsByRegsWidth) {
      std::vector<long long> c;
      for (const auto& [w, n] : byWidth) c.push_back(n);
      for (std::size_t i = 2; i < c.size(); ++i) {
        p.check(c[i] - c[i - 1] == c[i - 1] - c[i - 2],
                "largeChip(w," + std::to_string(regs) + ") transistors not affine in width");
      }
    }
  });
  if (!r.correct) return;

  // ---- the timed loop's own set-up: the variants and one warm-up batch.
  setup();
  r.info.push_back({"peak_rss_after_setup_mb", peakRssMiB(), "MiB"});
  r.check(r.refs.size() == 2 * variants.size(), "reference count differs from the variants");
  if (!r.correct) return;

  // ---- the timed loop.
  std::vector<core::BatchResult> results;
  std::vector<core::BatchJob> jobs;
  bool pooledChecked = false;
  std::uint64_t tasksBefore = 0;
  const std::uint64_t spawnedBefore = pool.threadsSpawned();
  const auto op = [&] {
    tasksBefore = pool.tasksExecuted();
    Span s("core.batch");
    results = batch.compileAll(std::move(jobs));
  };
  const auto after = [&](bool tracedRun) {
    r.threads = std::max(r.threads, threadCount());
    r.attempted += 1;
    const std::uint64_t tasks = pool.tasksExecuted() - tasksBefore;
    bool ok = results.size() == variants.size();
    for (std::size_t i = 0; ok && i < results.size(); ++i) {
      ok = results[i].ok() &&
           static_cast<std::uint64_t>(results[i].chip->stats.dieArea) == r.refs[2 * i];
    }
    r.check(ok, "a pooled compile failed or differs from the serial one");
    if (ok && !pooledChecked) {
      // Pooled against serial: the same CIF for every variant.
      for (std::size_t i = 0; i < results.size(); ++i) {
        r.check(cifDigest(*results[i].chip) == r.refs[2 * i + 1],
                variants[i].desc.name + ": pooled CIF differs from serial");
      }
      pooledChecked = true;
    }
    if (tracedRun) {
      Tracer& tr = Tracer::get();
      std::vector<double> sojourn;
      for (const core::BatchResult& b : results) {
        sojourn.push_back(std::chrono::duration<double, std::milli>(b.finishedAfter).count());
      }
      tr.count("core.batch_sojourn_p90_ms", percentile(sojourn, 0.90));
      tr.count("core.pool_tasks", static_cast<double>(tasks));
      // Marked extra: the same variants staged serially, timed per stage.
      // The stages' share of this span is the workload's layer coverage.
      Span staged("core.staged", true);
      for (const Variant& v : variants) {
        core::CompileSession session = v.typed ? core::CompileSession(v.desc)
                                               : core::CompileSession(v.text);
        while (!session.finished() && !session.failed()) {
          Span st(kStageSpans[static_cast<std::size_t>(session.nextStage())], true);
          session.runNext();
        }
      }
    }
    jobs = jobsOf(variants);
  };
  jobs = jobsOf(variants);
  measure(cfg, r, "batch_sweep", "core.staged",
          [&](Report& rep, double secs) { timedLoop(rep, secs, 3, op, after); },
          [&](Report& rep) {
            Tracer& tr = Tracer::get();
            for (const char* stage : kStageSpans) {
              rep.layers.push_back({std::string(stage) + "_ms", medianOf(tr.perOpMs(stage)), "ms"});
            }
            rep.layers.push_back({"core.batch_sojourn_p90_ms",
                                  medianOf(tr.perOpCount("core.batch_sojourn_p90_ms")), "ms"});
            rep.layers.push_back({"core.pool_tasks", medianOf(tr.perOpCount("core.pool_tasks")),
                                  "count"});
          });
  r.check(pool.threadsSpawned() == spawnedBefore, "the warm pool spawned threads");
  if (cfg.trace) {
    r.layers.push_back({"core.pool_threads_spawned",
                        static_cast<double>(pool.threadsSpawned() - spawnedBefore), "count"});
  }
}

}  // namespace perfbench
