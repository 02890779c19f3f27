// Shared pieces of the end-to-end benchmark: clocks and statistics, the
// seeded generator, the counting output sink, the span tracer, the
// per-workload report that main.cpp prints, and the prepare phase that
// runs set-ups and checks apart from the timed loop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsSince(Clock::time_point t0);
[[nodiscard]] double msBetween(Clock::time_point a, Clock::time_point b);
/// Process CPU time (user + system, every thread) in seconds.
[[nodiscard]] double processCpuSeconds();
/// Peak resident set of the process so far (VmHWM), in MiB. Not
/// ru_maxrss: on Linux that keeps the peak of the image the process was
/// exec'd from, so a Python launcher's own ~13 MiB would set a floor.
[[nodiscard]] double peakRssMiB();
/// Threads the process has right now (from /proc/self/status).
[[nodiscard]] int threadCount();

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in (0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// splitmix64: the only source of randomness. Every input of every
/// workload is drawn from one of these, seeded from --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// An output stream target that keeps nothing: it counts the bytes and
/// folds them into a 64-bit FNV-1a digest, so an emitter's whole output
/// is checked against a reference without being stored.
class CountingSink : public std::streambuf {
 public:
  CountingSink() { setp(buf_, buf_ + sizeof buf_); }
  [[nodiscard]] std::uint64_t bytes();
  [[nodiscard]] std::uint64_t digest();
  void reset();

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;
  int sync() override;

 private:
  void fold(const char* p, std::size_t n);
  char buf_[1 << 14];
  std::uint64_t bytes_ = 0;
  std::uint64_t h_ = 14695981039346656037ull;
};

/// FNV-1a over a byte string, the same function CountingSink computes.
[[nodiscard]] std::uint64_t fnv1a(const std::string& s);

// ------------------------------------------------------------------ tracer

/// Spans recorded around calls into the program's layers. Recording is
/// switched per thread, op by op: in a traced run every second op of a
/// loop is recorded, so recorded and plain ops share one stream of
/// inputs and one cache state. A span on a thread that is not recording
/// costs one branch. Each thread appends to its own buffer; the buffers
/// are merged when the run ends.
struct SpanRec {
  const char* name;
  std::int64_t t0;  ///< ns since the tracer's epoch
  std::int64_t t1;
  std::int32_t parent;  ///< index in the same thread's buffer, -1 = none
  std::uint32_t op;     ///< op the span belongs to (0 = none)
  std::uint32_t tid;
  bool extra;           ///< outside the op's wall time (a marked extra call)
};

struct CounterRec {
  const char* name;
  std::int64_t t;  ///< ns since the tracer's epoch
  std::uint32_t op;
  double value;
};

class Tracer {
 public:
  static Tracer& get();
  /// Marks the run as traced: its loops record every second op.
  void traceRun(bool on) { tracedRun_ = on; }
  [[nodiscard]] bool tracedRun() const noexcept { return tracedRun_; }
  /// Switches recording on the calling thread.
  void record(bool on);
  /// Whether the calling thread records.
  [[nodiscard]] bool on() const noexcept;
  /// Drop everything recorded so far (between workloads).
  void clear();
  /// Begin op `id` on the calling thread; spans started until endOp()
  /// belong to it.
  void beginOp(std::uint32_t id);
  /// A fresh op id (ids are never reused within a process).
  std::uint32_t newOp() { return nextOp_.fetch_add(1, std::memory_order_relaxed); }
  void endOp();
  void count(const char* name, double value);
  /// Interned copy of a dynamic name, valid until the process ends.
  const char* intern(const std::string& name);

  // Aggregates over the recorded spans.
  /// Per op: the summed duration (ms) of spans named `name`.
  [[nodiscard]] std::map<std::uint32_t, double> perOpMs(const std::string& name) const;
  /// Per op: the summed value of counter `name`.
  [[nodiscard]] std::map<std::uint32_t, double> perOpCount(const std::string& name) const;
  /// Per op: the share (%) of the wall time of the op's spans named
  /// `root` that their direct child spans cover.
  [[nodiscard]] std::map<std::uint32_t, double> coveragePct(const char* root) const;
  /// Appends everything recorded as Chrome trace-event JSON objects,
  /// each after a comma, under process id `pid` named `process`.
  void appendChromeEvents(std::string& out, int pid, const std::string& process) const;

  struct ThreadBuf;
  friend class Span;

 private:
  Tracer();
  ThreadBuf& local();
  [[nodiscard]] std::vector<const ThreadBuf*> buffers() const;
  bool tracedRun_ = false;
  std::atomic<std::uint32_t> nextOp_{1};
  Clock::time_point epoch_;
};

class Span {
 public:
  explicit Span(const char* name, bool extra = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer::ThreadBuf* buf_ = nullptr;
  std::int32_t index_ = -1;
};

// ------------------------------------------------------------------ report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// CPU time of one op of a traced run, recorded or plain. `kind` sorts
/// ops of different cost (the service's request kinds) apart.
struct OpCost {
  std::uint32_t kind;
  bool traced;
  double cpuMs;
};

/// Traced minus plain CPU time per op, as a share (%) of the plain one,
/// with its standard error. Per kind of op, each recorded op is paired
/// with the plain op before it; the median difference is weighted by
/// the kind's number of pairs.
struct Overhead {
  double pct = 0;
  double standardErrorPct = 0;
};
[[nodiscard]] Overhead tracingOverhead(const std::vector<OpCost>& costs);

/// What one workload hands back to main.cpp.
struct Report {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setupCpuSeconds;   ///< process CPU, one per set-up repetition
  std::vector<double> setupWallSeconds;  ///< wall time, one per set-up repetition
  std::vector<double> opMs;              ///< wall time, one per timed op
  double measuredSeconds = 0;            ///< wall time of the timed ops
  double cpuSeconds = 0;                 ///< process CPU over the timed ops
  std::vector<Metric> info;           ///< printed in the table only
  std::vector<Metric> layers;         ///< per-layer metrics (traced run)
  std::vector<OpCost> costs;          ///< per op of a traced run
  /// Reference figures the output checks hand to the timed loop.
  std::vector<std::uint64_t> refs;
  /// Inputs the prepare phase hands to the timed loop.
  std::vector<std::string> texts;
  int threads = 0;                    ///< process threads at the busiest point

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      if (errors.size() < 20) errors.push_back(what);
    }
  }
};

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Runs `op` whole, again and again, until `seconds` of op time have
/// passed (and at least `minOps` ops). Each call is one op: its wall time
/// goes into `r.opMs`. After each op, `after(tracedRun)` runs untimed:
/// the op's cheap output checks and, in a traced run, the marked extra
/// calls. The extra calls follow every op of a traced run, recorded or
/// not, so that recorded and plain ops run in the same surroundings.
/// Wall and CPU time spent in `after` are left out of the report.
template <typename Fn, typename After>
void timedLoop(Report& r, double seconds, std::size_t minOps, Fn&& op, After&& after);

/// Set-up repeated `reps` times; the median CPU time lands in setup_s.
template <typename Fn>
void timedSetup(Report& r, int reps, Fn&& setup) {
  for (int i = 0; i < reps; ++i) {
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    setup();
    r.setupWallSeconds.push_back(secondsSince(t0));
    r.setupCpuSeconds.push_back(processCpuSeconds() - cpu0);
  }
}

/// Runs `prepare(report)` -- the timed set-ups and the output checks
/// that need a second computation -- and merges what it records into
/// `r`: correctness, errors, set-up times, table figures, `refs` and
/// `texts`.
/// With `isolate` it runs in a forked child, so that the memory these
/// phases touch stays out of the peak resident set the timed loop
/// reports. Fork only from a process that holds one thread.
void prepared(Report& r, bool isolate, const std::function<void(Report&)>& prepare);

/// Runs a workload's loop `loop(report, seconds)`. Untraced, it measures
/// the end-to-end figures into `r`. Traced, it runs the loop with every
/// second op recorded, reads the per-layer metrics with `layers(r)`, and
/// adds the share of the wall time of the `coverageRoot` spans that
/// their child spans cover, and the tracing overhead (its standard
/// error goes to the table).
template <typename Loop, typename Layers>
void measure(const RunConfig& cfg, Report& r, const std::string& workload,
             const char* coverageRoot, Loop&& loop, Layers&& layers);

/// Median over ops of a per-op aggregate map (0 when empty).
[[nodiscard]] double medianOf(const std::map<std::uint32_t, double>& perOp);

// The four workloads. Each fills `r` with end-to-end figures; with
// cfg.trace it also runs a traced pass and fills r.layers.
void runFullBuild(const RunConfig& cfg, Report& r);
void runBatchSweep(const RunConfig& cfg, Report& r);
void runServiceSession(const RunConfig& cfg, Report& r);
void runMaskImport(const RunConfig& cfg, Report& r);

// ---------------------------------------------------------- own readers
// Independent of the program's writers: they read the emitted text the
// way a downstream tool would.

struct CifBox {
  std::string layer;
  std::int64_t x0, y0, x1, y1;
};
/// Every `B` box of a CIF text, in file order, with the current layer.
/// Coordinates are as written (no symbol-call transforms applied).
[[nodiscard]] std::vector<CifBox> cifBoxes(const std::string& cif);
/// Shapes of a CIF text once every symbol call is expanded, a wire
/// counting one box per segment: the flattened shape count.
[[nodiscard]] std::uint64_t cifShapeCount(const std::string& cif);
/// Number of `M` (MOSFET) element lines of a SPICE deck.
[[nodiscard]] std::size_t spiceMosfets(const std::string& deck);
/// Walks a GDSII stream record by record and counts BOUNDARY elements
/// and PATH segments once every SREF and AREF is expanded, from the
/// structures no other structure references. Returns false when a record
/// is malformed or ENDLIB is missing.
[[nodiscard]] bool gdsShapeCount(const std::string& bytes, std::uint64_t& shapes);

// ------------------------------------------------------------ template body

template <typename Fn, typename After>
void timedLoop(Report& r, double seconds, std::size_t minOps, Fn&& op, After&& after) {
  Tracer& tr = Tracer::get();
  const bool tracedRun = tr.tracedRun();
  double opSeconds = 0;
  double cpu = 0;
  std::size_t done = 0;
  while (done < minOps || opSeconds < seconds) {
    const bool recorded = tracedRun && done % 2 == 1;
    if (recorded) {
      tr.record(true);
      tr.beginOp(tr.newOp());
    }
    const double cpu0 = processCpuSeconds();
    const auto t0 = Clock::now();
    {
      Span s("op");
      op();
    }
    const auto t1 = Clock::now();
    const double opCpu = processCpuSeconds() - cpu0;
    cpu += opCpu;
    after(tracedRun);
    if (recorded) {
      tr.endOp();
      tr.record(false);
    }
    if (tracedRun) r.costs.push_back({0, recorded, 1e3 * opCpu});
    r.opMs.push_back(msBetween(t0, t1));
    opSeconds += msBetween(t0, t1) / 1e3;
    ++done;
  }
  r.measuredSeconds += opSeconds;
  r.cpuSeconds += cpu;
}

template <typename Loop, typename Layers>
void measure(const RunConfig& cfg, Report& r, const std::string& workload,
             const char* coverageRoot, Loop&& loop, Layers&& layers) {
  if (!cfg.trace) {
    loop(r, cfg.seconds);
    return;
  }
  Tracer& tr = Tracer::get();
  tr.traceRun(true);
  loop(r, cfg.seconds);
  tr.traceRun(false);
  layers(r);
  r.layers.push_back({"trace.coverage." + workload + "_pct",
                      medianOf(tr.coveragePct(coverageRoot)), "%"});
  const Overhead o = tracingOverhead(r.costs);
  r.layers.push_back({"trace.overhead." + workload + "_pct", o.pct, "%"});
  r.info.push_back({"trace.overhead_standard_error." + workload + "_pct", o.standardErrorPct, "%"});
}

}  // namespace perfbench
