#include "harness.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string_view>

namespace perfbench {

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

namespace {
/// The number after `key` in /proc/self/status (-1 when missing).
long statusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) return std::atol(line.c_str() + n);
  }
  return -1;
}
}  // namespace

double peakRssMiB() {
  return static_cast<double>(statusField("VmHWM:")) / 1024.0;  // kB
}

int threadCount() { return static_cast<int>(statusField("Threads:")); }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

Overhead tracingOverhead(const std::vector<OpCost>& costs) {
  // Per kind, each recorded op is paired with the plain op of its kind
  // that came just before it, so that slow drifts of the host cancel.
  struct Pairs {
    std::vector<double> plain, diff;
    double pending = -1;  ///< the last unpaired plain op (< 0: none)
  };
  std::map<std::uint32_t, Pairs> byKind;
  for (const OpCost& c : costs) {
    Pairs& p = byKind[c.kind];
    if (!c.traced) {
      p.pending = c.cpuMs;
    } else if (p.pending >= 0) {
      p.plain.push_back(p.pending);
      p.diff.push_back(c.cpuMs - p.pending);
      p.pending = -1;
    }
  }
  // Weighted by each kind's number of pairs; the standard error of a
  // median is about 1.2533 sigma / sqrt(n).
  double extra = 0, base = 0, var = 0;
  for (const auto& [kind, p] : byKind) {
    const std::size_t n = p.diff.size();
    if (n < 2) continue;
    const double w = static_cast<double>(n);
    double mean = 0, sq = 0;
    for (const double d : p.diff) mean += d / w;
    for (const double d : p.diff) sq += (d - mean) * (d - mean);
    const double se = 1.2533 * std::sqrt(sq / (w - 1)) / std::sqrt(w);
    extra += w * median(p.diff);
    base += w * median(p.plain);
    var += w * w * se * se;
  }
  if (base <= 0) return {};
  return {100.0 * extra / base, 100.0 * std::sqrt(var) / base};
}

double medianOf(const std::map<std::uint32_t, double>& perOp) {
  std::vector<double> v;
  v.reserve(perOp.size());
  for (const auto& [op, x] : perOp) v.push_back(x);
  return median(std::move(v));
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ------------------------------------------------------------ counting sink

void CountingSink::fold(const char* p, std::size_t n) {
  std::uint64_t h = h_;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(p[i]);
    h *= 1099511628211ull;
  }
  h_ = h;
  bytes_ += n;
}

CountingSink::int_type CountingSink::overflow(int_type ch) {
  sync();
  if (!traits_type::eq_int_type(ch, traits_type::eof())) {
    const char c = traits_type::to_char_type(ch);
    fold(&c, 1);
  }
  return traits_type::not_eof(ch);
}

std::streamsize CountingSink::xsputn(const char* s, std::streamsize n) {
  sync();
  fold(s, static_cast<std::size_t>(n));
  return n;
}

int CountingSink::sync() {
  fold(pbase(), static_cast<std::size_t>(pptr() - pbase()));
  setp(buf_, buf_ + sizeof buf_);
  return 0;
}

std::uint64_t CountingSink::bytes() {
  sync();
  return bytes_;
}

std::uint64_t CountingSink::digest() {
  sync();
  return h_;
}

void CountingSink::reset() {
  setp(buf_, buf_ + sizeof buf_);
  bytes_ = 0;
  h_ = 14695981039346656037ull;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// ------------------------------------------------------------------ tracer

struct Tracer::ThreadBuf {
  std::uint32_t tid = 0;
  std::uint32_t op = 0;
  std::vector<std::int32_t> open;  ///< stack of open span indexes
  std::vector<SpanRec> spans;
  std::vector<CounterRec> counters;
};

namespace {
std::mutex gBufMu;
std::deque<std::unique_ptr<Tracer::ThreadBuf>> gBufs;  // guarded by gBufMu
std::set<std::string> gNames;                          // guarded by gBufMu
thread_local Tracer::ThreadBuf* tBuf = nullptr;
thread_local bool tRecording = false;
}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

void Tracer::record(bool on) { tRecording = on; }
bool Tracer::on() const noexcept { return tRecording; }

void Tracer::clear() {
  const std::lock_guard<std::mutex> lk(gBufMu);
  for (auto& b : gBufs) {
    b->spans.clear();
    b->counters.clear();
    b->open.clear();
    b->op = 0;
  }
}

Tracer::ThreadBuf& Tracer::local() {
  if (tBuf == nullptr) {
    const std::lock_guard<std::mutex> lk(gBufMu);
    gBufs.push_back(std::make_unique<ThreadBuf>());
    tBuf = gBufs.back().get();
    tBuf->tid = static_cast<std::uint32_t>(gBufs.size());
  }
  return *tBuf;
}

std::vector<const Tracer::ThreadBuf*> Tracer::buffers() const {
  const std::lock_guard<std::mutex> lk(gBufMu);
  std::vector<const ThreadBuf*> out;
  for (const auto& b : gBufs) out.push_back(b.get());
  return out;
}

void Tracer::beginOp(std::uint32_t id) { local().op = id; }
void Tracer::endOp() { local().op = 0; }

void Tracer::count(const char* name, double value) {
  if (!on()) return;
  ThreadBuf& b = local();
  const auto now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
  b.counters.push_back({name, now, b.op, value});
}

const char* Tracer::intern(const std::string& name) {
  const std::lock_guard<std::mutex> lk(gBufMu);
  return gNames.insert(name).first->c_str();
}

Span::Span(const char* name, bool extra) {
  Tracer& tr = Tracer::get();
  if (!tr.on()) return;
  buf_ = &tr.local();
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - tr.epoch_).count();
  index_ = static_cast<std::int32_t>(buf_->spans.size());
  const std::int32_t parent = buf_->open.empty() ? -1 : buf_->open.back();
  buf_->spans.push_back({name, now, now, parent, buf_->op, buf_->tid, extra});
  buf_->open.push_back(index_);
}

Span::~Span() {
  if (buf_ == nullptr) return;
  const Tracer& tr = Tracer::get();
  buf_->spans[static_cast<std::size_t>(index_)].t1 =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - tr.epoch_).count();
  buf_->open.pop_back();
}

std::map<std::uint32_t, double> Tracer::perOpMs(const std::string& name) const {
  std::map<std::uint32_t, double> out;
  for (const ThreadBuf* b : buffers()) {
    for (const SpanRec& s : b->spans) {
      if (s.op != 0 && name == s.name) out[s.op] += static_cast<double>(s.t1 - s.t0) / 1e6;
    }
  }
  return out;
}

std::map<std::uint32_t, double> Tracer::perOpCount(const std::string& name) const {
  std::map<std::uint32_t, double> out;
  for (const ThreadBuf* b : buffers()) {
    for (const CounterRec& c : b->counters) {
      if (c.op != 0 && name == c.name) out[c.op] += c.value;
    }
  }
  return out;
}

std::map<std::uint32_t, double> Tracer::coveragePct(const char* root) const {
  std::map<std::uint32_t, double> covered;
  std::map<std::uint32_t, double> wall;
  for (const ThreadBuf* b : buffers()) {
    for (const SpanRec& s : b->spans) {
      if (s.op == 0) continue;
      const double ms = static_cast<double>(s.t1 - s.t0) / 1e6;
      if (std::strcmp(s.name, root) == 0) {
        wall[s.op] += ms;
      } else if (s.parent >= 0 &&
                 std::strcmp(b->spans[static_cast<std::size_t>(s.parent)].name, root) == 0) {
        covered[s.op] += ms;  // children of one span run one after another
      }
    }
  }
  std::map<std::uint32_t, double> out;
  for (const auto& [op, ms] : wall) out[op] = ms > 0 ? 100.0 * covered[op] / ms : 0;
  return out;
}

void Tracer::appendChromeEvents(std::string& out, int pid, const std::string& process) const {
  std::ostringstream os;
  os.precision(15);
  os << (out.back() == '[' ? "\n" : ",\n") << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
     << pid << ",\"args\":{\"name\":\"" << process << "\"}}";
  for (const ThreadBuf* b : buffers()) {
    for (const SpanRec& s : b->spans) {
      os << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":" << pid
         << ",\"tid\":" << s.tid << ",\"ts\":" << static_cast<double>(s.t0) / 1e3
         << ",\"dur\":" << static_cast<double>(s.t1 - s.t0) / 1e3 << ",\"args\":{\"op\":"
         << s.op << ",\"parent\":" << s.parent << ",\"extra\":" << (s.extra ? "true" : "false")
         << "}}";
    }
    for (const CounterRec& c : b->counters) {
      os << ",\n{\"name\":\"" << c.name << "\",\"ph\":\"C\",\"pid\":" << pid
         << ",\"tid\":" << b->tid << ",\"ts\":" << static_cast<double>(c.t) / 1e3
         << ",\"args\":{\"value\":" << c.value
         << ",\"op\":" << c.op << "}}";
    }
  }
  out += os.str();
}

// --------------------------------------------------------- prepare phase

namespace {

/// The figures a prepare phase hands back from its child process, as a
/// flat byte string.
class Wire {
 public:
  void u64(std::uint64_t v) { bytes.append(reinterpret_cast<const char*>(&v), sizeof v); }
  void f64(double v) { bytes.append(reinterpret_cast<const char*>(&v), sizeof v); }
  void str(const std::string& v) {
    u64(v.size());
    bytes += v;
  }
  std::string bytes;
};

class WireReader {
 public:
  explicit WireReader(const std::string& b) : b_(b) {}
  std::uint64_t u64() {
    std::uint64_t v = 0;
    take(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    take(&v, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint64_t n = u64();
    if (n > b_.size() - at_) {
      ok_ = false;
      return {};
    }
    std::string v = b_.substr(at_, n);
    at_ += n;
    return v;
  }
  [[nodiscard]] bool good() const { return ok_; }
  [[nodiscard]] bool whole() const { return ok_ && at_ == b_.size(); }

 private:
  void take(void* out, std::size_t n) {
    if (n > b_.size() - at_) {
      ok_ = false;
      return;
    }
    std::memcpy(out, b_.data() + at_, n);
    at_ += n;
  }
  const std::string& b_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

std::string pack(const Report& r) {
  Wire w;
  w.u64(r.correct ? 1 : 0);
  w.u64(static_cast<std::uint64_t>(r.threads));
  w.u64(r.errors.size());
  for (const std::string& e : r.errors) w.str(e);
  w.u64(r.setupCpuSeconds.size());
  for (std::size_t i = 0; i < r.setupCpuSeconds.size(); ++i) {
    w.f64(r.setupCpuSeconds[i]);
    w.f64(r.setupWallSeconds[i]);
  }
  w.u64(r.info.size());
  for (const Metric& m : r.info) {
    w.str(m.name);
    w.f64(m.value);
    w.str(m.unit);
  }
  w.u64(r.refs.size());
  for (const std::uint64_t v : r.refs) w.u64(v);
  w.u64(r.texts.size());
  for (const std::string& t : r.texts) w.str(t);
  return std::move(w.bytes);
}

bool unpackInto(const std::string& bytes, Report& r) {
  WireReader in(bytes);
  const bool correct = in.u64() == 1;
  r.threads = std::max(r.threads, static_cast<int>(in.u64()));
  for (std::uint64_t n = in.u64(), i = 0; in.good() && i < n; ++i) {
    r.check(false, in.str());
  }
  for (std::uint64_t n = in.u64(), i = 0; in.good() && i < n; ++i) {
    r.setupCpuSeconds.push_back(in.f64());
    r.setupWallSeconds.push_back(in.f64());
  }
  for (std::uint64_t n = in.u64(), i = 0; in.good() && i < n; ++i) {
    Metric m;
    m.name = in.str();
    m.value = in.f64();
    m.unit = in.str();
    r.info.push_back(std::move(m));
  }
  for (std::uint64_t n = in.u64(), i = 0; in.good() && i < n; ++i) {
    r.refs.push_back(in.u64());
  }
  for (std::uint64_t n = in.u64(), i = 0; in.good() && i < n; ++i) {
    r.texts.push_back(in.str());
  }
  r.correct = r.correct && correct;
  return in.whole();
}

}  // namespace

void prepared(Report& r, bool isolate, const std::function<void(Report&)>& prepare) {
  if (!isolate) {
    prepare(r);
    return;
  }
  int fds[2];
  if (pipe(fds) != 0) {
    r.check(false, "cannot open a pipe to the prepare phase");
    return;
  }
  std::fflush(nullptr);  // nothing buffered is written twice
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    r.check(false, "cannot fork the prepare phase");
    return;
  }
  if (pid == 0) {
    close(fds[0]);
    Report child;
    prepare(child);
    child.threads = std::max(child.threads, threadCount());
    const std::string bytes = pack(child);
    std::size_t at = 0;
    while (at < bytes.size()) {
      const ssize_t n = write(fds[1], bytes.data() + at, bytes.size() - at);
      if (n <= 0) _exit(3);
      at += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    _exit(0);  // no destructors: the child's threads are not joined
  }
  close(fds[1]);
  std::string bytes;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n <= 0) break;
    bytes.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      status = -1;
      break;
    }
  }
  const bool exited = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  r.check(exited && unpackInto(bytes, r), "the prepare phase did not finish");
}

// ---------------------------------------------------------------- readers

namespace {

/// Splits a CIF text into its commands (the text up to each ';'),
/// skipping comments, and hands each to `fn(command, rest)`.
template <typename Fn>
void forEachCifCommand(const std::string& cif, Fn&& fn) {
  std::size_t i = 0;
  while (i < cif.size()) {
    while (i < cif.size() && std::isspace(static_cast<unsigned char>(cif[i]))) ++i;
    if (i >= cif.size()) break;
    if (cif[i] == '(') {
      // A comment runs to its closing parenthesis.
      const std::size_t close = cif.find(')', i);
      if (close == std::string::npos) break;
      const std::size_t semi = cif.find(';', close);
      i = semi == std::string::npos ? cif.size() : semi + 1;
      continue;
    }
    const std::size_t end = std::min(cif.find(';', i), cif.size());
    fn(cif[i], std::string_view(cif).substr(i + 1, end - i - 1));
    i = end + 1;
  }
}

std::uint64_t expand(std::uint64_t sym, const std::map<std::uint64_t, std::uint64_t>& own,
                     const std::multimap<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>& calls,
                     std::map<std::uint64_t, std::uint64_t>& memo, int depth) {
  if (depth > 64) return 0;  // a cycle: not a valid mask hierarchy
  if (const auto it = memo.find(sym); it != memo.end()) return it->second;
  std::uint64_t n = own.count(sym) != 0 ? own.at(sym) : 0;
  const auto [lo, hi] = calls.equal_range(sym);
  for (auto it = lo; it != hi; ++it) {
    n += it->second.second * expand(it->second.first, own, calls, memo, depth + 1);
  }
  memo[sym] = n;
  return n;
}

constexpr std::uint64_t kTopLevel = ~0ull;

}  // namespace

std::vector<CifBox> cifBoxes(const std::string& cif) {
  std::vector<CifBox> out;
  std::string layer;
  forEachCifCommand(cif, [&](char cmd, std::string_view rest) {
    std::istringstream is{std::string(rest)};
    if (cmd == 'L') {
      is >> layer;
    } else if (cmd == 'B') {
      std::int64_t w = 0, h = 0, cx = 0, cy = 0;
      is >> w >> h >> cx >> cy;
      // The writer's centre is floor((x0 + x1) / 2); invert it exactly.
      const std::int64_t x0 = cx - w / 2, y0 = cy - h / 2;
      out.push_back({layer, x0, y0, x0 + w, y0 + h});
    }
  });
  return out;
}

std::uint64_t cifShapeCount(const std::string& cif) {
  std::map<std::uint64_t, std::uint64_t> own;
  std::multimap<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> calls;
  std::uint64_t current = kTopLevel;
  forEachCifCommand(cif, [&](char cmd, std::string_view rest) {
    std::istringstream is{std::string(rest)};
    if (cmd == 'D' && !rest.empty() && rest[0] == 'S') {
      is.get();
      is >> current;
    } else if (cmd == 'D' && !rest.empty() && rest[0] == 'F') {
      current = kTopLevel;
    } else if (cmd == 'B' || cmd == 'P') {
      ++own[current];
    } else if (cmd == 'W') {
      // A wire of n points is n - 1 segment boxes (one for a lone point).
      std::int64_t v = 0;
      std::uint64_t values = 0;
      while (is >> v) ++values;
      const std::uint64_t points = values > 0 ? (values - 1) / 2 : 0;
      own[current] += points > 1 ? points - 1 : 1;
    } else if (cmd == 'C') {
      std::uint64_t callee = 0;
      is >> callee;
      calls.insert({current, {callee, 1}});
    }
  });
  std::map<std::uint64_t, std::uint64_t> memo;
  return expand(kTopLevel, own, calls, memo, 0);
}

std::size_t spiceMosfets(const std::string& deck) {
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < deck.size()) {
    const std::size_t eol = std::min(deck.find('\n', i), deck.size());
    if (eol > i && (deck[i] == 'M' || deck[i] == 'm')) ++n;
    i = eol + 1;
  }
  return n;
}

bool gdsShapeCount(const std::string& bytes, std::uint64_t& shapes) {
  shapes = 0;
  std::map<std::string, std::uint64_t> ids;
  const auto idOf = [&](const std::string& name) {
    return ids.emplace(name, ids.size()).first->second;
  };
  std::map<std::uint64_t, std::uint64_t> own;
  std::multimap<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> calls;
  std::set<std::uint64_t> referenced;
  std::uint64_t current = kTopLevel;
  std::uint64_t refCount = 0;  // instances of the SREF/AREF being read
  bool inPath = false;
  std::size_t i = 0;
  while (i + 4 <= bytes.size()) {
    const auto len = static_cast<std::size_t>(static_cast<unsigned char>(bytes[i]) << 8 |
                                              static_cast<unsigned char>(bytes[i + 1]));
    const auto type = static_cast<unsigned char>(bytes[i + 2]);
    if (len < 4 || len % 2 != 0 || i + len > bytes.size()) return false;
    std::string data = bytes.substr(i + 4, len - 4);
    while (!data.empty() && data.back() == '\0') data.pop_back();  // string padding
    switch (type) {
      case 0x06: current = idOf(data); break;               // STRNAME
      case 0x07: current = kTopLevel; break;                // ENDSTR
      case 0x08: ++own[current]; break;                     // BOUNDARY
      case 0x09: inPath = true; break;                      // PATH
      case 0x10:                                            // XY
        // A path of n points is n - 1 segment boxes (one for a lone point).
        if (inPath) own[current] += (len - 4) / 8 > 1 ? (len - 4) / 8 - 1 : 1;
        break;
      case 0x0A: refCount = 1; break;                       // SREF
      case 0x0B: refCount = 0; break;                       // AREF (COLROW follows)
      case 0x13:                                            // COLROW
        if (len >= 8) {
          const auto u16 = [&](std::size_t at) {
            return static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at]) << 8 |
                                              static_cast<unsigned char>(bytes[at + 1]));
          };
          refCount = u16(i + 4) * u16(i + 6);
        }
        break;
      case 0x12: {                                          // SNAME
        const std::uint64_t callee = idOf(data);
        referenced.insert(callee);
        calls.insert({current, {callee, 0}});
        break;
      }
      case 0x11:                                            // ENDEL
        // The element's instance count is known once it closes.
        for (auto it = calls.rbegin(); it != calls.rend(); ++it) {
          if (it->first == current && it->second.second == 0) {
            it->second.second = refCount;
            break;
          }
        }
        refCount = 0;
        inPath = false;
        break;
      case 0x04: {                                          // ENDLIB
        if (i + len != bytes.size()) return false;
        std::map<std::uint64_t, std::uint64_t> memo;
        for (const auto& [name, id] : ids) {
          if (referenced.count(id) == 0) shapes += expand(id, own, calls, memo, 0);
        }
        return true;
      }
      default: break;
    }
    i += len;
  }
  return false;
}

}  // namespace perfbench
