// Byte-identity gates for every registry emitter: a pinned table of
// FNV-1a digests and lengths (full, windowed and hierarchical output of
// the four sample chips), and a check that output does not depend on
// the process's global locale.

#include "core/digest.hpp"
#include "core/text_sink.hpp"
#include "core/samples.hpp"
#include "core/session.hpp"
#include "reps/emitter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <locale>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bb {
namespace {

using geom::Rect;

const char* const kSamples[] = {"small4", "large16x8", "prototype", "segmented8"};

icl::ChipDesc sampleDesc(std::string_view name) {
  if (name == "small4") return core::samples::smallChip(4);
  if (name == "large16x8") return core::samples::largeChip(16, 8);
  if (name == "prototype") return core::samples::prototypeChip();
  return core::samples::segmentedChip(8);
}

/// The four sample chips, compiled once for the whole binary.
const core::CompiledChip& sampleChip(std::string_view name) {
  static std::map<std::string, core::CompiledChipPtr, std::less<>> chips;
  auto it = chips.find(name);
  if (it == chips.end()) {
    auto compiled = core::compileChip(sampleDesc(name));
    if (!compiled) {
      ADD_FAILURE() << compiled.diagnostics().toString();
      std::abort();
    }
    it = chips.emplace(std::string(name), std::move(*compiled)).first;
  }
  return *it->second;
}

std::string emit(const core::CompiledChip& chip, std::string_view emitter,
                 const reps::EmitterOptions& opts = {}) {
  const reps::Emitter* e = reps::EmitterRegistry::global().find(emitter);
  if (e == nullptr) {
    ADD_FAILURE() << "no emitter " << emitter;
    return {};
  }
  return e->emitToString(chip, opts);
}

std::uint64_t digestOf(const std::string& bytes) {
  return core::Digest{}.update(bytes.data(), bytes.size()).value();
}

enum class Mode { Full, Window, Hier, HierWindow };

/// The fixed viewport of the windowed rows on largeChip(16,8). It lies
/// inside both the die and the core, so it windows the chip-coordinate
/// emitters and sticks-svg (core coordinates) alike.
const Rect kWindow{1000, 500, 3000, 2500};

reps::EmitterOptions optionsFor(Mode m) {
  reps::EmitterOptions o;
  if (m == Mode::Window || m == Mode::HierWindow) o.window = kWindow;
  o.hierarchical = m == Mode::Hier || m == Mode::HierWindow;
  return o;
}

const char* modeName(Mode m) {
  switch (m) {
    case Mode::Full: return "Full";
    case Mode::Window: return "Window";
    case Mode::Hier: return "Hier";
    case Mode::HierWindow: return "HierWindow";
  }
  return "?";
}

struct Golden {
  const char* sample;
  const char* emitter;
  Mode mode;
  std::size_t bytes;
  std::uint64_t digest;
};

// Recorded from the ostream-based writers these replaced; any change
// to an emitter's bytes shows up here. On a mismatch the test prints
// the row as it is now.
const Golden kGolden[] = {
    {"small4", "block", Mode::Full, 1039, 0xf54bdc87abedac3dull},
    {"small4", "cif", Mode::Full, 24049, 0x63e17282c755a655ull},
    {"small4", "gds", Mode::Full, 85154, 0xf2bff8736b11883aull},
    {"small4", "logic", Mode::Full, 8057, 0x75904873d339acb0ull},
    {"small4", "simulation", Mode::Full, 231, 0xaddb3228f2615895ull},
    {"small4", "spice", Mode::Full, 4572, 0x48df0590aa331a35ull},
    {"small4", "sticks", Mode::Full, 133, 0xdf985aaa07540c61ull},
    {"small4", "sticks-svg", Mode::Full, 91080, 0xc6c11c103d7cef06ull},
    {"small4", "svg", Mode::Full, 176992, 0x92bc823486406bb7ull},
    {"small4", "text", Mode::Full, 3099, 0x9ef6f189488e376full},
    {"small4", "transistors", Mode::Full, 6488, 0x10d6c576ac72c5ceull},
    {"large16x8", "block", Mode::Full, 1089, 0x77caa6a3e6f9367cull},
    {"large16x8", "cif", Mode::Full, 98875, 0x34621cf19e8394c9ull},
    {"large16x8", "gds", Mode::Full, 351746, 0x35af1b10c660d214ull},
    {"large16x8", "logic", Mode::Full, 59609, 0x5541be8da4e5642eull},
    {"large16x8", "simulation", Mode::Full, 228, 0xb34c3dd7ac492133ull},
    {"large16x8", "spice", Mode::Full, 52687, 0x14c70127ebae41b7ull},
    {"large16x8", "sticks", Mode::Full, 141, 0xbf0947690ee7985eull},
    {"large16x8", "sticks-svg", Mode::Full, 984640, 0xe8ed4a513e6c4d70ull},
    {"large16x8", "svg", Mode::Full, 1290653, 0x58d5f3f37432ed92ull},
    {"large16x8", "text", Mode::Full, 6397, 0x99c152b4ecae6b78ull},
    {"large16x8", "transistors", Mode::Full, 75262, 0xd1426bf2ae70e641ull},
    {"prototype", "block", Mode::Full, 1038, 0xcc1b3bf8d7d48e59ull},
    {"prototype", "cif", Mode::Full, 22961, 0x696d43506dcdb59bull},
    {"prototype", "gds", Mode::Full, 78698, 0xf8d4f6a9eebfa8d6ull},
    {"prototype", "logic", Mode::Full, 5419, 0x98e0b2297d15c699ull},
    {"prototype", "simulation", Mode::Full, 201, 0x25a9f998cfaec281ull},
    {"prototype", "spice", Mode::Full, 3880, 0x6c2e2fc9d0cabf98ull},
    {"prototype", "sticks", Mode::Full, 133, 0x7fcfda05f0c3ef0bull},
    {"prototype", "sticks-svg", Mode::Full, 98118, 0x6d05b029f38ce681ull},
    {"prototype", "svg", Mode::Full, 145598, 0xe26eefc6225fdfdcull},
    {"prototype", "text", Mode::Full, 3043, 0xc24ff409db1e0f72ull},
    {"prototype", "transistors", Mode::Full, 5487, 0x2063bb8387b0f278ull},
    {"segmented8", "block", Mode::Full, 1079, 0x3242b83cf09aa693ull},
    {"segmented8", "cif", Mode::Full, 30500, 0xd5c1f6ef898b0832ull},
    {"segmented8", "gds", Mode::Full, 107330, 0xfd5bc054fb79c9ebull},
    {"segmented8", "logic", Mode::Full, 8073, 0xb3765d7d2ee4a648ull},
    {"segmented8", "simulation", Mode::Full, 202, 0xd736f99d7b070264ull},
    {"segmented8", "spice", Mode::Full, 6579, 0xd8098c1dca63a603ull},
    {"segmented8", "sticks", Mode::Full, 133, 0xb61264b5c96630b6ull},
    {"segmented8", "sticks-svg", Mode::Full, 154355, 0x3acfd7bfe7bc3a29ull},
    {"segmented8", "svg", Mode::Full, 222466, 0x3e45f24df21a0a9dull},
    {"segmented8", "text", Mode::Full, 3671, 0x36dd622ac688a457ull},
    {"segmented8", "transistors", Mode::Full, 9319, 0xd3e6c05b3797febeull},
    {"large16x8", "cif", Mode::Window, 34134, 0x0bdbe6712327f9faull},
    {"large16x8", "gds", Mode::Window, 118766, 0x1bf096d24bfd1186ull},
    {"large16x8", "svg", Mode::Window, 148662, 0x3a805facd46d0490ull},
    {"large16x8", "sticks-svg", Mode::Window, 146853, 0x45031756717894c6ull},
    {"small4", "cif", Mode::Hier, 24049, 0x63e17282c755a655ull},
    {"small4", "gds", Mode::Hier, 84784, 0x59f1400b1bf12682ull},
    {"large16x8", "cif", Mode::Hier, 98875, 0x34621cf19e8394c9ull},
    {"large16x8", "gds", Mode::Hier, 347978, 0x262d8b7f7c90b749ull},
    {"prototype", "cif", Mode::Hier, 22961, 0x696d43506dcdb59bull},
    {"prototype", "gds", Mode::Hier, 78246, 0xa4bf1327c60f0b8aull},
    {"segmented8", "cif", Mode::Hier, 30500, 0xd5c1f6ef898b0832ull},
    {"segmented8", "gds", Mode::Hier, 106268, 0x06edc1dd1c76be6aull},
    {"large16x8", "cif", Mode::HierWindow, 34134, 0x0bdbe6712327f9faull},
    {"large16x8", "gds", Mode::HierWindow, 118766, 0x1bf096d24bfd1186ull},
};

TEST(EmitGolden, EveryRepresentationMatchesItsPinnedDigest) {
  for (const Golden& g : kGolden) {
    const std::string out = emit(sampleChip(g.sample), g.emitter, optionsFor(g.mode));
    char row[160];
    std::snprintf(row, sizeof row, "{\"%s\", \"%s\", Mode::%s, %zu, 0x%016llxull},", g.sample,
                  g.emitter, modeName(g.mode), out.size(),
                  static_cast<unsigned long long>(digestOf(out)));
    EXPECT_EQ(out.size(), g.bytes) << row;
    EXPECT_EQ(digestOf(out), g.digest) << row;
  }
}

TEST(EmitGolden, TableCoversEveryEmitterOnEverySample) {
  for (const char* sample : kSamples) {
    for (const std::string_view name : reps::EmitterRegistry::global().names()) {
      bool found = false;
      for (const Golden& g : kGolden) {
        found = found || (g.mode == Mode::Full && g.sample == std::string_view(sample) &&
                          g.emitter == name);
      }
      EXPECT_TRUE(found) << "no golden row for " << sample << " / " << name;
    }
  }
}

// ------------------------------------------------------------ TextSink

std::string viaSink(double v) {
  core::TextSink s;
  s << v;
  return std::move(s).take();
}

std::string viaStream(double v) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << v;
  return os.str();
}

TEST(TextSink, DoublesPrintExactlyAsADefaultStream) {
  // Short decimals take the sink's own shortcut, everything else
  // std::to_chars; both must give the stream's %g bytes.
  std::vector<double> values = {0.0,      -0.0,     1e6,       999999.0,  999999.5, -999999.5,
                                99999.95, 0.0001,   0.001,     -0.001,    0.05,     1e-300,
                                123456.5, 12345.25, 1234.125,  1234.0625, 0.1,      0.3,
                                2.675,    100000.5, 1e15,      -2.5e-5,   0.55,     2.184};
  for (long k = -1'100'000; k <= 1'100'000; k += 37) {
    values.insert(values.end(), {static_cast<double>(k) / 1000, static_cast<double>(k) * 0.25,
                                 static_cast<double>(k) * 0.125 + 10});
  }
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 50'000; ++i) {
    const double v = std::ldexp(static_cast<double>(rng() >> 11), -static_cast<int>(rng() % 80));
    values.insert(values.end(), {v, -v, v * 1e-3});
  }
  for (const double v : values) {
    ASSERT_EQ(viaSink(v), viaStream(v)) << "value " << std::hexfloat << v;
  }
}

TEST(TextSink, IntegersAndTextAppendAsAStreamWould) {
  core::TextSink s;
  s << "B " << 16 << ' ' << std::size_t{3'000'000'000} << std::string(" x")
    << -9'223'372'036'854'775'807LL << std::string_view(";");
  EXPECT_EQ(std::move(s).take(), "B 16 3000000000 x-9223372036854775807;");
}

// ------------------------------------------------- locale independence

/// A locale that groups thousands with '.' and writes ',' as decimal
/// point — what a host program might install with std::locale::global.
/// Built from the classic locale plus one facet, so no system locale
/// is needed.
struct CommaDecimal : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

class GlobalLocale : public ::testing::Test {
 protected:
  /// Installs the comma-decimal locale; TearDown puts the previous one
  /// back even when an assertion failed.
  void installCommaDecimal() {
    saved_ = std::locale::global(std::locale(std::locale::classic(), new CommaDecimal));
  }
  void TearDown() override {
    if (saved_) std::locale::global(*saved_);
  }

 private:
  std::optional<std::locale> saved_;
};

TEST_F(GlobalLocale, EmittersIgnoreAGroupingCommaDecimalLocale) {
  const auto names = reps::EmitterRegistry::global().names();
  std::map<std::pair<std::string, std::string>, std::string> reference;
  for (const char* sample : kSamples) {
    for (const std::string_view name : names) {
      reference[{sample, std::string(name)}] = emit(sampleChip(sample), name);
    }
  }
  installCommaDecimal();
  for (const auto& [key, bytes] : reference) {
    EXPECT_EQ(emit(sampleChip(key.first), key.second), bytes)
        << key.first << " / " << key.second << " changed under the global locale";
  }
}

}  // namespace
}  // namespace bb
