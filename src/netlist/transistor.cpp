#include "netlist/transistor.hpp"

#include "core/text_sink.hpp"

#include <utility>

namespace bb::netlist {

std::string_view kindName(TransKind k) noexcept {
  return k == TransKind::Enhancement ? "enh" : "dep";
}

int TransistorNetlist::netByName(const std::string& name) {
  auto it = byName_.find(name);
  if (it != byName_.end()) return it->second;
  const int id = static_cast<int>(nets_.size());
  nets_.push_back(Net{name, true});
  byName_[name] = id;
  return id;
}

int TransistorNetlist::anonNet() {
  const int id = static_cast<int>(nets_.size());
  std::string name = "n";  // an append, not "n" + string: GCC bug 105329
  name += std::to_string(anon_++);
  nets_.push_back(Net{std::move(name), false});
  return id;
}

void TransistorNetlist::rename(int net, const std::string& name) {
  if (net < 0 || net >= static_cast<int>(nets_.size())) return;
  byName_.erase(nets_[static_cast<std::size_t>(net)].name);
  nets_[static_cast<std::size_t>(net)].name = name;
  nets_[static_cast<std::size_t>(net)].isNamed = true;
  byName_[name] = net;
}

std::size_t TransistorNetlist::enhancementCount() const noexcept {
  std::size_t n = 0;
  for (const Transistor& t : trans_) {
    if (t.kind == TransKind::Enhancement) ++n;
  }
  return n;
}

std::size_t TransistorNetlist::depletionCount() const noexcept {
  return trans_.size() - enhancementCount();
}

int TransistorNetlist::findNet(const std::string& name) const noexcept {
  auto it = byName_.find(name);
  return it == byName_.end() ? -1 : it->second;
}

std::string TransistorNetlist::toText() const {
  core::TextSink os;
  os << "transistor diagram: " << trans_.size() << " devices ("
     << enhancementCount() << " enh, " << depletionCount() << " dep), " << nets_.size()
     << " nets\n";
  int i = 0;
  for (const Transistor& t : trans_) {
    auto nn = [&](int id) -> std::string {
      return id >= 0 && id < static_cast<int>(nets_.size())
                 ? nets_[static_cast<std::size_t>(id)].name
                 : "?";
    };
    os << "M" << i++ << ' ' << kindName(t.kind) << " g=" << nn(t.gate) << " s=" << nn(t.source)
       << " d=" << nn(t.drain) << " w/l=" << t.width << '/' << t.length << " at "
       << geom::toString(t.at) << "\n";
  }
  return std::move(os).take();
}

}  // namespace bb::netlist
