#include "tracer.hpp"

#include <cstdio>
#include <cstring>

namespace perfbench {

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("i,op,parent,layer,name,start_ns,dur_ns,self_ns\n", file);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file, "%zu,%llu,%d,%s,%s,%lld,%lld,%lld\n", i,
                 static_cast<unsigned long long>(s.op), s.parent,
                 kLayerNames[static_cast<std::size_t>(s.layer)], s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.duration_ns()),
                 static_cast<long long>(s.self_ns()));
  }
  return std::fclose(file) == 0;
}

LayerBreakdown breakdown(const std::vector<Span>& spans,
                         const char* root_name) {
  LayerBreakdown out;
  // Spans are stored in open order, so a parent always precedes its
  // children and one forward pass resolves every span's root.
  std::vector<std::int32_t> root(spans.size(), -1);
  std::vector<std::int64_t> tree_self(spans.size(), 0);
  std::vector<char> tree_ok(spans.size(), 1);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      root[i] = static_cast<std::int32_t>(i);
    } else {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      root[i] = root[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        tree_ok[static_cast<std::size_t>(root[i])] = 0;
      }
    }
    if (s.self_ns() < 0) tree_ok[static_cast<std::size_t>(root[i])] = 0;
    tree_self[static_cast<std::size_t>(root[i])] += s.self_ns();
  }
  std::vector<char> counted(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto r = static_cast<std::size_t>(root[i]);
    if (std::strcmp(spans[r].name, root_name) != 0) continue;
    out.self_ns[static_cast<std::size_t>(spans[i].layer)] += spans[i].self_ns();
    if (counted[r] != 0) continue;
    counted[r] = 1;
    ++out.ops;
    out.op_ns += spans[r].duration_ns();
    if (tree_ok[r] == 0 || tree_self[r] != spans[r].duration_ns()) {
      ++out.unbalanced_ops;
    }
  }
  return out;
}

}  // namespace perfbench
