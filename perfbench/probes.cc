#include "perfbench/probes.h"

#include <cstdio>

namespace grouting::perfbench {

bool SpanLog::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "layer,start_ns,end_ns,query,value\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%llu,%llu\n", LayerName(s.layer),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.query),
                 static_cast<unsigned long long>(s.value));
  }
  return std::fclose(f) == 0;
}

}  // namespace grouting::perfbench
