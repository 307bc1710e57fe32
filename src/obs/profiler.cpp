#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>

namespace coop::obs {

namespace {

/// FNV-1a over a site-id sequence — the path-table hash.
std::uint64_t path_hash(const Profiler::SiteId* sites,
                        std::size_t depth) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < depth; ++i) {
    h ^= sites[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

bool Profiler::env_enabled() noexcept {
  const char* env = std::getenv("COOP_PROFILE");
  return env != nullptr && !(env[0] == '0' && env[1] == '\0');
}

Profiler::SiteId Profiler::site(const char* name, Category cat) noexcept {
  for (std::size_t i = 0; i < n_sites_; ++i) {
    // Same literal or same spelling: either way it is the same site.
    if (sites_[i].name == name || std::strcmp(sites_[i].name, name) == 0)
      return static_cast<SiteId>(i);
  }
  if (n_sites_ >= kMaxSites) {
    ++dropped_sites_;
    return kInvalidSite;
  }
  sites_[n_sites_].name = name;
  sites_[n_sites_].cat = cat;
  return static_cast<SiteId>(n_sites_++);
}

std::uint32_t Profiler::intern_path(SiteId s) noexcept {
  std::array<SiteId, kMaxDepth> key{};
  for (std::size_t i = 0; i < depth_; ++i) key[i] = stack_[i].site;
  key[depth_] = s;
  const std::size_t depth = depth_ + 1;
  std::size_t slot = path_hash(key.data(), depth) & (kMaxPaths - 1);
  // Short bounded probe: a full table folds new paths into the overflow
  // counter instead of evicting or allocating.
  for (std::size_t probe = 0; probe < 8; ++probe) {
    Path& p = paths_[slot];
    if (!p.used) {
      p.used = true;
      p.depth = static_cast<std::uint8_t>(depth);
      p.sites = key;
      return static_cast<std::uint32_t>(slot);
    }
    if (p.depth == depth &&
        std::memcmp(p.sites.data(), key.data(), depth * sizeof(SiteId)) == 0)
      return static_cast<std::uint32_t>(slot);
    slot = (slot + 1) & (kMaxPaths - 1);
  }
  ++dropped_paths_;
  return static_cast<std::uint32_t>(kMaxPaths);
}

void Profiler::enter(SiteId s) noexcept {
  if (!enabled_) return;
  if (depth_ >= kMaxDepth) {
    // Deeper than the frame stack: count and skip.  Anything nested in a
    // skipped scope is also deeper, so the pairing below stays LIFO.
    ++skip_depth_;
    ++dropped_frames_;
    return;
  }
  Frame& f = stack_[depth_];
  f.site = s;
  f.child_ns = 0;
  f.path = intern_path(s);
  ++depth_;
  f.start_ns = now_ns();  // last: exclude the bookkeeping above
}

void Profiler::exit(SiteId s) noexcept {
  // Deliberately not gated on enabled_: a scope that latched its enter
  // (ProfScope) must unwind even if profiling was toggled off inside it.
  if (skip_depth_ > 0) {
    --skip_depth_;
    return;
  }
  if (depth_ == 0) return;  // unbalanced exit: ignore
  (void)s;
  Frame& f = stack_[--depth_];
  const std::uint64_t end = now_ns();
  const std::uint64_t dt = end > f.start_ns ? end - f.start_ns : 0;
  const std::uint64_t self = dt > f.child_ns ? dt - f.child_ns : 0;
  if (f.site < n_sites_) {
    Site& site = sites_[f.site];
    ++site.calls;
    site.total_ns += dt;
    site.self_ns += self;
  }
  if (f.path < kMaxPaths) {
    paths_[f.path].self_ns += self;
    ++paths_[f.path].hits;
  }
  if (depth_ > 0) stack_[depth_ - 1].child_ns += dt;
}

std::uint64_t Profiler::calls_of(SiteId s) const noexcept {
  return s < n_sites_ ? sites_[s].calls : 0;
}

std::uint64_t Profiler::self_ns_of(SiteId s) const noexcept {
  return s < n_sites_ ? sites_[s].self_ns : 0;
}

void Profiler::write_top(std::ostream& out) const {
  std::array<std::size_t, kMaxSites> order{};
  for (std::size_t i = 0; i < n_sites_; ++i) order[i] = i;
  std::sort(order.begin(), order.begin() + n_sites_,
            [this](std::size_t a, std::size_t b) {
              if (sites_[a].self_ns != sites_[b].self_ns)
                return sites_[a].self_ns > sites_[b].self_ns;
              return std::strcmp(sites_[a].name, sites_[b].name) < 0;
            });
  std::uint64_t grand_self = 0;
  for (std::size_t i = 0; i < n_sites_; ++i) grand_self += sites_[i].self_ns;

  char line[160];
  out << "sim top — wall-clock self time by site\n";
  std::snprintf(line, sizeof(line), "%-28s %-9s %12s %12s %12s %6s\n",
                "site", "cat", "calls", "self_ms", "total_ms", "self%");
  out << line;
  for (std::size_t i = 0; i < n_sites_; ++i) {
    const Site& s = sites_[order[i]];
    const double pct =
        grand_self > 0
            ? 100.0 * static_cast<double>(s.self_ns) /
                  static_cast<double>(grand_self)
            : 0.0;
    std::snprintf(line, sizeof(line), "%-28s %-9s %12llu %12.3f %12.3f %5.1f%%\n",
                  s.name, category_name(s.cat),
                  static_cast<unsigned long long>(s.calls),
                  static_cast<double>(s.self_ns) / 1e6,
                  static_cast<double>(s.total_ns) / 1e6, pct);
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "kernel: %llu steps, %.3f ms dispatch wall time\n",
                static_cast<unsigned long long>(steps_),
                static_cast<double>(step_ns_) / 1e6);
  out << line;
  std::snprintf(line, sizeof(line),
                "overflow: %llu sites, %llu frames, %llu paths dropped\n",
                static_cast<unsigned long long>(dropped_sites_),
                static_cast<unsigned long long>(dropped_frames_),
                static_cast<unsigned long long>(dropped_paths_));
  out << line;
}

void Profiler::write_collapsed(std::ostream& out) const {
  // Stable order (table scan) keeps diffs small; values are wall-clock
  // and inherently non-deterministic anyway.
  for (std::size_t i = 0; i < kMaxPaths; ++i) {
    const Path& p = paths_[i];
    if (!p.used || p.self_ns == 0) continue;
    for (std::uint8_t d = 0; d < p.depth; ++d) {
      if (d > 0) out << ';';
      const SiteId s = p.sites[d];
      out << (s < n_sites_ ? sites_[s].name : "(overflow)");
    }
    out << ' ' << p.self_ns / 1000 << '\n';
  }
}

}  // namespace coop::obs
