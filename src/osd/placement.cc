#include "src/osd/placement.h"

#include <algorithm>
#include <cmath>

namespace mal::osd {

uint64_t StableHash(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t StableHash64(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint32_t PgForObject(const std::string& oid, uint32_t pg_count) {
  if (pg_count == 0) {
    return 0;
  }
  return static_cast<uint32_t>(StableHash(oid) % pg_count);
}

std::vector<uint32_t> PgToOsds(uint32_t pg, const mon::OsdMap& map, uint32_t replicas) {
  // Rendezvous hashing: score every up OSD against the PG, take the top R.
  std::vector<std::pair<double, uint32_t>> scored;
  for (const auto& [id, info] : map.osds) {
    if (!info.up || info.weight <= 0) {
      continue;
    }
    uint64_t h = StableHash64(pg, id);
    // Weighted rendezvous: -w / ln(u) ordering, u in (0,1].
    double u = (static_cast<double>(h >> 11) + 1.0) / 9007199254740993.0;
    double score = -info.weight / std::log(u);
    scored.emplace_back(score, id);
  }
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;
  });
  std::vector<uint32_t> acting;
  for (size_t i = 0; i < scored.size() && i < replicas; ++i) {
    acting.push_back(scored[i].second);
  }
  return acting;
}

std::vector<uint32_t> OsdsForObject(const std::string& oid, const mon::OsdMap& map,
                                    uint32_t replicas) {
  return PgToOsds(PgForObject(oid, map.pg_count), map, replicas);
}

std::string EcShardOid(const std::string& pool_oid, uint32_t index) {
  return pool_oid + ".shard" + std::to_string(index);
}

std::optional<EcShardRef> ParseEcShardOid(const std::string& oid) {
  constexpr char kMarker[] = ".shard";
  constexpr size_t kMarkerLen = sizeof(kMarker) - 1;
  size_t marker = oid.rfind(kMarker);
  if (marker == std::string::npos || marker + kMarkerLen >= oid.size()) {
    return std::nullopt;
  }
  uint32_t index = 0;
  for (size_t i = marker + kMarkerLen; i < oid.size(); ++i) {
    if (oid[i] < '0' || oid[i] > '9') {
      return std::nullopt;
    }
    index = index * 10 + static_cast<uint32_t>(oid[i] - '0');
  }
  return EcShardRef{oid.substr(0, marker), index};
}

namespace {

// The pool-aware placement rule, asking `pg_set(pg, width)` for the
// rendezvous set of a PG so the pure and memoized paths share it.
template <typename PgSetFn>
std::vector<uint32_t> ResolveActingSet(const std::string& oid, const mon::OsdMap& map,
                                       uint32_t default_replicas, PgSetFn&& pg_set) {
  auto for_object = [&](const std::string& name, uint32_t width) -> decltype(auto) {
    return pg_set(PgForObject(name, map.pg_count), width);
  };
  size_t slash = oid.find('/');
  if (slash != std::string::npos && slash > 0) {
    auto layout = mon::PoolLayoutOf(map, oid.substr(0, slash));
    if (layout.has_value()) {
      if (layout->kind == mon::PoolLayout::Kind::kErasure) {
        auto ref = ParseEcShardOid(oid);
        if (ref.has_value() && ref->index < layout->num_shards()) {
          // Shard i lives (unreplicated) at member i of the logical object's
          // full-width set. When fewer OSDs are up than shards, wrap so the
          // pool stays writable; the scrub agent re-separates shards once
          // membership recovers.
          const auto& set = for_object(ref->logical_oid, layout->num_shards());
          if (set.empty()) {
            return {};
          }
          return {set[ref->index % set.size()]};
        }
        // Non-shard metadata in an EC pool (the object index): replicate it.
        return for_object(oid, 3);
      }
      return for_object(oid, layout->width);
    }
  }
  return for_object(oid, default_replicas);
}

}  // namespace

std::vector<uint32_t> ActingSetForOid(const std::string& oid, const mon::OsdMap& map,
                                      uint32_t default_replicas) {
  auto pg_set = [&](uint32_t pg, uint32_t width) {
    return PgToOsds(pg, map, width);
  };
  return ResolveActingSet(oid, map, default_replicas, pg_set);
}

std::vector<uint32_t> PlacementTable::ActingSet(const std::string& oid,
                                                const mon::OsdMap& map,
                                                uint32_t default_replicas) {
  auto pg_set = [&](uint32_t pg, uint32_t width) -> const std::vector<uint32_t>& {
    return PgSet(pg, map, width);
  };
  return ResolveActingSet(oid, map, default_replicas, pg_set);
}

const std::vector<uint32_t>& PlacementTable::PgSet(uint32_t pg, const mon::OsdMap& map,
                                                   uint32_t width) {
  auto it = std::find_if(widths_.begin(), widths_.end(),
                         [width](const Width& w) { return w.width == width; });
  if (it == widths_.end()) {
    widths_.push_back({width, {}});
    it = widths_.end() - 1;
  }
  if (pg >= it->sets.size()) {
    it->sets.resize(std::max<size_t>(map.pg_count, pg + 1));
  }
  auto& slot = it->sets[pg];
  if (!slot.has_value()) {
    slot = PgToOsds(pg, map, width);
  }
  return *slot;
}

}  // namespace mal::osd
