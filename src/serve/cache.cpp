#include "serve/cache.hpp"

#include <cstdio>

namespace pp::serve {

namespace {

/// Second, independent 64-bit FNV-1a stream over a raster (different offset
/// basis than Raster::hash and the shape folded in twice), so aliasing the
/// cache key needs a simultaneous collision in two unrelated streams.
std::uint64_t raster_hash2(const Raster& r) {
  std::uint64_t h = 0x6c62272e07bb0142ull;  // FNV-0 of a fixed tag
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint64_t>(r.width()));
  mix(static_cast<std::uint64_t>(r.height()));
  for (std::uint8_t px : r.data()) {
    h ^= px;
    h *= 0x100000001b3ull;
  }
  mix(static_cast<std::uint64_t>(r.width()) << 32 |
      static_cast<std::uint64_t>(r.height()));
  return h;
}

void append_u64(std::string& s, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llx", static_cast<unsigned long long>(v));
  s += buf;
  s += '|';
}

}  // namespace

std::string generation_cache_key(const GenRequest& req,
                                 const ModelRegistry::Entry& entry) {
  std::string key;
  key.reserve(128);
  key += entry.spec.key;
  key += '|';
  append_u64(key, static_cast<std::uint64_t>(entry.generation));
  key += req.op == GenRequest::Op::kInpaint  ? "inpaint|"
         : req.op == GenRequest::Op::kExpand ? "expand|"
                                             : "sample|";
  append_u64(key, req.seed);
  append_u64(key, static_cast<std::uint64_t>(req.count));
  key += req.finish ? "f1|" : "f0|";
  append_u64(key, static_cast<std::uint64_t>(req.steps));
  // eta is a double-valued sampler knob; %.17g round-trips every distinct
  // value (incl. the -1 "model default" sentinel) into a distinct key.
  char eta[40];
  std::snprintf(eta, sizeof(eta), "%.17g|", req.eta);
  key += eta;
  if (req.op == GenRequest::Op::kInpaint) {
    append_u64(key, req.tmpl.hash());
    append_u64(key, raster_hash2(req.tmpl));
    append_u64(key, req.mask.hash());
    append_u64(key, raster_hash2(req.mask));
  } else if (req.op == GenRequest::Op::kExpand) {
    // Target dims are part of the identity (a 64x64 grow is not a 96x64
    // grow of the same seed), plus the dual-hashed seed raster.
    append_u64(key, static_cast<std::uint64_t>(req.target_w));
    append_u64(key, static_cast<std::uint64_t>(req.target_h));
    append_u64(key, req.tmpl.hash());
    append_u64(key, raster_hash2(req.tmpl));
  }
  return key;
}

bool GenerationCache::lookup(const std::string& key, GenResponse* out) {
  if (!enabled()) return false;
  std::lock_guard<std::mutex> lk(m_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.fetch_add(1);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  *out = it->second->second;
  hits_.fetch_add(1);
  return true;
}

void GenerationCache::insert(const std::string& key, const GenResponse& resp) {
  if (!enabled() || !resp.ok()) return;
  std::lock_guard<std::mutex> lk(m_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = resp;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, resp);
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    evictions_.fetch_add(1);
  }
}

std::size_t GenerationCache::size() const {
  std::lock_guard<std::mutex> lk(m_);
  return lru_.size();
}

}  // namespace pp::serve
