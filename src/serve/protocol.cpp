#include "serve/protocol.hpp"

#include <cmath>
#include <limits>

namespace pp::serve {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "none";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnknownModel: return "unknown_model";
    case ErrorCode::kInvalidConfig: return "invalid_config";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kDraining: return "draining";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

GenResponse GenResponse::fail(std::uint64_t id, ErrorCode code,
                              std::string message) {
  GenResponse r;
  r.id = id;
  r.error = code;
  r.message = std::move(message);
  return r;
}

obs::Json GenResponse::to_json() const {
  obs::Json o = obs::Json::object();
  o.set("id", obs::Json(id));
  o.set("ok", obs::Json(ok()));
  if (!ok()) {
    obs::Json e = obs::Json::object();
    e.set("code", obs::Json(error_code_name(error)));
    e.set("message", obs::Json(message));
    o.set("error", std::move(e));
    return o;
  }
  obs::Json pats = obs::Json::array();
  for (const Raster& p : patterns) pats.push_back(raster_to_json(p));
  o.set("patterns", std::move(pats));
  if (!legal.empty()) {
    obs::Json lg = obs::Json::array();
    for (bool b : legal) lg.push_back(obs::Json(b));
    o.set("legal", std::move(lg));
  }
  o.set("wait_ms", obs::Json(wait_ms));
  o.set("e2e_ms", obs::Json(e2e_ms));
  o.set("batch_samples", obs::Json(batch_samples));
  o.set("cached", obs::Json(cached));
  if (is_expand) {
    obs::Json x = obs::Json::object();
    x.set("windows", obs::Json(expand_windows));
    x.set("waves", obs::Json(expand_waves));
    x.set("seam_violations", obs::Json(expand_seam_violations));
    x.set("drc_pass_rate", obs::Json(expand_drc_pass_rate));
    x.set("target_w", obs::Json(target_w));
    x.set("target_h", obs::Json(target_h));
    o.set("expand", std::move(x));
  }
  return o;
}

obs::Json raster_to_json(const Raster& r) { return obs::Json(r.to_ascii()); }

bool raster_from_json(const obs::Json& j, Raster* out) {
  if (!j.is_string()) return false;
  try {
    *out = Raster::from_ascii(j.as_string());
  } catch (const std::exception&) {
    return false;
  }
  return !out->empty();
}

namespace {

/// True when `d` is a whole number in [lo, hi]. NaN and infinities fail the
/// range test, so the cast a caller makes next is always defined.
bool whole_in(double d, double lo, double hi) {
  return d >= lo && d <= hi && d == std::floor(d);
}

}  // namespace

bool get_u64(const obs::Json& j, const char* key, std::uint64_t fallback,
             std::uint64_t* out) {
  const obs::Json* f = j.find(key);
  if (!f) {
    *out = fallback;
    return true;
  }
  if (!f->is_number() ||
      !whole_in(f->as_number(), 0, static_cast<double>(kMaxWireU64)))
    return false;
  *out = static_cast<std::uint64_t>(f->as_number());
  return true;
}

bool get_int(const obs::Json& j, const char* key, int fallback, int* out) {
  const obs::Json* f = j.find(key);
  if (!f) {
    *out = fallback;
    return true;
  }
  if (!f->is_number() ||
      !whole_in(f->as_number(), std::numeric_limits<int>::min(),
                std::numeric_limits<int>::max()))
    return false;
  *out = static_cast<int>(f->as_number());
  return true;
}

bool get_double(const obs::Json& j, const char* key, double fallback,
                double* out) {
  const obs::Json* f = j.find(key);
  if (!f) {
    *out = fallback;
    return true;
  }
  if (!f->is_number() || !std::isfinite(f->as_number())) return false;
  *out = f->as_number();
  return true;
}

bool get_bool(const obs::Json& j, const char* key, bool fallback, bool* out) {
  const obs::Json* f = j.find(key);
  if (!f) {
    *out = fallback;
    return true;
  }
  if (!f->is_bool()) return false;
  *out = f->as_bool();
  return true;
}

std::string get_string(const obs::Json& j, const char* key,
                       const std::string& fallback) {
  const obs::Json* f = j.find(key);
  return f && f->is_string() ? f->as_string() : fallback;
}

bool gen_request_from_json(const obs::Json& j, GenRequest* out,
                           std::string* err) {
  auto fail = [err](const std::string& msg) {
    if (err) *err = msg;
    return false;
  };
  std::string op = get_string(j, "op", "");
  if (op == "sample") {
    out->op = GenRequest::Op::kSample;
  } else if (op == "inpaint") {
    out->op = GenRequest::Op::kInpaint;
  } else if (op == "expand") {
    out->op = GenRequest::Op::kExpand;
  } else {
    return fail("op must be 'sample', 'inpaint' or 'expand'");
  }
  if (!get_u64(j, "id", 0, &out->id)) return fail("id must be a whole number");
  out->model = get_string(j, "model", "");
  if (out->model.empty()) return fail("missing 'model'");
  if (!get_u64(j, "seed", 0, &out->seed))
    return fail("seed must be a whole number");
  if (!get_int(j, "count", 1, &out->count) || out->count < 1)
    return fail("count must be a positive integer");
  if (!get_bool(j, "finish", true, &out->finish))
    return fail("finish must be a bool");
  if (!get_double(j, "deadline_ms", 0.0, &out->deadline_ms) ||
      out->deadline_ms < 0)
    return fail("deadline_ms must be a non-negative number");
  if (!get_int(j, "steps", 0, &out->steps) || out->steps < 0)
    return fail("steps must be a non-negative integer (0 = model default)");
  if (!get_double(j, "eta", -1.0, &out->eta) ||
      (j.find("eta") && !(out->eta >= 0.0 && out->eta <= 1.0)))
    return fail("eta must be a number in [0, 1]");
  const obs::Json* pf = j.find("precision");
  if (pf && !(pf->is_string() && pf->as_string() == "fp32"))
    return fail("precision: only \"fp32\" is served");
  if (out->op == GenRequest::Op::kExpand) {
    if (!get_int(j, "target_w", 0, &out->target_w) ||
        !get_int(j, "target_h", 0, &out->target_h))
      return fail("target_w/target_h must be integers");
    if (!j.find("target_w") || !j.find("target_h"))
      return fail("expand needs 'target_w' and 'target_h'");
    const obs::Json* sr = j.find("seed_raster");
    if (sr && !raster_from_json(*sr, &out->tmpl))
      return fail("'seed_raster' must be non-empty ASCII art");
  }
  if (out->op == GenRequest::Op::kInpaint) {
    const obs::Json* tmpl = j.find("template");
    if (!tmpl || !raster_from_json(*tmpl, &out->tmpl))
      return fail("inpaint needs a non-empty ASCII 'template'");
    if (!get_int(j, "mask_id", -1, &out->mask_id))
      return fail("mask_id must be an integer");
    const obs::Json* mask = j.find("mask");
    if (mask) {
      if (!raster_from_json(*mask, &out->mask))
        return fail("'mask' must be non-empty ASCII art");
    } else if (out->mask_id < 0) {
      return fail("inpaint needs 'mask' or 'mask_id'");
    }
  }
  return true;
}

}  // namespace pp::serve
