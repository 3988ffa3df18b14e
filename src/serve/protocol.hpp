// Wire protocol of the pattern-generation service: newline-delimited JSON
// (NDJSON), one request object per line in, one response object per line
// out, matched by the client-chosen `id` (responses may arrive out of
// order — each request completes the moment its own samples finish).
//
// Request ops:
//   load     {"id", "op":"load", "model":<key>, "preset":"sd1|sd2",
//             "clip", "rules", "checkpoint", "timesteps", "sample_steps",
//             "eta", "base_channels", "time_dim", "seed"}
//   sample   {"id", "op":"sample", "model", "seed", "count", "finish",
//             "deadline_ms", "steps", "eta"}
//   inpaint  {"id", "op":"inpaint", "model", "seed", "count", "finish",
//             "deadline_ms", "steps", "eta",
//             "template":<ascii>, "mask":<ascii>|"mask_id":k}
//   expand   {"id", "op":"expand", "model", "seed", "target_w", "target_h",
//             "finish", "deadline_ms", "steps", "eta",
//             "seed_raster":<ascii> (optional, placed top-left)}
//            -> one arbitrary-size canvas grown by wavefront tiled
//            outpainting: the target decomposes into overlapping clip-sized
//            windows (left/top dependencies), anti-diagonal waves of
//            independent windows feed the continuous-batching executor, and
//            every window's RNG stream derives from (seed, window index) —
//            so the canvas is a pure function of the request, bitwise
//            identical to the library path (expand::expand_layout).
//            Bounds are admission-validated (positive targets >= clip,
//            seed_raster <= clip, target edge <= 4096, count == 1 ->
//            "bad_request"); cancellation takes effect at the next
//            denoising-step boundary. The response adds {"expand":
//            {"windows", "waves", "seam_violations", "drc_pass_rate",
//            "target_w", "target_h"}}.
//
// "count" (default 1) is the number of samples; it must lie in
// [1, max_batch_samples] (the server's running-batch cap, 16 by default,
// `ppaint_serve --max-batch`), else the request is rejected at admission
// as "bad_request".
// "steps" / "eta" are per-request sampler knobs (quality-vs-latency): the
// strided denoising step count in [2, model T] (0 / absent = model default)
// and the DDIM stochasticity in [0, 1] (absent = model default).
// Out-of-domain values for any knob are rejected at admission as
// "bad_request". Inference is fp32 only: an old client's "precision" field
// parses when it is absent or "fp32", and any other value is a
// "bad_request".
//   cancel   {"id", "op":"cancel", "target":<id>}
//   ping / stats / shutdown {"id", "op":...}
//   metrics  {"id", "op":"metrics"} -> {"metrics": {"snapshot", "uptime_ms",
//            "metrics" (full registry), "trace", "rolling" (windowed SLO
//            stats: short/long windows of rate + p50/p95/p99)}}
//   health   {"id", "op":"health"} -> {"health": {"status":
//            "ok|overloaded|draining", "accepting", "overloaded",
//            "queue_depth", "max_queue", "error_rate" (rolling short
//            window, with hysteresis on the overload latch),
//            "requests_per_s", "window_s", "trace_dropped_spans"}}
//
// Rasters travel as the '.'/'#' ASCII art of Raster::to_ascii (rows joined
// by '\n'), so the protocol needs no binary framing and diffs readably.
//
// Determinism contract (the reason batching is safe): a generation
// request's result is a pure function of (model weights, op inputs, seed).
// The reference semantics are sequential execution —
//   Rng rng(seed);
//   out   = ddpm.inpaint(known x count, mask x count, rng);   // count draws
//   bases = {rng.draw_seed() x count};                        // finish tail
//   recs  = finish_samples(out, templates, bases);
// — and the server reproduces exactly those per-sample stream bases when
// requests share a batch, so batched output is bitwise identical
// (serve_test).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/raster.hpp"
#include "obs/json.hpp"

namespace pp::serve {

/// Structured request-error taxonomy; the wire form is
/// {"error": {"code": <name>, "message": ...}}.
enum class ErrorCode {
  kNone,
  kBadRequest,     ///< malformed JSON / missing or ill-typed fields
  kUnknownModel,   ///< model key not present in the registry
  kInvalidConfig,  ///< load spec failed PatternPaintConfig::validate()
  kQueueFull,      ///< admission control: bounded queue at capacity
  kDraining,       ///< server is shutting down, admission closed
  kTimeout,        ///< deadline expired before the work ran (or finished)
  kCancelled,      ///< cancelled by an explicit cancel op
  kInternal,       ///< unexpected exception while executing
};

const char* error_code_name(ErrorCode code);

/// A generation request (ops "sample", "inpaint" and "expand").
struct GenRequest {
  enum class Op { kSample, kInpaint, kExpand };

  std::uint64_t id = 0;
  Op op = Op::kSample;
  std::string model;         ///< registry key
  std::uint64_t seed = 0;    ///< request RNG seed (see determinism contract)
  int count = 1;             ///< samples to generate
  bool finish = true;        ///< run the template-denoise + DRC tail
  double deadline_ms = 0.0;  ///< relative deadline; 0 = none
  int steps = 0;             ///< sampler steps override; 0 = model default.
                             ///< Validated against the model's [2, T] at
                             ///< admission ("bad_request" on the wire).
  double eta = -1.0;         ///< DDIM stochasticity override in [0, 1];
                             ///< negative = model default
  Raster tmpl;               ///< inpaint: template pattern; expand: the
                             ///< optional seed raster (placed top-left)
  Raster mask;               ///< inpaint only: 1 = region to regenerate
  int mask_id = -1;          ///< inpaint alternative: predefined mask index
  int target_w = 0;          ///< expand only: canvas width
  int target_h = 0;          ///< expand only: canvas height
};

/// Result of one generation request.
struct GenResponse {
  std::uint64_t id = 0;
  ErrorCode error = ErrorCode::kNone;
  std::string message;            ///< human-readable error detail
  std::vector<Raster> patterns;   ///< denoised when finished, else raw
  std::vector<bool> legal;        ///< DRC verdicts (finish only)
  double wait_ms = 0.0;           ///< enqueue -> dequeue
  double e2e_ms = 0.0;            ///< enqueue -> completion
  int batch_samples = 0;          ///< peak co-resident samples while it ran
  bool cached = false;            ///< served from the generation cache
                                  ///< (bitwise identical to cold execution)
  // Expansion summary (op "expand" only; is_expand gates the wire field).
  bool is_expand = false;
  int expand_windows = 0;         ///< windows the model generated
  int expand_waves = 0;           ///< anti-diagonal waves completed
  std::uint64_t expand_seam_violations = 0;
  double expand_drc_pass_rate = 1.0;  ///< clean / checked window crops
  int target_w = 0, target_h = 0;

  bool ok() const { return error == ErrorCode::kNone; }

  static GenResponse fail(std::uint64_t id, ErrorCode code,
                          std::string message);

  obs::Json to_json() const;
};

/// Parses a generation request object (op already known to be
/// sample/inpaint). Returns false and fills `err` on malformed input.
bool gen_request_from_json(const obs::Json& j, GenRequest* out,
                           std::string* err);

/// Raster <-> wire form.
obs::Json raster_to_json(const Raster& r);
bool raster_from_json(const obs::Json& j, Raster* out);

/// 2^53 - 1: every integer up to here has its own double. Above it a wire
/// number can stand for two integers, so a seed or id could silently change.
constexpr std::uint64_t kMaxWireU64 = (std::uint64_t{1} << 53) - 1;

/// Field helpers shared by the transport (strict: wrong type = error).
/// get_u64 takes whole numbers in [0, kMaxWireU64] and get_int whole
/// numbers in int's range; a value outside them is an error, never a
/// wrapped cast.
bool get_u64(const obs::Json& j, const char* key, std::uint64_t fallback,
             std::uint64_t* out);
bool get_int(const obs::Json& j, const char* key, int fallback, int* out);
bool get_double(const obs::Json& j, const char* key, double fallback,
                double* out);
bool get_bool(const obs::Json& j, const char* key, bool fallback, bool* out);
std::string get_string(const obs::Json& j, const char* key,
                       const std::string& fallback);

}  // namespace pp::serve
