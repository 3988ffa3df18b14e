#include "serve/batch.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "diffusion/convert.hpp"
#include "obs/trace.hpp"

namespace pp::serve {

namespace {

constexpr std::uint64_t kTagStride = 1ull << 32;

SamplerParams sampler_of(const GenRequest& req) {
  return SamplerParams{req.steps, static_cast<float>(req.eta)};
}

/// The `count` rows of a sample or inpaint request. A sample regenerates an
/// empty clip: its known raster is all background (the -1 plane), which is
/// also its finish template.
std::vector<expand::WindowWork> request_rows(const GenRequest& req,
                                             int clip) {
  const bool inpaint = req.op == GenRequest::Op::kInpaint;
  std::vector<expand::WindowWork> rows(static_cast<std::size_t>(req.count));
  Rng rng(req.seed);
  for (expand::WindowWork& r : rows) r.gen_base = rng.draw_seed();
  for (expand::WindowWork& r : rows) {
    r.finish_base = rng.draw_seed();
    r.known = inpaint ? req.tmpl : Raster(clip, clip, 0);
    r.mask = inpaint ? req.mask : Raster(clip, clip, 1);
  }
  return rows;
}

}  // namespace

void ContinuousBatch::admit(PendingPtr p) {
  PP_REQUIRE(empty() || p->entry == entry_);
  entry_ = p->entry;
  p->joined_running = !members_.empty();
  Member& m = members_.emplace_back();
  m.p = p;
  m.mid = next_mid_++;
  const GenRequest& req = p->req;
  try {
    if (req.op == GenRequest::Op::kExpand) {
      expand::ExpandConfig ecfg;
      ecfg.sampler = sampler_of(req);
      ecfg.denoise_windows = req.finish;
      m.ex = std::make_unique<expand::WavefrontExpander>(
          *entry_->pp, req.tmpl, req.target_w, req.target_h, req.seed, ecfg);
    } else {
      feed(m, request_rows(req, entry_->cfg.clip_size));
    }
  } catch (const std::exception& e) {
    members_.pop_back();
    reset_if_empty();
    retire_({p, GenResponse::fail(req.id, ErrorCode::kInternal, e.what())});
  }
}

void ContinuousBatch::feed(Member& m, std::vector<expand::WindowWork> works) {
  const expand::WindowBatch in = expand::stack_windows(works);
  std::vector<std::uint64_t> tags;
  for (std::uint64_t k = 0; k < works.size(); ++k)
    tags.push_back(m.mid * kTagStride + m.next_seq + k);
  const bool was_empty = st_.empty();
  // Ddpm::join validates before it touches the state: if it throws, no row
  // entered.
  entry_->pp->model().join(st_, in.known, in.mask, in.bases, tags,
                           sampler_of(m.p->req));
  for (expand::WindowWork& w : works)
    m.running.emplace(m.next_seq++, std::move(w));
  counts_.samples += works.size();
  if (was_empty) ++counts_.batches;
  if (members_.size() > 1) counts_.joins += works.size();
}

void ContinuousBatch::leave(Clock::time_point now) {
  std::vector<Retired> out;
  std::vector<std::uint64_t> tags;
  for (auto it = members_.begin(); it != members_.end();) {
    const Pending& p = *it->p;
    if (!p.cancelled && !p.expired(now)) {
      ++it;
      continue;
    }
    // An expansion's un-fed windows never run, and its partial canvas is
    // dropped with the member.
    for (const auto& row : it->running)
      tags.push_back(it->mid * kTagStride + row.first);
    counts_.leaves += it->running.size();
    out.push_back(
        {it->p, p.cancelled ? GenResponse::fail(p.req.id, ErrorCode::kCancelled,
                                                "cancelled while executing")
                            : GenResponse::fail(p.req.id, ErrorCode::kTimeout,
                                                "deadline expired mid-batch")});
    it = members_.erase(it);
  }
  if (!tags.empty()) {
    entry_->pp->model().leave(st_, tags);
    if (!st_.empty()) ++counts_.repacks;
  }
  reset_if_empty();
  for (Retired& r : out) retire_(std::move(r));
}

void ContinuousBatch::step() {
  for (Member& m : members_) {
    if (!m.ex || !m.error.empty()) continue;
    const int budget =
        st_.empty() ? std::max(max_rows_, 1) : max_rows_ - st_.active();
    if (budget <= 0) continue;
    try {
      std::vector<expand::WindowWork> works = m.ex->acquire(budget);
      if (!works.empty()) feed(m, std::move(works));
    } catch (const std::exception& e) {
      m.error = e.what();
    }
  }

  std::vector<FinishedSample> finished;
  const int rows = st_.active();
  if (rows > 0) {
    for (Member& m : members_) m.peak = std::max(m.peak, rows);
    try {
      PP_TRACE_SPAN("serve.step_batch");
      // Flow points emitted inside the open span bind each request's flow
      // chain to this slice in the chrome export.
      for (Member& m : members_) {
        ++m.p->step_batches;
        if (m.p->trace_start_ns != 0)
          obs::record_flow_point("serve.step", m.p->req.id);
      }
      finished = entry_->pp->model().step(st_);
    } catch (const std::exception& e) {
      abandon(ErrorCode::kInternal, e.what());
      return;
    }
    if (!finished.empty() && !st_.empty()) ++counts_.repacks;
  }

  // Every finished tag belongs to a running row of a resident member.
  for (const FinishedSample& f : finished) {
    Member& m = *std::find_if(
        members_.begin(), members_.end(),
        [&](const Member& c) { return c.mid == f.tag / kTagStride; });
    auto row = m.running.extract(f.tag % kTagStride);
    Raster raw = tensor_to_rasters(f.x)[0];
    if (!m.ex) {
      m.landed.emplace(row.key(), std::make_pair(std::move(row.mapped()),
                                                 std::move(raw)));
      continue;
    }
    try {
      m.ex->commit_batch({row.mapped()}, {raw});
    } catch (const std::exception& e) {
      m.error = e.what();
    }
  }

  // Each response goes out before the next member's finish tail runs.
  for (auto it = members_.begin(); it != members_.end();) {
    const bool more_rows = it->ex && it->error.empty() && !it->ex->done();
    if (!it->running.empty() || more_rows) {
      ++it;
      continue;
    }
    ++counts_.finished;
    Retired r{it->p, respond(*it)};
    it = members_.erase(it);
    retire_(std::move(r));
  }
  reset_if_empty();
}

void ContinuousBatch::abandon(ErrorCode code, const std::string& msg) {
  const Clock::time_point now = Clock::now();
  std::vector<Member> gone = std::exchange(members_, {});
  reset_if_empty();
  for (const Member& m : gone) {
    const ErrorCode c = m.p->cancelled       ? ErrorCode::kCancelled
                        : m.p->expired(now) ? ErrorCode::kTimeout
                                            : code;
    retire_({m.p, GenResponse::fail(m.p->req.id, c, msg)});
  }
}

GenResponse ContinuousBatch::respond(Member& m) const {
  const GenRequest& req = m.p->req;
  if (!m.error.empty())
    return GenResponse::fail(req.id, ErrorCode::kInternal, m.error);
  GenResponse resp;
  resp.id = req.id;
  resp.wait_ms = m.p->wait_ms;
  resp.batch_samples = m.peak;
  try {
    if (m.ex) {
      const expand::ExpandStats& s = m.ex->stats();
      resp.is_expand = true;
      resp.target_w = req.target_w;
      resp.target_h = req.target_h;
      resp.expand_windows = s.windows_total;
      resp.expand_waves = s.waves;
      resp.expand_seam_violations = s.seam_violations;
      resp.expand_drc_pass_rate = s.drc_pass_rate();
      resp.patterns.push_back(m.ex->take_canvas());
      resp.legal.push_back(s.drc_checked == s.drc_clean);
      return resp;
    }
    std::vector<Raster> raws, tmpls;
    std::vector<std::uint64_t> bases;
    for (auto& [seq, row] : m.landed) {
      raws.push_back(std::move(row.second));
      tmpls.push_back(std::move(row.first.known));
      bases.push_back(row.first.finish_base);
    }
    if (!req.finish) {
      resp.patterns = std::move(raws);
      return resp;
    }
    for (const GenerationRecord& rec :
         entry_->pp->finish_samples(raws, tmpls, bases)) {
      resp.patterns.push_back(rec.denoised);
      resp.legal.push_back(rec.legal);
    }
  } catch (const std::exception& e) {
    return GenResponse::fail(req.id, ErrorCode::kInternal, e.what());
  }
  return resp;
}

void ContinuousBatch::reset_if_empty() {
  if (!members_.empty()) return;
  // A drained state keeps its clip shape, which would fail every join for
  // a model with another clip size.
  st_ = InpaintState();
  entry_.reset();
}

}  // namespace pp::serve
