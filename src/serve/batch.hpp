// ContinuousBatch: one executor shard's running batch, as a state machine
// that holds no thread, lock or atomic. GenerationServer's executor owns
// the shard queue and delivers responses; everything between a request
// leaving the queue and its response being ready happens here, through
// four calls made at denoising-step boundaries:
//   admit(p)    a request joins the running batch;
//   leave(now)  cancelled and deadline-expired members exit;
//   step()      expansions feed rows, one Ddpm::step runs, and the members
//               whose last row finished retire with their response;
//   abandon()   hard stop: every member retires with a failure.
// Each retiring member goes to the owner's retire callback the moment its
// response is ready, so no answer waits for a batch mate's finish tail.
//
// One kind of member: every request is a source of rows of the
// expand::WindowWork shape {known, mask, gen_base, finish_base}. A sample
// or inpaint request hands out all `count` rows at admission, derived by
// the sequential reference semantics (Rng(seed) -> count generation bases,
// then count finish bases; serve/protocol.hpp); an expansion hands out its
// wavefront windows through WavefrontExpander::acquire as rows free up.
// Rows enter the Ddpm::InpaintState through stack_windows and one
// Ddpm::join, tagged mid * 2^32 + row sequence, so leave tags, finished-row
// routing and the completion test are the same for both; only the response
// differs (finish tail vs the expanded canvas).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/ddpm.hpp"
#include "expand/expander.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace pp::serve {

using Clock = std::chrono::steady_clock;

/// One accepted request, from admission to its response.
struct Pending {
  GenRequest req;
  std::function<void(GenResponse)> done;
  ModelRegistry::EntryPtr entry;
  std::string cache_key;  ///< non-empty = insert the response on success
  Clock::time_point enqueue;
  Clock::time_point deadline;  ///< valid iff has_deadline
  bool has_deadline = false;
  /// Written only by the executor, between batch calls: cancel() queues an
  /// in-flight request on its shard instead of touching it.
  bool cancelled = false;
  // Request-scoped telemetry, written by admission and the executor and
  // read when the response is delivered.
  std::uint64_t trace_start_ns = 0;  ///< trace-epoch submit time (0 = off)
  double wait_ms = 0.0;              ///< enqueue -> batch pop
  Clock::time_point exec_start;      ///< batch pop, valid iff started
  bool started = false;
  int step_batches = 0;         ///< denoising step batches participated in
  bool joined_running = false;  ///< joined a batch that had members

  bool expired(Clock::time_point now) const {
    return has_deadline && now >= deadline;
  }
};
using PendingPtr = std::shared_ptr<Pending>;

/// A request the batch is done with, and the response to deliver.
struct Retired {
  PendingPtr p;
  GenResponse resp;
};

/// What a batch did since the last take_counts().
struct BatchCounts {
  std::uint64_t batches = 0;   ///< joins into an empty state
  std::uint64_t samples = 0;   ///< rows joined
  std::uint64_t joins = 0;     ///< rows joined beside another member
  std::uint64_t leaves = 0;    ///< rows removed by a cancel or deadline
  std::uint64_t repacks = 0;   ///< leaves or finishes that left rows running
  std::uint64_t finished = 0;  ///< members whose last row finished
};

class ContinuousBatch {
 public:
  /// `max_rows` caps the rows expansions feed; admit() trusts its caller
  /// to keep sample and inpaint rows under it. `retire` receives every
  /// member the batch lets go of; the counts of the call that retires it
  /// are already in take_counts().
  ContinuousBatch(int max_rows, std::function<void(Retired)> retire)
      : max_rows_(max_rows), retire_(std::move(retire)) {}

  bool empty() const { return members_.empty(); }
  int rows() const { return st_.active(); }
  /// The registry entry every member runs on; null while empty.
  const ModelRegistry::EntryPtr& entry() const { return entry_; }

  /// Adds a request on entry() (any entry when empty). A request whose
  /// rows or expansion cannot start retires with an internal error.
  void admit(PendingPtr p);

  /// Retires the members that are cancelled or whose deadline is <= now.
  void leave(Clock::time_point now);

  /// Feeds expansion windows into the spare rows (at least one when the
  /// state is empty, so an expansion always progresses), runs one
  /// Ddpm::step under the serve.step_batch span, and retires every member
  /// with no row running and none left to hand out.
  void step();

  /// Retires every member with `code`, except that a cancelled or expired
  /// member keeps its own verdict.
  void abandon(ErrorCode code, const std::string& msg);

  BatchCounts take_counts() { return std::exchange(counts_, {}); }

 private:
  struct Member {
    PendingPtr p;
    std::uint64_t mid = 0;  ///< tag namespace of its rows
    std::unique_ptr<expand::WavefrontExpander> ex;  ///< expansions only
    std::uint64_t next_seq = 0;
    std::map<std::uint64_t, expand::WindowWork> running;  ///< by sequence
    /// Sample/inpaint rows back from the state, with their raw output.
    std::map<std::uint64_t, std::pair<expand::WindowWork, Raster>> landed;
    int peak = 0;       ///< most rows in the state while it ran
    std::string error;  ///< a feed or commit failed: drain, then fail
  };

  void feed(Member& m, std::vector<expand::WindowWork> works);
  GenResponse respond(Member& m) const;
  void reset_if_empty();

  int max_rows_;
  std::function<void(Retired)> retire_;
  ModelRegistry::EntryPtr entry_;
  InpaintState st_;
  std::vector<Member> members_;
  std::uint64_t next_mid_ = 0;
  BatchCounts counts_;
};

}  // namespace pp::serve
