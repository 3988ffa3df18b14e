#include "serve/reqlog.hpp"

#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "obs/env.hpp"
#include "obs/json.hpp"

namespace pp::serve {

RequestLogConfig RequestLogConfig::from_env() {
  RequestLogConfig cfg;
  if (const char* env = std::getenv("PP_REQLOG")) cfg.path = env;
  cfg.rotate_bytes = obs::env_bounded(
      "PP_REQLOG_ROTATE_BYTES", kMinRotateBytes, kMaxRotateBytes,
      cfg.rotate_bytes);
  return cfg;
}

RequestLog::RequestLog(RequestLogConfig cfg) : cfg_(std::move(cfg)) {
  if (enabled()) {
    std::lock_guard<std::mutex> lk(m_);
    open_locked();
  }
}

void RequestLog::open_locked() {
  out_.open(cfg_.path, std::ios::trunc);
  bytes_ = 0;
}

void RequestLog::rotate_locked() {
  out_.close();
  std::error_code ignored;
  std::filesystem::rename(cfg_.path, cfg_.path + ".1", ignored);
  open_locked();
}

void RequestLog::write(const obs::Json& line) {
  if (!enabled()) return;
  std::string text = line.dump();
  text += '\n';
  std::lock_guard<std::mutex> lk(m_);
  if (bytes_ > 0 && bytes_ + text.size() > cfg_.rotate_bytes) rotate_locked();
  if (!out_.good()) return;
  out_ << text;
  out_.flush();
  bytes_ += text.size();
  ++lines_;
}

std::uint64_t RequestLog::lines_written() const {
  std::lock_guard<std::mutex> lk(m_);
  return lines_;
}

}  // namespace pp::serve
