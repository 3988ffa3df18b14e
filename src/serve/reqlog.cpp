#include "serve/reqlog.hpp"

#include <filesystem>
#include <system_error>

#include "obs/json.hpp"

namespace pp::serve {

RequestLog::RequestLog(std::string path) : path_(std::move(path)) {
  if (enabled()) {
    std::lock_guard<std::mutex> lk(m_);
    open_locked();
  }
}

void RequestLog::open_locked() {
  out_.open(path_, std::ios::trunc);
  bytes_ = 0;
}

void RequestLog::rotate_locked() {
  out_.close();
  std::error_code ignored;
  std::filesystem::rename(path_, path_ + ".1", ignored);
  open_locked();
}

void RequestLog::write(const obs::Json& line) {
  if (!enabled()) return;
  std::string text = line.dump();
  text += '\n';
  std::lock_guard<std::mutex> lk(m_);
  if (bytes_ > 0 && bytes_ + text.size() > kRotateBytes) rotate_locked();
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
