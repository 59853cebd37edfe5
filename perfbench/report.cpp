#include "report.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "kernels/components.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, emwd::util::json_quote(value));
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, json_number(value));
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

void Report::ops(long n, long failed, const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: FAILED %ld of %ld %s\n", failed, n, what.c_str());
  }
}

double Report::ok_frac() const {
  return attempted_ > 0 ? static_cast<double>(attempted_ - failed_) / attempted_ : 0.0;
}

std::string Report::to_json() const {
  std::ostringstream os;
  os << "{\"correct\":" << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed_
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    os << (i ? "," : "") << emwd::util::json_quote(metrics_[i].name)
       << ":{\"value\":" << json_number(metrics_[i].value)
       << ",\"unit\":" << emwd::util::json_quote(metrics_[i].unit) << '}';
  }
  os << "},\"info\":{";
  for (std::size_t i = 0; i < info_.size(); ++i) {
    os << (i ? "," : "") << emwd::util::json_quote(info_[i].first) << ':'
       << info_[i].second;
  }
  os << "}}";
  return os.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

int thread_budget() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, n - 1);
}

void bind_to_budget() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 || CPU_COUNT(&allowed) < 2) {
    return;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_CLR(c, &allowed);
      break;
    }
  }
  ::sched_setaffinity(0, sizeof allowed, &allowed);
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t field_hash(const emwd::grid::FieldSet& fs) {
  const emwd::grid::Layout& L = fs.layout();
  std::uint64_t h = 1469598103934665603ull;
  for (const emwd::kernels::CompInfo& ci : emwd::kernels::kComps) {
    const double* data = fs.field(ci.self).data();
    for (int k = 0; k < L.nz(); ++k) {
      for (int j = 0; j < L.ny(); ++j) {
        const double* row = data + 2 * L.at(0, j, k);
        for (int d = 0; d < 2 * L.nx(); ++d) {
          std::uint64_t word = 0;
          std::memcpy(&word, row + d, sizeof word);
          h = (h ^ word) * 1099511628211ull;
        }
      }
    }
  }
  return h;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
