#include "exec/result_cache.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/log.h"
#include "exec/serialize.h"
#include "obs/obs.h"

namespace mapg {

namespace fs = std::filesystem;

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::path_for(const std::string& key) const {
  std::string path = dir_;
  path += '/';
  path += key;
  path += ".json";
  return path;
}

std::shared_ptr<const SimResult> ResultCache::get(const std::string& key) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = memory_.find(key);
    if (it != memory_.end()) {
      ++stats_.memory_hits;
      MAPG_OBS_COUNTER_INC("exec.cache.mem_hit");
      return it->second;
    }
  }
  if (dir_.empty()) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.misses;
    MAPG_OBS_COUNTER_INC("exec.cache.miss");
    return nullptr;
  }

  // Disk lookup outside the lock: reads of distinct keys proceed in
  // parallel, and the same key read twice is merely redundant work.
  std::ifstream is(path_for(key));
  if (!is) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.misses;
    MAPG_OBS_COUNTER_INC("exec.cache.miss");
    return nullptr;
  }
  std::stringstream buf;
  buf << is.rdbuf();
  std::string err;
  const std::optional<Json> doc = Json::parse(buf.str(), &err);
  if (!doc) {
    log_warn() << "result cache: unparseable entry " << key << ": " << err;
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.disk_errors;
    ++stats_.misses;
    MAPG_OBS_COUNTER_INC("exec.cache.disk_error");
    MAPG_OBS_COUNTER_INC("exec.cache.miss");
    return nullptr;
  }
  try {
    auto entry = std::make_shared<const SimResult>(result_from_json(*doc));
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.disk_hits;
    MAPG_OBS_COUNTER_INC("exec.cache.disk_hit");
    memory_.emplace(key, entry);
    return entry;
  } catch (const std::exception& e) {
    log_warn() << "result cache: bad entry " << key << ": " << e.what();
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.disk_errors;
    ++stats_.misses;
    MAPG_OBS_COUNTER_INC("exec.cache.disk_error");
    MAPG_OBS_COUNTER_INC("exec.cache.miss");
    return nullptr;
  }
}

bool ResultCache::contains(const std::string& key) const {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (memory_.count(key) != 0) return true;
  }
  std::error_code ec;
  return !dir_.empty() && fs::exists(path_for(key), ec);
}

std::shared_ptr<const SimResult> ResultCache::store(const std::string& key,
                                                    SimResult result) {
  auto entry = std::make_shared<const SimResult>(std::move(result));
  bool write_disk = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.stores;
    MAPG_OBS_COUNTER_INC("exec.cache.store");
    memory_[key] = entry;
    if (!dir_.empty()) {
      if (!dir_ready_) {
        std::error_code ec;
        fs::create_directories(dir_, ec);
        if (ec) {
          log_warn() << "result cache: cannot create '" << dir_
                     << "': " << ec.message() << " — disabling persistence";
        } else {
          dir_ready_ = true;
        }
      }
      write_disk = dir_ready_;
    }
  }
  if (!write_disk) return entry;

  // Atomic publish: write to a per-thread-unique temp name, then rename.
  const std::string final_path = path_for(key);
  std::ostringstream tmp_name;
  tmp_name << final_path << ".tmp." << std::this_thread::get_id();
  {
    std::ofstream os(tmp_name.str());
    if (!os) {
      log_warn() << "result cache: cannot write " << tmp_name.str();
      return entry;
    }
    os << result_to_json(*entry).dump() << "\n";
  }
  std::error_code ec;
  fs::rename(tmp_name.str(), final_path, ec);
  if (ec) {
    log_warn() << "result cache: rename failed for " << key << ": "
               << ec.message();
    fs::remove(tmp_name.str(), ec);
  }
  return entry;
}

CacheStatsSnapshot ResultCache::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ResultCache::clear_memory() {
  std::lock_guard<std::mutex> lk(mu_);
  memory_.clear();
}

}  // namespace mapg
