//===- NativeImage.cpp - A built image --------------------------------------===//

#include "src/image/NativeImage.h"

using namespace nimg;

std::shared_ptr<const AccessLog> ImageBase::findLog(uint64_t Key) const {
  std::lock_guard<std::mutex> G(LogMu);
  for (const auto &[K, Log] : Logs)
    if (K == Key)
      return Log;
  return nullptr;
}

void ImageBase::storeLog(uint64_t Key,
                         std::shared_ptr<const AccessLog> Log) const {
  std::lock_guard<std::mutex> G(LogMu);
  for (auto &[K, Kept] : Logs)
    if (K == Key) {
      Kept = std::move(Log);
      return;
    }
  if (Logs.size() == MaxLogs)
    Logs.erase(Logs.begin());
  Logs.emplace_back(Key, std::move(Log));
}

size_t ImageBase::numLogs() const {
  std::lock_guard<std::mutex> G(LogMu);
  return Logs.size();
}
