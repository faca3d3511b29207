//===- ImageFile.h - Binary image serialization -----------------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Serializes a built NativeImage to a byte blob and loads it back. The
/// blob carries everything the runtime needs — CU composition and layout,
/// the heap snapshot (cells, statics, resources), identity tables — plus a
/// fingerprint of the Program it was built from: an image can only be
/// loaded against the same classpath, mirroring how a Native-Image binary
/// is tied to the build that produced it.
///
/// This makes builds cacheable: profile once, build once, then run the
/// image file many times (the FaaS deployment model of Sec. 1).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_IMAGE_IMAGEFILE_H
#define NIMG_IMAGE_IMAGEFILE_H

#include "src/image/NativeImage.h"

#include <cstdint>
#include <string>
#include <vector>

namespace nimg {

/// Stable fingerprint of a program: hashes class names, method signatures
/// and code, and the string table. Two Programs with the same fingerprint
/// are layout-compatible. Computed once per Program::version() and
/// memoized on the program; safe to call from several threads at once.
uint64_t programFingerprint(const Program &P);

/// Serializes \p Img (which must have been built from \p P).
std::vector<uint8_t> serializeImage(const Program &P, const NativeImage &Img);

/// Deserializes an image against \p P. Returns false and sets \p Error on
/// format or fingerprint mismatch. On success \p Out is runnable with
/// runImage().
bool deserializeImage(Program &P, const std::vector<uint8_t> &Bytes,
                      NativeImage &Out, std::string &Error);

} // namespace nimg

#endif // NIMG_IMAGE_IMAGEFILE_H
