//===- ExpectSameRun.h - RunStats equality for run oracles ------*- C++ -*-===//
//
// Part of the nimage project, a reproduction of "Improving Native-Image
// Startup Performance" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Field-by-field RunStats equality, shared by the oracles that assert one
/// way of running an image equals another bit for bit (replay ==
/// interpretation, one multi-tracer run == single-mode runs).
///
//===----------------------------------------------------------------------===//

#ifndef NIMG_TESTS_EXPECTSAMERUN_H
#define NIMG_TESTS_EXPECTSAMERUN_H

#include "src/runtime/ExecEngine.h"

#include <gtest/gtest.h>

#include <string>

namespace nimg {

inline void expectSameRun(const RunStats &A, const RunStats &B,
                          const std::string &Ctx) {
  SCOPED_TRACE(Ctx);
  EXPECT_EQ(A.TextFaults, B.TextFaults);
  EXPECT_EQ(A.HeapFaults, B.HeapFaults);
  EXPECT_EQ(A.TextColdFaults, B.TextColdFaults);
  EXPECT_EQ(A.TextHugeFaults, B.TextHugeFaults);
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.ProbeUnits, B.ProbeUnits);
  EXPECT_EQ(A.PrefetchedPages, B.PrefetchedPages);
  EXPECT_EQ(A.TimeNs, B.TimeNs);
  EXPECT_EQ(A.TimeToFirstResponseNs, B.TimeToFirstResponseNs);
  EXPECT_EQ(A.Responded, B.Responded);
  EXPECT_EQ(A.Trapped, B.Trapped);
  EXPECT_EQ(A.FuelExhausted, B.FuelExhausted);
  EXPECT_EQ(A.TrapMessage, B.TrapMessage);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_EQ(A.StoredObjectsTouched, B.StoredObjectsTouched);
  EXPECT_EQ(A.StoredObjectsTotal, B.StoredObjectsTotal);
  EXPECT_TRUE(A.TextPages == B.TextPages);
  EXPECT_TRUE(A.HeapPages == B.HeapPages);
  EXPECT_EQ(A.SamplesTaken, B.SamplesTaken);
  EXPECT_EQ(A.SampleEventsSkipped, B.SampleEventsSkipped);
  EXPECT_EQ(A.SampleCoveragePermille, B.SampleCoveragePermille);
  EXPECT_EQ(A.SamplePeriod, B.SamplePeriod);
  ASSERT_EQ(A.Touches.size(), B.Touches.size());
  for (size_t I = 0; I < A.Touches.size(); ++I) {
    const PageTouch &X = A.Touches[I], &Y = B.Touches[I];
    ASSERT_TRUE(X.Sec == Y.Sec && X.Page == Y.Page && X.Clock == Y.Clock &&
                X.WasFault == Y.WasFault)
        << "touch " << I;
  }
}

} // namespace nimg

#endif // NIMG_TESTS_EXPECTSAMERUN_H
