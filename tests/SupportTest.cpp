//===- SupportTest.cpp - Tests for support utilities -----------------------===//

#include "src/support/ByteBuffer.h"
#include "src/support/Crc32.h"
#include "src/support/Csv.h"
#include "src/support/Murmur3.h"
#include "src/support/SplitMix64.h"

#include <gtest/gtest.h>

#include <set>

using namespace nimg;

// --- MurmurHash3 -----------------------------------------------------------

TEST(Murmur3, EmptyInputIsStable) {
  EXPECT_EQ(murmurHash3(nullptr, 0), murmurHash3(nullptr, 0));
  EXPECT_NE(murmurHash3(nullptr, 0, 1), murmurHash3(nullptr, 0, 2));
}

TEST(Murmur3, KnownVector) {
  // Reference value of MurmurHash3 x64-128 ("hello", seed 0): the canonical
  // C implementation yields low 64 bits 0xcbd8a7b341bd9b02.
  EXPECT_EQ(murmurHash3("hello"), 0xcbd8a7b341bd9b02ULL);
}

TEST(Murmur3, DiffersByContent) {
  EXPECT_NE(murmurHash3("abc"), murmurHash3("abd"));
  EXPECT_NE(murmurHash3("abc"), murmurHash3("ab"));
}

TEST(Murmur3, AllTailLengthsDiffer) {
  // Exercise every switch arm of the tail handling (lengths 0..16).
  std::set<uint64_t> Seen;
  std::string Data = "0123456789abcdefg";
  for (size_t Len = 0; Len <= 16; ++Len)
    Seen.insert(murmurHash3(Data.data(), Len));
  EXPECT_EQ(Seen.size(), 17u);
}

TEST(Murmur3, MultiBlockInput) {
  std::string Long(1000, 'x');
  std::string Long2 = Long;
  Long2[999] = 'y';
  EXPECT_NE(murmurHash3(Long), murmurHash3(Long2));
}

TEST(Murmur3, DigestHiLoIndependent) {
  Murmur3Digest D = murmurHash3x64_128("data", 4, 7);
  EXPECT_NE(D.Lo, D.Hi);
}

TEST(Murmur3Stream, RandomSplitsMatchOneShotDigest) {
  // Property: however the input is cut into update() calls, the streamed
  // digest equals the one-shot digest. Lengths cover every tail length
  // 0..15 several times over, with and without a seed.
  SplitMix64 Rng(0x5eed);
  for (size_t Len = 0; Len < 96; ++Len) {
    std::vector<uint8_t> Data(Len);
    for (uint8_t &B : Data)
      B = uint8_t(Rng.next());
    for (uint64_t Seed : {uint64_t(0), uint64_t(0x717e5)}) {
      Murmur3Digest Want = murmurHash3x64_128(Data.data(), Len, Seed);
      for (int Trial = 0; Trial < 8; ++Trial) {
        Murmur3Stream S(Seed);
        size_t At = 0;
        while (At < Len) {
          size_t Piece = size_t(Rng.nextBelow(Len - At + 1));
          S.update(Data.data() + At, Piece);
          At += Piece;
        }
        Murmur3Digest Got = S.digest();
        EXPECT_EQ(Got, Want) << "len " << Len << " trial " << Trial;
      }
    }
  }
}

TEST(Murmur3Stream, AppendHelpersEncodeLikeByteBuffer) {
  ByteBuffer B;
  Murmur3Stream S;
  B.appendU8(7);
  S.appendU8(7);
  B.appendU32(0xdeadbeef);
  S.appendU32(0xdeadbeef);
  B.appendI64(-3);
  S.appendI64(-3);
  B.appendF64(2.5);
  S.appendF64(2.5);
  B.appendString("raw");
  S.appendString("raw");
  B.appendSizedString("a longer sized string crossing a block");
  S.appendSizedString("a longer sized string crossing a block");
  EXPECT_EQ(S.digest().Lo, murmurHash3(B.bytes()));
  // digest() does not consume the stream.
  EXPECT_EQ(S.digest(), S.digest());
}

// --- ByteBuffer ---------------------------------------------------------------

TEST(ByteBuffer, AppendsLittleEndian) {
  ByteBuffer B;
  B.appendU32(0x11223344);
  ASSERT_EQ(B.size(), 4u);
  EXPECT_EQ(B.bytes()[0], 0x44);
  EXPECT_EQ(B.bytes()[3], 0x11);
  B.appendU64(0x0102030405060708ULL);
  EXPECT_EQ(B.bytes()[4], 0x08);
  EXPECT_EQ(B.bytes()[11], 0x01);
}

TEST(ByteBuffer, SizedStringRoundTrips) {
  ByteBuffer B;
  B.appendSizedString("hi");
  ASSERT_EQ(B.size(), 6u);
  EXPECT_EQ(B.bytes()[0], 2u);
  EXPECT_EQ(B.bytes()[4], 'h');
}

TEST(ByteBuffer, AppendBufferConcatenates) {
  ByteBuffer A, B;
  A.appendU8(1);
  B.appendU8(2);
  A.appendBuffer(B);
  ASSERT_EQ(A.size(), 2u);
  EXPECT_EQ(A.bytes()[1], 2u);
}

TEST(ByteBuffer, DoubleEncodingIsBitExact) {
  ByteBuffer A, B;
  A.appendF64(1.5);
  B.appendF64(1.5);
  EXPECT_EQ(A.bytes(), B.bytes());
  ByteBuffer C;
  C.appendF64(-1.5);
  EXPECT_NE(A.bytes(), C.bytes());
}

// --- CSV -----------------------------------------------------------------------

TEST(Csv, RoundTripsSimpleRows) {
  CsvDocument Doc;
  Doc.Rows = {{"a", "b"}, {"1", "2"}};
  CsvDocument Parsed = parseCsv(writeCsv(Doc));
  EXPECT_EQ(Parsed.Rows, Doc.Rows);
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvDocument Doc;
  Doc.Rows = {{"has,comma", "has\"quote", "has\nnewline"}};
  std::string Text = writeCsv(Doc);
  CsvDocument Parsed = parseCsv(Text);
  EXPECT_EQ(Parsed.Rows, Doc.Rows);
}

TEST(Csv, ParsesWithoutTrailingNewline) {
  CsvDocument Parsed = parseCsv("a,b\nc,d");
  ASSERT_EQ(Parsed.Rows.size(), 2u);
  EXPECT_EQ(Parsed.Rows[1][1], "d");
}

TEST(Csv, EmptyCellsSurvive) {
  CsvDocument Parsed = parseCsv("a,,c\n");
  ASSERT_EQ(Parsed.Rows.size(), 1u);
  ASSERT_EQ(Parsed.Rows[0].size(), 3u);
  EXPECT_EQ(Parsed.Rows[0][1], "");
}

TEST(Csv, EmptyInputHasNoRows) {
  EXPECT_TRUE(parseCsv("").Rows.empty());
}

namespace {

/// A random CSV document over an alphabet that includes every character
/// the writer must quote: commas, quotes, newlines, carriage returns.
CsvDocument randomDoc(SplitMix64 &Rng) {
  static const char Alphabet[] = {'a', 'b', 'Z', '0', ' ', ',',
                                  '"', '\n', '\r', ';', '\t'};
  CsvDocument Doc;
  size_t Rows = 1 + Rng.nextBelow(8);
  for (size_t R = 0; R < Rows; ++R) {
    std::vector<std::string> Row;
    size_t Cells = 1 + Rng.nextBelow(5);
    for (size_t C = 0; C < Cells; ++C) {
      std::string Cell;
      size_t Len = Rng.nextBelow(12);
      for (size_t I = 0; I < Len; ++I)
        Cell.push_back(Alphabet[Rng.nextBelow(sizeof(Alphabet))]);
      Row.push_back(Cell);
    }
    Doc.Rows.push_back(std::move(Row));
  }
  return Doc;
}

} // namespace

TEST(Csv, RandomDocumentsRoundTrip) {
  // Property: parse(write(Doc)) == Doc for any document whose rows have at
  // least one cell, including cells with embedded quotes and newlines.
  SplitMix64 Rng(20250805);
  for (int Case = 0; Case < 200; ++Case) {
    CsvDocument Doc = randomDoc(Rng);
    CsvDocument Parsed = parseCsv(writeCsv(Doc));
    ASSERT_EQ(Parsed.Rows, Doc.Rows) << "case " << Case;
  }
}

TEST(Csv, TruncatedInputNeverCrashesAndKeepsWholeRows) {
  // A profile file cut at an arbitrary byte offset (crash mid-write) must
  // parse without reading past the end; rows before the cut survive.
  SplitMix64 Rng(77);
  for (int Case = 0; Case < 50; ++Case) {
    CsvDocument Doc = randomDoc(Rng);
    std::string Text = writeCsv(Doc);
    for (size_t Cut = 0; Cut <= Text.size(); ++Cut) {
      CsvDocument Parsed = parseCsv(Text.substr(0, Cut));
      EXPECT_LE(Parsed.Rows.size(), Doc.Rows.size() + 1);
    }
  }
}

// --- CRC-32 --------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::string Data = "the quick brown fox jumps over the lazy dog";
  uint32_t Ref = crc32(Data);
  SplitMix64 Rng(5);
  for (int I = 0; I < 64; ++I) {
    std::string Mutated = Data;
    size_t Byte = Rng.nextBelow(Mutated.size());
    Mutated[Byte] = char(uint8_t(Mutated[Byte]) ^ (1u << Rng.nextBelow(8)));
    EXPECT_NE(crc32(Mutated), Ref);
  }
}

// --- SplitMix64 ------------------------------------------------------------------

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  SplitMix64 A2(42);
  EXPECT_NE(A2.next(), C.next());
}

TEST(SplitMix64, NextBelowInRange) {
  SplitMix64 R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(10), 10u);
}

TEST(SplitMix64, NextDoubleInUnitInterval) {
  SplitMix64 R(9);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(SplitMix64, ShufflePermutes) {
  std::vector<int> V{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  SplitMix64 R(123);
  R.shuffle(V);
  std::multiset<int> A(V.begin(), V.end()), B(Orig.begin(), Orig.end());
  EXPECT_EQ(A, B);
  EXPECT_NE(V, Orig); // Overwhelmingly likely for this seed.
}

TEST(SplitMix64, Mix64IsOrderSensitive) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_EQ(mix64(5, 9), mix64(5, 9));
}
