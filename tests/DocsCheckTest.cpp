//===- DocsCheckTest.cpp - Keep docs/ in sync with the metrics registry ------===//
//
// Grep-based consistency checker between the documentation and the code:
// every `nimg.*` metric name mentioned anywhere under docs/ must exist in
// the source (a static NIMG_COUNTER_ADD / NIMG_GAUGE_SET /
// NIMG_HIST_RECORD literal, a documented dynamic family, or a family
// prefix of such a literal), and conversely every static metric literal
// in src/ must be documented in docs/OBSERVABILITY.md — as must every
// startup-report section and key (read from the report's own field table).
// Runs in tier-1 under the "docs" ctest label, so a renamed counter or a
// new report field fails the build until the reference table follows.
//
//===----------------------------------------------------------------------===//

#include "StartupReportFixtures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string readFile(const fs::path &Path) {
  std::ifstream F(Path, std::ios::binary);
  EXPECT_TRUE(F.good()) << "cannot read " << Path;
  std::ostringstream S;
  S << F.rdbuf();
  return S.str();
}

bool isNameChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '_' ||
         C == '.';
}

/// All maximal `nimg.<name>` tokens in \p Text, trailing dots stripped
/// (so "nimg.profile.load.<kind>.ok" and a sentence-ending "nimg.run."
/// both yield their family prefix).
std::set<std::string> nimgTokens(const std::string &Text) {
  std::set<std::string> Out;
  const std::string Marker = "nimg.";
  for (size_t At = Text.find(Marker); At != std::string::npos;
       At = Text.find(Marker, At + 1)) {
    if (At > 0 && isNameChar(Text[At - 1]))
      continue; // inside a longer identifier, e.g. a file name
    size_t End = At;
    while (End < Text.size() && isNameChar(Text[End]))
      ++End;
    std::string Tok = Text.substr(At, End - At);
    while (!Tok.empty() && Tok.back() == '.')
      Tok.pop_back();
    if (Tok.size() > Marker.size())
      Out.insert(Tok);
  }
  return Out;
}

/// Static metric-name literals in \p Text: the quoted first argument of
/// the registration macros.
void collectStaticLiterals(const std::string &Text,
                           std::set<std::string> &Out) {
  for (const char *Macro : {"NIMG_COUNTER_ADD(\"", "NIMG_GAUGE_SET(\"",
                            "NIMG_HIST_RECORD(\""}) {
    const std::string M = Macro;
    for (size_t At = Text.find(M); At != std::string::npos;
         At = Text.find(M, At + 1)) {
      size_t Start = At + M.size();
      size_t End = Text.find('"', Start);
      if (End == std::string::npos)
        continue;
      std::string Name = Text.substr(Start, End - Start);
      if (Name.rfind("nimg.", 0) == 0)
        Out.insert(Name);
    }
  }
}

/// Dynamic metric families (built at runtime via NIMG_COUNTER_ADD_DYN):
/// any documented name under these prefixes is considered registered.
const std::vector<std::string> &dynamicFamilies() {
  static const std::vector<std::string> Families = {
      "nimg.profile.load",
      "nimg.build.profile_rejected",
      "nimg.merge.quarantined",
  };
  return Families;
}

struct Inventory {
  std::set<std::string> Static;
  Inventory() {
    fs::path Src = fs::path(NIMG_SOURCE_DIR) / "src";
    EXPECT_TRUE(fs::is_directory(Src)) << Src;
    for (const fs::directory_entry &E : fs::recursive_directory_iterator(Src)) {
      if (!E.is_regular_file())
        continue;
      fs::path Ext = E.path().extension();
      if (Ext != ".h" && Ext != ".cpp")
        continue;
      collectStaticLiterals(readFile(E.path()), Static);
    }
    EXPECT_GT(Static.size(), 20u)
        << "metric literal extraction looks broken";
  }

  bool known(const std::string &Tok) const {
    if (Static.count(Tok))
      return true;
    for (const std::string &Fam : dynamicFamilies())
      if (Tok == Fam || Tok.rfind(Fam + ".", 0) == 0)
        return true;
    // A family prefix of a static literal ("nimg.order.cluster" for
    // "nimg.order.cluster.runs") is fine in prose.
    for (const std::string &S : Static)
      if (S.rfind(Tok + ".", 0) == 0)
        return true;
    return false;
  }
};

const Inventory &inventory() {
  static Inventory *I = new Inventory();
  return *I;
}

std::vector<fs::path> docFiles() {
  fs::path Docs = fs::path(NIMG_SOURCE_DIR) / "docs";
  std::vector<fs::path> Out;
  if (fs::is_directory(Docs))
    for (const fs::directory_entry &E : fs::directory_iterator(Docs))
      if (E.is_regular_file() && E.path().extension() == ".md")
        Out.push_back(E.path());
  return Out;
}

} // namespace

TEST(DocsCheck, ExpectedDocsExist) {
  fs::path Docs = fs::path(NIMG_SOURCE_DIR) / "docs";
  for (const char *Name :
       {"ARCHITECTURE.md", "ORDERING.md", "OBSERVABILITY.md", "FLEET.md"})
    EXPECT_TRUE(fs::is_regular_file(Docs / Name)) << Name;
}

TEST(DocsCheck, EveryDocumentedMetricExistsInRegistry) {
  std::vector<fs::path> Files = docFiles();
  ASSERT_FALSE(Files.empty()) << "no docs/*.md found";
  for (const fs::path &File : Files) {
    std::set<std::string> Tokens = nimgTokens(readFile(File));
    for (const std::string &Tok : Tokens)
      EXPECT_TRUE(inventory().known(Tok))
          << File.filename() << " mentions unknown metric '" << Tok << "'";
  }
}

TEST(DocsCheck, EveryStaticMetricIsDocumented) {
  std::string Ref = readFile(fs::path(NIMG_SOURCE_DIR) / "docs" /
                             "OBSERVABILITY.md");
  for (const std::string &Name : inventory().Static)
    EXPECT_NE(Ref.find(Name), std::string::npos)
        << "metric '" << Name
        << "' is not documented in docs/OBSERVABILITY.md";
}

TEST(DocsCheck, ReadmeLinksTheDocs) {
  std::string Readme = readFile(fs::path(NIMG_SOURCE_DIR) / "README.md");
  for (const char *Link : {"docs/ARCHITECTURE.md", "docs/ORDERING.md",
                           "docs/OBSERVABILITY.md", "docs/FLEET.md"})
    EXPECT_NE(Readme.find(Link), std::string::npos)
        << "README.md does not link " << Link;
}

/// Names inside the backtick spans of \p Text, split at anything that is
/// not [a-z0-9_] ("`{name, status}`" names both).
std::set<std::string> backtickNames(const std::string &Text) {
  std::set<std::string> Out;
  for (size_t Open = Text.find('`'); Open != std::string::npos;) {
    size_t Close = Text.find('`', Open + 1);
    if (Close == std::string::npos)
      break;
    std::string Name;
    for (size_t I = Open + 1; I <= Close; ++I) {
      char C = Text[I];
      if ((C >= 'a' && C <= 'z') || (C >= '0' && C <= '9') || C == '_') {
        Name += C;
      } else if (!Name.empty()) {
        Out.insert(Name);
        Name.clear();
      }
    }
    Open = Text.find('`', Close + 1);
  }
  return Out;
}

/// The startup report's field table is its public schema. Every section
/// (family prefix before any '.') of the fully populated fixture reports
/// must have a field-group row "- `<section>` —" in OBSERVABILITY.md, and
/// every key the JSON form carries must be named in a backtick span of
/// that row. Keys of CSV-only rows are data (an issue slug, a member's
/// path), so those rows add only their section.
TEST(DocsCheck, EveryReportSectionIsDocumented) {
  nimg::obs::StartupReport Reports[] = {nimg::fixtures::bareRunReport(),
                                        nimg::fixtures::buildReport(),
                                        nimg::fixtures::fleetStormReport()};
  Reports[2].includeMetrics();
  std::map<std::string, std::set<std::string>> Keys;
  for (const nimg::obs::StartupReport &Report : Reports)
    for (const nimg::obs::ReportRow &Row : Report.rows()) {
      std::set<std::string> &Section =
          Keys[Row.Section.substr(0, Row.Section.find('.'))];
      if (Row.Form != nimg::obs::ReportForm::CsvOnly)
        Section.insert(Row.Key);
    }
  ASSERT_EQ(Keys.size(), 11u) << "the fixture reports lost a section";

  std::string Ref = readFile(fs::path(NIMG_SOURCE_DIR) / "docs" /
                             "OBSERVABILITY.md");
  for (const auto &[Sec, Names] : Keys) {
    size_t At = Ref.find("- `" + Sec + "` —");
    if (At == std::string::npos) {
      ADD_FAILURE() << "startup-report section '" << Sec
                    << "' is missing its field-group row \"- `" << Sec
                    << "` — ...\" in docs/OBSERVABILITY.md";
      continue;
    }
    // The row runs to the next list item or the end of the list.
    size_t End = std::min(Ref.find("\n- ", At), Ref.find("\n\n", At));
    std::set<std::string> Named = backtickNames(Ref.substr(At, End - At));
    for (const std::string &Key : Names)
      EXPECT_TRUE(Named.count(Key))
          << "startup-report key '" << Key << "' is not named in the \"- `"
          << Sec << "` —\" row of docs/OBSERVABILITY.md";
  }
}
