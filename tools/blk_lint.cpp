// blk-lint: full static analysis of a mini-Fortran program — structural
// lint, the parallel-safety certifier with its independent race re-check,
// and the dataflow checkers (dead stores, uninitialized region reads) —
// rendered as text, JSON, or SARIF 2.1.0.
//
//   blk-lint [options] file.f...          (or `-` / no file for stdin)
//
// Options:
//   --assume FACT     add a symbolic fact for the proofs; FACT is
//                     `lhs<=rhs`, `lhs>=rhs` or `lhs=rhs` over parameters
//                     and integer literals (e.g. --assume 'N=500')
//   --pedantic        also report what could not be proven (notes)
//   --Werror          treat warnings as failures (exit 1)
//   --quiet           print nothing, just set the exit status
//   --format=FMT      text (default), json, or sarif
//
// Exit status:
//   0  every file analyzes clean (no errors; no warnings, or warnings
//      without --Werror)
//   1  warnings found and --Werror given
//   2  analysis errors, unreadable input, or compile failures
//   3  usage errors (unknown option, bad --assume, bad --format)
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/assume.hpp"
#include "ir/error.hpp"
#include "lang/parser.hpp"
#include "pm/spec.hpp"
#include "sa/sa.hpp"
#include "verify/diagnostic.hpp"

namespace {

using blk::verify::Diagnostic;
using blk::verify::Severity;

struct FileResult {
  std::string label;
  blk::verify::Report report;
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_text(const std::vector<FileResult>& results) {
  for (const auto& fr : results) {
    for (const auto& d : fr.report.diags)
      std::cout << fr.label << ": " << d.to_string() << "\n";
    std::cout << fr.label << ": " << fr.report.error_count()
              << " error(s), " << fr.report.warning_count()
              << " warning(s)\n";
  }
}

void print_json(const std::vector<FileResult>& results) {
  std::cout << "{\n  \"files\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& fr = results[i];
    std::cout << "    {\n      \"file\": \"" << json_escape(fr.label)
              << "\",\n      \"errors\": " << fr.report.error_count()
              << ",\n      \"warnings\": " << fr.report.warning_count()
              << ",\n      \"diagnostics\": [\n";
    for (std::size_t j = 0; j < fr.report.diags.size(); ++j) {
      const Diagnostic& d = fr.report.diags[j];
      std::cout << "        {\"severity\": \""
                << blk::verify::to_string(d.severity) << "\", \"code\": \""
                << json_escape(d.code) << "\", \"message\": \""
                << json_escape(d.message) << "\", \"where\": \""
                << json_escape(d.where)
                << "\", \"subscript\": " << d.subscript << "}"
                << (j + 1 < fr.report.diags.size() ? "," : "") << "\n";
    }
    std::cout << "      ]\n    }"
              << (i + 1 < results.size() ? "," : "") << "\n";
  }
  std::cout << "  ]\n}\n";
}

const char* sarif_level(Severity s) {
  switch (s) {
    case Severity::Error: return "error";
    case Severity::Warning: return "warning";
    case Severity::Note: return "note";
  }
  return "none";
}

void print_sarif(const std::vector<FileResult>& results) {
  // Rule table: one reportingDescriptor per distinct diagnostic code.
  std::map<std::string, std::size_t> rules;
  for (const auto& fr : results)
    for (const auto& d : fr.report.diags)
      rules.emplace(d.code, rules.size());

  std::cout << "{\n"
            << "  \"$schema\": \"https://json.schemastore.org/"
               "sarif-2.1.0.json\",\n"
            << "  \"version\": \"2.1.0\",\n"
            << "  \"runs\": [\n    {\n"
            << "      \"tool\": {\n        \"driver\": {\n"
            << "          \"name\": \"blk-lint\",\n"
            << "          \"rules\": [\n";
  std::size_t k = 0;
  for (const auto& [code, idx] : rules) {
    (void)idx;
    std::cout << "            {\"id\": \"" << json_escape(code) << "\"}"
              << (++k < rules.size() ? "," : "") << "\n";
  }
  std::cout << "          ]\n        }\n      },\n"
            << "      \"results\": [\n";
  std::size_t total = 0;
  for (const auto& fr : results) total += fr.report.diags.size();
  std::size_t n = 0;
  for (const auto& fr : results) {
    for (const auto& d : fr.report.diags) {
      std::cout << "        {\n          \"ruleId\": \""
                << json_escape(d.code) << "\",\n          \"level\": \""
                << sarif_level(d.severity)
                << "\",\n          \"message\": {\"text\": \""
                << json_escape(d.message)
                << "\"},\n          \"locations\": [{\n"
                << "            \"physicalLocation\": {\"artifactLocation\": "
                   "{\"uri\": \""
                << json_escape(fr.label) << "\"}},\n"
                << "            \"logicalLocations\": [{"
                   "\"fullyQualifiedName\": \""
                << json_escape(d.where) << "\"}]\n          }]\n        }"
                << (++n < total ? "," : "") << "\n";
    }
  }
  std::cout << "      ]\n    }\n  ]\n}\n";
}

void usage(std::ostream& os) {
  os << "usage: blk-lint [--assume FACT]... [--pedantic] [--Werror]\n"
     << "                [--quiet] [--format=text|json|sarif] [file.f ...]\n"
     << "\n"
     << "Runs the structural lint, the parallel-safety certifier (with an\n"
     << "independent write-write race re-check of every parallel verdict),\n"
     << "and the dataflow checkers over each file.\n"
     << "\n"
     << "exit status:\n"
     << "  0  clean (warnings allowed unless --Werror)\n"
     << "  1  warnings found and --Werror given\n"
     << "  2  analysis errors or compile failures\n"
     << "  3  usage errors\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  blk::analysis::Assumptions ctx;
  bool pedantic = false;
  bool werror = false;
  bool quiet = false;
  std::string format = "text";

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--pedantic") {
      pedantic = true;
    } else if (arg == "--Werror") {
      werror = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--assume") {
      if (i + 1 >= argc) {
        std::cerr << "blk-lint: --assume needs an argument\n";
        return 3;
      }
      try {
        blk::pm::add_fact(ctx, argv[++i]);
      } catch (const std::exception& e) {
        std::cerr << "blk-lint: " << e.what() << "\n";
        return 3;
      }
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif") {
        std::cerr << "blk-lint: unknown format '" << format
                  << "' (text, json, sarif)\n";
        return 3;
      }
    } else if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::cerr << "blk-lint: unknown option '" << arg
                << "' (see --help)\n";
      return 3;
    } else {
      files.push_back(std::move(arg));
    }
  }
  if (files.empty()) files.emplace_back("-");

  std::vector<FileResult> results;
  bool any_error = false;
  bool any_warning = false;
  for (const std::string& file : files) {
    const std::string label = file == "-" ? "<stdin>" : file;
    std::string source;
    try {
      source = blk::lang::read_source(file);
    } catch (const blk::Error& e) {
      std::cerr << "blk-lint: " << e.what() << "\n";
      return 2;
    }

    blk::lang::CompileResult compiled;
    try {
      compiled = blk::lang::compile(source);
    } catch (const std::exception& e) {
      std::cerr << label << ": compile error: " << e.what() << "\n";
      return 2;
    }

    blk::sa::SaResult sa = blk::sa::analyze(
        compiled.program, {.ctx = &ctx, .pedantic = pedantic});
    any_error = any_error || sa.report.error_count() > 0;
    any_warning = any_warning || sa.report.warning_count() > 0;
    results.push_back({label, std::move(sa.report)});
  }

  if (!quiet) {
    if (format == "json")
      print_json(results);
    else if (format == "sarif")
      print_sarif(results);
    else
      print_text(results);
  }
  if (any_error) return 2;
  if (any_warning && werror) return 1;
  return 0;
}
