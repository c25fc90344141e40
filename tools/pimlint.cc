/**
 * @file
 * pimlint: standalone static checker for mini-ISA assembly files.
 *
 * Assembles each input file and runs the full pimcheck static
 * verifier over it (see src/pimsim/analysis/verify.h): uninitialized
 * registers, branch validity, unreachable code, statically-known
 * WRAM/MRAM bounds, DMA legality, and barrier balance. Two deeper
 * passes are opt-in: `--cost` computes the static cycle-bound
 * certificate (bound.h) and `--interleave N` runs the bounded
 * exhaustive tasklet-interleaving explorer (interleave.h).
 *
 *   pimlint [options] <file.s ...>      ('-' reads stdin)
 *
 * Options:
 *   --wram BYTES      scratchpad size checked against (default 65536)
 *   --mram BYTES      MRAM bank size (default 67108864)
 *   --max-dma BYTES   per-transfer DMA cap (default 2048)
 *   --tasklets N      launch size for --cost, 1..24 (default 1)
 *   --cost            compute the static [BCET, WCET] cycle bound;
 *                     an unbounded kernel is an error
 *   --interleave N    explore all tasklet interleavings at N
 *                     tasklets, 1..24; races and deadlocks are
 *                     errors, an inconclusive exploration is a
 *                     warning
 *   --json            machine-readable output (schema in
 *                     docs/analysis.md); implies -q for text
 *   --werror          treat warnings as errors
 *   -q, --quiet       suppress diagnostics, exit status only
 *
 * Numbers follow pimsim/cli.h: unsigned C notation (a 32-bit count
 * for --wram and --max-dma, 64-bit for --mram).
 *
 * Exit status: 0 clean (warnings allowed unless --werror), 1 when any
 * error diagnostic fired, 2 on usage / I/O / assembly errors (a
 * signed, malformed or out-of-range number is a usage error).
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "pimsim/analysis/certificate.h"
#include "pimsim/analysis/loops.h"
#include "pimsim/analysis/verify.h"
#include "pimsim/cli.h"
#include "pimsim/isa.h"

namespace {

void
usage()
{
    std::cerr
        << "usage: pimlint [--wram BYTES] [--mram BYTES]"
           " [--max-dma BYTES] [--tasklets N] [--cost]"
           " [--interleave N] [--json] [--werror] [-q] <file.s ...|->\n";
}

/** "path/to/llut.s" -> "llut": the certificate's kernel name. */
std::string
kernelName(const std::string& file)
{
    if (file == "-")
        return "stdin";
    size_t slash = file.find_last_of('/');
    std::string base =
        slash == std::string::npos ? file : file.substr(slash + 1);
    size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0)
        base = base.substr(0, dot);
    return base;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace tpl::sim;

    check::VerifyOptions options;
    bool werror = false;
    bool quiet = false;
    bool wantCost = false;
    bool wantJson = false;
    uint32_t tasklets = 1;
    uint32_t interleaveTasklets = 0; // 0 = interleaving not requested
    std::vector<std::string> files;

    tpl::cli::Flags flags("pimlint", argc, argv, usage);
    while (flags.next()) {
        const std::string& arg = flags.arg();
        if (arg == "--wram") {
            flags.u32(options.wramBytes);
        } else if (arg == "--mram") {
            flags.u64(options.mramBytes);
        } else if (arg == "--max-dma") {
            flags.u32(options.maxDmaBytes);
        } else if (arg == "--tasklets") {
            flags.parse(tasklets, tpl::cli::parseTasklets);
        } else if (arg == "--cost") {
            wantCost = true;
        } else if (arg == "--interleave") {
            flags.parse(interleaveTasklets, tpl::cli::parseTasklets);
        } else if (arg == "--json") {
            wantJson = true;
        } else if (arg == "--werror") {
            werror = true;
        } else if (arg == "-q" || arg == "--quiet") {
            quiet = true;
        } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
            flags.unknown();
        } else {
            files.push_back(arg);
        }
    }
    if (files.empty()) {
        usage();
        return 2;
    }

    bool anyError = false;
    uint64_t errorCount = 0;
    uint64_t warningCount = 0;
    std::string json = "{\n  \"files\": [";
    bool firstFile = true;
    for (const std::string& file : files) {
        std::string source;
        if (file == "-") {
            std::ostringstream buf;
            buf << std::cin.rdbuf();
            source = buf.str();
        } else {
            std::ifstream in(file);
            if (!in) {
                std::cerr << "pimlint: cannot open '" << file << "'\n";
                return 2;
            }
            std::ostringstream buf;
            buf << in.rdbuf();
            source = buf.str();
        }

        Program program;
        try {
            program = assemble(source);
        } catch (const AsmError& e) {
            std::cerr << file << ": " << e.what() << "\n";
            return 2;
        }

        std::map<uint32_t, uint64_t> trips =
            check::parseTripAnnotations(source);
        options.tripAnnotations = trips;
        auto diags = check::verify(program, options);

        check::KernelCertificate cert;
        cert.kernel = kernelName(file);
        if (wantCost) {
            check::BoundOptions bopts;
            bopts.tasklets = tasklets;
            bopts.tripAnnotations = trips;
            cert.bound = check::computeBound(program, bopts);
            if (!cert.bound.bounded) {
                check::Diagnostic d;
                d.kind = check::CheckKind::UnboundedCost;
                d.severity = check::Severity::Error;
                d.line = 0;
                d.message =
                    "no finite cycle bound: " + cert.bound.reason;
                diags.push_back(d);
            }
        }
        if (interleaveTasklets > 0) {
            check::InterleaveOptions iopts;
            iopts.tasklets = interleaveTasklets;
            iopts.wramBytes = options.wramBytes;
            iopts.mramBytes = options.mramBytes;
            check::InterleaveExplorer explorer(program, iopts);
            check::InterleaveResult res = explorer.explore();
            cert.interleaveChecked = true;
            cert.interleaveTasklets = interleaveTasklets;
            cert.interleave = res.verdict;
            cert.interleavePhases = res.phases;
            for (const auto& d : res.diags)
                diags.push_back(d);
            if (res.verdict ==
                check::InterleaveVerdict::Inconclusive) {
                check::Diagnostic d;
                d.kind = check::CheckKind::TaskletRace;
                d.severity = check::Severity::Warning;
                d.line = 0;
                d.message = "interleaving exploration inconclusive" +
                            (res.note.empty() ? std::string()
                                              : ": " + res.note);
                diags.push_back(d);
            }
        }

        for (const auto& diag : diags) {
            if (!quiet && !wantJson)
                std::cout << file << ": " << check::format(diag)
                          << "\n";
            if (diag.severity == check::Severity::Error)
                ++errorCount;
            else if (diag.severity == check::Severity::Warning)
                ++warningCount;
            if (diag.severity == check::Severity::Error ||
                (werror && diag.severity == check::Severity::Warning))
                anyError = true;
        }
        if (!quiet && !wantJson && wantCost && cert.bound.bounded) {
            std::cout << file << ": cost: ["
                      << cert.bound.bcet << ", " << cert.bound.wcet
                      << "] cycles @ " << cert.bound.tasklets
                      << " tasklet(s)"
                      << (cert.bound.usedAnnotation
                              ? " (uses @trip annotations)"
                              : "")
                      << (cert.bound.usedTripUpper
                              ? " (break-loop trip upper bound; "
                                "BCET is the loop-skipping path)"
                              : "")
                      << "\n";
        }
        if (!quiet && !wantJson && cert.interleaveChecked) {
            std::cout << file << ": interleave: "
                      << check::toString(cert.interleave) << " @ "
                      << cert.interleaveTasklets << " tasklets, "
                      << cert.interleavePhases << " phase(s)\n";
        }

        if (wantJson) {
            std::string entry = "\n    {\n      \"file\": \"" +
                                tpl::jsonEscape(file) + "\",\n";
            entry += "      \"diagnostics\": [";
            for (size_t d = 0; d < diags.size(); ++d) {
                entry += std::string(d ? "," : "") +
                         "\n        {\"kind\": \"" +
                         check::toString(diags[d].kind) +
                         "\", \"severity\": \"" +
                         check::toString(diags[d].severity) +
                         "\", \"line\": " +
                         std::to_string(diags[d].line) +
                         ", \"message\": \"" +
                         tpl::jsonEscape(diags[d].message) + "\"}";
            }
            entry += diags.empty() ? "],\n" : "\n      ],\n";
            if (wantCost || cert.interleaveChecked) {
                // serializeCertificate emits a multi-line document;
                // re-indent it to sit inside the files[] entry.
                std::string doc = check::serializeCertificate(cert);
                std::string indented;
                indented.reserve(doc.size());
                for (size_t p = 0; p < doc.size(); ++p) {
                    indented += doc[p];
                    if (doc[p] == '\n' && p + 1 < doc.size())
                        indented += "      ";
                }
                while (!indented.empty() &&
                       (indented.back() == '\n' ||
                        indented.back() == ' '))
                    indented.pop_back();
                entry += "      \"certificate\": " + indented + "\n";
            } else {
                entry += "      \"certificate\": null\n";
            }
            entry += "    }";
            json += std::string(firstFile ? "" : ",") + entry;
            firstFile = false;
        }
    }
    if (wantJson) {
        json += "\n  ],\n";
        json += "  \"errors\": " + std::to_string(errorCount) + ",\n";
        json += "  \"warnings\": " + std::to_string(warningCount) +
                "\n}\n";
        std::cout << json;
    }
    if (anyError) {
        // Summary so callers (and CI logs) see the totals even when
        // individual diagnostics scrolled past or -q / --json was
        // given (stderr, so JSON output on stdout stays parseable).
        std::cerr << "pimlint: " << errorCount << " error(s), "
                  << warningCount << " warning(s)";
        if (werror && errorCount == 0)
            std::cerr << " (warnings treated as errors)";
        std::cerr << "\n";
    }
    return anyError ? 1 : 0;
}
