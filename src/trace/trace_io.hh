/**
 * @file
 * Trace serialization.
 *
 * Two interchange formats are supported:
 *
 *  - a human-readable text format, one reference per line:
 *        <kind> <hex word address> <pid>
 *    where kind is I, L or S (the classic "din" dialect extended
 *    with a process id column);
 *
 *  - the classic uniprocess Dinero "din" format.
 *
 * The binary format, CTTRACE2, lives in trace/trace_v2.hh; loadFile()
 * and saveFile() pick among all three.  Text and CTTRACE2 round-trip
 * exactly, including the warm-start boundary, which is carried in a
 * header or comment line.
 */

#ifndef CACHETIME_TRACE_TRACE_IO_HH
#define CACHETIME_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "trace/trace.hh"

namespace cachetime
{

class RefSource;

/** Write @p trace to @p os in the text format. */
void writeText(const Trace &trace, std::ostream &os);

/**
 * Parse a text-format trace from @p is.
 *
 * Lines beginning with '#' are comments, except the optional
 * "#warmstart N" directive.  Malformed lines are a fatal error.
 */
Trace readText(std::istream &is, const std::string &name = "trace");

/**
 * Parse a classic Dinero "din" format trace: one access per line,
 * `<label> <hex byte address>` where label 0 = data read, 1 = data
 * write, 2 = instruction fetch (other labels are ignored, matching
 * dineroIV).  Byte addresses are converted to word addresses and
 * all references get pid 0 (the format is uniprocess).
 */
Trace readDinero(std::istream &is, const std::string &name = "din");

/**
 * Write @p trace in the Dinero din format.  The format is
 * uniprocess: pids are dropped.  A trace carrying more than one
 * distinct pid draws a warning, or a fatal error when
 * @p strict_pids is set, because it cannot round-trip.
 */
void writeDinero(const Trace &trace, std::ostream &os,
                 bool strict_pids = false);

/** @return a workload name derived from @p path (basename, no ext). */
std::string workloadNameFromPath(const std::string &path);

/**
 * Load a trace from @p path, sniffing the format by magic
 * (CTTRACE2) or extension (".din"), defaulting to text.  A file
 * carrying any other CTTRACE magic is a fatal error.
 */
Trace loadFile(const std::string &path);

/**
 * Open @p path as a streaming RefSource.  Format-v2 files stream
 * straight off disk through an mmap window (bounded RSS however
 * long the trace); every other format is materialized through
 * loadFile() and adapted, so the caller gets one uniform interface.
 */
std::unique_ptr<RefSource> openRefSource(const std::string &path);

/**
 * Save @p trace to @p path, picking the format by suffix: ".din" is
 * Dinero, ".txt" is text, anything else is CTTRACE2.
 */
void saveFile(const Trace &trace, const std::string &path);

} // namespace cachetime

#endif // CACHETIME_TRACE_TRACE_IO_HH
