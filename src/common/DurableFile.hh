/**
 * @file
 * Crash-durable atomic file replacement: write the content to a
 * temporary file in the target's directory, fsync it, rename it
 * over the target, then fsync the directory. The rename gives
 * atomicity (a reader never sees a torn file); the two fsyncs give
 * durability (a power loss after the call returns cannot roll the
 * file back to empty or to the previous content's length with new
 * metadata — the failure mode plain write-then-rename leaves open,
 * because the rename can reach disk before the data does).
 *
 * Used for sweep output documents, hoard objects and lease
 * renewals.
 */

#ifndef QC_COMMON_DURABLE_FILE_HH
#define QC_COMMON_DURABLE_FILE_HH

#include <string>

namespace qc {

/**
 * Atomically and durably replace `path` with `content` via
 * write + fsync + rename + directory fsync. `tmpSuffix` names the
 * temporary (`path + tmpSuffix`); concurrent writers of the same
 * target must use distinct suffixes. Throws std::runtime_error on
 * I/O failure (the temporary is cleaned up).
 */
void writeFileDurable(const std::string &path,
                      const std::string &content,
                      const std::string &tmpSuffix = ".tmp");

/**
 * writeFileDurable, but the temporary is truncated to
 * `tornBytes` before the rename — a deliberately torn commit for
 * fault-injection tests of reader-side validation. Never use
 * outside fault injection.
 */
void writeFileTorn(const std::string &path,
                   const std::string &content, std::size_t tornBytes,
                   const std::string &tmpSuffix = ".tmp");

/** fsync the directory containing `path` (best-effort). */
void syncParentDir(const std::string &path);

} // namespace qc

#endif // QC_COMMON_DURABLE_FILE_HH
