/**
 * @file
 * Crash-safe file publishing: the one mechanism behind the sweep's
 * result cache and the fuzzer's repro bundles. A writer puts the whole
 * text in "<path>.tmp.<pid>", checks that every byte reached the file,
 * and renames it over the target, so a reader sees either the old file
 * or the complete new one. A process killed between the two steps
 * leaves only its tmp file, which scrubStaleTmpFiles() removes at the
 * next startup.
 */

#ifndef VPIR_COMMON_FILE_IO_HH
#define VPIR_COMMON_FILE_IO_HH

#include <string>

namespace vpir
{

/**
 * Atomically replace @p path with @p text (tmp file + rename). On any
 * failure (open, short write, rename) the tmp file is removed, @p path
 * is left as it was, and @p err names the failing step.
 */
bool publishFile(const std::string &path, const std::string &text,
                 std::string &err);

/** Remove the "*.tmp.<pid>" files publishFile() left in @p dir when
 *  its process died mid-publish. @return number removed. */
unsigned scrubStaleTmpFiles(const std::string &dir);

/** Read the whole of @p path into @p out. @return false if the file
 *  cannot be opened or read. */
bool readFile(const std::string &path, std::string &out);

} // namespace vpir

#endif // VPIR_COMMON_FILE_IO_HH
