/**
 * @file
 * Build provenance stamped at configure time: git revision (describe
 * --always --dirty), compiler id + version and CMake build type. The
 * values are constant for a given build tree, so emitting them in
 * output files keeps byte-compare determinism tests valid; like
 * ckpt_hit and host_sec they are host-side metadata, excluded from
 * cross-build determinism comparisons.
 */

#ifndef MSSR_COMMON_BUILD_INFO_HH
#define MSSR_COMMON_BUILD_INFO_HH

#include <string>

namespace mssr
{

/** Git revision of the source tree ("unknown" outside a checkout). */
const char *buildGitRevision();

/** Compiler that produced this binary, "GNU 13.2.0" style. */
const char *buildCompiler();

/** CMake build type ("RelWithDebInfo", "Debug", ...). */
const char *buildType();

/** One-line human rendering: "<git> (<compiler>, <build type>)". */
const char *buildInfoLine();

/** The "build_info" object of every JSON output that carries one:
 *  {"git": ..., "compiler": ..., "build_type": ...}. */
const std::string &buildInfoJson();

} // namespace mssr

#endif // MSSR_COMMON_BUILD_INFO_HH
