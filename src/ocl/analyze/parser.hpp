// Recursive-descent parser for the generated-kernel OpenCL-C subset, over
// the tokens of lexer.hpp.
#pragma once

#include <string>

#include "ocl/analyze/ast.hpp"

namespace alsmf::ocl::analyze {

/// Parses a whole kernel source file: the preamble typedef/defines, helper
/// functions and every __kernel. Preprocessor lines are recorded in
/// TranslationUnit::defines and otherwise skipped (the generator only uses
/// object-like constants). Throws ParseError on unsupported constructs.
TranslationUnit parse_translation_unit(const std::string& source);

}  // namespace alsmf::ocl::analyze
