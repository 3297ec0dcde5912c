#ifndef NDE_COMMON_STRING_UTIL_H_
#define NDE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace nde {

/// Splits `text` on `delimiter`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> SplitString(std::string_view text, char delimiter);

/// Joins `parts` with `separator`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Case-sensitive prefix/suffix tests.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view text);

/// Levenshtein edit distance between two strings (O(|a|*|b|) time,
/// O(min(|a|,|b|)) space). Used by the fuzzy-join pipeline operator.
size_t EditDistance(std::string_view a, std::string_view b);

/// Shortest "%.{p}g" spelling (smallest p in 1..17) that strtod parses back
/// to exactly `value`, so a reader of the text gets the same bits; NaN is
/// spelled "%.17g". The search starts at the shortest round-trip digit count
/// from std::to_chars — no smaller precision can round-trip — so it costs
/// one or two tries instead of up to seventeen.
std::string FormatDoubleShortest(double value);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace nde

#endif  // NDE_COMMON_STRING_UTIL_H_
